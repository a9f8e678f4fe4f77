import logging

import pytest

from wintrack import motio
from wintrack.geometry import BoundingBox
from wintrack.motio import (
    Detection,
    MotFileError,
    MotRecord,
    SequenceData,
    read_detections,
    read_ground_truth,
    read_results,
    write_detections,
    write_ground_truth,
    write_results,
)
from wintrack.synth import bundled_scenario, generate


def td(frame, track_id, x, y, w, h, conf=0.9):
    return MotRecord(frame, track_id, BoundingBox(x, y, w, h), conf)


class TestReadDetections:
    def test_field_mapping(self, tmp_path):
        p = tmp_path / "det.txt"
        p.write_text("1,-1,10,20,30,40,0.9,-1,-1,-1\n")
        out = read_detections(p)
        assert list(out) == [1]
        d = out[1][0]
        assert (d.box.x, d.box.y, d.box.w, d.box.h) == (10, 20, 30, 40)
        assert d.confidence == 0.9

    def test_empty_file(self, tmp_path):
        p = tmp_path / "det.txt"
        p.write_text("")
        assert read_detections(p) == {}

    def test_short_row_names_line(self, tmp_path):
        p = tmp_path / "det.txt"
        p.write_text("1,-1,10,20,30,40\n")
        with pytest.raises(MotFileError, match="line 1"):
            read_detections(p)

    def test_non_numeric_field_names_line(self, tmp_path):
        p = tmp_path / "det.txt"
        p.write_text("1,-1,10,20,30,40,0.9,-1,-1,-1\n2,-1,10,20,xx,40,0.9,-1,-1,-1\n")
        with pytest.raises(MotFileError, match="line 2"):
            read_detections(p)

    @pytest.mark.parametrize("row, field", [
        ("1,-1,10,20,inf,40,0.9", "w"),
        ("1,-1,nan,20,30,40,0.9", "x"),
        ("1,-1,10,20,30,40,nan", "conf"),
        ("1,-1,10,20,30,40,-inf", "conf"),
        ("inf,-1,10,20,30,40,0.9", "frame"),
        ("nan,-1,10,20,30,40,0.9", "frame"),
    ])
    def test_non_finite_field_names_path_line_and_field(self, tmp_path, row, field):
        p = tmp_path / "det.txt"
        p.write_text("1,-1,10,20,30,40,0.9\n" + row + "\n")
        with pytest.raises(MotFileError, match=rf"det\.txt: line 2: field '{field}'"):
            read_detections(p)

    def test_confidence_clamped_with_warning(self, tmp_path, caplog):
        p = tmp_path / "det.txt"
        p.write_text("1,-1,10,20,30,40,1.7,-1,-1,-1\n1,-1,60,20,30,40,-0.2,-1,-1,-1\n")
        with caplog.at_level(logging.WARNING, logger="wintrack.motio"):
            out = read_detections(p)
        assert [d.confidence for d in out[1]] == [1.0, 0.0]
        assert "clamped 2" in caplog.text

    def test_non_positive_size_rejected_with_diagnostic(self, tmp_path, caplog):
        p = tmp_path / "det.txt"
        p.write_text("1,-1,10,20,0,40,0.9,-1,-1,-1\n1,-1,10,20,30,40,0.9,-1,-1,-1\n")
        with caplog.at_level(logging.WARNING, logger="wintrack.motio"):
            out = read_detections(p)
        assert len(out[1]) == 1
        assert "rejected" in caplog.text

    def test_extra_columns_ignored(self, tmp_path):
        p = tmp_path / "det.txt"
        p.write_text("1,-1,10,20,30,40,0.9,-1,-1,-1,5,6,7\n")
        assert len(read_detections(p)[1]) == 1

    def test_crlf_accepted(self, tmp_path):
        p = tmp_path / "det.txt"
        p.write_bytes(b"1,-1,10,20,30,40,0.9,-1,-1,-1\r\n")
        assert len(read_detections(p)[1]) == 1

    def test_frames_ascend_and_keep_file_order(self, tmp_path):
        p = tmp_path / "det.txt"
        p.write_text("2,-1,10,20,30,40,0.9\n1,-1,60,20,30,40,0.5\n"
                     "1,-1,10,20,30,40,0.7\n")
        out = read_detections(p)
        assert list(out) == [1, 2]
        assert [d.confidence for d in out[1]] == [0.5, 0.7]

    def test_grouping_preserves_record_count(self, tmp_path):
        p = tmp_path / "det.txt"
        rows = [f"{f},-1,{10 * i},20,30,40,0.5,-1,-1,-1"
                for f in (1, 2, 3) for i in range(1, 4)]
        p.write_text("\n".join(rows) + "\n")
        out = read_detections(p)
        assert sum(len(v) for v in out.values()) == 9


class TestReadGroundTruth:
    def test_basic_row(self, tmp_path):
        p = tmp_path / "gt.txt"
        p.write_text("1,3,0,0,10,10,1,1,1.0\n")
        seq = read_ground_truth(p)
        assert len(seq.records) == 1
        assert seq.records[0].track_id == 3

    def test_flag_zero_parsed_but_not_evaluable(self, tmp_path):
        p = tmp_path / "gt.txt"
        p.write_text("1,3,0,0,10,10,0,1,1.0\n2,3,0,0,10,10,1,1,1.0\n")
        seq = read_ground_truth(p)
        assert len(seq.records) == 2
        assert [r.frame for r in seq.evaluable()] == [2]

    def test_non_person_class_not_evaluable(self, tmp_path):
        p = tmp_path / "gt.txt"
        p.write_text("1,3,0,0,10,10,1,2,1.0\n")
        seq = read_ground_truth(p)
        assert seq.evaluable() == []

    def test_duplicate_frame_id_rejected(self, tmp_path):
        p = tmp_path / "gt.txt"
        p.write_text("1,3,0,0,10,10,1,1,1.0\n1,3,5,5,10,10,1,1,1.0\n")
        with pytest.raises(MotFileError, match="duplicate"):
            read_ground_truth(p)

    @pytest.mark.parametrize("row, field", [
        ("1,3,0,0,10,inf,1,1,1.0", "h"),
        ("1,3,0,0,10,10,1,1,nan", "visibility"),
        ("1,inf,0,0,10,10,1,1,1.0", "id"),
    ])
    def test_non_finite_field_rejected(self, tmp_path, row, field):
        p = tmp_path / "gt.txt"
        p.write_text(row + "\n")
        with pytest.raises(MotFileError, match=rf"gt\.txt: line 1: field '{field}'"):
            read_ground_truth(p)

    def test_missing_tail_columns_rejected(self, tmp_path):
        p = tmp_path / "gt.txt"
        p.write_text("1,3,0,0,10,10,1\n")
        with pytest.raises(MotFileError, match="at least 9"):
            read_ground_truth(p)


class TestMotRecord:
    def test_track_id_must_be_positive(self):
        with pytest.raises(ValueError, match="track id must be >= 1, got 0"):
            MotRecord(1, 0, BoundingBox(0.0, 0.0, 10.0, 10.0), 0.5)


class TestReadResults:
    def test_ids_must_be_positive(self, tmp_path):
        p = tmp_path / "res.txt"
        p.write_text("1,-1,10,20,30,40,0.9,-1,-1,-1\n")
        with pytest.raises(MotFileError, match=r"res\.txt: line 1: track id"):
            read_results(p)

    def test_records_are_ordered_by_frame_then_id(self, tmp_path):
        p = tmp_path / "res.txt"
        p.write_text("2,1,10,20,30,40,0.9\n1,3,10,20,30,40,0.9\n"
                     "1,2,60,20,30,40,0.9\n")
        assert [(r.frame, r.track_id) for r in read_results(p).records] == [
            (1, 2), (1, 3), (2, 1)]

    def test_nan_confidence_rejected(self, tmp_path):
        p = tmp_path / "res.txt"
        p.write_text("1,1,10,20,30,40,nan,-1,-1,-1\n")
        with pytest.raises(MotFileError, match=r"res\.txt: line 1: field 'conf'"):
            read_results(p)

    def test_round_trips_written_results(self, tmp_path):
        p = tmp_path / "res.txt"
        rows = [td(1, 1, 10.25, 20.5, 30.0, 40.75),
                td(1, 2, 110.0, 20.0, 30.0, 40.0, conf=0.5),
                td(2, 1, 11.25, 21.5, 30.0, 40.75)]
        write_results(p, rows)
        seq = read_results(p)
        assert len(seq.records) == 3
        r = seq.records[0]
        assert (r.box.x, r.box.y, r.box.w, r.box.h) == (10.25, 20.5, 30.0, 40.75)
        assert r.confidence == 0.9


class TestWriteResults:
    def test_single_line_format(self, tmp_path):
        p = tmp_path / "res.txt"
        write_results(p, [td(1, 2, 10.0, 20.0, 30.0, 40.0, conf=0.875)])
        assert p.read_text() == "1,2,10.00,20.00,30.00,40.00,0.875000,-1,-1,-1\n"

    def test_unsorted_input_rejected(self, tmp_path):
        p = tmp_path / "res.txt"
        rows = [td(2, 1, 10, 20, 30, 40), td(1, 1, 10, 20, 30, 40)]
        with pytest.raises(ValueError, match="sorted"):
            write_results(p, rows)

    def test_duplicate_key_rejected(self, tmp_path):
        p = tmp_path / "res.txt"
        rows = [td(1, 1, 10, 20, 30, 40), td(1, 1, 11, 20, 30, 40)]
        with pytest.raises(ValueError, match="sorted"):
            write_results(p, rows)

    def test_write_read_write_is_byte_stable(self, tmp_path):
        rows = [td(1, 1, 10.333, 20.666, 30.111, 40.999, conf=0.123456),
                td(2, 1, 11.001, 21.0, 30.0, 41.0, conf=0.999999),
                td(2, 7, 0.005, 0.004, 12.345, 9.875, conf=0.5)]
        first = tmp_path / "a.txt"
        second = tmp_path / "b.txt"
        write_results(first, rows)
        write_results(second, read_results(first).records)
        assert first.read_bytes() == second.read_bytes()


class TestSynthFilesRoundTrip:
    def test_generated_ground_truth_passes_validation(self, tmp_path):
        gt, dets = generate(bundled_scenario("weave"))
        gt_path = tmp_path / "gt.txt"
        det_path = tmp_path / "det.txt"
        write_ground_truth(gt_path, gt)
        write_detections(det_path, dets)
        seq = read_ground_truth(gt_path)
        assert len(seq.records) == len(gt.records)
        reread = read_detections(det_path)
        assert sum(len(v) for v in reread.values()) == sum(len(v) for v in dets.values())


class TestRowCodec:
    @pytest.mark.parametrize("id_text, problem", [
        ("abc", "is not numeric"),
        ("2.5", "must be an integer"),
        ("inf", "must be finite"),
    ])
    def test_detection_id_column_is_checked(self, tmp_path, id_text, problem):
        p = tmp_path / "det.txt"
        p.write_text(f"1,{id_text},10,20,30,40,0.9\n")
        with pytest.raises(MotFileError, match=rf"det\.txt: line 1: field 'id' {problem}"):
            read_detections(p)

    @pytest.mark.parametrize("reader, row, field", [
        (read_detections, "0,-1,nan,20,30,40,0.9", "x"),
        (read_results, "0,1,10,20,30,40,nan", "conf"),
        (read_ground_truth, "1,0,0,0,10,10,1,1,nan", "visibility"),
    ])
    def test_two_fault_row_names_first_bad_field(self, tmp_path, reader, row, field):
        # field syntax is checked across the row before frame and id ranges
        p = tmp_path / "rows.txt"
        p.write_text(row + "\n")
        with pytest.raises(MotFileError, match=rf"line 1: field '{field}'"):
            reader(p)

    def test_detection_and_ground_truth_line_format(self, tmp_path):
        box = BoundingBox(10.0, 20.5, 30.0, 40.25)
        det_path = tmp_path / "det.txt"
        gt_path = tmp_path / "gt.txt"
        write_detections(det_path, {2: [Detection(2, box, 0.5)]})
        write_ground_truth(gt_path, SequenceData(
            (MotRecord(2, 3, box, 1.0, 1, 0.75),)))
        assert det_path.read_text() == "2,-1,10.00,20.50,30.00,40.25,0.500000,-1,-1,-1\n"
        assert gt_path.read_text() == "2,3,10.00,20.50,30.00,40.25,1,1,0.75\n"

    @pytest.mark.parametrize("reader", [read_detections, read_results, read_ground_truth])
    def test_float_only_spellings_read_as_plain_numbers(self, tmp_path, reader):
        # numpy's parse rejects a whitespace-only line and a digit separator.
        odd, plain = tmp_path / "odd.txt", tmp_path / "plain.txt"
        odd.write_text(" \t \n1,2,1_000,20,30,40,1,1,0.5\n")
        plain.write_text("1,2,1000,20,30,40,1,1,0.5\n")
        assert reader(odd) == reader(plain)

    def test_detection_under_another_frame_key_rejected(self, tmp_path):
        p = tmp_path / "det.txt"
        box = BoundingBox(10.0, 20.0, 30.0, 40.0)
        with pytest.raises(ValueError, match=r"key 2 holds a detection of frame 5"):
            write_detections(p, {2: [Detection(5, box, 0.5)]})


class TestFaultMessages:
    """The whole text of each fault, and each rejected detection logged
    before it."""

    @pytest.mark.parametrize("reader, lines, logged, message", [
        (read_detections,
         ["1,-1,10,20,0,40,0.9", "0,-1,10,20,30,40,0.9", "1,-1,10,20,0,40,0.9"],
         ["line 1: rejected detection with non-positive size w=0.0 h=40.0"],
         "line 2: frame must be >= 1"),
        (read_results,
         ["1,1,10,20,30,-4,1", "1,1,10,20,30,40,1", "1,2,nan,20,30,40,1"],
         [], "line 1: box sides must be positive, got w=30.0 h=-4.0"),
        (read_results,
         ["1,1,10,20,30,40,1", "", "1,1,11,20,30,40,1"],
         [], "line 3: duplicate (frame, id) pair (1, 1)"),
        (read_results,
         ["1,1,10,20,30,40,1", "1,2,abc,20,30,40,1", "1,3,10"],
         [], "line 2: field 'x' is not numeric: 'abc'"),
        (read_ground_truth,
         ["1,1,10,20,30,40,1,1,1", "1,2", "1,3,abc,20,30,40,1,1,1"],
         [], "line 2: expected at least 9 comma-separated fields, got 2"),
        (read_ground_truth,
         ["1,1,10,20,30,40,1,1.5,Infinity"],
         [], "line 1: field 'class' must be an integer: '1.5'"),
    ])
    def test_fault_text(self, tmp_path, caplog, reader, lines, logged, message):
        p = tmp_path / "c.txt"
        p.write_text("\n".join(lines) + "\n")
        with caplog.at_level(logging.WARNING, logger="wintrack.motio"):
            with pytest.raises(MotFileError) as info:
                reader(p)
        assert str(info.value) == f"{p}: {message}"
        assert [r.getMessage() for r in caplog.records] == [f"{p}: {m}" for m in logged]


# Every row is valid for all three readers: detections read frame, id, box
# and confidence; results the same with the id as track id; ground truth
# reads the 7th to 9th columns as flag, class and visibility.
_ROW = "1,2,10,20,30,40,1,1,0.5,-1"
_READER_CASES = {
    "clean rows, out of order": "2,1,10,20,30,40,0.25,1,0.5\n1,2,10,20,30,40,1,1,1\n"
                                "1,1,50,20,30,40,0.75,1,0\n",
    "spaces and tabs around fields": " 1 ,\t2,10 , 20\t,30,40,1,1,0.5 \n",
    "CRLF": f"{_ROW}\r\n2,2,11,20,30,40,1,1,0.5\r\n",
    "blank lines": f"\n{_ROW}\n\n2,2,11,20,30,40,1,1,0.5\n\n",
    "whitespace-only line": f" \t \n{_ROW}\n",
    "extra columns": f"{_ROW},7,8,9\n",
    "trailing comma": f"{_ROW},\n",
    "signs, bare decimals and exponents": "+1,2,.5,1e1,30,40,1,1,0.5\n",
    "digit separator": "1,2,1_000,20,30,40,1,1,0.5\n",
    "nan": "1,2,nan,20,30,40,1,1,0.5\n",
    "inf": "1,2,10,20,inf,40,1,1,0.5\n",
    "overflow": "1,2,10,20,30,1e400,1,1,0.5\n",
    "comment line": f"#{_ROW}\n",
    "short row": "1,2,10,20,30\n",
    "fractional frame": "1.5,2,10,20,30,40,1,1,0.5\n",
    "fractional id": "1,2.5,10,20,30,40,1,1,0.5\n",
    "fractional class": "1,2,10,20,30,40,1,1.5,0.5\n",
    "whole numbers spelled as floats": "1.0,2e0,10,20,30,40,1,1.0,0.5\n",
    "frame 0": "0,2,10,20,30,40,1,1,0.5\n",
    "id 0": "1,0,10,20,30,40,1,1,0.5\n",
    "repeated frame and id": f"{_ROW}\n{_ROW}\n",
    "zero width": f"1,2,10,20,0,40,1,1,0.5\n{_ROW}\n",
    "negative height, then a fault": f"1,3,10,20,30,-4,1,1,0.5\n{_ROW}\n1,2,nan,20,30,40,1,1,0.5\n",
    "clamped confidence": "1,2,10,20,30,40,1.5,1,0.5\n1,3,60,20,30,40,-0.25,1,0.5\n",
    "negative zero confidence": "1,2,10,20,30,40,-0.0,1,0.5\n",
    "empty file": "",
}


def _no_loadtxt(*args, **kwargs):
    raise ValueError("numpy parse disabled")


def _outcome(reader, path, caplog) -> tuple[str, list]:
    """What a reader returns (or the error it raises) and what it logs."""
    caplog.clear()
    try:
        out = repr(reader(path))
    except MotFileError as exc:
        out = f"MotFileError: {exc}"
    return out, [(r.levelname, r.getMessage()) for r in caplog.records]


@pytest.mark.parametrize("reader", [read_detections, read_results, read_ground_truth])
@pytest.mark.parametrize("text", _READER_CASES.values(), ids=_READER_CASES.keys())
def test_array_reader_matches_line_parser(tmp_path, monkeypatch, caplog, reader, text):
    p = tmp_path / "rows.txt"
    p.write_bytes(text.encode())
    with caplog.at_level(logging.WARNING, logger="wintrack.motio"):
        array = _outcome(reader, p, caplog)
        # numpy's parse fails, so every line is split and parsed by float.
        monkeypatch.setattr(motio.np, "loadtxt", _no_loadtxt)
        by_line = _outcome(reader, p, caplog)
    assert array == by_line


@pytest.mark.parametrize("reader", [read_detections, read_results, read_ground_truth])
def test_clean_file_is_not_read_line_by_line(tmp_path, monkeypatch, reader):
    p = tmp_path / "rows.txt"
    p.write_text(_READER_CASES["clean rows, out of order"])
    expected = reader(p)

    def unused(*args):
        raise AssertionError("the line split parsed a field of a clean file")

    monkeypatch.setattr(motio, "_number", unused)
    assert reader(p) == expected
