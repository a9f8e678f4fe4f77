import pytest

from test_metrics import single_track, split_id_case
from wintrack.cli import _format_eval, _sweep_rows, main
from wintrack.metrics import evaluate, frames_from_records
from wintrack.motio import read_results, write_detections, write_ground_truth
from wintrack.synth import bundled_scenario, generate
from wintrack.trackers import TrackerConfig, _TrackerBase, make_tracker, run_tracker
from wintrack.window import WindowedTracker, run_windowed


@pytest.fixture
def scene_files(tmp_path):
    gt, dets = generate(bundled_scenario("idswitch"))
    gt_path = tmp_path / "gt.txt"
    det_path = tmp_path / "det.txt"
    write_ground_truth(gt_path, gt)
    write_detections(det_path, dets)
    return gt_path, det_path


class TestTrack:
    def test_baseline_run(self, scene_files, tmp_path):
        _, det_path = scene_files
        out = tmp_path / "res.txt"
        code = main(["track", "--det", str(det_path), "--l1", "bytetrack",
                     "--out", str(out)])
        assert code == 0
        seq = read_results(out)
        assert seq.records

    def test_windowed_run(self, scene_files, tmp_path):
        _, det_path = scene_files
        out = tmp_path / "res.txt"
        code = main(["track", "--det", str(det_path), "--l1", "ocsort",
                     "--l2", "bytetrack", "-k", "2", "--out", str(out)])
        assert code == 0
        assert read_results(out).records

    def test_k_zero_is_usage_error(self, scene_files, tmp_path, capsys):
        _, det_path = scene_files
        code = main(["track", "--det", str(det_path), "--l1", "sort",
                     "--out", str(tmp_path / "r.txt"), "-k", "0"])
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_k_without_l2_is_usage_error(self, scene_files, tmp_path, capsys):
        # A window length only means something under a level-2 tracker.
        _, det_path = scene_files
        out = tmp_path / "r.txt"
        code = main(["track", "--det", str(det_path), "--l1", "sort",
                     "-k", "7", "--out", str(out)])
        assert code == 1
        assert "--l2" in capsys.readouterr().err
        assert not out.exists()

    def test_unreadable_detections_is_io_error(self, tmp_path):
        code = main(["track", "--det", str(tmp_path / "missing.txt"),
                     "--l1", "sort", "--out", str(tmp_path / "r.txt")])
        assert code == 2

    def test_malformed_detections_is_data_error(self, tmp_path):
        det_path = tmp_path / "det.txt"
        det_path.write_text("1,-1,10,20\n")
        code = main(["track", "--det", str(det_path), "--l1", "sort",
                     "--out", str(tmp_path / "r.txt")])
        assert code == 3

    def test_non_finite_frame_is_data_error(self, tmp_path, capsys):
        det_path = tmp_path / "det.txt"
        det_path.write_text("inf,-1,10,20,30,40,0.9,-1,-1,-1\n")
        code = main(["track", "--det", str(det_path), "--l1", "sort",
                     "--out", str(tmp_path / "r.txt")])
        assert code == 3
        err = capsys.readouterr().err
        assert "det.txt: line 1" in err and "'frame'" in err

    def test_config_file_overrides(self, scene_files, tmp_path):
        _, det_path = scene_files
        cfg = tmp_path / "cfg.ini"
        cfg.write_text("[l1]\nmin_hits = 1\nmax_age = 10\n")
        out_a = tmp_path / "a.txt"
        out_b = tmp_path / "b.txt"
        main(["track", "--det", str(det_path), "--l1", "sort",
              "--out", str(out_a)])
        main(["track", "--det", str(det_path), "--l1", "sort",
              "--out", str(out_b), "--config", str(cfg)])
        # min_hits=1 emits the warm-up frames the default suppresses
        assert len(read_results(out_b).records) > len(read_results(out_a).records)

    def test_unknown_config_key_is_data_error(self, scene_files, tmp_path, capsys):
        _, det_path = scene_files
        cfg = tmp_path / "cfg.ini"
        cfg.write_text("[l1]\nspeediness = 3\n")
        code = main(["track", "--det", str(det_path), "--l1", "sort",
                     "--out", str(tmp_path / "r.txt"), "--config", str(cfg)])
        assert code == 3
        assert "speediness" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_ocm_weight_is_data_error(self, scene_files, tmp_path,
                                                 capsys, value):
        _, det_path = scene_files
        cfg = tmp_path / "cfg.ini"
        cfg.write_text(f"[l1]\nocm_weight = {value}\n")
        code = main(["track", "--det", str(det_path), "--l1", "ocsort",
                     "--out", str(tmp_path / "r.txt"), "--config", str(cfg)])
        assert code == 3
        assert "ocm_weight" in capsys.readouterr().err

    def test_fractional_count_is_data_error(self, scene_files, tmp_path, capsys):
        _, det_path = scene_files
        cfg = tmp_path / "cfg.ini"
        cfg.write_text("[l1]\nmax_age = 2.5\n")
        code = main(["track", "--det", str(det_path), "--l1", "sort",
                     "--out", str(tmp_path / "r.txt"), "--config", str(cfg)])
        assert code == 3
        assert "max_age" in capsys.readouterr().err

    @pytest.mark.parametrize("section", ["l1", "l2"])
    def test_kind_key_is_data_error(self, scene_files, tmp_path, capsys, section):
        # --l1/--l2 name each level's kind; a kind in the file never took effect.
        _, det_path = scene_files
        cfg = tmp_path / "cfg.ini"
        cfg.write_text(f"[{section}]\nkind = sort\n")
        out = tmp_path / "r.txt"
        code = main(["track", "--det", str(det_path), "--l1", "sort", "--l2", "bytetrack",
                     "--out", str(out), "--config", str(cfg)])
        assert code == 3
        assert "'kind'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("section, line, kinds", [
        ("l1", "ocm_weight = nan", ["--l1", "ocsort"]),
        ("l1", "max_age = 0", ["--l1", "sort"]),
        ("l2", "low_conf_threshold = 0.9", ["--l1", "sort", "--l2", "bytetrack"]),
        ("l2", "low_conf_threshold = 0.9", ["--l1", "sort"]),  # [l2] is checked without --l2
    ])
    def test_tracker_config_fault_names_file_and_section(self, scene_files, tmp_path,
                                                         capsys, section, line, kinds):
        _, det_path = scene_files
        cfg = tmp_path / "cfg.ini"
        cfg.write_text(f"[{section}]\n{line}\n")
        code = main(["track", "--det", str(det_path), *kinds,
                     "--out", str(tmp_path / "r.txt"), "--config", str(cfg)])
        assert code == 3
        err = capsys.readouterr().err
        assert f"{cfg}: [{section}] " in err and line.split()[0] in err

    def test_sweep_config_fault_names_file_and_section(self, scene_files, tmp_path, capsys):
        gt_path, det_path = scene_files
        cfg = tmp_path / "cfg.ini"
        cfg.write_text("[l2]\nmin_hits = 0\n")
        code = main(["sweep", "--det", str(det_path), "--gt", str(gt_path),
                     "--l1", "sort", "--l2", "bytetrack", "--config", str(cfg)])
        assert code == 3
        assert f"{cfg}: [l2] min_hits" in capsys.readouterr().err

    def test_interpolation_fault_is_data_error(self, scene_files, tmp_path, capsys):
        _, det_path = scene_files
        cfg = tmp_path / "cfg.ini"
        cfg.write_text("[l1]\nmax_age = %(missing)s\n")
        code = main(["track", "--det", str(det_path), "--l1", "sort",
                     "--out", str(tmp_path / "r.txt"), "--config", str(cfg)])
        assert code == 3
        err = capsys.readouterr().err
        assert str(cfg) in err and "'max_age'" in err

    def test_default_section_and_interpolation_apply(self, scene_files, tmp_path):
        # The INI dialect: a DEFAULT key reaches every section, %(name)s
        # interpolates and a comment may follow a value.
        _, det_path = scene_files
        plain, dialect = tmp_path / "plain.ini", tmp_path / "dialect.ini"
        plain.write_text("[l1]\nmin_hits = 1\nmax_age = 10\n[l2]\nmin_hits = 1\n")
        dialect.write_text("[DEFAULT]\nmin_hits = 1  # both levels\n"
                           "[l1]\nmax_age = %(min_hits)s0  ; 10\n[l2]\n")
        outs = []
        for cfg in (plain, dialect):
            outs.append(tmp_path / f"{cfg.stem}.txt")
            assert main(["track", "--det", str(det_path), "--l1", "sort",
                         "--l2", "bytetrack", "--out", str(outs[-1]),
                         "--config", str(cfg)]) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()

    def test_boolean_word_is_accepted(self, scene_files, tmp_path):
        _, det_path = scene_files
        cfg = tmp_path / "cfg.ini"
        cfg.write_text("[l1]\noru_enabled = no\n")
        out = tmp_path / "r.txt"
        code = main(["track", "--det", str(det_path), "--l1", "ocsort",
                     "--out", str(out), "--config", str(cfg)])
        assert code == 0
        assert read_results(out).records


class TestEval:
    def test_result_equal_to_ground_truth_scores_100(self, scene_files, capsys):
        gt_path, _ = scene_files
        code = main(["eval", "--gt", str(gt_path), "--res", str(gt_path)])
        assert code == 0
        text = capsys.readouterr().out
        assert text.count("100.0") >= 6

    def test_missing_file_is_io_error(self, scene_files, tmp_path):
        gt_path, _ = scene_files
        code = main(["eval", "--gt", str(gt_path),
                     "--res", str(tmp_path / "missing.txt")])
        assert code == 2

    def test_empty_ground_truth_is_data_error(self, scene_files, tmp_path):
        gt_path, _ = scene_files
        empty = tmp_path / "empty.txt"
        empty.write_text("")
        code = main(["eval", "--gt", str(empty), "--res", str(gt_path)])
        assert code == 3

    def test_empty_result_is_scored(self, scene_files, tmp_path, capsys):
        gt_path, _ = scene_files
        empty = tmp_path / "empty.txt"
        empty.write_text("")
        code = main(["eval", "--gt", str(gt_path), "--res", str(empty),
                     "--format", "csv"])
        assert code == 0
        row = capsys.readouterr().out.strip().split("\n")[1].split(",")
        assert row[:4] == ["0.0", "0.0", "0.0", "0.0"]

    def test_csv_format(self, scene_files, capsys):
        gt_path, _ = scene_files
        code = main(["eval", "--gt", str(gt_path), "--res", str(gt_path),
                     "--format", "csv"])
        assert code == 0
        out = capsys.readouterr().out.strip().split("\n")
        assert out[0].startswith("idf1,hota,mota,motp")
        assert out[1].startswith("100.0,100.0,100.0,100.0")

    def test_result_id_beyond_int64_is_scored(self, tmp_path, capsys):
        # 1e20 reads as the integer 10**20, past int64, and is scored as
        # any other id.
        gt_path, res_path = tmp_path / "gt.txt", tmp_path / "res.txt"
        gt_path.write_text("1,1,10,20,30,40,1,1,1\n")
        res_path.write_text("1,1e20,10,20,30,40,1,-1,-1,-1\n")
        code = main(["eval", "--gt", str(gt_path), "--res", str(res_path),
                     "--format", "csv"])
        assert code == 0
        row = capsys.readouterr().out.strip().split("\n")[1]
        assert row == "100.0,100.0,100.0,100.0,100.0,100.0,1,1,0,0,0,1,0,0"


class TestSweep:
    def test_default_sweep_emits_five_rows(self, scene_files, capsys):
        gt_path, det_path = scene_files
        code = main(["sweep", "--det", str(det_path), "--gt", str(gt_path),
                     "--l1", "sort", "--l2", "bytetrack"])
        assert code == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert len(lines) == 6  # header + base + 4 window lengths
        assert lines[1].lstrip().startswith("-")

    def test_csv_sweep_is_parseable(self, scene_files, capsys):
        gt_path, det_path = scene_files
        code = main(["sweep", "--det", str(det_path), "--gt", str(gt_path),
                     "--l1", "sort", "--l2", "bytetrack", "--format", "csv"])
        assert code == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == "l2,k,idf1,hota,mota,motp"
        assert len(lines) == 6
        assert all(len(line.split(",")) == 6 for line in lines[1:])

    def test_sweep_is_deterministic(self, scene_files, capsys):
        gt_path, det_path = scene_files
        args = ["sweep", "--det", str(det_path), "--gt", str(gt_path),
                "--l1", "ocsort", "--l2", "bytetrack", "--format", "csv"]
        main(args)
        first = capsys.readouterr().out
        main(args)
        second = capsys.readouterr().out
        assert first == second

    def test_configuration_without_true_positives_is_scored(self, scene_files,
                                                            tmp_path, capsys):
        # No level-1 track is ever confirmed, so no configuration emits a row.
        gt_path, det_path = scene_files
        config = tmp_path / "never.ini"
        config.write_text("[l1]\nmin_hits = 1000\n")
        code = main(["sweep", "--det", str(det_path), "--gt", str(gt_path),
                     "--l1", "sort", "--l2", "bytetrack", "--config", str(config),
                     "--format", "csv"])
        assert code == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert len(lines) == 6
        assert lines[1].split(",")[2:] == ["0.0", "0.0", "0.0", "0.0"]

    def test_baseline_row_matches_track_plus_eval(self, scene_files, tmp_path,
                                                  capsys):
        gt_path, det_path = scene_files
        main(["sweep", "--det", str(det_path), "--gt", str(gt_path),
              "--l1", "sort", "--l2", "bytetrack", "--format", "csv"])
        baseline_row = capsys.readouterr().out.strip().split("\n")[1]

        res = tmp_path / "res.txt"
        main(["track", "--det", str(det_path), "--l1", "sort", "--out", str(res)])
        main(["eval", "--gt", str(gt_path), "--res", str(res), "--format", "csv"])
        eval_row = capsys.readouterr().out.strip().split("\n")[1]
        assert baseline_row.split(",")[2:] == eval_row.split(",")[:4]


    def test_level1_steps_once_per_frame(self, scene_files, monkeypatch):
        # The baseline and all four window lengths share one level-1 run;
        # level 2 steps on arrays, not through step.
        gt_path, det_path = scene_files
        frames = []
        step = _TrackerBase.step

        def counted(self, frame, detections):
            frames.append(frame)
            return step(self, frame, detections)

        monkeypatch.setattr(_TrackerBase, "step", counted)
        assert main(["sweep", "--det", str(det_path), "--gt", str(gt_path),
                     "--l1", "sort", "--l2", "bytetrack"]) == 0
        assert frames == list(range(1, 121))


class TestExactOutput:
    """Every byte `eval` and `sweep` print, on the idswitch scene."""

    EVAL_TABLE = """\
Metric     Value
IDF1        81.7
HOTA        87.4
MOTA        96.5
MOTP       100.0
DetA        97.0
AssA        78.7

Count      Value
gtDet        200
TP           194
FP             0
FN             6
IDSW           1
IDTP         161
IDFP          33
IDFN          39
"""
    EVAL_CSV = """\
idf1,hota,mota,motp,deta,assa,gtdet,tp,fp,fn,idsw,idtp,idfp,idfn
81.7,87.4,96.5,100.0,97.0,78.7,200,194,0,6,1,161,33,39
"""
    SWEEP_TABLE = """\
l2          k  idf1  hota  mota   motp
-           -  81.7  87.4  96.5  100.0
bytetrack   2  92.9  91.7  95.0  100.0
bytetrack   3  92.4  91.3  95.0  100.0
bytetrack   5  86.3  86.0  95.0  100.0
bytetrack  10  66.0  72.9  95.0  100.0
"""
    SWEEP_CSV = """\
l2,k,idf1,hota,mota,motp
-,-,81.7,87.4,96.5,100.0
bytetrack,2,92.9,91.7,95.0,100.0
bytetrack,3,92.4,91.3,95.0,100.0
bytetrack,5,86.3,86.0,95.0,100.0
bytetrack,10,66.0,72.9,95.0,100.0
"""

    @pytest.mark.parametrize("fmt, expected", [("table", EVAL_TABLE), ("csv", EVAL_CSV)],
                             ids=["table", "csv"])
    def test_eval(self, scene_files, tmp_path, capsys, fmt, expected):
        gt_path, det_path = scene_files
        res = tmp_path / "res.txt"
        assert main(["track", "--det", str(det_path), "--l1", "sort", "--out", str(res)]) == 0
        capsys.readouterr()
        assert main(["eval", "--gt", str(gt_path), "--res", str(res), "--format", fmt]) == 0
        assert capsys.readouterr().out == expected

    @pytest.mark.parametrize("fmt, expected", [("table", SWEEP_TABLE), ("csv", SWEEP_CSV)],
                             ids=["table", "csv"])
    def test_sweep(self, scene_files, capsys, fmt, expected):
        gt_path, det_path = scene_files
        assert main(["sweep", "--det", str(det_path), "--gt", str(gt_path), "--l1", "sort",
                     "--l2", "bytetrack", "--format", fmt]) == 0
        assert capsys.readouterr().out == expected


class TestRendering:
    def test_table_has_one_decimal_percentages(self):
        gt = single_track(range(1, 11))
        text = _format_eval(evaluate(gt, gt), "table")
        assert "MOTA       100.0" in text.replace("  ", " ") or "100.0" in text
        assert "gtDet" in text

    def test_csv_round_trip(self):
        gt, pred = split_id_case()
        text = _format_eval(evaluate(gt, pred), "csv")
        header, row = text.strip().split("\n")
        cells = dict(zip(header.split(","), row.split(",")))
        assert cells["mota"] == "90.0"
        assert cells["idf1"] == "50.0"
        assert cells["hota"] == "70.7"
        assert cells["idsw"] == "1"


def report_fingerprint(report):
    """Every score as float hex, the count reprs and the HOTA arrays."""
    acc = report.hota_acc
    return ([float(getattr(report, f)).hex()
             for f in ("mota", "motp", "idf1", "hota", "det_a", "ass_a")]
            + [repr(report.clear), repr(report.identity)]
            + [a.tobytes() for a in (acc.tp, acc.fn, acc.fp, acc.ass_sum)])


@pytest.mark.parametrize("name, l1, l2", [("idswitch", "sort", "bytetrack"),
                                          ("weave", "ocsort", "ocsort")])
def test_every_sweep_row_equals_a_lone_run(name, l1, l2):
    # Each row scores what `track` (sorted by frame and id) would emit for
    # its configuration run on its own.
    gt, dets = generate(bundled_scenario(name))
    gt_frames = frames_from_records(gt.evaluable())
    cfg_l1, cfg_l2 = TrackerConfig(kind=l1), TrackerConfig(kind=l2)
    k_values = [1, 2, 3, 5, 10]
    rows = _sweep_rows(dets, gt_frames, cfg_l1, cfg_l2, k_values)
    lone = [run_tracker(make_tracker(cfg_l1), dets)]
    lone += [run_windowed(WindowedTracker(make_tracker(cfg_l1), make_tracker(cfg_l2), k),
                          dets) for k in k_values]
    assert [row[:2] for row in rows] == [("-", "-")] + [(l2, str(k)) for k in k_values]
    for (_, _, report), out in zip(rows, lone):
        out.sort(key=lambda td: (td.frame, td.track_id))
        want = evaluate(gt_frames, frames_from_records(out))
        assert report_fingerprint(report) == report_fingerprint(want)


class TestSynthCommand:
    def test_bundled_scenario_writes_files(self, tmp_path, capsys):
        out_dir = tmp_path / "scene"
        code = main(["synth", "--scenario", "crossing", "--out-dir", str(out_dir)])
        assert code == 0
        assert (out_dir / "gt.txt").exists()
        assert (out_dir / "det.txt").exists()

    def test_config_scenario(self, tmp_path):
        cfg = tmp_path / "scene.ini"
        cfg.write_text(
            "[scenario]\nframes = 10\nseed = 2\n"
            "[target 1]\nwaypoints = 1:50:50 10:70:50\nwidth = 20\nheight = 40\n"
        )
        code = main(["synth", "--scenario", str(cfg), "--out-dir", str(tmp_path)])
        assert code == 0
        assert (tmp_path / "gt.txt").read_text().count("\n") == 10

    def test_unknown_config_key_names_key(self, tmp_path, capsys):
        cfg = tmp_path / "scene.ini"
        cfg.write_text("[scenario]\nframes = 10\nwobble = 4\n")
        code = main(["synth", "--scenario", str(cfg), "--out-dir", str(tmp_path)])
        assert code == 3
        assert "wobble" in capsys.readouterr().err

    def test_bad_value_names_file_section_and_key(self, tmp_path, capsys):
        cfg = tmp_path / "scene.ini"
        cfg.write_text("[scenario]\nframes = x\n")
        code = main(["synth", "--scenario", str(cfg), "--out-dir", str(tmp_path)])
        assert code == 3
        assert f"{cfg}: bad value 'x' for 'frames' in [scenario]" in capsys.readouterr().err

    def test_negative_seed_names_file_and_key(self, tmp_path, capsys):
        cfg = tmp_path / "scene.ini"
        cfg.write_text("[scenario]\nframes = 10\nseed = -1\n")
        code = main(["synth", "--scenario", str(cfg), "--out-dir", str(tmp_path)])
        assert code == 3
        assert (f"{cfg}: [scenario] 'seed' must be an integer >= 0, got -1"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("key, value, named", [
        ("jitter_std", "nan", "jitter_std"),
        ("width", "nan", "width"),
        ("width", "inf", "width"),
        ("height", "nan", "height"),
        ("waypoints", "1:nan:100", "waypoint"),
        ("frames", "0", "[scenario] 'frames' must be an integer >= 1, got 0"),
    ])
    def test_non_finite_scenario_value_is_data_error(self, tmp_path, capsys,
                                                     key, value, named):
        values = {"frames": "10", "waypoints": "1:50:50 10:70:50", "width": "20",
                  "height": "40", "jitter_std": "0", key: value}
        cfg = tmp_path / "scene.ini"
        cfg.write_text(
            "[scenario]\nframes = {frames}\n"
            "[target 1]\nwaypoints = {waypoints}\nwidth = {width}\nheight = {height}\n"
            "[noise]\njitter_std = {jitter_std}\n".format(**values)
        )
        code = main(["synth", "--scenario", str(cfg), "--out-dir", str(tmp_path)])
        assert code == 3
        err = capsys.readouterr().err
        assert named in err
        assert str(cfg) in err

    @pytest.mark.parametrize("name, text, message", [
        ("nof.ini", "[scenario]\nseed = 1\n", "missing key 'frames' in [scenario]"),
        ("unk.ini", "[scenario]\nframes = 10\n"
                    "[target 1]\nwaypoints = 1:50:50 10:70:50\nwidth = 20\nheight = 40\n"
                    "[noise]\nconfidence_dips = 3:1-2:0.5\n",
         "[noise] 'confidence_dips' refers to unknown target 3"),
    ], ids=["no-frames", "unknown-target"])
    def test_scenario_fault_names_section_and_key(self, tmp_path, capsys,
                                                  name, text, message):
        cfg = tmp_path / name
        cfg.write_text(text)
        code = main(["synth", "--scenario", str(cfg), "--out-dir", str(tmp_path / "out")])
        assert code == 3
        assert f"{cfg}: {message}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_unknown_bundled_name_is_data_error(self, tmp_path):
        code = main(["synth", "--scenario", "not-a-scene",
                     "--out-dir", str(tmp_path)])
        assert code == 3


class TestMisc:
    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "track" in capsys.readouterr().out

    def test_every_export_resolves(self):
        import wintrack

        assert [n for n in wintrack.__all__ if not hasattr(wintrack, n)] == []

    def test_module_entry_point(self):
        import os
        import subprocess
        import sys

        import wintrack

        # The child imports the same package this process does, however
        # the test run put it on sys.path.
        src = os.path.dirname(os.path.dirname(wintrack.__file__))
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-m", "wintrack", "--help"],
                              capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": path})
        assert proc.returncode == 0
        assert "track" in proc.stdout

    def test_unknown_flag_exits_nonzero(self, scene_files, tmp_path, capsys):
        gt_path, det_path = scene_files
        code = main(["track", "--det", str(det_path), "--l1", "sort",
                     "--out", str(tmp_path / "r.txt"), "--turbo"])
        assert code == 1

    def test_unknown_subcommand_exits_nonzero(self, capsys):
        assert main(["juggle"]) == 1

    def test_subcommand_help_exits_zero(self, capsys):
        assert main(["track", "--help"]) == 0
