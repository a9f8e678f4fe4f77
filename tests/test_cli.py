import pytest

from wintrack.cli import main
from wintrack.motio import read_results, write_detections, write_ground_truth
from wintrack.synth import bundled_scenario, generate


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

    def test_csv_format(self, scene_files, capsys):
        gt_path, _ = scene_files
        code = main(["eval", "--gt", str(gt_path), "--res", str(gt_path),
                     "--format", "csv"])
        assert code == 0
        out = capsys.readouterr().out.strip().split("\n")
        assert out[0].startswith("idf1,hota,mota,motp")
        assert out[1].startswith("100.0,100.0,100.0,100.0")


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

    @pytest.mark.parametrize("key, value, named", [
        ("jitter_std", "nan", "jitter_std"),
        ("width", "nan", "width"),
        ("width", "inf", "width"),
        ("height", "nan", "height"),
        ("waypoints", "1:nan:100", "waypoint"),
    ])
    def test_non_finite_scenario_value_is_data_error(self, tmp_path, capsys,
                                                     key, value, named):
        values = {"waypoints": "1:50:50 10:70:50", "width": "20", "height": "40",
                  "jitter_std": "0", key: value}
        cfg = tmp_path / "scene.ini"
        cfg.write_text(
            "[scenario]\nframes = 10\n"
            "[target 1]\nwaypoints = {waypoints}\nwidth = {width}\nheight = {height}\n"
            "[noise]\njitter_std = {jitter_std}\n".format(**values)
        )
        code = main(["synth", "--scenario", str(cfg), "--out-dir", str(tmp_path)])
        assert code == 3
        assert named in capsys.readouterr().err

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
