"""README's python and INI blocks run as written, on the files its CLI block
makes."""

import re
from pathlib import Path

import pytest

from wintrack.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"
LIBRARY_BLOCK, SOLVE_BLOCK = re.findall(
    r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.S | re.M)
TRACKER_INI, SCENARIO_INI = re.findall(
    r"^```ini\n(.*?)^```", README.read_text(encoding="utf-8"), re.S | re.M)


@pytest.fixture
def in_scene_dir(tmp_path, monkeypatch):
    """A working directory holding scene/gt.txt and scene/det.txt."""
    monkeypatch.chdir(tmp_path)
    assert main(["synth", "--scenario", "idswitch", "--out-dir", "scene/"]) == 0


def test_library_block(in_scene_dir, capsys):
    capsys.readouterr()
    namespace = {}
    exec(LIBRARY_BLOCK, namespace)
    report = namespace["report"]
    assert namespace["tracked"]
    assert capsys.readouterr().out.split() == [
        str(report.idf1), str(report.hota), str(report.mota), str(report.motp)]


def test_solve_block():
    namespace = {}
    exec(SOLVE_BLOCK, namespace)
    # The values the block's comments state.
    assert namespace["rows"].tolist() == [0, 1]
    assert namespace["cols"].tolist() == [0, 1]
    assert namespace["unmatched_rows"].tolist() == [2]


def test_tracker_ini_block(in_scene_dir, tmp_path):
    cfg = tmp_path / "cfg.ini"
    cfg.write_text(TRACKER_INI)
    track = ["track", "--det", "scene/det.txt", "--l1", "ocsort", "--l2", "bytetrack"]
    assert main([*track, "--out", "scene/default.txt"]) == 0
    assert main([*track, "--config", str(cfg), "--out", "scene/res.txt"]) == 0
    # The block's [l2] min_hits = 1 changes what level 2 emits.
    assert Path("scene/res.txt").read_bytes() != Path("scene/default.txt").read_bytes()
    # The block's [l1] holds the defaults, and a solo track checks its [l2] but
    # does not use it.
    solo = ["track", "--det", "scene/det.txt", "--l1", "sort"]
    assert main([*solo, "--out", "scene/default.txt"]) == 0
    assert main([*solo, "--config", str(cfg), "--out", "scene/res.txt"]) == 0
    assert Path("scene/res.txt").read_bytes() == Path("scene/default.txt").read_bytes()
    assert main(["sweep", "--det", "scene/det.txt", "--gt", "scene/gt.txt", "--l1", "sort",
                 "--l2", "bytetrack", "--config", str(cfg)]) == 0


def test_scenario_ini_block(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "scene.ini").write_text(SCENARIO_INI)
    assert main(["synth", "--scenario", "scene.ini", "--out-dir", "out/"]) == 0
    assert (tmp_path / "out" / "gt.txt").read_text()
    assert (tmp_path / "out" / "det.txt").read_text()
