"""README's python blocks run as written, on the files its CLI block makes."""

import re
from pathlib import Path

import pytest

from wintrack.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"
LIBRARY_BLOCK, SOLVE_BLOCK = re.findall(
    r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.S | re.M)


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
