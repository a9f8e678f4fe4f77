"""Digests of the package's outputs and scores, compared with DIGESTS.txt.

Prints two lines and exits 1 unless each equals a line recorded in
DIGESTS.txt at the repo root:

    PYTHONPATH=src python tests/digest.py

* ``rows-and-reports <sha256> <runs> runs <rows> rows``: the 5 bundled
  scenes and ``random_scenario`` seeds 0-29 through the 3 tracker kinds
  alone and the 9 level-1/level-2 pairs at k in {1, 2, 3, 5} (1,365 runs),
  hashing every emitted row (frame, id, box and confidence as float hex)
  and every ``evaluate`` field of each run against the scene's ground truth
  (scores as float hex, count reprs, HOTA arrays as float hex).
* ``cli-bytes <sha256> <commands> commands <bytes> bytes``: the bytes the
  command line writes, run in-process through ``wintrack.cli.main`` in a
  scratch directory.  For each bundled scene: ``synth``; ``track`` with
  each kind alone and each level-1/level-2 pair at the default k, each
  result file scored by ``eval`` in table and CSV form; ``sweep`` of each
  pair in both forms; and ``track`` and ``sweep`` with README's tracker INI
  block as ``--config``.  README's scenario INI block goes through
  ``synth`` too.  Each command's arguments, exit code, standard output and
  written files are hashed.

On a mismatch it names the Python, numpy and scipy versions it ran with
beside the ones DIGESTS.txt was recorded with, so a difference that comes
from the libraries alone can be told from a change to the program.  A
change that means to move outputs or scores updates DIGESTS.txt and says
why.  pytest does not collect this file: it takes about 30 s.
"""

from __future__ import annotations

import hashlib
import io
import os
import platform
import re
import sys
import tempfile
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np
import scipy

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from conftest import random_scenario  # noqa: E402
from wintrack.cli import LEVEL2_KINDS, main as cli  # noqa: E402
from wintrack.metrics import evaluate, frames_from_records  # noqa: E402
from wintrack.synth import BUNDLED_SUITE, bundled_scenario, generate  # noqa: E402
from wintrack.trackers import TRACKER_KINDS, TrackerConfig, make_tracker, run_tracker  # noqa: E402
from wintrack.window import WindowedTracker, run_windowed  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
RECORDED = ROOT / "DIGESTS.txt"
K_VALUES = (1, 2, 3, 5)
SCORES = ("mota", "motp", "idf1", "hota", "det_a", "ass_a")


def scenes():
    yield from ((name, bundled_scenario(name)) for name in BUNDLED_SUITE)
    yield from ((f"random-{seed}", random_scenario(seed)) for seed in range(30))


def runs(dets):
    """(label, rows) of each configuration run on one scene's detections."""
    def tracker(kind):
        return make_tracker(TrackerConfig(kind=kind))

    for kind in TRACKER_KINDS:
        yield kind, run_tracker(tracker(kind), dets)
    for k in K_VALUES:
        for l1 in TRACKER_KINDS:
            for l2 in TRACKER_KINDS:
                yield f"{l1}+{l2}@{k}", run_windowed(WindowedTracker(tracker(l1), tracker(l2), k),
                                                     dets)


def report_lines(report) -> list[str]:
    acc = report.hota_acc
    return [*(float(getattr(report, f)).hex() for f in SCORES),
            repr(report.clear), repr(report.identity),
            *(" ".join(map(float.hex, map(float, getattr(acc, f))))
              for f in ("tp", "fn", "fp", "ass_sum"))]


def rows_and_reports() -> str:
    digest = hashlib.sha256()
    n_runs = n_rows = 0
    for name, scenario in scenes():
        gt, dets = generate(scenario)
        gt_frames = frames_from_records(gt.evaluable())
        for label, rows in runs(dets):
            lines = [f"{name} {label}"]
            lines += [" ".join([str(r.frame), str(r.track_id),
                                *(float(v).hex() for v in (r.box.x, r.box.y, r.box.w, r.box.h,
                                                           r.confidence))])
                      for r in rows]
            lines += report_lines(evaluate(gt_frames, frames_from_records(rows)))
            digest.update(("\n".join(lines) + "\n").encode())
            n_runs += 1
            n_rows += len(rows)
    return f"rows-and-reports {digest.hexdigest()} {n_runs} runs {n_rows} rows"


def commands():
    """Each command's arguments and the files it writes, in run order."""
    ini = re.findall(r"^```ini\n(.*?)^```", (ROOT / "README.md").read_text(encoding="utf-8"),
                     re.S | re.M)
    Path("tracker.ini").write_text(ini[0])
    Path("scenario.ini").write_text(ini[1])
    yield ["synth", "--scenario", "scenario.ini", "--out-dir", "ini"], ["ini/gt.txt", "ini/det.txt"]
    for name in BUNDLED_SUITE:
        gt, det, res = f"{name}/gt.txt", f"{name}/det.txt", f"{name}/res.txt"
        yield ["synth", "--scenario", name, "--out-dir", name], [gt, det]
        configs = [["--l1", l1] for l1 in TRACKER_KINDS]
        configs += [["--l1", l1, "--l2", l2] for l1 in TRACKER_KINDS for l2 in LEVEL2_KINDS]
        for config in configs:
            yield ["track", "--det", det, *config, "--out", res], [res]
            for fmt in ("table", "csv"):
                yield ["eval", "--gt", gt, "--res", res, "--format", fmt], []
        for config in configs[len(TRACKER_KINDS):]:
            for fmt in ("table", "csv"):
                yield ["sweep", "--det", det, "--gt", gt, *config, "--format", fmt], []
        readme = ["--l1", "ocsort", "--l2", "bytetrack", "--config", "tracker.ini"]
        yield ["track", "--det", det, *readme, "--out", res], [res]
        yield ["sweep", "--det", det, "--gt", gt, *readme], []


def cli_bytes() -> str:
    digest = hashlib.sha256()
    n_commands = n_bytes = 0
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as scratch:
        os.chdir(scratch)
        try:
            for argv, written in commands():
                out = io.StringIO()
                with redirect_stdout(out):
                    code = cli(argv)
                data = [out.getvalue().encode(), *(Path(f).read_bytes() for f in written)]
                digest.update(f"{' '.join(argv)}\n{code}\n".encode())
                for chunk in data:
                    digest.update(f"{len(chunk)}\n".encode() + chunk)
                n_commands += 1
                n_bytes += sum(map(len, data))
        finally:
            os.chdir(cwd)
    return f"cli-bytes {digest.hexdigest()} {n_commands} commands {n_bytes} bytes"


def main() -> None:
    recorded = RECORDED.read_text().splitlines()
    differ = []
    for line in (rows_and_reports(), cli_bytes()):
        print(line)
        if line not in recorded:
            kind = line.split()[0]
            differ.append(next((r for r in recorded if r.startswith(kind + " ")),
                               f"{kind} (none recorded)"))
    if differ:
        versions = next((r for r in recorded if r.startswith("# recorded with")), "# none recorded")
        sys.exit(f"differs from {RECORDED.name}: " + "; ".join(differ) + "\n"
                 f"here: Python {platform.python_version()}, numpy {np.__version__},"
                 f" scipy {scipy.__version__}; {RECORDED.name} {versions[2:]}")


if __name__ == "__main__":
    main()
