"""Digest of the package's outputs and scores, compared with DIGESTS.txt.

Runs the 5 bundled scenes and ``random_scenario`` seeds 0-29 through the 3
tracker kinds alone and the 9 level-1/level-2 pairs at k in {1, 2, 3, 5}
(1,365 runs), and hashes every emitted row (frame, id, box and confidence
as float hex) and every ``evaluate`` field of each run against the scene's
ground truth (scores as float hex, count reprs, HOTA arrays as float hex).
Prints one line, ``rows-and-reports <sha256> <runs> runs <rows> rows``,
and exits 1 unless it equals the line recorded in DIGESTS.txt at the repo
root:

    PYTHONPATH=src python tests/digest.py

On a mismatch it names the Python, numpy and scipy versions it ran with
beside the ones DIGESTS.txt was recorded with, so a difference that comes
from the libraries alone can be told from a change to the program.  A
change that means to move outputs or scores updates DIGESTS.txt and says
why.  pytest does not collect this file: it takes about 20 s.
"""

from __future__ import annotations

import hashlib
import os
import platform
import sys
from pathlib import Path

import numpy as np
import scipy

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from conftest import random_scenario  # noqa: E402
from wintrack.metrics import evaluate, frames_from_records  # noqa: E402
from wintrack.synth import BUNDLED_SUITE, bundled_scenario, generate  # noqa: E402
from wintrack.trackers import TRACKER_KINDS, TrackerConfig, make_tracker, run_tracker  # noqa: E402
from wintrack.window import WindowedTracker, run_windowed  # noqa: E402

RECORDED = Path(__file__).resolve().parent.parent / "DIGESTS.txt"
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


def main() -> None:
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
    line = f"rows-and-reports {digest.hexdigest()} {n_runs} runs {n_rows} rows"
    print(line)
    recorded = RECORDED.read_text().splitlines()
    if line not in recorded:
        versions = next((r for r in recorded if r.startswith("# recorded with")), "# none recorded")
        sys.exit(f"differs from {RECORDED.name}: {recorded[0]}\n"
                 f"here: Python {platform.python_version()}, numpy {np.__version__},"
                 f" scipy {scipy.__version__}; {RECORDED.name} {versions[2:]}")


if __name__ == "__main__":
    main()
