"""Correctness checks on the program's outputs, computed apart from it.

Nothing here calls ``wintrack.metrics``.  Tracking output is checked
against what the benchmark knows because it made the input: which target
each detection row came from, and where targets hid.  Scores are checked
against the counts implied by how the result files were built, and HOTA
against two properties that hold under any reading of its definition.

Every check returns a list of problems; an empty list means it passed.
A row is ``(frame, track_id, key)`` with ``key = (frame, x, y, w, h, conf)``
exactly as the detection carried it.
"""

from __future__ import annotations

import hashlib
from collections import Counter

import numpy as np

MAX_REPORTED = 5    # problems listed per check; the count says how many more

CROWD_IDF1_FLOOR = 0.65
STREAM_IDF1_FLOOR = 0.85


def _limit(problems: list[str], label: str) -> list[str]:
    if len(problems) <= MAX_REPORTED:
        return problems
    extra = len(problems) - MAX_REPORTED
    return problems[:MAX_REPORTED] + [f"{label}: and {extra} more"]


def ids_unique_per_frame(rows) -> list[str]:
    seen = set()
    problems = []
    for frame, track_id, _ in rows:
        if (frame, track_id) in seen:
            problems.append(f"id {track_id} used twice in frame {frame}")
        seen.add((frame, track_id))
    return _limit(problems, "duplicate ids")


def provenance(rows, truth: dict) -> tuple[list, list[str]]:
    """Map each output row to the target that made it.

    ``truth`` maps a detection key to its target.  A row whose frame, box
    or confidence differs from every input detection, or that repeats a
    detection another row already used, is a problem.
    Returns (target per row, problems); unknown rows get target None.
    """
    used = set()
    targets = []
    problems = []
    for frame, track_id, key in rows:
        target = truth.get(key)
        if target is None or key[0] != frame:
            problems.append(f"row {(frame, track_id)} {key} is no input detection")
            target = None
        elif key in used:
            problems.append(f"detection {key} emitted twice")
        used.add(key)
        targets.append(target)
    return targets, _limit(problems, "provenance")


def idf1_from_pairs(pairs: Counter, truth_rows: int, output_rows: int) -> float:
    """IDF1 with targets as ground truth: rows the best one-to-one pairing
    of targets with output ids agrees on, over all truth and output rows."""
    # Imported here so that loading this module in a set-up probe does not
    # pull in scipy on the program's behalf.
    from scipy.optimize import linear_sum_assignment

    if truth_rows + output_rows == 0:
        return 0.0
    targets = sorted({t for t, _ in pairs})
    ids = sorted({i for _, i in pairs})
    ti = {t: n for n, t in enumerate(targets)}
    ii = {i: n for n, i in enumerate(ids)}
    m = np.zeros((len(targets), len(ids)))
    for (t, i), n in pairs.items():
        m[ti[t], ii[i]] = n
    r, c = linear_sum_assignment(m, maximize=True)
    idtp = float(m[r, c].sum())
    return 2.0 * idtp / (truth_rows + output_rows)


def idf1_floor(value: float, floor: float) -> list[str]:
    if value < floor:
        return [f"IDF1 from provenance {value:.4f} is below the floor {floor}"]
    return []


def rows_digest(keys) -> str:
    """Order-free digest of a collection of hashable rows."""
    h = hashlib.blake2b(digest_size=16)
    for k in sorted(keys):
        h.update(repr(k).encode())
    return h.hexdigest()


def same_digests(label: str, got: list[str], want: list[str]) -> list[str]:
    if len(got) != len(want):
        return [f"{label}: {len(got)} windows against {len(want)}"]
    bad = [n for n, (a, b) in enumerate(zip(got, want)) if a != b]
    return _limit([f"{label}: window {n} differs" for n in bad], label)


class BridgeCheck:
    """Ids of a target that hid must carry over the gap.

    For each gap, the target must carry, on at least MIN_ROWS rows from
    ``lo`` to ``hi`` frames after it reappears (by then level 2 has seen it
    again for a few windows), an id it carried on at least MIN_ROWS rows
    in the ``before`` frames before it hid.  A dropped detection briefly
    costs any target its id (level 1 emits a track only after three hits
    in a row, and level 2 then needs three windows), so the target may
    show a fallback id on either side of the gap; a gap that is not
    bridged leaves it without its old id for good.  Rows must be fed in
    frame order.
    """

    MIN_ROWS = 10

    def __init__(self, gaps, before: int, lo: int, hi: int):
        self.before, self.lo, self.hi = before, lo, hi
        self._pending: dict[int, list] = {}
        for g in gaps:
            self._pending.setdefault(g.target, []).append(g)
        self._ids: dict[tuple[int, bool], Counter] = {}
        self.checked = 0
        self.problems: list[str] = []

    def feed(self, frame: int, target: int, track_id: int) -> None:
        queue = self._pending.get(target)
        while queue:
            g = queue[0]
            if frame > g.last_hidden + self.hi:
                self._close(target, g)
                continue
            if g.first_hidden - self.before <= frame < g.first_hidden:
                self._ids.setdefault((target, False), Counter())[track_id] += 1
            elif frame >= g.last_hidden + self.lo:
                self._ids.setdefault((target, True), Counter())[track_id] += 1
            return

    def _close(self, target, g) -> None:
        before = self._ids.pop((target, False), None)
        after = self._ids.pop((target, True), None)
        self._pending[target].pop(0)
        if not before or not after:
            self.problems.append(f"target {target} has no rows around the gap "
                                 f"{g.first_hidden}-{g.last_hidden}")
            return
        if any(n >= self.MIN_ROWS and before[i] >= self.MIN_ROWS
               for i, n in after.items()):
            self.checked += 1
        else:
            self.problems.append(
                f"target {target} lost its id over the hide in frames "
                f"{g.first_hidden}-{g.last_hidden}: rows per id before "
                f"{dict(before)}, after {dict(after)}")

    def finish(self) -> list[str]:
        for target, queue in self._pending.items():
            while queue:
                self._close(target, queue[0])
        return _limit(self.problems, "bridges")


COUNT_FIELDS = ("gt_det", "tp", "fp", "fn", "idsw", "idtp", "idfp", "idfn")


def score_counts(counts: dict, expected: dict, label: str) -> list[str]:
    """CLEAR and identity counts must equal those the edits imply."""
    return [f"{label}: {k} is {counts[k]}, the edits imply {expected[k]}"
            for k in COUNT_FIELDS if counts[k] != expected[k]]


def hota_properties(det_a, ass_a, expected: dict, label: str) -> list[str]:
    """DetA never rises with alpha; at the lowest alpha, where every kept
    result row matches its own target, DetA and AssA equal the values the
    edits imply."""
    problems = []
    for a, (lo, hi) in enumerate(zip(det_a, det_a[1:])):
        if hi > lo:
            problems.append(f"{label}: DetA rises from alpha step {a} to {a + 1}")
    if abs(det_a[0] - expected["det_a_low"]) > 1e-12:
        problems.append(f"{label}: lowest-alpha DetA {det_a[0]!r}, the edits "
                        f"imply {expected['det_a_low']!r}")
    if abs(ass_a[0] - expected["ass_a_low"]) > 1e-9 * max(1.0, expected["ass_a_low"]):
        problems.append(f"{label}: lowest-alpha AssA {ass_a[0]!r}, the edits "
                        f"imply {expected['ass_a_low']!r}")
    return problems
