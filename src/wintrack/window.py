"""Windowed two-level ID correction.

A primary tracker (level 1) consumes every detection frame by frame and
its output is buffered for k frames, as a list of (frame, level-1 rows).
At the end of each window one pass over those rows picks the
highest-confidence box of each level-1 id, and these are fed, as a single
pseudo-frame, to a second tracker (level 2) that therefore runs at 1/k of
the frame rate over only the cleanest boxes.  Level-2 ids are then taken
as reference: one IoU matrix holds the level-1 boxes of all buffered
frames against the window's level-2 boxes; each frame's rows of it are
matched by IoU-distance assignment, admitting only pairs that overlap, and
each matched level-1 box is relabeled with its level-2 id.  Level-1 boxes
that match no level-2 box get a deterministic fresh id.  The two namespaces
are disjoint at any id count: level-2 ids up to UNMATCHED_ID_OFFSET and
fresh ids UNMATCHED_ID_OFFSET plus a level-1 id below it are emitted as
they are; above the offset, level-2 id n is emitted as 2n and level-1 id m
as 2m + 1.

Because level 2 steps once per window, a track it can hold for n of its own
steps survives k*n source frames, which is what lets the corrected stream
bridge gaps that kill the level-1 track.

Only ids change: boxes, confidences, and frame indices pass through
untouched.
"""

from __future__ import annotations

from numbers import Integral
from typing import Optional, Sequence

from .assignment import solve
from .geometry import box_array, iou_matrix
from .motio import Detection, MotRecord
from .trackers import _TrackerBase

# A level-1 id m with no level-2 match is emitted as this offset plus m, which
# stays readable, while m is below the offset, and as 2m + 1 from the offset
# on; level-2 ids above the offset are emitted doubled.  Fresh and level-2 ids
# then never meet, however many ids either level issues.
UNMATCHED_ID_OFFSET = 1_000_000


def select_best(rows: Sequence[MotRecord]) -> list[MotRecord]:
    """One entry per level-1 id in a window's rows: its highest-confidence box.

    rows come in frame order, so confidence ties resolve to the earliest
    frame; the result is ordered by id so downstream processing is
    deterministic.
    """
    best: dict[int, MotRecord] = {}
    for td in rows:
        kept = best.get(td.track_id)
        # Strict improvement only: ties keep the earliest row.
        if kept is None or td.confidence > kept.confidence:
            best[td.track_id] = td
    return [best[i] for i in sorted(best)]


class WindowedTracker:
    """Composes a per-frame level-1 tracker with a per-window level-2 tracker."""

    def __init__(self, level1: _TrackerBase, level2: _TrackerBase, k: int):
        if isinstance(k, bool) or not isinstance(k, Integral) or k < 1:
            raise ValueError(f"window length k must be an integer >= 1, got {k!r}")
        self.level1 = level1
        self.level2 = level2
        self.k = k
        # The open window: (frame, level-1 output) per pushed frame.
        self._frames: list[tuple[int, list[MotRecord]]] = []

    def push_frame(
        self, frame: int, detections: Sequence[Detection]
    ) -> Optional[list[MotRecord]]:
        """Step level 1 and buffer its output.

        Returns None while the window is filling; on the k-th frame,
        finalizes the window and returns the corrected detections for all
        buffered frames.  Frames with no detections still count toward k.
        Level 1 rejects an out-of-order frame before anything is buffered.
        """
        self._frames.append((frame, self.level1.step(frame, detections)))
        if len(self._frames) == self.k:
            return self.finalize_window()
        return None

    def flush(self) -> list[MotRecord]:
        """Finalize a trailing partial window; empty buffer yields nothing."""
        if not self._frames:
            return []
        return self.finalize_window()

    def finalize_window(self) -> list[MotRecord]:
        """Run level 2 on the window's best boxes and relabel level-1 output."""
        frames, self._frames = self._frames, []
        rows = [td for _, tracked in frames for td in tracked]

        last_frame = frames[-1][0]
        pseudo = [
            Detection(last_frame, td.box, td.confidence) for td in select_best(rows)
        ]
        level2_out = self.level2.step(last_frame, pseudo)

        # One IoU call per window; each frame is matched on its own rows.
        overlap = iou_matrix(box_array([td.box for td in rows]),
                             box_array([td.box for td in level2_out]))
        level2_ids = [n if n <= UNMATCHED_ID_OFFSET else 2 * n
                      for n in (td.track_id for td in level2_out)]
        corrected: list[MotRecord] = []
        start = 0
        for _, tracked in frames:
            block = overlap[start:start + len(tracked)]
            start += len(tracked)
            matched, cols = solve(1.0 - block, block > 0.0)
            id_map = {r: level2_ids[c] for r, c in zip(matched.tolist(), cols.tolist())}
            for idx, td in enumerate(tracked):
                new_id = id_map.get(idx)
                if new_id is None:
                    m = td.track_id
                    new_id = (UNMATCHED_ID_OFFSET + m if m < UNMATCHED_ID_OFFSET
                              else 2 * m + 1)
                corrected.append(
                    MotRecord(td.frame, new_id, td.box, td.confidence))
        return corrected


def run_windowed(
    tracker: WindowedTracker, detections_by_frame: dict[int, list[Detection]]
) -> list[MotRecord]:
    """Push frames 1 to the last detection frame (empty frames included) and
    flush the tail."""
    out: list[MotRecord] = []
    for f in range(1, max(detections_by_frame, default=0) + 1):
        emitted = tracker.push_frame(f, detections_by_frame.get(f, []))
        if emitted:
            out.extend(emitted)
    out.extend(tracker.flush())
    return out
