"""Windowed two-level ID correction.

A primary tracker (level 1) consumes every detection frame by frame and
its output is buffered for k frames, as a list of (frame, level-1 rows)
(``push_rows`` takes such rows, so one level-1 run serves several k).
At the end of each window those rows become arrays, one sort picks the
highest-confidence box of each level-1 id, and these are fed, as a single
pseudo-frame, to the array core of a second tracker (level 2) that runs
at 1/k of the frame rate over only the cleanest boxes.  Level-2 ids are
then taken as reference: one IoU matrix holds the level-1 boxes of all
buffered frames against the window's level-2 boxes; each frame's rows of
it are matched by IoU-distance assignment, admitting only pairs that
overlap, and each matched level-1 box is relabeled with its level-2 id.
Level-1 boxes that match no level-2 box keep a deterministic fresh id.
The two namespaces are disjoint at any id count: level-2 ids up to
UNMATCHED_ID_OFFSET and fresh ids UNMATCHED_ID_OFFSET plus a level-1 id
below it are emitted as they are; above the offset, level-2 id n is
emitted as 2n and level-1 id m as 2m + 1, so level-1 ids must be below
LEVEL1_ID_LIMIT = 2**62.  A window with an id past that, an id that is no
integer (or a bool), an id repeated in a frame or a row of another frame
than the pushed one raises ValueError when finalized; its rows are dropped.

Because level 2 steps once per window, a track it can hold for n of its own
steps survives k*n source frames, which is what lets the corrected stream
bridge gaps that kill the level-1 track.

Only ids change: boxes, confidences, and frame indices pass through
untouched.
"""

from __future__ import annotations

from collections import Counter
from itertools import accumulate
from numbers import Integral
from typing import Iterable, Optional, Sequence

import numpy as np

from .assignment import solve
from .geometry import box_array, iou_matrix
from .motio import Detection, MotRecord, check_int_ids
from .trackers import _TrackerBase, track_frames

# A level-1 id m with no level-2 match is emitted as this offset plus m, which
# stays readable, while m is below the offset, and as 2m + 1 from the offset
# on; level-2 ids above the offset are emitted doubled.  Fresh and level-2 ids
# then never meet, however many ids either level issues.
UNMATCHED_ID_OFFSET = 1_000_000
LEVEL1_ID_LIMIT = 2**62


def best_rows(ids: np.ndarray, confidences: np.ndarray) -> np.ndarray:
    """Index of each id's highest-confidence row, ordered by id.

    One stable sort by id, then by falling confidence, so confidence ties
    resolve to the earliest row: in a window, the earliest frame.
    """
    order = np.lexsort((-confidences, ids))
    first = np.ones(len(order), dtype=bool)
    first[1:] = ids[order[1:]] != ids[order[:-1]]
    return order[first]


class WindowedTracker:
    """Composes a per-frame level-1 tracker with a per-window level-2 tracker."""

    def __init__(self, level1: _TrackerBase, level2: _TrackerBase, k: int):
        if isinstance(k, bool) or not isinstance(k, Integral) or k < 1:
            raise ValueError(f"window length k must be an integer >= 1, got {k!r}")
        self.level1 = level1
        self.level2 = level2
        self.k = k
        # The open window: (frame, level-1 output) per pushed frame.
        self._frames: list[tuple[int, Sequence[MotRecord]]] = []
        self._last_frame = 0

    def push_frame(
        self, frame: int, detections: Sequence[Detection]
    ) -> Optional[list[MotRecord]]:
        """Step level 1 and push its rows; level 1 rejects an out-of-order
        frame before anything is buffered."""
        return self.push_rows(frame, self.level1.step(frame, detections))

    def push_rows(self, frame: int, rows: Sequence[MotRecord]) -> Optional[list[MotRecord]]:
        """Buffer one frame of level-1 rows.

        Returns None while the window is filling; on the k-th frame,
        finalizes the window and returns the corrected detections for all
        buffered frames.  Frames with no rows still count toward k.  A frame
        not after the last pushed one is rejected before it is buffered.
        """
        if frame <= self._last_frame:
            raise ValueError(f"out-of-order frame {frame}; already pushed {self._last_frame}")
        self._last_frame = frame
        self._frames.append((frame, rows))
        return self.finalize_window() if len(self._frames) == self.k else None

    def flush(self) -> list[MotRecord]:
        """Finalize a trailing partial window; empty buffer yields nothing."""
        if not self._frames:
            return []
        return self.finalize_window()

    def finalize_window(self) -> list[MotRecord]:
        """Run level 2 on the window's best boxes and relabel level-1 output."""
        frames, self._frames = self._frames, []
        rows = [td for _, tracked in frames for td in tracked]
        boxes = box_array([td.box for td in rows])
        confidences = np.array([td.confidence for td in rows], dtype=float)
        # Checked by whole-list passes: on tens of rows they cost less than numpy calls.
        pushed = [f for f, tracked in frames for _ in tracked]
        row_frames, level1_ids = [td.frame for td in rows], [td.track_id for td in rows]
        if row_frames != pushed:
            stray, f = next(p for p in zip(row_frames, pushed) if p[0] != p[1])
            raise ValueError(f"row frame {stray} does not match pushed frame {f}")
        check_int_ids("level-1 rows", pushed, level1_ids)
        if max(level1_ids, default=0) >= LEVEL1_ID_LIMIT:
            raise ValueError(f"level-1 id {max(level1_ids)} is not below {LEVEL1_ID_LIMIT}")
        if len(set(zip(pushed, level1_ids))) < len(rows):
            f, i = next(p for p, n in Counter(zip(pushed, level1_ids)).items() if n > 1)
            raise ValueError(f"level-1 rows: frame {f} repeats id {i}")
        ids = np.array(level1_ids, dtype=np.int64)

        best = best_rows(ids, confidences)
        emitted, level2_ids = self.level2._advance(frames[-1][0], boxes[best],
                                                   confidences[best])

        # One IoU call per window; each frame is matched on its own rows.
        overlap = iou_matrix(boxes, boxes[best[emitted]])
        level2_ids = np.where(level2_ids <= UNMATCHED_ID_OFFSET, level2_ids, 2 * level2_ids)
        # Every row starts on its fresh id; each frame's matches overwrite it.
        new_ids = np.where(ids < UNMATCHED_ID_OFFSET, UNMATCHED_ID_OFFSET + ids, 2 * ids + 1)
        cost, admissible = 1.0 - overlap, overlap > 0.0
        bounds = [0, *accumulate(len(tracked) for _, tracked in frames)]
        for start, end in zip(bounds, bounds[1:]):
            if start < end:    # a frame with no rows has nothing to match
                matched, cols = solve(cost[start:end], admissible[start:end])
                new_ids[start + matched] = level2_ids[cols]
        return [MotRecord(td.frame, i, td.box, td.confidence)
                for td, i in zip(rows, new_ids.tolist())]


def correct(
    tracker: WindowedTracker, frames: Iterable[tuple[int, Sequence[MotRecord]]]
) -> list[MotRecord]:
    """Push each (frame, level-1 rows) pair and flush the tail."""
    out = [td for frame, rows in frames for td in tracker.push_rows(frame, rows) or ()]
    return out + tracker.flush()


def run_windowed(
    tracker: WindowedTracker, detections_by_frame: dict[int, list[Detection]]
) -> list[MotRecord]:
    """``correct`` over level 1's ``track_frames``: frames 1 to the last
    detection frame, empty frames included."""
    return correct(tracker, track_frames(tracker.level1, detections_by_frame))
