"""Windowed two-level ID correction.

A primary tracker (level 1) consumes every detection frame by frame and
its output is buffered for k frames.  At the end of each window the
highest-confidence box of each level-1 id is fed, as a single pseudo-frame,
to a second tracker (level 2) that therefore runs at 1/k of the frame rate
over only the cleanest boxes.  Level-2 ids are then taken as reference:
one IoU matrix holds the level-1 boxes of all buffered frames against the
window's level-2 boxes; each frame's rows of it are matched by
IoU-distance assignment, admitting only pairs that overlap, and each
matched level-1 box is relabeled with its level-2 id.  Level-1 boxes that
match no level-2 box get a deterministic fresh id, UNMATCHED_ID_OFFSET
plus their level-1 id; it cannot equal a level-2 id while level 2 has
issued fewer than UNMATCHED_ID_OFFSET ids.

Because level 2 steps once per window, a track it can hold for n of its own
steps survives k*n source frames, which is what lets the corrected stream
bridge gaps that kill the level-1 track.

Only ids change: boxes, confidences, and frame indices pass through
untouched.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from .assignment import solve_admissible
from .geometry import iou_matrix
from .trackers import Detection, TrackedDetection, _TrackerBase

# Level-1 ids with no level-2 match are remapped to this offset plus their
# original id, which stays readable and is apart from the level-2 ids only
# while level 2 has issued fewer ids than the offset.
UNMATCHED_ID_OFFSET = 1_000_000


@dataclass
class WindowBuffer:
    """Up to k frames of level-1 output plus the best box seen per id."""

    k: int
    frames: list[tuple[int, list[TrackedDetection]]] = field(default_factory=list)
    best_per_id: dict[int, TrackedDetection] = field(default_factory=dict)

    def push(self, frame: int, tracked: Sequence[TrackedDetection]) -> None:
        if self.frames and frame <= self.frames[-1][0]:
            raise ValueError(f"out-of-order frame {frame} pushed into window buffer")
        if len(self.frames) >= self.k:
            raise ValueError("window buffer already full")
        self.frames.append((frame, list(tracked)))
        for td in tracked:
            best = self.best_per_id.get(td.track_id)
            # Strict improvement only: ties keep the earliest-buffered entry.
            if best is None or td.confidence > best.confidence:
                self.best_per_id[td.track_id] = td

    @property
    def full(self) -> bool:
        return len(self.frames) >= self.k

    @property
    def empty(self) -> bool:
        return not self.frames


def select_best(buffer: WindowBuffer) -> list[TrackedDetection]:
    """One entry per level-1 id in the window: its highest-confidence box.

    Confidence ties resolve to the earliest frame, then the smallest id;
    the result is ordered by id so downstream processing is deterministic.
    """
    return [buffer.best_per_id[i] for i in sorted(buffer.best_per_id)]


class WindowedTracker:
    """Composes a per-frame level-1 tracker with a per-window level-2 tracker."""

    def __init__(self, level1: _TrackerBase, level2: _TrackerBase, k: int):
        if k < 1:
            raise ValueError(f"window length k must be >= 1, got {k}")
        self.level1 = level1
        self.level2 = level2
        self.k = k
        self._buffer = WindowBuffer(k)
        self._last_frame = 0

    def push_frame(
        self, frame: int, detections: Sequence[Detection]
    ) -> Optional[list[TrackedDetection]]:
        """Step level 1 and buffer its output.

        Returns None while the window is filling; on the k-th frame,
        finalizes the window and returns the corrected detections for all
        buffered frames.  Frames with no detections still count toward k.
        """
        if frame <= self._last_frame:
            raise ValueError(
                f"out-of-order frame {frame}; already pushed {self._last_frame}"
            )
        self._last_frame = frame
        self._buffer.push(frame, self.level1.step(frame, detections))
        if self._buffer.full:
            return self.finalize_window()
        return None

    def flush(self) -> list[TrackedDetection]:
        """Finalize a trailing partial window; empty buffer yields nothing."""
        if self._buffer.empty:
            return []
        return self.finalize_window()

    def finalize_window(self) -> list[TrackedDetection]:
        """Run level 2 on the window's best boxes and relabel level-1 output."""
        buffer = self._buffer
        self._buffer = WindowBuffer(self.k)

        last_frame = buffer.frames[-1][0]
        selected = select_best(buffer)
        pseudo = [
            Detection(last_frame, td.box, td.confidence) for td in selected
        ]
        level2_out = self.level2.step(last_frame, pseudo)

        # One IoU call per window; each frame is matched on its own rows.
        overlap = iou_matrix(
            [td.box for _, tracked in buffer.frames for td in tracked],
            [td.box for td in level2_out],
        )
        corrected: list[TrackedDetection] = []
        start = 0
        for _, tracked in buffer.frames:
            block = overlap[start:start + len(tracked)]
            start += len(tracked)
            id_map = {
                r: level2_out[c].track_id
                for r, c in solve_admissible(1.0 - block, block > 0.0).matches
            }
            for idx, td in enumerate(tracked):
                new_id = id_map.get(idx, UNMATCHED_ID_OFFSET + td.track_id)
                corrected.append(TrackedDetection(td.detection, new_id))
        return corrected


def run_windowed(
    tracker: WindowedTracker,
    detections_by_frame: dict[int, list[Detection]],
    last_frame: Optional[int] = None,
) -> list[TrackedDetection]:
    """Push frames 1..last_frame (empty frames included) and flush the tail."""
    if last_frame is None:
        last_frame = max(detections_by_frame, default=0)
    out: list[TrackedDetection] = []
    for f in range(1, last_frame + 1):
        emitted = tracker.push_frame(f, detections_by_frame.get(f, []))
        if emitted:
            out.extend(emitted)
    out.extend(tracker.flush())
    return out
