"""Appearance-free base trackers: SORT, ByteTrack, and OC-SORT.

All three share one lifecycle (predict, associate, update, age, spawn,
retire) and one stepping interface, so any of them can serve as either
level of the windowed tracker.  They differ only in how a frame's
detections are associated to existing tracks:

* SORT matches every detection against the predicted track boxes with a
  gated IoU-distance assignment.
* ByteTrack splits detections by confidence and runs two association
  stages: high-confidence detections against all tracks, then the
  remaining mid-confidence detections against still-unmatched tracks.
  Detections below the low threshold are treated as background.
* OC-SORT adds a motion-direction consistency term to the association
  cost, anchors lost tracks at their last observation instead of the
  drifting prediction, and on recovery rebuilds the filter by replaying
  linearly interpolated virtual observations across the gap.

Each step runs one Kalman predict over the stacked states of all live
tracks and one update over all matched tracks; only OC-SORT's recovery
replay steps the filter per track.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from enum import Enum
from typing import Optional, Sequence

import numpy as np

from .assignment import AssignmentResult, solve, solve_admissible
from .geometry import BoundingBox, iou_distance_matrix
from .kalman import (DegenerateStateError, KalmanState, MotionFilter,
                     box_to_measurement, state_to_box)

TRACKER_KINDS = ("sort", "bytetrack", "ocsort")


@dataclass(frozen=True)
class Detection:
    """One detector output: frame index, box, confidence in [0, 1]."""

    frame: int
    box: BoundingBox
    confidence: float

    def __post_init__(self):
        if self.frame < 1:
            raise ValueError(f"frame index must be >= 1, got {self.frame}")
        if not 0.0 <= self.confidence <= 1.0:
            raise ValueError(f"confidence must be in [0, 1], got {self.confidence}")


@dataclass(frozen=True)
class TrackedDetection:
    """A detection bound to a track id."""

    detection: Detection
    track_id: int

    def __post_init__(self):
        if self.track_id < 1:
            raise ValueError(f"track id must be >= 1, got {self.track_id}")

    @property
    def frame(self) -> int:
        return self.detection.frame

    @property
    def box(self) -> BoundingBox:
        return self.detection.box

    @property
    def confidence(self) -> float:
        return self.detection.confidence


class TrackStatus(Enum):
    TENTATIVE = "tentative"
    ACTIVE = "active"
    LOST = "lost"
    REMOVED = "removed"


@dataclass
class TrackerConfig:
    """Tracker parameters; every constant of every tracker kind lives here.

    iou_gate is the maximum accepted IoU *distance* (0.7 means candidate
    pairs must overlap with IoU >= 0.3).  The confidence thresholds drive
    ByteTrack's two stages; ocm_weight/ocm_delta_t/oru_enabled drive
    OC-SORT's motion term and observation-centric recovery.
    """

    kind: str = "sort"
    iou_gate: float = 0.7
    max_age: int = 30
    min_hits: int = 3
    high_conf_threshold: float = 0.6
    low_conf_threshold: float = 0.1
    ocm_weight: float = 0.2
    ocm_delta_t: int = 3
    oru_enabled: bool = True

    def __post_init__(self):
        if self.kind not in TRACKER_KINDS:
            raise ValueError(f"unknown tracker kind {self.kind!r}")
        if not 0.0 <= self.iou_gate <= 1.0:
            raise ValueError("iou_gate must be in [0, 1]")
        if self.max_age < 1:
            raise ValueError("max_age must be >= 1")
        if self.min_hits < 1:
            raise ValueError("min_hits must be >= 1")
        if not 0.0 <= self.low_conf_threshold <= self.high_conf_threshold <= 1.0:
            raise ValueError("need 0 <= low_conf_threshold <= high_conf_threshold <= 1")
        if self.ocm_weight < 0:
            raise ValueError("ocm_weight must be >= 0")
        if self.ocm_delta_t < 1:
            raise ValueError("ocm_delta_t must be >= 1")


class Tracklet:
    """Mutable per-track state: filter state, observation history, lifecycle.

    history keeps only the last history_len observations, all that the
    association stages read.
    """

    def __init__(self, track_id: int, state: KalmanState, first: TrackedDetection,
                 history_len: int):
        self.id = track_id
        self.state = state
        self.history: deque[TrackedDetection] = deque([first], maxlen=history_len)
        self.status = TrackStatus.TENTATIVE
        self.frames_since_update = 0
        self.hit_streak = 1
        self.state_at_last_update = state
        self.predicted_box: Optional[BoundingBox] = None

    @property
    def last_box(self) -> BoundingBox:
        return self.history[-1].detection.box


def associate_iou(
    track_boxes: Sequence[BoundingBox],
    detection_boxes: Sequence[BoundingBox],
    gate: float,
) -> AssignmentResult:
    """Gated IoU-distance assignment of tracks (rows) to detections (cols)."""
    return solve(iou_distance_matrix(track_boxes, detection_boxes), gate=gate)


def _centers(boxes: Sequence[BoundingBox]) -> np.ndarray:
    return np.array([(b.cx, b.cy) for b in boxes])


def direction_costs(headings: np.ndarray, displacements: np.ndarray) -> np.ndarray:
    """Angle between each heading (T, 2) and each of its displacements
    (T, D, 2), normalized to [0, 1]; returns (T, D).

    Zero-length vectors carry no direction and contribute no cost.
    """
    u0 = headings[:, None, 0]
    u1 = headings[:, None, 1]
    v0 = displacements[..., 0]
    v1 = displacements[..., 1]
    norms = np.hypot(u0, u1) * np.hypot(v0, v1)
    # Where a norm is zero, cos stays 1 and the angle is exactly 0.
    cos = np.divide(u0 * v0 + u1 * v1, norms,
                    out=np.ones_like(norms), where=norms != 0.0)
    return np.arccos(np.clip(cos, -1.0, 1.0)) / np.pi


class _TrackerBase:
    """Shared stepping lifecycle; subclasses provide the association stage."""

    def __init__(self, config: TrackerConfig):
        self.config = config
        self._filter = MotionFilter()
        self._tracks: list[Tracklet] = []
        self._next_id = 1
        self._last_frame = 0

    @property
    def tracks(self) -> list[Tracklet]:
        return list(self._tracks)

    def step(self, frame: int, detections: Sequence[Detection]) -> list[TrackedDetection]:
        """Advance one frame; returns the frame's confirmed tracked detections.

        Frames must be stepped in strictly increasing order and every
        detection must carry the stepped frame index.
        """
        if frame <= self._last_frame:
            raise ValueError(
                f"out-of-order frame {frame}; already stepped {self._last_frame}"
            )
        dets = list(detections)
        for d in dets:
            if d.frame != frame:
                raise ValueError(
                    f"detection frame {d.frame} does not match stepped frame {frame}"
                )
        self._last_frame = frame

        if self._tracks:
            predicted = self._filter.predict(_stacked(self._tracks))
            for t, state in zip(self._tracks, _rows(predicted)):
                t.state = state
                try:
                    t.predicted_box = state_to_box(state)
                except DegenerateStateError:
                    # Invalid geometry: sit this frame out rather than emit it.
                    t.predicted_box = None

        pairs, spawn = self._associate(dets)

        # One update for every matched track, except those whose update
        # the tracker replays on its own.
        direct = []
        for t, det in pairs:
            replayed = self._replayed_state(t, det)
            if replayed is None:
                direct.append((t, det))
            else:
                t.state = replayed
        if direct:
            updated = self._filter.update(
                _stacked([t for t, _ in direct]),
                np.array([box_to_measurement(d.box) for _, d in direct]),
            )
            for (t, _), state in zip(direct, _rows(updated)):
                t.state = state

        emitted: list[TrackedDetection] = []
        matched = set()
        for t, det in pairs:
            matched.add(t.id)
            t.state_at_last_update = t.state
            t.frames_since_update = 0
            t.hit_streak += 1
            t.history.append(TrackedDetection(det, t.id))
            t.status = (
                TrackStatus.ACTIVE
                if t.hit_streak >= self.config.min_hits
                else TrackStatus.TENTATIVE
            )
            if t.hit_streak >= self.config.min_hits:
                emitted.append(t.history[-1])

        for t in self._tracks:
            if t.id not in matched:
                t.frames_since_update += 1
                t.hit_streak = 0
                t.status = TrackStatus.LOST

        for det in spawn:
            t = Tracklet(self._next_id, self._filter.init_state(det.box),
                         TrackedDetection(det, self._next_id),
                         self.config.ocm_delta_t + 1)
            self._next_id += 1
            self._tracks.append(t)
            if t.hit_streak >= self.config.min_hits:
                t.status = TrackStatus.ACTIVE
                emitted.append(t.history[-1])

        survivors = []
        for t in self._tracks:
            if t.frames_since_update > self.config.max_age:
                t.status = TrackStatus.REMOVED
            else:
                survivors.append(t)
        self._tracks = survivors
        return emitted

    def _replayed_state(self, track: Tracklet, det: Detection) -> Optional[KalmanState]:
        """The state after matching det, for a track whose update cannot
        join the frame's batched one; None otherwise."""
        return None

    def _associate(
        self, dets: list[Detection]
    ) -> tuple[list[tuple[Tracklet, Detection]], list[Detection]]:
        raise NotImplementedError


class SortTracker(_TrackerBase):
    """Gated IoU association of predicted track boxes to all detections."""

    def _associate(self, dets):
        tracks = [t for t in self._tracks if t.predicted_box is not None]
        result = associate_iou(
            [t.predicted_box for t in tracks], [d.box for d in dets],
            self.config.iou_gate,
        )
        pairs = [(tracks[r], dets[c]) for r, c in result.matches]
        spawn = [dets[c] for c in result.unmatched_cols]
        return pairs, spawn


class ByteTracker(_TrackerBase):
    """Two-stage association split by detection confidence.

    Stage 1 matches detections at or above high_conf_threshold against all
    tracks.  Stage 2 matches detections in [low_conf_threshold,
    high_conf_threshold) against the tracks stage 1 left unmatched.
    Unmatched low-confidence detections never spawn tracks.
    """

    def _associate(self, dets):
        cfg = self.config
        high = [d for d in dets if d.confidence >= cfg.high_conf_threshold]
        mid = [
            d for d in dets
            if cfg.low_conf_threshold <= d.confidence < cfg.high_conf_threshold
        ]
        tracks = [t for t in self._tracks if t.predicted_box is not None]

        first = associate_iou(
            [t.predicted_box for t in tracks], [d.box for d in high], cfg.iou_gate
        )
        pairs = [(tracks[r], high[c]) for r, c in first.matches]
        leftovers = [tracks[r] for r in first.unmatched_rows]

        second = associate_iou(
            [t.predicted_box for t in leftovers], [d.box for d in mid], cfg.iou_gate
        )
        pairs.extend((leftovers[r], mid[c]) for r, c in second.matches)

        spawn = [high[c] for c in first.unmatched_cols]
        return pairs, spawn


class OcSortTracker(_TrackerBase):
    """SORT with observation-centric recovery and a motion-direction cost.

    When oru_enabled, lost tracks are anchored at their last observed box
    for association, and on re-association the filter is rebuilt by
    replaying linearly interpolated virtual observations over the gap.
    The direction term penalizes candidates inconsistent with the track's
    observed heading over its last ocm_delta_t observations; tracks with
    fewer than two observations contribute no direction cost.
    """

    def _anchor(self, track: Tracklet) -> Optional[BoundingBox]:
        if self.config.oru_enabled and track.frames_since_update >= 1:
            return track.last_box
        return track.predicted_box

    def _track_heading(self, track: Tracklet) -> tuple[float, float]:
        obs = track.history
        if len(obs) < 2:
            return (0.0, 0.0)
        # history holds at most ocm_delta_t + 1 observations, so a full
        # history's reference is its oldest entry.
        ref = obs[max(0, len(obs) - 1 - self.config.ocm_delta_t)].box
        last = obs[-1].box
        return (last.cx - ref.cx, last.cy - ref.cy)

    def _associate(self, dets):
        cfg = self.config
        tracks = []
        anchors = []
        for t in self._tracks:
            anchor = self._anchor(t)
            if anchor is not None:
                tracks.append(t)
                anchors.append(anchor)

        dist = iou_distance_matrix(anchors, [d.box for d in dets])
        direction = np.zeros_like(dist)
        if cfg.ocm_weight > 0 and dist.size:
            headings = np.array([self._track_heading(t) for t in tracks])
            displacements = (_centers([d.box for d in dets])[None, :, :]
                             - _centers([t.last_box for t in tracks])[:, None, :])
            direction = direction_costs(headings, displacements)
        # Gate on the IoU distance alone; the direction term only ranks
        # candidates that already overlap enough.
        result = solve_admissible(dist + cfg.ocm_weight * direction,
                                  dist <= cfg.iou_gate)

        pairs = [(tracks[r], dets[c]) for r, c in result.matches]
        spawn = [dets[c] for c in result.unmatched_cols]
        return pairs, spawn

    def _replayed_state(self, track: Tracklet, det: Detection) -> Optional[KalmanState]:
        gap = track.frames_since_update
        if not self.config.oru_enabled or gap < 1:
            return None
        # Replay the filter over the gap: from the state at the last real
        # observation, feed linearly interpolated virtual boxes, then the
        # current observation, exactly as if none had been missed.
        b0 = track.last_box
        b1 = det.box
        state = track.state_at_last_update
        c0 = (b0.cx, b0.cy, b0.w, b0.h)
        c1 = (b1.cx, b1.cy, b1.w, b1.h)
        for j in range(1, gap + 1):
            f = j / (gap + 1)
            cx, cy, w, h = (a + (b - a) * f for a, b in zip(c0, c1))
            virtual = BoundingBox(cx - w / 2.0, cy - h / 2.0, w, h)
            state = self._filter.update(self._filter.predict(state), virtual)
        return self._filter.update(self._filter.predict(state), b1)


def _stacked(tracks: Sequence[Tracklet]) -> KalmanState:
    return KalmanState(np.stack([t.state.mean for t in tracks]),
                       np.stack([t.state.covariance for t in tracks]))


def _rows(stack: KalmanState) -> list[KalmanState]:
    return [KalmanState(m, c) for m, c in zip(stack.mean, stack.covariance)]


_TRACKER_CLASSES = {
    "sort": SortTracker,
    "bytetrack": ByteTracker,
    "ocsort": OcSortTracker,
}


def make_tracker(config: TrackerConfig) -> _TrackerBase:
    return _TRACKER_CLASSES[config.kind](config)


def run_tracker(
    tracker: _TrackerBase,
    detections_by_frame: dict[int, list[Detection]],
    last_frame: Optional[int] = None,
) -> list[TrackedDetection]:
    """Step a tracker over frames 1..last_frame, including empty frames."""
    if last_frame is None:
        last_frame = max(detections_by_frame, default=0)
    out: list[TrackedDetection] = []
    for f in range(1, last_frame + 1):
        out.extend(tracker.step(f, detections_by_frame.get(f, [])))
    return out
