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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional, Sequence

import numpy as np

from .assignment import AssignmentResult, solve, solve_admissible
from .geometry import BoundingBox, iou_distance_matrix
from .kalman import DegenerateStateError, KalmanState, MotionFilter, state_to_box

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
    """Mutable per-track state: filter state, observation history, lifecycle."""

    def __init__(self, track_id: int, state: KalmanState, first: TrackedDetection):
        self.id = track_id
        self.state = state
        self.history: list[TrackedDetection] = [first]
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


def _center(box: BoundingBox) -> tuple[float, float]:
    return box.cx, box.cy


def _direction_cost(u: tuple[float, float], v: tuple[float, float]) -> float:
    """Angle between two motion vectors, normalized to [0, 1].

    Zero-length vectors carry no direction and contribute no cost.
    """
    nu = math.hypot(*u)
    nv = math.hypot(*v)
    if nu == 0.0 or nv == 0.0:
        return 0.0
    cos = (u[0] * v[0] + u[1] * v[1]) / (nu * nv)
    return math.acos(max(-1.0, min(1.0, cos))) / math.pi


class _TrackerBase:
    """Shared stepping lifecycle; subclasses provide the association stage."""

    def __init__(self, config: TrackerConfig, motion_filter: Optional[MotionFilter] = None):
        self.config = config
        self._filter = motion_filter if motion_filter is not None else MotionFilter()
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

        for t in self._tracks:
            t.state = self._filter.predict(t.state)
            try:
                t.predicted_box = state_to_box(t.state)
            except DegenerateStateError:
                # Invalid geometry: sit this frame out rather than emit it.
                t.predicted_box = None

        pairs, spawn = self._associate(dets)

        emitted: list[TrackedDetection] = []
        matched = set()
        for t, det in pairs:
            matched.add(t.id)
            t.state = self._updated_state(t, det)
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
                         TrackedDetection(det, self._next_id))
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

    def _updated_state(self, track: Tracklet, det: Detection) -> KalmanState:
        return self._filter.update(track.state, det.box)

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
        ref = obs[max(0, len(obs) - 1 - self.config.ocm_delta_t)]
        cx1, cy1 = _center(ref.detection.box)
        cx2, cy2 = _center(obs[-1].detection.box)
        return (cx2 - cx1, cy2 - cy1)

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
        if cfg.ocm_weight > 0:
            for i, t in enumerate(tracks):
                heading = self._track_heading(t)
                if heading == (0.0, 0.0):
                    continue
                lx, ly = _center(t.last_box)
                for j, d in enumerate(dets):
                    dx, dy = _center(d.box)
                    direction[i, j] = _direction_cost(heading, (dx - lx, dy - ly))
        # Gate on the IoU distance alone; the direction term only ranks
        # candidates that already overlap enough.
        result = solve_admissible(dist + cfg.ocm_weight * direction,
                                  dist <= cfg.iou_gate)

        pairs = [(tracks[r], dets[c]) for r, c in result.matches]
        spawn = [dets[c] for c in result.unmatched_cols]
        return pairs, spawn

    def _updated_state(self, track: Tracklet, det: Detection) -> KalmanState:
        gap = track.frames_since_update
        if not self.config.oru_enabled or gap < 1:
            return super()._updated_state(track, det)
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


_TRACKER_CLASSES = {
    "sort": SortTracker,
    "bytetrack": ByteTracker,
    "ocsort": OcSortTracker,
}


def make_tracker(
    config: TrackerConfig, motion_filter: Optional[MotionFilter] = None
) -> _TrackerBase:
    return _TRACKER_CLASSES[config.kind](config, motion_filter)


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
