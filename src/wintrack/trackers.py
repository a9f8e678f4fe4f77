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

A tracker holds its live tracks as one table of arrays, one row per track
in creation order: ids, the Kalman mean (T, 8) and covariance blocks
(T, 3, 4) now and at the last update, a ring of the last ocm_delta_t + 1
observed boxes, and the frames-since-update and hit-streak counters.  A
step turns the frame's detections into one (N, 4) box array and one (N,)
confidence array, predicts every row in one Kalman call, masks out rows
whose predicted size is not positive, associates on arrays, updates all
matched rows in one call, starts all new tracks in one call, emits the
matched and new rows whose hit streak reaches min_hits, and retires rows
by one order-keeping compaction.  Association takes the solver's
matched rows and columns as index arrays, rows ascending; the unmatched
tracks and detections are their complements, which keep ascending order,
so tracks spawn in detection order.  Only OC-SORT's recovery replay steps
the filter per track.  ``tracks`` gives a read-only snapshot of the table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from numbers import Integral
from typing import Sequence

import numpy as np

from .assignment import solve
from .geometry import BoundingBox, box_array, iou_distance_matrix
from .kalman import MotionFilter
from .motio import Detection, MotRecord

TRACKER_KINDS = ("sort", "bytetrack", "ocsort")


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
        for name in ("max_age", "min_hits", "ocm_delta_t"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, Integral) or value < 1:
                raise ValueError(f"{name} must be an integer >= 1, got {value!r}")
        if not 0.0 <= self.low_conf_threshold <= self.high_conf_threshold <= 1.0:
            raise ValueError("need 0 <= low_conf_threshold <= high_conf_threshold <= 1")
        if not 0.0 <= self.ocm_weight < math.inf:
            raise ValueError("ocm_weight must be finite and >= 0")
        if not isinstance(self.oru_enabled, bool):
            raise ValueError(f"oru_enabled must be a bool, got {self.oru_enabled!r}")


@dataclass(frozen=True)
class Tracklet:
    """Read-only snapshot of one live track; history holds its last
    ocm_delta_t + 1 observed boxes at most, oldest first."""

    id: int
    history: tuple[BoundingBox, ...]
    frames_since_update: int
    hit_streak: int


@dataclass
class _TrackTable:
    """A tracker's live tracks, one row each, in creation order.

    Row order breaks assignment ties, so rows are only ever appended or
    dropped, never reordered.  obs is a ring of the last L observed boxes,
    oldest first; a new track's first box fills the whole ring, so obs[:, 0]
    is always the oldest box a history of at most L entries would hold.
    """

    ids: np.ndarray        # (T,)
    mean: np.ndarray       # (T, 8) Kalman mean and covariance
    cov: np.ndarray        # (T, 3, 4) per-component 2x2 blocks
    mean_upd: np.ndarray   # (T, 8) mean and covariance at the last update
    cov_upd: np.ndarray    # (T, 3, 4)
    obs: np.ndarray        # (T, L, 4) observed (x, y, w, h)
    n_obs: np.ndarray      # (T,) observations made
    since: np.ndarray      # (T,) frames since the last update
    streak: np.ndarray     # (T,) consecutive updated frames

    @classmethod
    def new(cls, ids, mean, cov, boxes, history_len: int) -> "_TrackTable":
        """Rows for new tracks, each updated once, by its (x, y, w, h) box."""
        n = len(ids)
        return cls(ids, mean, cov, mean, cov,
                   np.repeat(boxes[:, None, :], history_len, axis=1),
                   np.ones(n, dtype=int), np.zeros(n, dtype=int), np.ones(n, dtype=int))

    def take(self, index) -> "_TrackTable":
        return _TrackTable(*(getattr(self, f.name)[index] for f in fields(self)))

    def extend(self, other: "_TrackTable") -> "_TrackTable":
        return _TrackTable(*(np.concatenate([getattr(t, f.name) for t in (self, other)])
                             for f in fields(self)))


_NO_INDEX = np.zeros(0, dtype=np.intp)


def _centers(boxes: np.ndarray) -> np.ndarray:
    """(cx, cy) of (..., 4) arrays of (x, y, w, h)."""
    return boxes[..., :2] + boxes[..., 2:] / 2.0


def _measurements(boxes: np.ndarray) -> np.ndarray:
    """(x, y, w, h) rows as (cx, cy, w, h) rows."""
    return np.concatenate([_centers(boxes), boxes[:, 2:]], axis=1)


def associate_iou(track_boxes: np.ndarray, detection_boxes: np.ndarray,
                  gate: float) -> tuple[np.ndarray, np.ndarray]:
    """Gated IoU-distance assignment of tracks (rows) to detections (cols):
    the matched rows, ascending, and their detections.

    With no tracks or no detections nothing can match, and neither IoU nor
    the solver is called.
    """
    if len(track_boxes) == 0 or len(detection_boxes) == 0:
        return _NO_INDEX, _NO_INDEX
    dist = iou_distance_matrix(track_boxes, detection_boxes)
    return solve(dist, dist <= gate)


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
        self._history_len = config.ocm_delta_t + 1
        empty = np.zeros((0, 4))
        self._table = _TrackTable.new(_NO_INDEX, *self._filter.init_state(empty), empty,
                                      self._history_len)
        self._next_id = 1
        self._last_frame = 0

    @property
    def tracks(self) -> list[Tracklet]:
        """A snapshot of the live tracks, in creation order."""
        t, n = self._table, self._history_len
        return [Tracklet(i,
                         tuple(BoundingBox(*b) for b in t.obs[r, -min(k, n):].tolist()),
                         since, streak)
                for r, (i, k, since, streak) in enumerate(
                    zip(*(a.tolist() for a in (t.ids, t.n_obs, t.since, t.streak))))]

    def step(self, frame: int, detections: Sequence[Detection]) -> list[MotRecord]:
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
        boxes = box_array([d.box for d in dets])
        z = _measurements(boxes)

        t = self._table
        if len(t.ids):
            t.mean, t.cov = self._filter.predict(t.mean, t.cov)
        # A track whose predicted size is not positive has no box to match
        # this frame; it sits association out rather than be emitted.
        size = t.mean[:, 2:4]
        pred_boxes = np.concatenate([t.mean[:, :2] - size / 2.0, size], axis=1)
        valid = (size[:, 0] > 0) & (size[:, 1] > 0)
        confidences = np.array([d.confidence for d in dets], dtype=float)
        rows, cols, spawn = self._associate(pred_boxes, valid, boxes, confidences)

        if len(rows):
            mean, cov = self._updated(rows, z[cols])
            t.mean[rows] = t.mean_upd[rows] = mean
            t.cov[rows] = t.cov_upd[rows] = cov
            t.obs[rows, :-1] = t.obs[rows, 1:]
            t.obs[rows, -1] = boxes[cols]
            t.n_obs[rows] += 1
        t.since += 1
        t.since[rows] = 0
        t.streak = np.where(t.since == 0, t.streak + 1, 0)

        if len(spawn):
            new_ids = np.arange(self._next_id, self._next_id + len(spawn))
            self._next_id += len(spawn)
            # New rows are emitted by the matched rows' rule, after them.
            rows = np.concatenate([rows, len(t.ids) + np.arange(len(spawn))])
            cols = np.concatenate([cols, spawn])
            t = t.extend(_TrackTable.new(new_ids, *self._filter.init_state(z[spawn]),
                                         boxes[spawn], self._history_len))

        ids, streak, min_hits = t.ids.tolist(), t.streak.tolist(), self.config.min_hits
        emitted = [MotRecord(frame, ids[r], dets[c].box, dets[c].confidence)
                   for r, c in zip(rows.tolist(), cols.tolist()) if streak[r] >= min_hits]

        keep = t.since <= self.config.max_age
        self._table = t if keep.all() else t.take(keep)
        return emitted

    def _updated(self, rows: np.ndarray, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The (mean, cov) of the table rows updated against their
        (cx, cy, w, h) measurements, one row of z each."""
        t = self._table
        return self._filter.update(t.mean[rows], t.cov[rows], z)

    def _associate(self, pred_boxes: np.ndarray, valid: np.ndarray,
                   boxes: np.ndarray, confidences: np.ndarray):
        """Match table rows to detections, given the (T, 4) predicted boxes,
        their (T,) validity mask and the frame's (N, 4) boxes and (N,)
        confidences.  Returns index arrays: the matched rows, their
        detections in the same order, and the detections that start tracks.
        """
        raise NotImplementedError


class SortTracker(_TrackerBase):
    """Gated IoU association of predicted track boxes to all detections."""

    def _associate(self, pred_boxes, valid, boxes, confidences):
        tracks = np.flatnonzero(valid)
        rows, cols = associate_iou(pred_boxes[tracks], boxes, self.config.iou_gate)
        return tracks[rows], cols, np.delete(np.arange(len(boxes)), cols)


class ByteTracker(_TrackerBase):
    """Two-stage association split by detection confidence.

    Stage 1 matches detections at or above high_conf_threshold against all
    tracks.  Stage 2 matches detections in [low_conf_threshold,
    high_conf_threshold) against the tracks stage 1 left unmatched.
    Unmatched low-confidence detections never spawn tracks.
    """

    def _associate(self, pred_boxes, valid, boxes, confidences):
        cfg = self.config
        high = np.flatnonzero(confidences >= cfg.high_conf_threshold)
        mid = np.flatnonzero((cfg.low_conf_threshold <= confidences)
                             & (confidences < cfg.high_conf_threshold))
        tracks = np.flatnonzero(valid)

        rows, cols = associate_iou(pred_boxes[tracks], boxes[high], cfg.iou_gate)
        leftovers = np.delete(tracks, rows)
        rows2, cols2 = associate_iou(pred_boxes[leftovers], boxes[mid], cfg.iou_gate)
        return (np.concatenate([tracks[rows], leftovers[rows2]]),
                np.concatenate([high[cols], mid[cols2]]), np.delete(high, cols))


class OcSortTracker(_TrackerBase):
    """SORT with observation-centric recovery and a motion-direction cost.

    When oru_enabled, lost tracks are anchored at their last observed box
    for association, and on re-association the filter is rebuilt by
    replaying linearly interpolated virtual observations over the gap.
    The direction term penalizes candidates inconsistent with the track's
    observed heading over its last ocm_delta_t observations; tracks with
    fewer than two observations contribute no direction cost.
    """

    def _headings(self, rows: np.ndarray) -> np.ndarray:
        """Centre of each row's last observation minus that of the oldest
        one its ring holds; (0, 0) while a track has one observation."""
        centers = _centers(self._table.obs[rows])
        return centers[:, -1] - centers[:, 0]

    def _associate(self, pred_boxes, valid, boxes, confidences):
        cfg = self.config
        t = self._table
        lost = (t.since >= 1) & cfg.oru_enabled
        tracks = np.flatnonzero(lost | valid)
        if not len(tracks) or not len(boxes):
            return _NO_INDEX, _NO_INDEX, np.arange(len(boxes))
        last = t.obs[tracks, -1]
        anchors = np.where(lost[tracks, None], last, pred_boxes[tracks])

        dist = iou_distance_matrix(anchors, boxes)
        cost = dist
        if cfg.ocm_weight > 0:
            displacements = _centers(boxes)[None, :, :] - _centers(last)[:, None, :]
            cost = dist + cfg.ocm_weight * direction_costs(self._headings(tracks),
                                                           displacements)
        # Gate on the IoU distance alone; the direction term only ranks
        # candidates that already overlap enough.
        rows, cols = solve(cost, dist <= cfg.iou_gate)
        return tracks[rows], cols, np.delete(np.arange(len(boxes)), cols)

    def _updated(self, rows, z):
        mean, cov = super()._updated(rows, z)
        # A track re-found after a gap is replayed on its own instead.
        for i in np.flatnonzero((self._table.since[rows] >= 1) & self.config.oru_enabled):
            mean[i], cov[i] = self._replayed(int(rows[i]), z[i])
        return mean, cov

    def _replayed(self, row: int, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        # Replay the filter over the gap: from the state at the last real
        # observation, feed linearly interpolated virtual boxes, then the
        # current observation, exactly as if none had been missed.  Each
        # virtual box is formed as (x, y, w, h) and measured by its centre,
        # as a detection is, so its floats match a detection's.
        t = self._table
        gap = int(t.since[row])
        x, y, w, h = t.obs[row, -1].tolist()
        c0 = (x + w / 2.0, y + h / 2.0, w, h)
        c1 = z.tolist()
        kf = self._filter
        mean, cov = t.mean_upd[row], t.cov_upd[row]
        for j in range(1, gap + 1):
            f = j / (gap + 1)
            cx, cy, w, h = (a + (b - a) * f for a, b in zip(c0, c1))
            x, y = cx - w / 2.0, cy - h / 2.0
            virtual = np.array([x + w / 2.0, y + h / 2.0, w, h])
            mean, cov = kf.update(*kf.predict(mean, cov), virtual)
        return kf.update(*kf.predict(mean, cov), z)


_TRACKER_CLASSES = {
    "sort": SortTracker,
    "bytetrack": ByteTracker,
    "ocsort": OcSortTracker,
}


def make_tracker(config: TrackerConfig) -> _TrackerBase:
    return _TRACKER_CLASSES[config.kind](config)


def run_tracker(
    tracker: _TrackerBase, detections_by_frame: dict[int, list[Detection]]
) -> list[MotRecord]:
    """Step a tracker over frames 1 to the last detection frame, including
    empty frames."""
    out: list[MotRecord] = []
    for f in range(1, max(detections_by_frame, default=0) + 1):
        out.extend(tracker.step(f, detections_by_frame.get(f, [])))
    return out
