"""MOT evaluation: CLEAR counts (MOTA/MOTP), identity F1, and HOTA.

Inputs to every operation are frame-indexed id/box lists, one for ground
truth and one for predictions.  A sequence is paired once, into arrays:
each side's ids and boxes in frame order, and one IoU matrix per frame,
all held in one flat array whose cells at IoU >= 0.05 are indexed by frame,
row and column.  All three metrics read that pairing; a frame that
repeats an id on either side is rejected, as is an id that is not an
integer (a bool included).  The three accumulators are
pure counts so multi-sequence aggregation pools raw counts (never
averages of scores):

* ClearCounts come from per-frame matching at a fixed IoU threshold with
  match persistence: a previous frame's correspondence survives while both
  ids are present and still overlap enough; remaining pairs are assigned
  optimally (most matches first, then highest total IoU).  Only a frame
  where two pairs at the threshold share a row or a column is walked, in
  frame order, with the solver; elsewhere those pairs are the matches.  An
  identity switch is counted when a ground-truth id's matched prediction
  differs from its most recently matched one, read off the matches sorted
  by ground-truth id and frame.
    MOTA = 1 - (FN + FP + IDSW) / gtDet
    MOTP = mean IoU over true positives (higher is better), 0 without any

* IdentityCounts come from one global bipartite matching of ground-truth
  trajectories to predicted trajectories that maximizes the number of
  per-frame matches (frames where the paired trajectories overlap at
  IoU >= 0.5); IDF1 = IDTP / (IDTP + 0.5 IDFN + 0.5 IDFP).  Matches are
  counted per distinct (gt, pred) trajectory pair.  Where every pair has
  an end that no other pair shares, the pairs form stars and IDTP is the
  sum of each star's largest count; otherwise the solver matches the
  trajectories that have a match, and only those.  IDTP is an integer
  optimum, so how ties break does not move it.

* HOTA sweeps alpha over 0.05..0.95 in steps of 0.05.  At each alpha an
  optimal per-frame matching at IoU >= alpha yields detection counts, and
  every true positive c with ids (g, p) scores
  A(c) = TPA / (TPA + FNA + FPA), where TPA counts frames g matched p.
  HOTA_alpha = sqrt(DetA_alpha * AssA_alpha), and the final score averages
  HOTA_alpha over the grid.  The indexed cells are thresholded at all
  alphas at once; where an alpha's admissible pairs in a frame share no
  row and no column they already are its one maximum matching, so the
  solver runs only at the alphas and frames where they are not.  TPA is
  counted per alpha and distinct (g, p) pair of the cells, never over all
  ground-truth ids times predicted ids.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import reduce
from operator import add
from typing import Iterable, Sequence

import numpy as np

from .assignment import crowded, solve
from .geometry import BoundingBox, box_array, iou_matrix
from .motio import MotRecord, check_int_ids

# frame -> [(id, box), ...]
FrameBoxes = dict[int, list[tuple[int, BoundingBox]]]

HOTA_ALPHAS: tuple[float, ...] = tuple(round(0.05 * i, 2) for i in range(1, 20))

CLEAR_IOU_THRESHOLD = 0.5
IDENTITY_IOU_THRESHOLD = 0.5


class UndefinedMetricError(ValueError):
    """A score's denominator is empty (e.g. MOTA without ground truth)."""


class _Pooled:
    """Counts that pool field by field: each field of a + b is a.f + b.f."""

    def __add__(self, other):
        return type(self)(*(getattr(self, f.name) + getattr(other, f.name)
                            for f in fields(self)))


@dataclass(frozen=True)
class ClearCounts(_Pooled):
    gt_det: int
    tp: int
    fp: int
    fn: int
    idsw: int
    similarity_sum: float


@dataclass(frozen=True)
class IdentityCounts(_Pooled):
    idtp: int
    idfp: int
    idfn: int


@dataclass(frozen=True, eq=False)
class HotaAccumulator(_Pooled):
    """Detection counts and summed association scores, one per alpha of
    HOTA_ALPHAS."""

    tp: np.ndarray
    fn: np.ndarray
    fp: np.ndarray
    ass_sum: np.ndarray  # sum of A(c) over TPs, per alpha

    def det_a_per_alpha(self) -> np.ndarray:
        denom = self.tp + self.fn + self.fp
        return np.divide(self.tp, denom, out=np.zeros_like(denom, dtype=float),
                         where=denom > 0)

    def ass_a_per_alpha(self) -> np.ndarray:
        return np.divide(self.ass_sum, self.tp,
                         out=np.zeros_like(self.ass_sum), where=self.tp > 0)

    def hota_per_alpha(self) -> np.ndarray:
        return np.sqrt(self.det_a_per_alpha() * self.ass_a_per_alpha())

    def score(self) -> float:
        return float(np.mean(self.hota_per_alpha()))


@dataclass(frozen=True, eq=False)
class MetricsReport:
    mota: float
    motp: float
    idf1: float
    hota: float
    det_a: float
    ass_a: float
    clear: ClearCounts
    identity: IdentityCounts
    hota_acc: HotaAccumulator


def frames_from_records(records: Iterable[MotRecord]) -> FrameBoxes:
    """Group rows carrying frame, track_id and box by frame, frames sorted."""
    out: FrameBoxes = {}
    for r in records:
        out.setdefault(r.frame, []).append((r.track_id, r.box))
    return dict(sorted(out.items()))


def _unique_ids(items: list[tuple[int, BoundingBox]], side: str, frame: int) -> None:
    ids = [i for i, _ in items]
    if len(set(ids)) < len(ids):
        repeated = next(i for n, i in enumerate(ids) if i in ids[:n])
        raise ValueError(f"{side}: frame {frame} repeats id {repeated}")


class _Side:
    """One side's rows in frame order: each row's id, its index among the
    side's distinct ids (mapped in Python, so an id may exceed int64), the
    boxes as one array, and each frame's first row."""

    def __init__(self, frames: FrameBoxes, order: list[int], side: str):
        items = [frames.get(f, []) for f in order]
        sizes = [len(rows) for rows in items]
        self.ids = [i for rows in items for i, _ in rows]
        check_int_ids(side, (f for f, rows in zip(order, items) for _ in rows), self.ids)
        index: dict[int, int] = {}
        self.code = np.array([index.setdefault(i, len(index)) for i in self.ids],
                             dtype=np.intp)
        self.n_ids = len(index)
        self.start = np.cumsum([0, *sizes])
        self.boxes = box_array([b for rows in items for _, b in rows])
        key = np.sort(np.repeat(np.arange(len(order)), sizes) * self.n_ids + self.code)
        self.repeats = bool((key[1:] == key[:-1]).any())


class _Pairing:
    """A sequence paired once.  Each frame's IoU matrix is a view of one flat
    array whose cells at IoU >= the lowest threshold any metric reads are
    indexed, ascending, by frame, gt row and pred row (rows of a side).
    Raises ValueError when a frame of either side repeats an id, which the
    three counts would read differently."""

    def __init__(self, gt: FrameBoxes, pred: FrameBoxes):
        order = sorted(gt.keys() | pred.keys())
        self.gt, self.pred = _Side(gt, order, "ground truth"), _Side(pred, order, "prediction")
        if self.gt.repeats or self.pred.repeats:
            for frame in order:
                _unique_ids(gt.get(frame, []), "ground truth", frame)
                _unique_ids(pred.get(frame, []), "prediction", frame)
        g, p = self.gt.start.tolist(), self.pred.start.tolist()
        mats = [iou_matrix(self.gt.boxes[a:b], self.pred.boxes[c:d])
                for a, b, c, d in zip(g, g[1:], p, p[1:])]
        self.flat = np.concatenate([np.empty(0), *mats], axis=None)
        self.start = np.cumsum([0, *(m.size for m in mats)])
        cell = np.flatnonzero(self.flat >= HOTA_ALPHAS[0])
        self.frame = np.searchsorted(self.start, cell, side="right") - 1
        local = cell - self.start[self.frame]
        width = np.diff(self.pred.start)[self.frame]
        self.gt_row = self.gt.start[self.frame] + local // width
        self.pred_row = self.pred.start[self.frame] + local % width
        self.iou = self.flat[cell]

    def frame_at(self, f: int) -> np.ndarray:
        (a, b), (c, d) = self.gt.start[f:f + 2], self.pred.start[f:f + 2]
        return self.flat[self.start[f]:self.start[f + 1]].reshape(b - a, d - c)

    def crowded_frames(self, kept) -> list[int]:
        """Frames where two kept cells share a row or a column."""
        rows, cols = self.gt_row[kept], self.pred_row[kept]
        shared = (np.bincount(rows)[rows] > 1) | (np.bincount(cols)[cols] > 1)
        return np.unique(self.frame[kept][shared]).tolist()


def _match_pairs(overlap: np.ndarray, threshold: float) -> tuple[np.ndarray, np.ndarray]:
    """Max-cardinality matching over pairs with IoU >= threshold, breaking
    ties toward the largest total IoU: the matched rows, ascending, and their
    columns.  Every metric threshold is positive, so a pair that does not
    overlap is never admitted."""
    return solve(1.0 - overlap, overlap >= threshold)


def _clear(seq: _Pairing) -> ClearCounts:
    over = seq.iou >= CLEAR_IOU_THRESHOLD
    frame, rows, cols, iou = seq.frame[over], seq.gt_row[over], seq.pred_row[over], seq.iou[over]
    g, p = seq.gt, seq.pred
    gi, pi = g.code[rows], p.code[cols]
    pair = gi * p.n_ids + pi
    bounds = np.searchsorted(frame, np.arange(len(seq.start)))
    # An uncrowded frame matches its pairs at the threshold.  A crowded one,
    # in frame order, keeps the pairs the frame before it matched while they
    # still overlap enough, and the solver picks among the rows and columns left.
    matched = np.ones(len(frame), dtype=bool)
    for f in seq.crowded_frames(over):
        lo, hi = bounds[f], bounds[f + 1]
        before = slice(bounds[f - 1] if f else lo, lo)
        kept = np.isin(pair[lo:hi], pair[before][matched[before]])
        r, c = rows[lo:hi] - g.start[f], cols[lo:hi] - p.start[f]
        overlap = seq.frame_at(f)
        taken = np.zeros(overlap.shape, dtype=bool)
        taken[r[kept], c[kept]] = True
        rest_r, rest_c = np.flatnonzero(~taken.any(1)), np.flatnonzero(~taken.any(0))
        if len(rest_r) and len(rest_c):
            sr, sc = _match_pairs(overlap[np.ix_(rest_r, rest_c)], CLEAR_IOU_THRESHOLD)
            taken[rest_r[sr], rest_c[sc]] = True
        matched[lo:hi] = taken[r, c]
    frame, rows, iou, gi, pi = (a[matched] for a in (frame, rows, iou, gi, pi))
    # By gt id, then frame: a switch is a change of pred id, and a match the
    # frame before with the same pred id carries the run on.
    by_gt = np.argsort(gi, kind="stable")
    gi, pi, fi = gi[by_gt], pi[by_gt], frame[by_gt]
    same = gi[1:] == gi[:-1]
    idsw = int((same & (pi[1:] != pi[:-1])).sum())
    begins = np.ones(len(gi), dtype=bool)
    begins[1:] = ~(same & (pi[1:] == pi[:-1]) & (fi[1:] == fi[:-1] + 1))
    run_row = rows[by_gt][np.maximum.accumulate(np.where(begins, np.arange(len(gi)), 0))]
    # Within a frame, carried matches come first in the order they were made
    # and new ones follow by gt row: by the gt row where each run began.
    # np.cumsum adds in that order one at a time; np.sum would add pairwise.
    order = np.lexsort((run_row, fi))
    similarity_sum = float(np.cumsum(iou[by_gt][order])[-1]) if len(order) else 0.0
    tp, gt_det, pred_det = len(gi), len(g.ids), len(p.ids)
    return ClearCounts(gt_det, tp, pred_det - tp, gt_det - tp, idsw, similarity_sum)


def match_clear(gt: FrameBoxes, pred: FrameBoxes) -> ClearCounts:
    """Per-frame CLEAR matching with persistence and switch counting."""
    return _clear(_Pairing(gt, pred))


def mota(counts: ClearCounts) -> float:
    if counts.gt_det == 0:
        raise UndefinedMetricError("MOTA undefined without ground-truth detections")
    return 1.0 - (counts.fn + counts.fp + counts.idsw) / counts.gt_det


def motp(counts: ClearCounts) -> float:
    """Mean IoU over true positives; 0.0 without any, as in TrackEval."""
    return counts.similarity_sum / max(1, counts.tp)


def _identity(seq: _Pairing) -> IdentityCounts:
    """Trajectory-level matching maximizing total per-frame matches."""
    over = seq.iou >= IDENTITY_IOU_THRESHOLD
    g, p = seq.gt, seq.pred
    # count: frames where gt trajectory gi and predicted trajectory pi
    # overlap at IoU >= the identity threshold, per distinct (gi, pi) pair.
    pairs, count = np.unique(g.code[seq.gt_row[over]] * p.n_ids + p.code[seq.pred_row[over]],
                             return_counts=True)
    gi, pi = np.divmod(pairs, p.n_ids)
    deg_g, deg_p = np.bincount(gi)[gi], np.bincount(pi)[pi]
    if ((deg_g == 1) | (deg_p == 1)).all():
        # Every pair has an end no other pair shares, so each component is
        # a star, keyed by its centre (a lone pair by its pred end).  The
        # stars' best pairs share no trajectory and no matching scores more.
        best = np.zeros(g.n_ids + p.n_ids, dtype=count.dtype)
        np.maximum.at(best, np.where(deg_g > 1, gi, g.n_ids + pi), count)
        idtp = int(best.sum())
    else:
        # Over the trajectories with a match only: one without adds 0 to any
        # matching.  Minimizing the negated match counts maximizes IDTP;
        # pairing a trajectory with a zero-match partner is equivalent to
        # leaving it unpaired, so no dummy padding is needed.  Every pair
        # stays admissible: admitting only pairs with matches would put the
        # number of pairs before IDTP (a-x 10, a-y 1, b-x 1 would pair a-y
        # and b-x).
        g_ids, gi = np.unique(gi, return_inverse=True)
        p_ids, pi = np.unique(pi, return_inverse=True)
        matches = np.zeros((len(g_ids), len(p_ids)), dtype=count.dtype)
        matches[gi, pi] = count
        rows, cols = solve(-matches, np.ones(matches.shape, dtype=bool))
        idtp = int(matches[rows, cols].sum())
    return IdentityCounts(idtp=idtp, idfp=len(p.ids) - idtp, idfn=len(g.ids) - idtp)


def identity_f1(counts: IdentityCounts) -> float:
    denom = counts.idtp + 0.5 * (counts.idfn + counts.idfp)
    return counts.idtp / denom if denom > 0 else 0.0


def idf1(gt: FrameBoxes, pred: FrameBoxes) -> tuple[float, IdentityCounts]:
    counts = _identity(_Pairing(gt, pred))
    return identity_f1(counts), counts


def _hota(seq: _Pairing) -> HotaAccumulator:
    n = len(HOTA_ALPHAS)
    thresholds = np.asarray(HOTA_ALPHAS)[:, None]
    admitted = seq.iou >= thresholds  # (alpha, cell)
    # Each alpha admits a subset of the pairs the alpha below it admits, so
    # only the frames crowded at the lowest alpha need the solver.
    for f in seq.crowded_frames(slice(None)):
        overlap = seq.frame_at(f)
        stack = overlap >= thresholds[:, :, None]
        for a in np.flatnonzero(crowded(stack)):
            rows, cols = _match_pairs(overlap, HOTA_ALPHAS[a])
            stack[a] = False
            stack[a, rows, cols] = True
        lo, hi = np.searchsorted(seq.frame, [f, f + 1])
        admitted[:, lo:hi] = stack[:, seq.gt_row[lo:hi] - seq.gt.start[f],
                                   seq.pred_row[lo:hi] - seq.pred.start[f]]
    alpha, cell = np.nonzero(admitted)
    tp = np.bincount(alpha, minlength=n).astype(float)
    gt_len = np.bincount(seq.gt.code, minlength=seq.gt.n_ids)
    pred_len = np.bincount(seq.pred.code, minlength=seq.pred.n_ids)
    # One term per (alpha, gt id, pred id), keyed by alpha and the index of
    # the cell's (gt id, pred id) pair.  np.add.at adds them one at a time in
    # the order each pair was first matched, frame by frame within an alpha,
    # as running counts would, so every last bit holds; np.sum would add
    # them pairwise.
    gi, pi = seq.gt.code[seq.gt_row], seq.pred.code[seq.pred_row]
    pairs, pair = np.unique(gi * seq.pred.n_ids + pi, return_inverse=True)
    key = alpha * len(pairs) + pair[cell]
    count = np.bincount(key, minlength=n * len(pairs))
    first = np.full(len(count), len(key))
    np.minimum.at(first, key, np.arange(len(key)))
    seen = first[key] == np.arange(len(key))  # each key's first entry
    count, c = count[key[seen]], cell[seen]
    terms = count * (count / (gt_len[gi[c]] + pred_len[pi[c]] - count))
    ass_sum = np.zeros(n)
    np.add.at(ass_sum, alpha[seen], terms)
    return HotaAccumulator(tp, len(seq.gt.ids) - tp, len(seq.pred.ids) - tp, ass_sum)


def hota(gt: FrameBoxes, pred: FrameBoxes) -> tuple[float, HotaAccumulator]:
    acc = _hota(_Pairing(gt, pred))
    return acc.score(), acc


def _report_from(clear: ClearCounts, identity: IdentityCounts,
                 acc: HotaAccumulator) -> MetricsReport:
    return MetricsReport(
        mota=mota(clear),
        motp=motp(clear),
        idf1=identity_f1(identity),
        hota=acc.score(),
        det_a=float(np.mean(acc.det_a_per_alpha())),
        ass_a=float(np.mean(acc.ass_a_per_alpha())),
        clear=clear,
        identity=identity,
        hota_acc=acc,
    )


def evaluate(gt: FrameBoxes, pred: FrameBoxes) -> MetricsReport:
    """Score one sequence with all four metrics."""
    return evaluate_sequences([(gt, pred)])


def evaluate_sequences(
    pairs: Sequence[tuple[FrameBoxes, FrameBoxes]]
) -> MetricsReport:
    """Score several sequences by pooling raw counts, not averaging scores.

    Each sequence's frames are paired once and the CLEAR, identity and
    HOTA counts all read that pairing.  Raises ValueError when a frame of
    either side repeats an id, as every scoring entry point does.
    """
    if not pairs:
        raise UndefinedMetricError("no sequences to evaluate")
    counts = []
    for gt, pred in pairs:
        seq = _Pairing(gt, pred)
        counts.append((_clear(seq), _identity(seq), _hota(seq)))
    clear, identity, acc = (reduce(add, column) for column in zip(*counts))
    return _report_from(clear, identity, acc)
