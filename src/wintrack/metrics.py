"""MOT evaluation: CLEAR counts (MOTA/MOTP), identity F1, and HOTA.

Inputs to every operation are frame-indexed id/box lists, one for ground
truth and one for predictions.  A sequence is paired once: each frame of
either side becomes its ground-truth ids, its predicted ids and one IoU
matrix, which all three metrics read; a frame that repeats an id on
either side is rejected.  The three accumulators are pure counts so
multi-sequence aggregation pools raw counts (never averages of scores):

* ClearCounts come from per-frame matching at a fixed IoU threshold with
  match persistence: a previous frame's correspondence survives while both
  ids are present and still overlap enough; remaining pairs are assigned
  optimally (most matches first, then highest total IoU).  An identity
  switch is counted when a ground-truth id's matched prediction differs
  from its most recently matched one.
    MOTA = 1 - (FN + FP + IDSW) / gtDet
    MOTP = mean IoU over true positives (higher is better), 0 without any

* IdentityCounts come from one global bipartite matching of ground-truth
  trajectories to predicted trajectories that maximizes the number of
  per-frame matches (frames where the paired trajectories overlap at
  IoU >= 0.5); IDF1 = IDTP / (IDTP + 0.5 IDFN + 0.5 IDFP).

* HOTA sweeps alpha over 0.05..0.95 in steps of 0.05.  At each alpha an
  optimal per-frame matching at IoU >= alpha yields detection counts, and
  every true positive c with ids (g, p) scores
  A(c) = TPA / (TPA + FNA + FPA), where TPA counts frames g matched p.
  HOTA_alpha = sqrt(DetA_alpha * AssA_alpha), and the final score averages
  HOTA_alpha over the grid.  Each frame thresholds its IoU matrix at all
  alphas at once; where an alpha's admissible pairs share no row and no
  column they already are its one maximum matching, so the solver runs
  only at the alphas where they are not.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import reduce
from operator import add
from typing import Iterable, Sequence

import numpy as np

from .assignment import crowded, solve
from .geometry import BoundingBox, iou_matrix
from .motio import MotRecord

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


# One frame as every metric reads it: gt ids, pred ids, their gt x pred IoU.
_PairedFrame = tuple[list[int], list[int], np.ndarray]


def _unique_ids(items: list[tuple[int, BoundingBox]], side: str, frame: int) -> list[int]:
    ids = [i for i, _ in items]
    if len(set(ids)) < len(ids):
        repeated = next(i for n, i in enumerate(ids) if i in ids[:n])
        raise ValueError(f"{side}: frame {frame} repeats id {repeated}")
    return ids


def _pair_frames(gt: FrameBoxes, pred: FrameBoxes) -> list[_PairedFrame]:
    """Every frame of either side, in order, with its one IoU matrix.

    Raises ValueError when a frame of either side repeats an id, which the
    CLEAR, identity and HOTA counts would otherwise read differently.
    """
    paired = []
    for frame in sorted(gt.keys() | pred.keys()):
        g = gt.get(frame, [])
        p = pred.get(frame, [])
        paired.append((_unique_ids(g, "ground truth", frame),
                       _unique_ids(p, "prediction", frame),
                       iou_matrix([b for _, b in g], [b for _, b in p])))
    return paired


def _match_pairs(overlap: np.ndarray, threshold: float) -> tuple[np.ndarray, np.ndarray]:
    """Max-cardinality matching over pairs with IoU >= threshold, breaking
    ties toward the largest total IoU: the matched rows, ascending, and their
    columns.  Every metric threshold is positive, so a pair that does not
    overlap is never admitted."""
    return solve(1.0 - overlap, overlap >= threshold)


def _clear(frames: list[_PairedFrame]) -> ClearCounts:
    gt_det = tp = fp = fn = idsw = 0
    similarity_sum = 0.0
    prev: dict[int, int] = {}        # matching carried from the previous frame
    last_match: dict[int, int] = {}  # most recent matched pred id per gt id
    for g, p, overlap in frames:
        gt_det += len(g)
        g_row = {i: r for r, i in enumerate(g)}
        p_col = {i: c for c, i in enumerate(p)}

        pairs: list[tuple[int, int, float]] = []
        for gid, pid in prev.items():
            if gid in g_row and pid in p_col:
                s = float(overlap[g_row[gid], p_col[pid]])
                if s >= CLEAR_IOU_THRESHOLD:
                    pairs.append((gid, pid, s))

        taken_g = {gid for gid, _, _ in pairs}
        taken_p = {pid for _, pid, _ in pairs}
        rest_g = [r for r, i in enumerate(g) if i not in taken_g]
        rest_p = [c for c, i in enumerate(p) if i not in taken_p]
        if rest_g and rest_p:
            rest = overlap[np.ix_(rest_g, rest_p)]
            rows, cols = _match_pairs(rest, CLEAR_IOU_THRESHOLD)
            for r, c in zip(rows.tolist(), cols.tolist()):
                pairs.append((g[rest_g[r]], p[rest_p[c]], float(rest[r, c])))

        for gid, pid, s in pairs:
            tp += 1
            similarity_sum += s
            previous = last_match.get(gid)
            if previous is not None and previous != pid:
                idsw += 1
            last_match[gid] = pid
        fn += len(g) - len(pairs)
        fp += len(p) - len(pairs)
        prev = {gid: pid for gid, pid, _ in pairs}
    return ClearCounts(gt_det, tp, fp, fn, idsw, similarity_sum)


def match_clear(gt: FrameBoxes, pred: FrameBoxes) -> ClearCounts:
    """Per-frame CLEAR matching with persistence and switch counting."""
    return _clear(_pair_frames(gt, pred))


def mota(counts: ClearCounts) -> float:
    if counts.gt_det == 0:
        raise UndefinedMetricError("MOTA undefined without ground-truth detections")
    return 1.0 - (counts.fn + counts.fp + counts.idsw) / counts.gt_det


def motp(counts: ClearCounts) -> float:
    """Mean IoU over true positives; 0.0 without any, as in TrackEval."""
    return counts.similarity_sum / max(1, counts.tp)


def _identity(frames: list[_PairedFrame]) -> IdentityCounts:
    """Trajectory-level matching maximizing total per-frame matches."""
    gt_row = {i: r for r, i in enumerate(sorted({i for g, _, _ in frames for i in g}))}
    pred_col = {i: c for c, i in enumerate(sorted({i for _, p, _ in frames for i in p}))}
    # matches[r, c]: frames where gt trajectory r and predicted trajectory c
    # overlap at IoU >= the identity threshold.
    matches = np.zeros((len(gt_row), len(pred_col)))
    for g, p, overlap in frames:
        hit_g, hit_p = np.nonzero(overlap >= IDENTITY_IOU_THRESHOLD)
        matches[[gt_row[g[r]] for r in hit_g], [pred_col[p[c]] for c in hit_p]] += 1
    # Minimizing the negated match counts maximizes IDTP; pairing a
    # trajectory with a zero-match partner is equivalent to leaving it
    # unpaired, so no dummy padding is needed.  Every pair stays
    # admissible: admitting only pairs with matches would put the number of
    # pairs before IDTP (a-x 10, a-y 1, b-x 1 would pair a-y and b-x).
    rows, cols = solve(-matches, np.ones(matches.shape, dtype=bool))
    idtp = int(matches[rows, cols].sum())
    return IdentityCounts(idtp=idtp,
                          idfp=sum(len(p) for _, p, _ in frames) - idtp,
                          idfn=sum(len(g) for g, _, _ in frames) - idtp)


def identity_f1(counts: IdentityCounts) -> float:
    denom = counts.idtp + 0.5 * (counts.idfn + counts.idfp)
    return counts.idtp / denom if denom > 0 else 0.0


def idf1(gt: FrameBoxes, pred: FrameBoxes) -> tuple[float, IdentityCounts]:
    counts = _identity(_pair_frames(gt, pred))
    return identity_f1(counts), counts


def _hota(frames: list[_PairedFrame]) -> HotaAccumulator:
    n = len(HOTA_ALPHAS)
    thresholds = np.asarray(HOTA_ALPHAS)[:, None, None]
    gt_rows: list[int] = []
    pred_rows: list[int] = []
    # (alpha index, gt row, pred row) of every matched pair, frame by frame;
    # rows index gt_rows / pred_rows.
    hits = [(np.empty(0, np.intp),) * 3]
    for g, p, overlap in frames:
        if overlap.size:
            stack = overlap >= thresholds
            # Where an alpha's admissible pairs share no row and no column
            # they are its one maximum matching; elsewhere the solver picks.
            # Each alpha admits a subset of the pairs the alpha below it
            # admits, so most frames need only the lowest alpha checked.
            if crowded(stack[0]):
                for a in np.flatnonzero(crowded(stack)):
                    rows, cols = _match_pairs(overlap, HOTA_ALPHAS[a])
                    stack[a] = False
                    stack[a, rows, cols] = True
            a, r, c = np.nonzero(stack)
            hits.append((a, r + len(gt_rows), c + len(pred_rows)))
        gt_rows += g
        pred_rows += p
    alpha, gt_row, pred_row = (np.concatenate(column) for column in zip(*hits))
    tp = np.bincount(alpha, minlength=n).astype(float)

    _, gt_index, gt_len = np.unique(gt_rows, return_inverse=True, return_counts=True)
    _, pred_index, pred_len = np.unique(pred_rows, return_inverse=True, return_counts=True)
    gi = gt_index[gt_row]
    pi = pred_index[pred_row]
    # One term per (alpha, gt id, pred id).  np.add.at adds them one at a
    # time in the order each pair was first matched, as running counts
    # would, so every last bit holds; np.sum would add them pairwise.
    key = (alpha * len(gt_len) + gi) * len(pred_len) + pi
    _, first, count = np.unique(key, return_index=True, return_counts=True)
    order = np.argsort(first)
    first, count = first[order], count[order]
    terms = count * (count / (gt_len[gi[first]] + pred_len[pi[first]] - count))
    ass_sum = np.zeros(n)
    np.add.at(ass_sum, alpha[first], terms)
    return HotaAccumulator(tp, len(gt_rows) - tp, len(pred_rows) - tp, ass_sum)


def hota(gt: FrameBoxes, pred: FrameBoxes) -> tuple[float, HotaAccumulator]:
    acc = _hota(_pair_frames(gt, pred))
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
        frames = _pair_frames(gt, pred)
        counts.append((_clear(frames), _identity(frames), _hota(frames)))
    clear, identity, acc = (reduce(add, column) for column in zip(*counts))
    return _report_from(clear, identity, acc)


_SCORE_FIELDS = ("idf1", "hota", "mota", "motp", "det_a", "ass_a")
_SCORE_LABELS = ("IDF1", "HOTA", "MOTA", "MOTP", "DetA", "AssA")


def _count_items(report: MetricsReport) -> list[tuple[str, int]]:
    c, i = report.clear, report.identity
    return [
        ("gtDet", c.gt_det), ("TP", c.tp), ("FP", c.fp), ("FN", c.fn),
        ("IDSW", c.idsw), ("IDTP", i.idtp), ("IDFP", i.idfp), ("IDFN", i.idfn),
    ]


def report_table(report: MetricsReport) -> str:
    """Aligned text table; scores as percentages with one decimal."""
    lines = [f"{'Metric':<8}{'Value':>8}"]
    for label, field in zip(_SCORE_LABELS, _SCORE_FIELDS):
        lines.append(f"{label:<8}{100.0 * getattr(report, field):>8.1f}")
    lines.append("")
    lines.append(f"{'Count':<8}{'Value':>8}")
    for label, value in _count_items(report):
        lines.append(f"{label:<8}{value:>8d}")
    return "\n".join(lines) + "\n"


def report_csv(report: MetricsReport) -> str:
    """Single-row CSV; scores as percentages with one decimal."""
    headers = [*(l.lower() for l in _SCORE_LABELS),
               *(l.lower() for l, _ in _count_items(report))]
    scores = [f"{100.0 * getattr(report, f):.1f}" for f in _SCORE_FIELDS]
    counts = [str(v) for _, v in _count_items(report)]
    return ",".join(headers) + "\n" + ",".join(scores + counts) + "\n"
