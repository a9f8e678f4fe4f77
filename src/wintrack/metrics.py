"""MOT evaluation: CLEAR counts (MOTA/MOTP), identity F1, and HOTA.

Inputs to every operation are frame-indexed id/box lists, one for ground
truth and one for predictions.  The three accumulators are pure counts so
multi-sequence aggregation pools raw counts (never averages of scores):

* ClearCounts come from per-frame matching at a fixed IoU threshold with
  match persistence: a previous frame's correspondence survives while both
  ids are present and still overlap enough; remaining pairs are assigned
  optimally (most matches first, then highest total IoU).  An identity
  switch is counted when a ground-truth id's matched prediction differs
  from its most recently matched one.
    MOTA = 1 - (FN + FP + IDSW) / gtDet
    MOTP = mean IoU over true positives (higher is better)

* IdentityCounts come from one global bipartite matching of ground-truth
  trajectories to predicted trajectories that maximizes the number of
  per-frame matches (frames where the paired trajectories overlap at
  IoU >= 0.5); IDF1 = IDTP / (IDTP + 0.5 IDFN + 0.5 IDFP).

* HOTA sweeps alpha over 0.05..0.95 in steps of 0.05.  At each alpha an
  optimal per-frame matching at IoU >= alpha yields detection counts, and
  every true positive c with ids (g, p) scores
  A(c) = TPA / (TPA + FNA + FPA), where TPA counts frames g matched p.
  HOTA_alpha = sqrt(DetA_alpha * AssA_alpha), and the final score averages
  HOTA_alpha over the grid.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .assignment import solve, solve_admissible
from .geometry import BoundingBox, iou_matrix
from .motio import MotRecord
from .trackers import TrackedDetection

# frame -> [(id, box), ...]
FrameBoxes = dict[int, list[tuple[int, BoundingBox]]]

HOTA_ALPHAS: tuple[float, ...] = tuple(round(0.05 * i, 2) for i in range(1, 20))

CLEAR_IOU_THRESHOLD = 0.5
IDENTITY_IOU_THRESHOLD = 0.5


class UndefinedMetricError(ValueError):
    """A score's denominator is empty (e.g. MOTA without ground truth)."""


@dataclass(frozen=True)
class ClearCounts:
    gt_det: int
    tp: int
    fp: int
    fn: int
    idsw: int
    similarity_sum: float

    def __add__(self, other: "ClearCounts") -> "ClearCounts":
        return ClearCounts(
            self.gt_det + other.gt_det,
            self.tp + other.tp,
            self.fp + other.fp,
            self.fn + other.fn,
            self.idsw + other.idsw,
            self.similarity_sum + other.similarity_sum,
        )


@dataclass(frozen=True)
class IdentityCounts:
    idtp: int
    idfp: int
    idfn: int

    def __add__(self, other: "IdentityCounts") -> "IdentityCounts":
        return IdentityCounts(
            self.idtp + other.idtp, self.idfp + other.idfp, self.idfn + other.idfn
        )


@dataclass(frozen=True, eq=False)
class HotaAccumulator:
    """Per-alpha detection counts and summed association scores."""

    alphas: tuple[float, ...]
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
                         out=np.zeros(len(self.alphas)), where=self.tp > 0)

    def hota_per_alpha(self) -> np.ndarray:
        return np.sqrt(self.det_a_per_alpha() * self.ass_a_per_alpha())

    def score(self) -> float:
        return float(np.mean(self.hota_per_alpha()))

    def __add__(self, other: "HotaAccumulator") -> "HotaAccumulator":
        if self.alphas != other.alphas:
            raise ValueError("cannot pool accumulators with different alpha grids")
        return HotaAccumulator(
            self.alphas,
            self.tp + other.tp,
            self.fn + other.fn,
            self.fp + other.fp,
            self.ass_sum + other.ass_sum,
        )


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
    out: FrameBoxes = {}
    for r in records:
        out.setdefault(r.frame, []).append((r.track_id, r.box))
    return dict(sorted(out.items()))


def frames_from_tracked(tracked: Iterable[TrackedDetection]) -> FrameBoxes:
    out: FrameBoxes = {}
    for td in tracked:
        out.setdefault(td.frame, []).append((td.track_id, td.box))
    return dict(sorted(out.items()))


def _match_pairs(overlap: np.ndarray, threshold: float) -> list[tuple[int, int]]:
    """Max-cardinality matching over pairs with IoU >= threshold, breaking
    ties toward the largest total IoU.  Requires threshold > 0."""
    if threshold <= 0:
        raise ValueError("matching threshold must be positive")
    return list(solve_admissible(1.0 - overlap, overlap >= threshold).matches)


def match_clear(gt: FrameBoxes, pred: FrameBoxes,
                threshold: float = CLEAR_IOU_THRESHOLD) -> ClearCounts:
    """Per-frame CLEAR matching with persistence and switch counting."""
    gt_det = tp = fp = fn = idsw = 0
    similarity_sum = 0.0
    prev: dict[int, int] = {}        # matching carried from the previous frame
    last_match: dict[int, int] = {}  # most recent matched pred id per gt id
    for frame in sorted(set(gt) | set(pred)):
        g = gt.get(frame, [])
        p = pred.get(frame, [])
        gt_det += len(g)
        overlap = iou_matrix([b for _, b in g], [b for _, b in p])
        # A repeated id in a frame stands for its last box.
        g_row = {i: r for r, (i, _) in enumerate(g)}
        p_col = {i: c for c, (i, _) in enumerate(p)}

        pairs: list[tuple[int, int, float]] = []
        for gid, pid in prev.items():
            if gid in g_row and pid in p_col:
                s = float(overlap[g_row[gid], p_col[pid]])
                if s >= threshold:
                    pairs.append((gid, pid, s))

        taken_g = {gid for gid, _, _ in pairs}
        taken_p = {pid for _, pid, _ in pairs}
        rest_g = [r for r, (i, _) in enumerate(g) if i not in taken_g]
        rest_p = [c for c, (i, _) in enumerate(p) if i not in taken_p]
        if rest_g and rest_p:
            rest = overlap[np.ix_(rest_g, rest_p)]
            for r, c in _match_pairs(rest, threshold):
                pairs.append((g[rest_g[r]][0], p[rest_p[c]][0], float(rest[r, c])))

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


def mota(counts: ClearCounts) -> float:
    if counts.gt_det == 0:
        raise UndefinedMetricError("MOTA undefined without ground-truth detections")
    return 1.0 - (counts.fn + counts.fp + counts.idsw) / counts.gt_det


def motp(counts: ClearCounts) -> float:
    if counts.tp == 0:
        raise UndefinedMetricError("MOTP undefined without true positives")
    return counts.similarity_sum / counts.tp


def identity_counts(gt: FrameBoxes, pred: FrameBoxes,
                    threshold: float = IDENTITY_IOU_THRESHOLD) -> IdentityCounts:
    """Trajectory-level matching maximizing total per-frame matches."""
    # A repeated id in a frame stands for its last box.
    gt_boxes = {f: dict(items) for f, items in gt.items()}
    pred_boxes = {f: dict(items) for f, items in pred.items()}
    gt_total = sum(len(b) for b in gt_boxes.values())
    pred_total = sum(len(b) for b in pred_boxes.values())
    gt_row = {i: r for r, i in enumerate(sorted({i for b in gt_boxes.values() for i in b}))}
    pred_col = {i: c for c, i in enumerate(sorted({i for b in pred_boxes.values() for i in b}))}
    # matches[r, c]: frames where gt trajectory r and predicted trajectory c
    # overlap at IoU >= threshold.
    matches = np.zeros((len(gt_row), len(pred_col)))
    for frame in gt_boxes.keys() & pred_boxes.keys():
        g, p = gt_boxes[frame], pred_boxes[frame]
        hit_g, hit_p = np.nonzero(iou_matrix(list(g.values()), list(p.values())) >= threshold)
        rows = np.array([gt_row[i] for i in g], dtype=int)
        cols = np.array([pred_col[i] for i in p], dtype=int)
        matches[rows[hit_g], cols[hit_p]] += 1
    # Minimizing the negated match counts maximizes IDTP; pairing a
    # trajectory with a zero-match partner is equivalent to leaving it
    # unpaired, so no dummy padding is needed.
    idtp = int(sum(matches[r, c] for r, c in solve(-matches).matches))
    return IdentityCounts(idtp=idtp, idfp=pred_total - idtp, idfn=gt_total - idtp)


def identity_f1(counts: IdentityCounts) -> float:
    denom = counts.idtp + 0.5 * (counts.idfn + counts.idfp)
    return counts.idtp / denom if denom > 0 else 0.0


def idf1(gt: FrameBoxes, pred: FrameBoxes,
         threshold: float = IDENTITY_IOU_THRESHOLD) -> tuple[float, IdentityCounts]:
    counts = identity_counts(gt, pred, threshold)
    return identity_f1(counts), counts


def hota_accumulate(gt: FrameBoxes, pred: FrameBoxes,
                    alphas: tuple[float, ...] = HOTA_ALPHAS) -> HotaAccumulator:
    n = len(alphas)
    tp = np.zeros(n)
    fn = np.zeros(n)
    fp = np.zeros(n)
    gt_len = Counter(i for items in gt.values() for i, _ in items)
    pred_len = Counter(i for items in pred.values() for i, _ in items)
    pair_counts: list[Counter] = [Counter() for _ in range(n)]

    for frame in sorted(set(gt) | set(pred)):
        g = gt.get(frame, [])
        p = pred.get(frame, [])
        overlap = iou_matrix([b for _, b in g], [b for _, b in p])
        for a in range(n):
            matched = _match_pairs(overlap, alphas[a])
            tp[a] += len(matched)
            fn[a] += len(g) - len(matched)
            fp[a] += len(p) - len(matched)
            for r, c in matched:
                pair_counts[a][(g[r][0], p[c][0])] += 1

    ass_sum = np.zeros(n)
    for a in range(n):
        for (gid, pid), count in pair_counts[a].items():
            ass_sum[a] += count * (count / (gt_len[gid] + pred_len[pid] - count))
    return HotaAccumulator(alphas, tp, fn, fp, ass_sum)


def hota(gt: FrameBoxes, pred: FrameBoxes) -> tuple[float, HotaAccumulator]:
    acc = hota_accumulate(gt, pred)
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
    """Score several sequences by pooling raw counts, not averaging scores."""
    if not pairs:
        raise UndefinedMetricError("no sequences to evaluate")
    clear = None
    identity = None
    acc = None
    for gt, pred in pairs:
        c = match_clear(gt, pred)
        _, ic = idf1(gt, pred)
        _, a = hota(gt, pred)
        clear = c if clear is None else clear + c
        identity = ic if identity is None else identity + ic
        acc = a if acc is None else acc + a
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
