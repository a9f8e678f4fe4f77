"""Independent reference implementations used to cross-check the package.

Everything here is deliberately dumb: counting grids, hand-expanded 2x2
matrix algebra, the Kalman filter as full 8x8 matrices, exhaustive
enumeration.  None of it shares code with the implementations under test,
except the per-frame metrics: ``pair_per_frame`` keeps the package's IoU
kernel, itself checked against ``iou_scalar``, and ``clear_per_frame``,
``identity_per_frame`` and ``hota_per_alpha`` keep its solver, itself
checked against ``solve_bruteforce``.  They walk the sequence frame by
frame, with the solver on every frame (and, for HOTA, at every alpha), so
they check what the package reads off arrays and skips around it.
"""

from __future__ import annotations

import math
from collections import Counter
from itertools import combinations, permutations
from typing import NamedTuple, Optional

import numpy as np

from wintrack.assignment import solve
from wintrack.geometry import BoundingBox, iou_matrix
from wintrack.metrics import (
    CLEAR_IOU_THRESHOLD,
    HOTA_ALPHAS,
    IDENTITY_IOU_THRESHOLD,
    ClearCounts,
    IdentityCounts,
)

BRUTEFORCE_MAX_DIM = 8


def grid_iou(a: BoundingBox, b: BoundingBox, n: int = 2 ** 17) -> float:
    """IoU estimated by counting grid-cell midpoints inside each box."""
    lo_x = min(a.x, b.x)
    hi_x = max(a.x + a.w, b.x + b.w)
    lo_y = min(a.y, b.y)
    hi_y = max(a.y + a.h, b.y + b.h)
    xs = lo_x + (np.arange(n) + 0.5) * (hi_x - lo_x) / n
    ys = lo_y + (np.arange(n) + 0.5) * (hi_y - lo_y) / n
    in_ax = (xs >= a.x) & (xs <= a.x + a.w)
    in_bx = (xs >= b.x) & (xs <= b.x + b.w)
    in_ay = (ys >= a.y) & (ys <= a.y + a.h)
    in_by = (ys >= b.y) & (ys <= b.y + b.h)
    cells_a = int(in_ax.sum()) * int(in_ay.sum())
    cells_b = int(in_bx.sum()) * int(in_by.sum())
    cells_i = int((in_ax & in_bx).sum()) * int((in_ay & in_by).sum())
    union = cells_a + cells_b - cells_i
    return cells_i / union if union else 0.0


def iou_scalar(a: BoundingBox, b: BoundingBox) -> float:
    """IoU as the package computed it before its numpy kernel: one pair at
    a time in Python floats, operands put in a canonical order first."""
    if a == b:
        return 1.0
    if (b.x, b.y, b.w, b.h) < (a.x, a.y, a.w, a.h):
        a, b = b, a
    iw = min(a.x + a.w, b.x + b.w) - max(a.x, b.x)
    if iw <= 0:
        return 0.0
    ih = min(a.y + a.h, b.y + b.h) - max(a.y, b.y)
    if ih <= 0:
        return 0.0
    inter = iw * ih
    return inter / (a.w * a.h + b.w * b.h - inter)


def direction_cost_scalar(u: tuple[float, float], v: tuple[float, float]) -> float:
    """Angle between two motion vectors, normalized to [0, 1].

    Zero-length vectors carry no direction and contribute no cost.
    (OC-SORT's direction term as the package computed it, one pair at a
    time, before its broadcast form.)
    """
    nu = math.hypot(*u)
    nv = math.hypot(*v)
    if nu == 0.0 or nv == 0.0:
        return 0.0
    cos = (u[0] * v[0] + u[1] * v[1]) / (nu * nv)
    return math.acos(max(-1.0, min(1.0, cos))) / math.pi


class ScalarKalman:
    """Position/velocity filter written out as explicit 2x2 algebra."""

    def __init__(self, x: float, v: float, p: list[list[float]]):
        self.x = x
        self.v = v
        self.p = [list(row) for row in p]

    def predict(self, q_pos: float, q_vel: float) -> None:
        p00, p01 = self.p[0]
        p10, p11 = self.p[1]
        self.x = self.x + self.v
        self.p = [
            [p00 + p01 + p10 + p11 + q_pos, p01 + p11],
            [p10 + p11, p11 + q_vel],
        ]

    def update(self, z: float, r: float) -> None:
        p00, p01 = self.p[0]
        p10, p11 = self.p[1]
        s = p00 + r
        k0 = p00 / s
        k1 = p10 / s
        innovation = z - self.x
        self.x = self.x + k0 * innovation
        self.v = self.v + k1 * innovation
        # Joseph form (I - K H) P (I - K H)^T + K r K^T, expanded by hand
        a00 = 1.0 - k0
        q00 = a00 * p00
        q01 = a00 * p01
        q10 = p10 - k1 * p00
        q11 = p11 - k1 * p01
        self.p = [
            [q00 * a00 + k0 * r * k0, q01 - q00 * k1 + k0 * r * k1],
            [q10 * a00 + k1 * r * k0, q11 - q10 * k1 + k1 * r * k1],
        ]
        # keep the block symmetric, as DenseKalman's (P + P^T)/2 does
        m01 = (self.p[0][1] + self.p[1][0]) / 2.0
        self.p[0][1] = self.p[1][0] = m01


class DenseState(NamedTuple):
    mean: np.ndarray        # shape (..., 8)
    covariance: np.ndarray  # shape (..., 8, 8), each symmetric PSD


class DenseKalman:
    """The constant-velocity filter written out as full 8x8 matrix algebra.

    Same state, noise and measurement conventions as ``MotionFilter``, but
    with an explicit transition F, measurement matrix H, a linear solve for
    the gain and a Joseph-form posterior, so it assumes nothing about the
    covariance's block structure.  predict/update accept explicit noise
    overrides (8x8 and 4x4).
    """

    STATE_DIM = 8
    MEASUREMENT_DIM = 4
    # Constant-velocity transition: position += velocity, size += size velocity.
    _F = np.eye(STATE_DIM)
    _F[:MEASUREMENT_DIM, MEASUREMENT_DIM:] = np.eye(MEASUREMENT_DIM)
    # Measurement picks out (cx, cy, w, h).
    _H = np.eye(MEASUREMENT_DIM, STATE_DIM)
    _DIAG = np.arange(STATE_DIM)
    # Per-component standard deviation per unit of box height.
    _NOISE_WEIGHTS = np.array([1.0 / 20.0] * MEASUREMENT_DIM
                              + [1.0 / 160.0] * MEASUREMENT_DIM)

    @staticmethod
    def _transposed(m: np.ndarray) -> np.ndarray:
        return np.swapaxes(m, -1, -2)

    @classmethod
    def _symmetrized(cls, p: np.ndarray) -> np.ndarray:
        return (p + cls._transposed(p)) / 2.0

    @classmethod
    def _noise(cls, h) -> np.ndarray:
        """Height-scaled diagonal covariance, one per height: (..., 8, 8)."""
        std = cls._NOISE_WEIGHTS * np.asarray(h, dtype=float)[..., None]
        noise = np.zeros(std.shape + (cls.STATE_DIM,))
        noise[..., cls._DIAG, cls._DIAG] = std ** 2
        return noise

    def init_state(self, measurement: np.ndarray) -> DenseState:
        z = np.asarray(measurement, dtype=float)
        mean = np.zeros(z.shape[:-1] + (self.STATE_DIM,))
        mean[..., :self.MEASUREMENT_DIM] = z
        return DenseState(mean=mean, covariance=self._noise(z[..., 3]))

    def predict(self, state: DenseState,
                process_noise: Optional[np.ndarray] = None) -> DenseState:
        """F x, F P Fᵀ + Q; Q defaults to the noise of the prior height."""
        if process_noise is None:
            q = self._noise(state.mean[..., 3])
        else:
            q = np.asarray(process_noise, dtype=float)
        mean = state.mean @ self._F.T
        covariance = self._symmetrized(self._F @ state.covariance @ self._F.T + q)
        return DenseState(mean=mean, covariance=covariance)

    def update(self, state: DenseState, measurement: np.ndarray,
               measurement_noise: Optional[np.ndarray] = None) -> DenseState:
        """Gain by linear solve, Joseph-form posterior, re-symmetrized."""
        m = self.MEASUREMENT_DIM
        z = np.asarray(measurement, dtype=float)
        if measurement_noise is None:
            r = self._noise(z[..., 3])[..., :m, :m]
        else:
            r = np.asarray(measurement_noise, dtype=float)
        p = state.covariance
        innovation = z - state.mean[..., :m]
        s = p[..., :m, :m] + r
        gain = self._transposed(np.linalg.solve(s, p[..., :m, :]))
        mean = state.mean + (gain @ innovation[..., None])[..., 0]
        i_kh = np.eye(self.STATE_DIM) - gain @ self._H
        covariance = self._symmetrized(
            i_kh @ p @ self._transposed(i_kh) + gain @ r @ self._transposed(gain)
        )
        return DenseState(mean=mean, covariance=covariance)

    @staticmethod
    def expanded(blocks: np.ndarray) -> np.ndarray:
        """(..., 3, 4) per-component blocks to the full (..., 8, 8) matrix."""
        c = np.arange(4)
        full = np.zeros(blocks.shape[:-2] + (8, 8))
        full[..., c, c] = blocks[..., 0, :]
        full[..., c, c + 4] = full[..., c + 4, c] = blocks[..., 1, :]
        full[..., c + 4, c + 4] = blocks[..., 2, :]
        return full

def idf1_bruteforce(gt_frames, pred_frames, threshold: float = 0.5):
    """IDF1 by enumerating every injective trajectory pairing.

    Returns (score, idtp, idfp, idfn).  Frame-level matches are counted
    with an interval-arithmetic IoU written out locally.
    """

    def local_iou(a: BoundingBox, b: BoundingBox) -> float:
        ix = max(0.0, min(a.x + a.w, b.x + b.w) - max(a.x, b.x))
        iy = max(0.0, min(a.y + a.h, b.y + b.h) - max(a.y, b.y))
        inter = ix * iy
        if inter <= 0:
            return 0.0
        return inter / (a.w * a.h + b.w * b.h - inter)

    gt_traj: dict[int, dict[int, BoundingBox]] = {}
    for frame, items in gt_frames.items():
        for i, box in items:
            gt_traj.setdefault(i, {})[frame] = box
    pred_traj: dict[int, dict[int, BoundingBox]] = {}
    for frame, items in pred_frames.items():
        for i, box in items:
            pred_traj.setdefault(i, {})[frame] = box

    gt_ids = sorted(gt_traj)
    pred_ids = sorted(pred_traj)
    gt_total = sum(len(t) for t in gt_traj.values())
    pred_total = sum(len(t) for t in pred_traj.values())

    def pair_matches(gid: int, pid: int) -> int:
        g = gt_traj[gid]
        p = pred_traj[pid]
        return sum(
            1 for frame, box in g.items()
            if frame in p and local_iou(box, p[frame]) >= threshold
        )

    best = 0
    if gt_ids and pred_ids:
        if len(gt_ids) <= len(pred_ids):
            for perm in permutations(pred_ids, len(gt_ids)):
                best = max(best, sum(pair_matches(g, p) for g, p in zip(gt_ids, perm)))
        else:
            for perm in permutations(gt_ids, len(pred_ids)):
                best = max(best, sum(pair_matches(g, p) for g, p in zip(perm, pred_ids)))
    idtp = best
    idfn = gt_total - idtp
    idfp = pred_total - idtp
    denom = idtp + 0.5 * (idfn + idfp)
    score = idtp / denom if denom > 0 else 0.0
    return score, idtp, idfp, idfn


def total_cost(cost, rows, cols) -> float:
    """The summed cost of matching rows[i] to cols[i], added in row order so
    that equal match sets give equal totals."""
    m = np.asarray(cost, dtype=float)
    total = 0.0
    for r, c in sorted(zip(np.asarray(rows).tolist(), np.asarray(cols).tolist())):
        total += float(m[r, c])
    return total


def solve_bruteforce(cost, admissible=None) -> tuple[np.ndarray, np.ndarray]:
    """Exhaustive-enumeration oracle with the contract of ``assignment.solve``:
    among the one-to-one assignments of maximum cardinality over admissible
    pairs (every pair when no mask is given), one of minimum total cost, as
    (rows, cols) index arrays with rows ascending.

    Totals are compared as ``total_cost`` sums them.  Rejects matrices with
    either dimension above BRUTEFORCE_MAX_DIM.
    """
    m = np.asarray(cost, dtype=float)
    if m.ndim != 2:
        raise ValueError(f"cost matrix must be 2-D, got shape {m.shape}")
    n_rows, n_cols = m.shape
    if max(n_rows, n_cols) > BRUTEFORCE_MAX_DIM:
        raise ValueError(
            f"matrix {n_rows}x{n_cols} exceeds enumeration bound {BRUTEFORCE_MAX_DIM}"
        )
    allowed = (np.ones(m.shape, dtype=bool) if admissible is None
               else np.asarray(admissible, dtype=bool))

    def result(pairs) -> tuple[np.ndarray, np.ndarray]:
        pairs = sorted(pairs)
        return (np.array([r for r, _ in pairs], dtype=np.intp),
                np.array([c for _, c in pairs], dtype=np.intp))

    for k in range(min(n_rows, n_cols), 0, -1):
        best_pairs = None
        best_cost = None
        for row_subset in combinations(range(n_rows), k):
            for col_perm in permutations(range(n_cols), k):
                if not all(allowed[r, c] for r, c in zip(row_subset, col_perm)):
                    continue
                total = total_cost(m, row_subset, col_perm)
                if best_cost is None or total < best_cost:
                    best_cost = total
                    best_pairs = list(zip(row_subset, col_perm))
        if best_pairs is not None:
            return result(best_pairs)
    return result([])


def hota_per_alpha(frames):
    """HOTA's per-alpha counts as the package computed them before it read
    forced alphas off one mask stack: the solver at every alpha of every
    frame, and one running pair count per alpha.

    ``frames`` is ``pair_per_frame``'s (gt ids, pred ids, IoU matrix) per
    frame.  Returns (tp, fn, fp, ass_sum), each one float per alpha.
    """
    n = len(HOTA_ALPHAS)
    tp = np.zeros(n)
    fn = np.zeros(n)
    fp = np.zeros(n)
    gt_len = Counter(i for g, _, _ in frames for i in g)
    pred_len = Counter(i for _, p, _ in frames for i in p)
    pair_counts: list[Counter] = [Counter() for _ in range(n)]

    for g, p, overlap in frames:
        for a, alpha in enumerate(HOTA_ALPHAS):
            rows, cols = solve(1.0 - overlap, overlap >= alpha)
            tp[a] += len(rows)
            fn[a] += len(g) - len(rows)
            fp[a] += len(p) - len(rows)
            for r, c in zip(rows.tolist(), cols.tolist()):
                pair_counts[a][(g[r], p[c])] += 1

    ass_sum = np.zeros(n)
    for a in range(n):
        for (gid, pid), count in pair_counts[a].items():
            ass_sum[a] += count * (count / (gt_len[gid] + pred_len[pid] - count))
    return tp, fn, fp, ass_sum


def pair_per_frame(gt_frames, pred_frames):
    """Every frame of either side, in order, as (gt ids, pred ids, IoU
    matrix): one ``iou_matrix`` call per frame on that frame's boxes."""
    return [([i for i, _ in gt_frames.get(f, [])],
             [i for i, _ in pred_frames.get(f, [])],
             iou_matrix([b for _, b in gt_frames.get(f, [])],
                        [b for _, b in pred_frames.get(f, [])]))
            for f in sorted(gt_frames.keys() | pred_frames.keys())]


def clear_per_frame(frames) -> ClearCounts:
    """CLEAR counts as the package computed them before it read matches off
    one pairing: per frame, the previous frame's surviving matches first,
    then the solver over the rest, on every frame."""
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
            rows, cols = solve(1.0 - rest, rest >= CLEAR_IOU_THRESHOLD)
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


def identity_per_frame(frames) -> IdentityCounts:
    """Identity counts as the package computed them before it read matches
    off one pairing: the match matrix summed frame by frame."""
    gt_row = {i: r for r, i in enumerate(sorted({i for g, _, _ in frames for i in g}))}
    pred_col = {i: c for c, i in enumerate(sorted({i for _, p, _ in frames for i in p}))}
    matches = np.zeros((len(gt_row), len(pred_col)))
    for g, p, overlap in frames:
        hit_g, hit_p = np.nonzero(overlap >= IDENTITY_IOU_THRESHOLD)
        matches[[gt_row[g[r]] for r in hit_g], [pred_col[p[c]] for c in hit_p]] += 1
    rows, cols = solve(-matches, np.ones(matches.shape, dtype=bool))
    idtp = int(matches[rows, cols].sum())
    return IdentityCounts(idtp=idtp,
                          idfp=sum(len(p) for _, p, _ in frames) - idtp,
                          idfn=sum(len(g) for g, _, _ in frames) - idtp)
