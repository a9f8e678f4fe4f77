"""Independent reference implementations used to cross-check the package.

Everything here is deliberately dumb: counting grids, hand-expanded 2x2
matrix algebra, exhaustive enumeration.  None of it shares code with the
implementations under test.
"""

from __future__ import annotations

from itertools import permutations

import numpy as np

from wintrack.geometry import BoundingBox


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
    iw = min(a.right, b.right) - max(a.x, b.x)
    if iw <= 0:
        return 0.0
    ih = min(a.bottom, b.bottom) - max(a.y, b.y)
    if ih <= 0:
        return 0.0
    inter = iw * ih
    return inter / (a.area + b.area - inter)


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
        # mirror the (P + P^T)/2 symmetrization the tested filter applies
        m01 = (self.p[0][1] + self.p[1][0]) / 2.0
        self.p[0][1] = self.p[1][0] = m01


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
