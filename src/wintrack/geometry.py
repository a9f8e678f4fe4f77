"""Axis-aligned bounding boxes, IoU, and IoU distance matrices."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np


@dataclass(frozen=True)
class BoundingBox:
    """Axis-aligned box stored as (left, top, width, height).

    Coordinates are continuous pixel units; the layout matches the
    MOTChallenge column order so file rows map onto fields directly.
    """

    x: float
    y: float
    w: float
    h: float

    def __post_init__(self):
        for name in ("x", "y", "w", "h"):
            v = getattr(self, name)
            if not math.isfinite(v):
                raise ValueError(f"box field {name!r} must be finite, got {v!r}")
        if self.w <= 0 or self.h <= 0:
            raise ValueError(f"box sides must be positive, got w={self.w}, h={self.h}")

    @property
    def right(self) -> float:
        return self.x + self.w

    @property
    def bottom(self) -> float:
        return self.y + self.h

    @property
    def cx(self) -> float:
        return self.x + self.w / 2.0

    @property
    def cy(self) -> float:
        return self.y + self.h / 2.0

    @property
    def area(self) -> float:
        return self.w * self.h

    def translated(self, dx: float, dy: float) -> "BoundingBox":
        return BoundingBox(self.x + dx, self.y + dy, self.w, self.h)


def iou(a: BoundingBox, b: BoundingBox) -> float:
    """Intersection over union of two boxes, in [0, 1].

    Touching boxes (zero-area intersection) score 0, equal boxes exactly 1.
    """
    return float(iou_matrix([a], [b])[0, 0])


def _columns(boxes: Sequence[BoundingBox]) -> np.ndarray:
    """(x, y, w, h) as four rows of shape (4, len(boxes))."""
    return np.array([(b.x, b.y, b.w, b.h) for b in boxes], dtype=float).reshape(-1, 4).T


def iou_matrix(rows: Sequence[BoundingBox], cols: Sequence[BoundingBox]) -> np.ndarray:
    """IoU of every row box against every column box, shape (len(rows), len(cols)).

    Each entry is iou(rows[i], cols[j]); swapping the arguments transposes
    the result exactly.
    """
    a = _columns(rows)[:, :, None]
    b = _columns(cols)[:, None, :]
    ax, ay, aw, ah = a
    bx, by, bw, bh = b
    iw = np.minimum(ax + aw, bx + bw) - np.maximum(ax, bx)
    ih = np.minimum(ay + ah, by + bh) - np.maximum(ay, by)
    inter = iw * ih
    union = aw * ah + bw * bh - inter
    out = np.divide(inter, union, out=np.zeros(inter.shape), where=(iw > 0) & (ih > 0))
    out[(a == b).all(axis=0)] = 1.0
    return out


def iou_distance_matrix(
    rows: Sequence[BoundingBox], cols: Sequence[BoundingBox]
) -> np.ndarray:
    """Association cost matrix with entry (i, j) = 1 - iou(rows[i], cols[j]).

    Either side may be empty; the result then has a zero-length dimension.
    All entries lie in [0, 1].
    """
    return 1.0 - iou_matrix(rows, cols)
