"""Axis-aligned bounding boxes, IoU, and IoU distance matrices."""

from __future__ import annotations

from dataclasses import dataclass
from math import isfinite
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
        # The checks below without their loop: this passes exactly the boxes
        # they pass and raises whatever they would raise first; a box that
        # fails it takes them, so the error names the field.
        if (isfinite(self.x) and isfinite(self.y) and isfinite(self.w)
                and isfinite(self.h) and not (self.w <= 0 or self.h <= 0)):
            return
        for name in ("x", "y", "w", "h"):
            v = getattr(self, name)
            if not isfinite(v):
                raise ValueError(f"box field {name!r} must be finite, got {v!r}")
        if self.w <= 0 or self.h <= 0:
            raise ValueError(f"box sides must be positive, got w={self.w}, h={self.h}")

    def translated(self, dx: float, dy: float) -> "BoundingBox":
        return BoundingBox(self.x + dx, self.y + dy, self.w, self.h)


def box_array(boxes: Sequence[BoundingBox]) -> np.ndarray:
    """Boxes as one (N, 4) array of (x, y, w, h) rows."""
    return np.array([(b.x, b.y, b.w, b.h) for b in boxes], dtype=float).reshape(-1, 4)


def iou_matrix(rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """IoU of every row box against every column box, shape (len(rows), len(cols)).

    Each side is an (N, 4) array of (x, y, w, h) rows, else ValueError.  Each
    entry lies in [0, 1]: touching boxes (zero-area intersection) score 0 and
    equal boxes exactly 1.  Swapping the arguments transposes the result exactly.
    """
    rows, cols = np.asarray(rows, dtype=float), np.asarray(cols, dtype=float)
    if rows.ndim != 2 or cols.ndim != 2 or rows.shape[1] != 4 or cols.shape[1] != 4:
        raise ValueError(f"boxes must be (N, 4) arrays, got {rows.shape} and {cols.shape}")
    ax, ay, aw, ah = rows.T[:, :, None]
    bx, by, bw, bh = cols.T[:, None, :]
    iw = np.minimum(ax + aw, bx + bw) - np.maximum(ax, bx)
    ih = np.minimum(ay + ah, by + bh) - np.maximum(ay, by)
    inter = iw * ih
    union = aw * ah + bw * bh - inter
    out = np.divide(inter, union, out=np.zeros(inter.shape), where=(iw > 0) & (ih > 0))
    out[(ax == bx) & (ay == by) & (aw == bw) & (ah == bh)] = 1.0
    return out


def iou_distance_matrix(rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Association cost matrix: 1 - iou_matrix(rows, cols).

    Either side may be empty; the result then has a zero-length dimension.
    All entries lie in [0, 1].
    """
    return 1.0 - iou_matrix(rows, cols)
