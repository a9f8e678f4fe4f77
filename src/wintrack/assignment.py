"""Optimal linear assignment over a cost matrix and a mask of admissible pairs.

``solve`` is the one entry point: among all one-to-one partial assignments
of maximum cardinality restricted to admissible pairs, it returns one of
minimum total cost, as the matched rows and their columns in two index
arrays, rows ascending.  It delegates to scipy's Jonker-Volgenant-style
solver, unless no two admissible pairs share a row or a column: those
pairs are then the one maximum matching and are returned as they are.
scipy is imported on the first call that needs it, so a program whose
pairs are never contended (``wintrack synth``, a sparse scene) never
loads it.
"""

from __future__ import annotations

import numpy as np


def linear_sum_assignment(cost: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """scipy's solver, imported on first use: loading ``scipy.optimize``
    takes longer than importing the rest of the package."""
    from scipy.optimize import linear_sum_assignment as solver

    return solver(cost)


def _as_cost_matrix(cost) -> np.ndarray:
    m = np.asarray(cost, dtype=float)
    if m.ndim != 2:
        raise ValueError(f"cost matrix must be 2-D, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise ValueError("cost matrix entries must be finite")
    return m


def crowded(mask: np.ndarray) -> np.ndarray:
    """Whether some row or some column of each non-empty (..., R, C) mask
    slice holds two admissible pairs."""
    return (mask.sum(axis=-1).max(axis=-1) > 1) | (mask.sum(axis=-2).max(axis=-1) > 1)


def solve(cost, admissible) -> tuple[np.ndarray, np.ndarray]:
    """Minimum-cost, maximum-cardinality assignment over admissible pairs.

    ``admissible`` is a boolean mask of the cost matrix's shape; pairs where
    it is False are never matched.  Returns (rows, cols), two intp arrays
    where rows[i] is matched to cols[i] and rows ascend; both are empty
    when nothing can match.
    """
    m = _as_cost_matrix(cost)
    allowed = np.asarray(admissible, dtype=bool)
    if allowed.shape != m.shape:
        raise ValueError(
            f"admissible mask shape {allowed.shape} differs from cost shape {m.shape}"
        )
    if not allowed.any() or not crowded(allowed):
        # Admissible pairs that share no row and no column are the one
        # maximum matching (none at all included).
        return np.nonzero(allowed)
    # Big-M for forbidden pairs, chosen from allowed entries only so that
    # the solver first maximizes the number of allowed pairs, then
    # minimizes their cost.  M exceeds any achievable allowed-cost
    # difference.
    big = 2.0 * float(np.abs(m[allowed]).sum()) + 1.0
    rows, cols = linear_sum_assignment(np.where(allowed, m, big))
    kept = allowed[rows, cols]
    return rows[kept], cols[kept]
