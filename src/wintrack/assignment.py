"""Optimal linear assignment over cost matrices, with per-pair gating.

All solvers implement the same contract: among all one-to-one partial
assignments of maximum cardinality restricted to admissible pairs, return
one of minimum total cost.  ``solve_admissible`` takes the admissible pairs
as a boolean mask and delegates to scipy's Jonker-Volgenant-style solver,
unless no two admissible pairs share a row or a column: those pairs are
then the one maximum matching and are returned as they are.  ``solve``
admits the pairs whose cost does not exceed a gate and calls it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.optimize import linear_sum_assignment


@dataclass(frozen=True)
class AssignmentResult:
    matches: tuple[tuple[int, int], ...]
    unmatched_rows: tuple[int, ...]
    unmatched_cols: tuple[int, ...]
    total_cost: float


def _as_cost_matrix(cost) -> np.ndarray:
    m = np.asarray(cost, dtype=float)
    if m.ndim == 1 and m.size == 0:
        m = m.reshape(0, 0)
    if m.ndim != 2:
        raise ValueError(f"cost matrix must be 2-D, got shape {m.shape}")
    if m.size and not np.all(np.isfinite(m)):
        raise ValueError("cost matrix entries must be finite")
    return m


def _result(cost: np.ndarray, rows: list[int], cols: list[int]) -> AssignmentResult:
    """The result of matching rows[i] to cols[i]; rows ascend."""
    matched_rows = set(rows)
    matched_cols = set(cols)
    # Summation order is fixed (row-sorted) so equal match sets give equal totals.
    total = 0.0
    for value in cost[rows, cols].tolist():
        total += value
    return AssignmentResult(
        matches=tuple(zip(rows, cols)),
        unmatched_rows=tuple(r for r in range(cost.shape[0]) if r not in matched_rows),
        unmatched_cols=tuple(c for c in range(cost.shape[1]) if c not in matched_cols),
        total_cost=total,
    )


def crowded(mask: np.ndarray) -> np.ndarray:
    """Whether some row or some column of each non-empty (..., R, C) mask
    slice holds two admissible pairs."""
    return (mask.sum(axis=-1).max(axis=-1) > 1) | (mask.sum(axis=-2).max(axis=-1) > 1)


def solve(cost, gate: Optional[float] = None) -> AssignmentResult:
    """Minimum-cost, maximum-cardinality gated assignment.

    Pairs with cost > gate are forbidden (never matched); with no gate every
    pair is allowed.  Empty matrices yield empty matches.
    """
    m = _as_cost_matrix(cost)
    return solve_admissible(m, np.ones(m.shape, dtype=bool) if gate is None else m <= gate)


def solve_admissible(cost, admissible) -> AssignmentResult:
    """Minimum-cost, maximum-cardinality assignment over admissible pairs.

    ``admissible`` is a boolean mask of the cost matrix's shape; pairs where
    it is False are never matched.
    """
    m = _as_cost_matrix(cost)
    allowed = np.asarray(admissible, dtype=bool)
    if allowed.shape != m.shape:
        raise ValueError(
            f"admissible mask shape {allowed.shape} differs from cost shape {m.shape}"
        )
    if not allowed.any():
        return _result(m, [], [])
    if crowded(allowed):
        # Big-M for forbidden pairs, chosen from allowed entries only so that
        # the solver first maximizes the number of allowed pairs, then
        # minimizes their cost.  M exceeds any achievable allowed-cost
        # difference.
        big = 2.0 * float(np.abs(m[allowed]).sum()) + 1.0
        rows, cols = linear_sum_assignment(np.where(allowed, m, big))
        kept = allowed[rows, cols]
        rows, cols = rows[kept], cols[kept]
    else:
        # Admissible pairs that share no row and no column are the one
        # maximum matching.
        rows, cols = np.nonzero(allowed)
    return _result(m, rows.tolist(), cols.tolist())
