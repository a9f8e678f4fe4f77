"""Optimal linear assignment over cost matrices, with per-pair gating.

All solvers implement the same contract: among all one-to-one partial
assignments of maximum cardinality restricted to admissible pairs, return
one of minimum total cost.  ``solve_admissible`` takes the admissible pairs
as a boolean mask and delegates to scipy's Jonker-Volgenant-style solver;
``solve`` admits the pairs whose cost does not exceed a gate and calls it;
``solve_bruteforce`` enumerates and exists as an independent oracle for
small matrices.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, permutations
from typing import Optional

import numpy as np
from scipy.optimize import linear_sum_assignment

BRUTEFORCE_MAX_DIM = 8


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


def _result(cost: np.ndarray, pairs: list[tuple[int, int]]) -> AssignmentResult:
    pairs = sorted(pairs)
    matched_rows = {r for r, _ in pairs}
    matched_cols = {c for _, c in pairs}
    # Summation order is fixed (row-sorted) so equal match sets give equal totals.
    total = 0.0
    for r, c in pairs:
        total += float(cost[r, c])
    return AssignmentResult(
        matches=tuple(pairs),
        unmatched_rows=tuple(r for r in range(cost.shape[0]) if r not in matched_rows),
        unmatched_cols=tuple(c for c in range(cost.shape[1]) if c not in matched_cols),
        total_cost=total,
    )


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
        return _result(m, [])
    # Big-M for forbidden pairs, chosen from allowed entries only so that the
    # solver first maximizes the number of allowed pairs, then minimizes their
    # cost.  M exceeds any achievable allowed-cost difference.
    big = 2.0 * float(np.abs(m[allowed]).sum()) + 1.0
    padded = np.where(allowed, m, big)
    rows, cols = linear_sum_assignment(padded)
    pairs = [(int(r), int(c)) for r, c in zip(rows, cols) if allowed[r, c]]
    return _result(m, pairs)


def solve_bruteforce(cost, gate: Optional[float] = None) -> AssignmentResult:
    """Exhaustive-enumeration oracle with the same contract as ``solve``.

    Rejects matrices with either dimension above BRUTEFORCE_MAX_DIM.
    """
    m = _as_cost_matrix(cost)
    n_rows, n_cols = m.shape
    if max(n_rows, n_cols) > BRUTEFORCE_MAX_DIM:
        raise ValueError(
            f"matrix {n_rows}x{n_cols} exceeds enumeration bound {BRUTEFORCE_MAX_DIM}"
        )
    if n_rows == 0 or n_cols == 0:
        return _result(m, [])

    allowed = np.ones_like(m, dtype=bool) if gate is None else m <= gate
    for k in range(min(n_rows, n_cols), 0, -1):
        best_pairs = None
        best_cost = None
        for row_subset in combinations(range(n_rows), k):
            for col_perm in permutations(range(n_cols), k):
                pairs = list(zip(row_subset, col_perm))
                if not all(allowed[r, c] for r, c in pairs):
                    continue
                total = 0.0
                for r, c in sorted(pairs):
                    total += float(m[r, c])
                if best_cost is None or total < best_cost:
                    best_cost = total
                    best_pairs = pairs
        if best_pairs is not None:
            return _result(m, best_pairs)
    return _result(m, [])
