import random

import numpy as np
import pytest

from wintrack.assignment import solve, solve_admissible, solve_bruteforce


def random_matrix(rng: random.Random):
    rows = rng.randint(1, 6)
    cols = rng.randint(1, 6)
    return np.array([[rng.random() for _ in range(cols)] for _ in range(rows)])


class TestSolve:
    def test_two_by_two_diagonal(self):
        result = solve([[1.0, 2.0], [2.0, 1.0]])
        assert set(result.matches) == {(0, 0), (1, 1)}
        assert result.total_cost == 2.0

    def test_zero_matrix_matches_everything(self):
        result = solve(np.zeros((4, 4)))
        assert len(result.matches) == 4
        assert result.total_cost == 0.0
        assert result.unmatched_rows == ()
        assert result.unmatched_cols == ()

    def test_gate_excludes_single_pair(self):
        result = solve([[0.9]], gate=0.5)
        assert result.matches == ()
        assert result.unmatched_rows == (0,)
        assert result.unmatched_cols == (0,)
        assert result.total_cost == 0.0

    def test_gate_prefers_cardinality_over_cost(self):
        # Taking the cheap (0,0) pair alone would be cheaper than any full
        # matching, but it forces row 1 onto a forbidden pair; cardinality
        # must win before cost.
        cost = np.array([[0.1, 0.2], [0.15, 5.0]])
        result = solve(cost, gate=1.0)
        assert set(result.matches) == {(0, 1), (1, 0)}
        assert result.total_cost == pytest.approx(0.35)

    def test_empty_matrix(self):
        result = solve(np.zeros((0, 3)))
        assert result.matches == ()
        assert result.unmatched_cols == (0, 1, 2)

    def test_admissible_mask_shape_must_match_cost(self):
        with pytest.raises(ValueError, match="shape"):
            solve_admissible(np.zeros((2, 3)), np.ones((3, 2), dtype=bool))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            solve([[np.inf]])

    def test_rectangular_full_cardinality(self, rng):
        for _ in range(50):
            rows = rng.randint(1, 6)
            cols = rng.randint(1, 6)
            m = np.array([[rng.random() for _ in range(cols)] for _ in range(rows)])
            assert len(solve(m).matches) == min(rows, cols)

    def test_constant_shift_property(self, rng):
        # Dyadic entries keep float sums exact, so the stated identity is
        # checkable with equality rather than a tolerance.
        for _ in range(50):
            n = rng.randint(1, 5)
            m = np.array([[rng.randrange(0, 256) / 64.0 for _ in range(n)]
                          for _ in range(n)])
            c = rng.randrange(-64, 64) / 64.0
            base = solve(m)
            shifted = solve(m + c)
            assert shifted.total_cost == base.total_cost + n * c
            assert len(shifted.matches) == n


class TestBruteforce:
    def test_two_by_two(self):
        assert solve_bruteforce([[1.0, 2.0], [2.0, 1.0]]).total_cost == 2.0

    def test_single_entry(self):
        result = solve_bruteforce([[3.5]])
        assert result.matches == ((0, 0),)
        assert result.total_cost == 3.5

    def test_rectangular_cardinality(self):
        result = solve_bruteforce([[5.0, 1.0, 2.0], [1.0, 5.0, 2.0]])
        assert len(result.matches) == 2

    def test_rejects_large_matrices(self):
        with pytest.raises(ValueError):
            solve_bruteforce(np.zeros((9, 2)))

    def test_gate_reduces_cardinality(self):
        result = solve_bruteforce([[0.2, 0.9], [0.8, 0.95]], gate=0.5)
        assert result.matches == ((0, 0),)
        assert result.unmatched_rows == (1,)


class TestAgreement:
    def test_solvers_agree_on_random_matrices(self, rng):
        for trial in range(300):
            m = random_matrix(rng)
            gate = rng.random() if trial % 2 else None
            fast = solve(m, gate=gate)
            slow = solve_bruteforce(m, gate=gate)
            assert len(fast.matches) == len(slow.matches)
            assert fast.total_cost == slow.total_cost
            # The same matrix under a random admissible mask; the oracle sees
            # inadmissible pairs as costs above a gate that admits all others.
            mask = np.random.default_rng(trial).random(m.shape) < 0.6
            fast = solve_admissible(m, mask)
            slow = solve_bruteforce(np.where(mask, m, 2.0), gate=1.0)
            assert all(mask[r, c] for r, c in fast.matches)
            assert len(fast.matches) == len(slow.matches)
            assert fast.total_cost == slow.total_cost

    def test_result_partition_invariants(self, rng):
        for _ in range(100):
            m = random_matrix(rng)
            result = solve(m, gate=0.7)
            rows = sorted([r for r, _ in result.matches] + list(result.unmatched_rows))
            cols = sorted([c for _, c in result.matches] + list(result.unmatched_cols))
            assert rows == list(range(m.shape[0]))
            assert cols == list(range(m.shape[1]))
            assert result.total_cost == sum(m[r, c] for r, c in result.matches)
