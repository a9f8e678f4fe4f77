import random

import numpy as np
import pytest

from oracles import solve_bruteforce, total_cost
from wintrack.assignment import solve


def random_matrix(rng: random.Random):
    rows = rng.randint(1, 6)
    cols = rng.randint(1, 6)
    return np.array([[rng.random() for _ in range(cols)] for _ in range(rows)])


def every_pair(cost) -> np.ndarray:
    return np.ones(np.shape(cost), dtype=bool)


def pairs(rows, cols) -> list[tuple[int, int]]:
    return list(zip(rows.tolist(), cols.tolist()))


def unmatched(n: int, matched) -> list[int]:
    """The complement of matched in range(n), ascending."""
    return np.delete(np.arange(n), matched).tolist()


def assert_index_arrays(rows, cols):
    """The contract callers index with: intp arrays of equal length, rows
    strictly ascending."""
    for a in (rows, cols):
        assert isinstance(a, np.ndarray)
        assert a.dtype == np.intp
        assert a.ndim == 1
    assert rows.shape == cols.shape
    assert np.all(np.diff(rows) > 0)


class TestSolve:
    def test_two_by_two_diagonal(self):
        cost = [[1.0, 2.0], [2.0, 1.0]]
        rows, cols = solve(cost, every_pair(cost))
        assert set(pairs(rows, cols)) == {(0, 0), (1, 1)}
        assert total_cost(cost, rows, cols) == 2.0

    def test_zero_matrix_matches_everything(self):
        cost = np.zeros((4, 4))
        rows, cols = solve(cost, every_pair(cost))
        assert len(rows) == 4
        assert total_cost(cost, rows, cols) == 0.0
        assert unmatched(4, rows) == []
        assert unmatched(4, cols) == []

    def test_gate_excludes_single_pair(self):
        cost = np.array([[0.9]])
        rows, cols = solve(cost, cost <= 0.5)
        assert pairs(rows, cols) == []
        assert unmatched(1, rows) == [0]
        assert unmatched(1, cols) == [0]
        assert total_cost(cost, rows, cols) == 0.0

    def test_gate_prefers_cardinality_over_cost(self):
        # Taking the cheap (0,0) pair alone would be cheaper than any full
        # matching, but it forces row 1 onto a forbidden pair; cardinality
        # must win before cost.
        cost = np.array([[0.1, 0.2], [0.15, 5.0]])
        rows, cols = solve(cost, cost <= 1.0)
        assert set(pairs(rows, cols)) == {(0, 1), (1, 0)}
        assert total_cost(cost, rows, cols) == pytest.approx(0.35)

    def test_empty_matrix(self):
        cost = np.zeros((0, 3))
        rows, cols = solve(cost, every_pair(cost))
        assert pairs(rows, cols) == []
        assert unmatched(3, cols) == [0, 1, 2]
        assert_index_arrays(rows, cols)
        assert rows.shape == cols.shape == (0,)

    def test_all_false_mask_matches_nothing(self):
        rows, cols = solve(np.ones((3, 2)), np.zeros((3, 2), dtype=bool))
        assert_index_arrays(rows, cols)
        assert rows.shape == cols.shape == (0,)

    def test_admissible_mask_shape_must_match_cost(self):
        with pytest.raises(ValueError, match="shape"):
            solve(np.zeros((2, 3)), np.ones((3, 2), dtype=bool))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            solve([[np.inf]], [[True]])

    def test_rectangular_full_cardinality(self, rng):
        for _ in range(50):
            rows = rng.randint(1, 6)
            cols = rng.randint(1, 6)
            m = np.array([[rng.random() for _ in range(cols)] for _ in range(rows)])
            assert len(solve(m, every_pair(m))[0]) == min(rows, cols)

    def test_constant_shift_property(self, rng):
        # Dyadic entries keep float sums exact, so the stated identity is
        # checkable with equality rather than a tolerance.
        for _ in range(50):
            n = rng.randint(1, 5)
            m = np.array([[rng.randrange(0, 256) / 64.0 for _ in range(n)]
                          for _ in range(n)])
            c = rng.randrange(-64, 64) / 64.0
            base = total_cost(m, *solve(m, every_pair(m)))
            rows, cols = solve(m + c, every_pair(m))
            assert total_cost(m + c, rows, cols) == base + n * c
            assert len(rows) == n


class TestBruteforce:
    def test_two_by_two(self):
        cost = [[1.0, 2.0], [2.0, 1.0]]
        assert total_cost(cost, *solve_bruteforce(cost)) == 2.0

    def test_single_entry(self):
        rows, cols = solve_bruteforce([[3.5]])
        assert pairs(rows, cols) == [(0, 0)]
        assert total_cost([[3.5]], rows, cols) == 3.5

    def test_rectangular_cardinality(self):
        rows, _ = solve_bruteforce([[5.0, 1.0, 2.0], [1.0, 5.0, 2.0]])
        assert len(rows) == 2

    def test_rejects_large_matrices(self):
        with pytest.raises(ValueError):
            solve_bruteforce(np.zeros((9, 2)))

    def test_gate_reduces_cardinality(self):
        cost = np.array([[0.2, 0.9], [0.8, 0.95]])
        rows, cols = solve_bruteforce(cost, cost <= 0.5)
        assert pairs(rows, cols) == [(0, 0)]
        assert unmatched(2, rows) == [1]


class TestAgreement:
    def test_solvers_agree_on_random_matrices(self, rng):
        for trial in range(300):
            m = random_matrix(rng)
            gate = rng.random() if trial % 2 else np.inf
            fast = solve(m, m <= gate)
            slow = solve_bruteforce(m, m <= gate)
            assert len(fast[0]) == len(slow[0])
            assert total_cost(m, *fast) == total_cost(m, *slow)
            # The same matrix under a random admissible mask.
            mask = np.random.default_rng(trial).random(m.shape) < 0.6
            fast = solve(m, mask)
            slow = solve_bruteforce(m, mask)
            assert all(mask[r, c] for r, c in pairs(*fast))
            assert len(fast[0]) == len(slow[0])
            assert total_cost(m, *fast) == total_cost(m, *slow)

    def test_result_partition_invariants(self, rng):
        for _ in range(100):
            m = random_matrix(rng)
            n_rows, n_cols = m.shape
            rows, cols = solve(m, m <= 0.7)
            assert_index_arrays(rows, cols)
            assert sorted(rows.tolist() + unmatched(n_rows, rows)) == list(range(n_rows))
            assert sorted(cols.tolist() + unmatched(n_cols, cols)) == list(range(n_cols))
            assert len(set(cols.tolist())) == len(cols)
            assert total_cost(m, rows, cols) == sum(m[r, c] for r, c in pairs(rows, cols))


class TestUncontendedFastPath:
    """Admissible pairs that share no row and no column are the one maximum
    matching, so they are returned without calling the solver."""

    @staticmethod
    def _count_solver_calls(monkeypatch) -> list:
        import wintrack.assignment

        calls = []
        lsa = wintrack.assignment.linear_sum_assignment

        def counted(cost):
            calls.append(cost.shape)
            return lsa(cost)

        monkeypatch.setattr(wintrack.assignment, "linear_sum_assignment", counted)
        return calls

    def test_uncontended_mask_skips_the_solver(self, monkeypatch):
        calls = self._count_solver_calls(monkeypatch)
        cost = np.array([[0.9, 0.1, 0.5], [0.2, 0.8, 0.3]])
        mask = np.array([[False, False, True], [True, False, False]])
        rows, cols = solve(cost, mask)
        assert calls == []
        assert pairs(rows, cols) == [(0, 2), (1, 0)]
        assert_index_arrays(rows, cols)
        assert unmatched(2, rows) == []
        assert unmatched(3, cols) == [1]
        assert total_cost(cost, rows, cols) == 0.5 + 0.2

    def test_contended_mask_calls_the_solver(self, monkeypatch):
        calls = self._count_solver_calls(monkeypatch)
        cost = np.array([[0.9, 0.1], [0.2, 0.8]])
        mask = np.array([[True, True], [True, False]])
        rows, cols = solve(cost, mask)
        assert len(calls) >= 1
        assert pairs(rows, cols) == [(0, 1), (1, 0)]
        assert_index_arrays(rows, cols)

    def test_scipy_path_returns_rows_ascending(self, monkeypatch):
        # More rows than columns: scipy leaves some rows out, and the kept
        # rows still ascend.
        calls = self._count_solver_calls(monkeypatch)
        cost = np.array([[0.5, 0.1], [0.1, 0.5], [0.2, 0.2], [0.05, 0.9]])
        rows, cols = solve(cost, every_pair(cost))
        assert len(calls) == 1
        assert_index_arrays(rows, cols)
        assert pairs(rows, cols) == [(0, 1), (3, 0)]
