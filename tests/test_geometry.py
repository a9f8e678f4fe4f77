import math
import random

import numpy as np
import pytest

from oracles import grid_iou, iou_scalar
from wintrack.geometry import BoundingBox, box_array, iou_distance_matrix, iou_matrix

from conftest import random_box


class TestBoundingBox:
    def test_rejects_non_positive_sides(self):
        with pytest.raises(ValueError):
            BoundingBox(0, 0, 0, 10)
        with pytest.raises(ValueError):
            BoundingBox(0, 0, 10, -1)

    def test_rejects_non_finite_fields(self):
        with pytest.raises(ValueError):
            BoundingBox(math.nan, 0, 1, 1)
        with pytest.raises(ValueError):
            BoundingBox(0, math.inf, 1, 1)

    @pytest.mark.parametrize("field", range(4))
    @pytest.mark.parametrize("value, error, message", [
        (math.nan, ValueError, "box field {name!r} must be finite"),
        (-math.inf, ValueError, "box field {name!r} must be finite"),
        (np.float32(np.inf), ValueError, "box field {name!r} must be finite"),
        (10 ** 400, OverflowError, "int too large to convert to float"),
        ("1", TypeError, "must be real number, not str"),
    ])
    def test_first_bad_field_decides_the_error(self, field, value, error, message):
        # h is 0 unless it is the field under test: a later bad side never
        # hides an earlier bad field.
        fields = [1.0, 2.0, 3.0, 0.0]
        fields[field] = value
        with pytest.raises(error, match=message.format(name="xywh"[field])):
            BoundingBox(*fields)

    def test_zero_side_named_after_finite_fields(self):
        with pytest.raises(ValueError, match=r"box sides must be positive, got w=0, h=10"):
            BoundingBox(0, 0, 0, 10)


class TestIou:
    """One pair at a time: each check reads the 1x1 iou_matrix."""

    def test_identical_boxes(self):
        b = BoundingBox(0, 0, 10, 10)
        assert iou_matrix(box_array([b]), box_array([b]))[0, 0] == 1.0

    def test_disjoint_boxes(self):
        m = iou_matrix(box_array([BoundingBox(0, 0, 1, 1)]),
                       box_array([BoundingBox(5, 5, 1, 1)]))
        assert m[0, 0] == 0.0

    def test_touching_boxes_score_zero(self):
        m = iou_matrix(box_array([BoundingBox(0, 0, 1, 1)]),
                       box_array([BoundingBox(1, 0, 1, 1)]))
        assert m[0, 0] == 0.0

    def test_quarter_overlap(self):
        # unit intersection, union 7: frozen from the grid-counting oracle
        a = BoundingBox(0, 0, 2, 2)
        b = BoundingBox(1, 1, 2, 2)
        assert iou_matrix(box_array([a]), box_array([b]))[0, 0] == pytest.approx(
            1 / 7, abs=1e-12)
        assert grid_iou(a, b, n=2 ** 14) == pytest.approx(1 / 7, abs=1e-3)

    def test_symmetry_is_exact(self, rng):
        for _ in range(200):
            a = random_box(rng)
            b = random_box(rng)
            assert (iou_matrix(box_array([a]), box_array([b]))[0, 0]
                    == iou_matrix(box_array([b]), box_array([a]))[0, 0])

    def test_bounds_and_identity(self, rng):
        for _ in range(200):
            a = random_box(rng)
            b = random_box(rng)
            v = iou_matrix(box_array([a]), box_array([b]))[0, 0]
            assert 0.0 <= v <= 1.0
            assert iou_matrix(box_array([a]), box_array([a]))[0, 0] == 1.0

    def test_translation_invariance(self, rng):
        for _ in range(100):
            a = random_box(rng)
            b = random_box(rng)
            dx = rng.uniform(-500, 500)
            dy = rng.uniform(-500, 500)
            moved = iou_matrix(box_array([a.translated(dx, dy)]),
                               box_array([b.translated(dx, dy)]))
            assert moved[0, 0] == pytest.approx(
                iou_matrix(box_array([a]), box_array([b]))[0, 0], abs=1e-12)

    def test_matches_grid_oracle(self, rng):
        for _ in range(50):
            a = random_box(rng)
            b = random_box(rng)
            assert iou_matrix(box_array([a]), box_array([b]))[0, 0] == pytest.approx(
                grid_iou(a, b, n=2 ** 15), abs=1e-3)


class TestIouDistanceMatrix:
    def test_self_distance(self):
        b = BoundingBox(0, 0, 10, 10)
        m = iou_distance_matrix(box_array([b]), box_array([b]))
        assert m.shape == (1, 1)
        assert m[0, 0] == 0.0

    def test_quarter_overlap_entry(self):
        m = iou_distance_matrix(box_array([BoundingBox(0, 0, 2, 2)]),
                                box_array([BoundingBox(1, 1, 2, 2)]))
        assert m[0, 0] == pytest.approx(6 / 7, abs=1e-12)

    def test_empty_inputs(self):
        b = BoundingBox(0, 0, 10, 10)
        assert iou_distance_matrix(box_array([]), box_array([b])).shape == (0, 1)
        assert iou_distance_matrix(box_array([b]), box_array([])).shape == (1, 0)
        assert iou_distance_matrix(box_array([]), box_array([])).shape == (0, 0)

    def test_entries_match_scalar_iou(self, rng):
        rows = [random_box(rng) for _ in range(3)]
        cols = [random_box(rng) for _ in range(4)]
        m = iou_distance_matrix(box_array(rows), box_array(cols))
        for i, a in enumerate(rows):
            for j, b in enumerate(cols):
                assert m[i, j] == 1.0 - iou_matrix(box_array([a]), box_array([b]))[0, 0]

    def test_entries_in_unit_interval(self, rng):
        rows = [random_box(rng) for _ in range(5)]
        cols = [random_box(rng) for _ in range(5)]
        m = iou_distance_matrix(box_array(rows), box_array(cols))
        assert np.all(m >= 0.0) and np.all(m <= 1.0)


def _bits(m: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(m, dtype=np.float64).view(np.uint64)


def _scalar_matrix(rows, cols) -> np.ndarray:
    return np.array([[iou_scalar(a, b) for b in cols] for a in rows],
                    dtype=float).reshape(len(rows), len(cols))


class TestIouMatrixMatchesScalarOracle:
    """iou_matrix must agree bit for bit with the one-pair-at-a-time oracle."""

    @staticmethod
    def _check(rows, cols):
        m = iou_matrix(box_array(rows), box_array(cols))
        assert np.array_equal(_bits(m), _bits(_scalar_matrix(rows, cols)))
        assert np.array_equal(_bits(m),
                              _bits(iou_matrix(box_array(cols), box_array(rows)).T))

    def test_random_boxes(self, rng):
        for _ in range(20):
            rows = [random_box(rng) for _ in range(rng.randint(0, 12))]
            cols = [random_box(rng) for _ in range(rng.randint(0, 12))]
            self._check(rows, cols)

    def test_integer_grid_boxes(self, rng):
        def grid_box():
            return BoundingBox(rng.randint(0, 6), rng.randint(0, 6),
                               rng.randint(1, 4), rng.randint(1, 4))
        for _ in range(20):
            self._check([grid_box() for _ in range(10)], [grid_box() for _ in range(10)])

    def test_touching_boxes(self, rng):
        # Integer coordinates keep every shared edge exact.
        for _ in range(20):
            a = BoundingBox(rng.randint(0, 50), rng.randint(0, 50),
                            rng.randint(1, 20), rng.randint(1, 20))
            right, bottom = a.x + a.w, a.y + a.h
            side = [BoundingBox(right, a.y, 3.0, a.h), BoundingBox(a.x, bottom, a.w, 2.0),
                    BoundingBox(a.x - 5.0, a.y, 5.0, a.h), BoundingBox(right, bottom, 1.0, 1.0)]
            self._check([a], side)
            assert not iou_matrix(box_array([a]), box_array(side)).any()

    def test_rows_duplicated_into_columns(self, rng):
        for _ in range(20):
            rows = [random_box(rng) for _ in range(8)]
            cols = rows[3:] + [random_box(rng) for _ in range(4)] + rows[:3]
            self._check(rows, cols)
            m = iou_matrix(box_array(rows), box_array(rows))
            assert np.all(np.diag(m) == 1.0)
