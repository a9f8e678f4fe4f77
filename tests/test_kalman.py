import random

import numpy as np
import pytest

from oracles import DenseKalman, ScalarKalman
from wintrack.geometry import BoundingBox
from wintrack.kalman import (
    DEFAULT_POSITION_WEIGHT,
    DEFAULT_VELOCITY_WEIGHT,
    MotionFilter,
)

from conftest import center_form, random_box


@pytest.fixture
def motion():
    return MotionFilter()


def random_state(rng: random.Random, motion: MotionFilter):
    mean, cov = motion.init_state(center_form(random_box(rng, pos_range=100.0)))
    mean[4:] = [rng.uniform(-2, 2) for _ in range(4)]
    return mean, cov


def assert_blocks_psd(cov, det_floor=-1e-9):
    """Each (p00, p01, p11) column is a positive semidefinite 2x2 block."""
    p00, p01, p11 = cov[..., 0, :], cov[..., 1, :], cov[..., 2, :]
    assert np.min(p00) >= 0 and np.min(p11) >= 0
    assert np.min(p00 * p11 - p01 ** 2) >= det_floor


def trace(cov):
    """Trace of the 8x8 covariance the blocks stand for."""
    return float(np.sum(cov[..., 0, :]) + np.sum(cov[..., 2, :]))


class TestInitState:
    def test_center_conversion_square(self, motion):
        mean, _ = motion.init_state(center_form(BoundingBox(0, 0, 10, 10)))
        assert np.allclose(mean, [5, 5, 10, 10, 0, 0, 0, 0])

    def test_center_conversion_rectangle(self, motion):
        mean, _ = motion.init_state(center_form(BoundingBox(10, 20, 4, 8)))
        assert np.allclose(mean[:4], [12, 24, 4, 8])
        assert np.all(mean[4:] == 0)

    def test_covariance_diagonal_psd(self, motion, rng):
        for _ in range(20):
            _, cov = motion.init_state(center_form(random_box(rng)))
            assert cov.shape == (3, 4)
            assert np.count_nonzero(cov[1]) == 0
            assert_blocks_psd(cov)

    def test_noise_weights_scale_with_height(self):
        _, cov = MotionFilter().init_state(np.array([5.0, 20.0, 10.0, 40.0]))
        assert cov[0, 0] == pytest.approx((40 / 20) ** 2)
        assert cov[2, 0] == pytest.approx((40 / 160) ** 2)


class TestPredict:
    def test_zero_velocity_fixed_point(self, motion):
        mean, cov = motion.init_state(np.array([5.0, 5.0, 10.0, 10.0]))
        out, _ = motion.predict(mean, cov)
        assert np.array_equal(out, mean)

    def test_one_euler_step(self, motion):
        out, _ = motion.predict(
            np.array([0.0, 0.0, 2.0, 2.0, 1.0, 0.0, 0.0, 0.0]),
            np.array([[1.0] * 4, [0.0] * 4, [1.0] * 4]),
        )
        assert out[0] == 1.0
        assert out[1] == 0.0
        assert np.all(out[2:4] == [2.0, 2.0])

    def test_size_velocity_moves_size(self, motion):
        out, _ = motion.predict(
            np.array([0.0, 0.0, 4.0, 8.0, 0.0, 0.0, 0.5, -0.5]),
            np.array([[1.0] * 4, [0.0] * 4, [1.0] * 4]),
        )
        assert out[2] == 4.5
        assert out[3] == 7.5

    def test_covariance_grows_and_stays_psd(self, motion, rng):
        mean, cov = random_state(rng, motion)
        _, out = motion.predict(mean, cov)
        assert_blocks_psd(out)
        assert trace(out) > trace(cov)


class TestUpdate:
    def test_tiny_noise_pins_mean_to_measurement(self, motion):
        mean, cov = motion.predict(*motion.init_state(np.array([5.0, 5.0, 10.0, 10.0])))
        # R scales with the measured height, so a tiny height means tiny noise.
        z = np.array([9.0, 8.5, 12.0, 1e-4])
        out, _ = motion.update(mean, cov, z)
        assert np.allclose(out[:4], z, atol=1e-6)

    def test_zero_innovation_keeps_mean(self, motion):
        mean, cov = motion.init_state(np.array([20.0, 30.0, 20.0, 40.0]))
        out, _ = motion.update(mean, cov, mean[:4])
        assert np.allclose(out, mean, atol=1e-10)

    def test_measured_variance_never_grows(self, motion, rng):
        for _ in range(50):
            mean, cov = motion.predict(*random_state(rng, motion))
            z = center_form(random_box(rng, pos_range=100.0))
            _, out = motion.update(mean, cov, z)
            prior = cov[0]
            post = out[0]
            assert np.min(prior - post) >= -1e-9

    def test_repeated_update_innovation_non_increasing(self, motion):
        mean, cov = motion.init_state(np.array([5.0, 5.0, 10.0, 10.0]))
        z = np.array([10.0, 10.0, 12.0, 12.0])
        previous = np.inf
        for _ in range(50):
            norm = float(np.linalg.norm(z - mean[:4]))
            assert norm <= previous + 1e-12
            previous = norm
            mean, cov = motion.update(mean, cov, z)


class TestScalarReduction:
    def test_matches_hand_rolled_scalar_filter(self, motion, rng):
        for _ in range(30):
            x0 = rng.uniform(-50, 50)
            v0 = rng.uniform(-5, 5)
            p = [[rng.uniform(0.5, 4.0), 0.0], [0.0, rng.uniform(0.5, 4.0)]]

            oracle = ScalarKalman(x0, v0, p)
            mean = np.zeros(8)
            mean[0], mean[3], mean[4] = x0, rng.uniform(2.0, 30.0), v0
            cov = np.zeros((3, 4))
            cov[:, 0] = p[0][0], p[0][1], p[1][1]

            for _ in range(12):
                # q comes from the prior height and r from the measured one.
                h = mean[3]
                oracle.predict((DEFAULT_POSITION_WEIGHT * h) ** 2,
                               (DEFAULT_VELOCITY_WEIGHT * h) ** 2)
                mean, cov = motion.predict(mean, cov)
                z = oracle.x + rng.uniform(-3, 3)
                measurement = np.array([z, 0.0, 1.0, rng.uniform(4.0, 30.0)])
                oracle.update(z, (DEFAULT_POSITION_WEIGHT * measurement[3]) ** 2)
                mean, cov = motion.update(mean, cov, measurement)

                assert mean[0] == pytest.approx(oracle.x, abs=1e-10)
                assert mean[4] == pytest.approx(oracle.v, abs=1e-10)
                assert cov[0, 0] == pytest.approx(oracle.p[0][0], abs=1e-10)
                assert cov[1, 0] == pytest.approx(oracle.p[0][1], abs=1e-10)
                assert cov[2, 0] == pytest.approx(oracle.p[1][1], abs=1e-10)


class TestCycleInvariants:
    def test_predict_update_cycles_stay_symmetric_psd(self, motion, rng):
        mean, cov = motion.init_state(np.array([15.0, 30.0, 30.0, 60.0]))
        for _ in range(200):
            mean, cov = motion.predict(mean, cov)
            assert_blocks_psd(cov)
            z = center_form(random_box(rng, pos_range=60.0, side_lo=20.0, side_hi=70.0))
            mean, cov = motion.update(mean, cov, z)
            assert_blocks_psd(cov)
            # a valid measurement always leaves a usable size behind
            assert mean[2] > 0 and mean[3] > 0


class TestDenseOracle:
    """The block filter against the full 8x8 one, which assumes no blocks."""

    # Entries of the 8x8 covariance outside the four (component, velocity)
    # blocks: they couple one axis to another.
    CROSS_AXIS = DenseKalman.expanded(np.ones((3, 4))) == 0

    @classmethod
    def assert_agree(cls, state, dense):
        mean, cov = state
        assert np.max(np.abs(mean - dense.mean)) <= 1e-10
        expanded = DenseKalman.expanded(cov)
        assert np.max(np.abs(expanded - dense.covariance)) <= 1e-10
        # The dense filter keeps every cross-axis entry exactly zero: that
        # is why the blocks are the whole covariance.
        assert np.all(dense.covariance[..., cls.CROSS_AXIS] == 0.0)

    @staticmethod
    def walkers(gen: np.random.Generator, n: int):
        """n boxes (cx, cy, w, h) and per-frame velocities for a random walk."""
        boxes = np.column_stack([gen.uniform(0, 500, (n, 2)), gen.uniform(10, 80, (n, 2))])
        return boxes, gen.uniform(-3, 3, (n, 4)) * [1, 1, 0.1, 0.1]

    def test_stacks_agree_over_many_cycles(self, motion):
        gen = np.random.default_rng(11)
        dense = DenseKalman()
        boxes, velocity = self.walkers(gen, 48)
        state, reference = motion.init_state(boxes), dense.init_state(boxes)
        self.assert_agree(state, reference)
        for _ in range(120):
            state, reference = motion.predict(*state), dense.predict(reference)
            self.assert_agree(state, reference)
            boxes = boxes + velocity
            z = boxes + gen.normal(0, 1.5, boxes.shape) * [1, 1, 0.2, 0.2]
            state, reference = motion.update(*state, z), dense.update(reference, z)
            self.assert_agree(state, reference)

    def test_single_states_agree_as_in_a_replay(self, motion):
        # OC-SORT's recovery replay steps one (8,) state at a time.
        gen = np.random.default_rng(12)
        dense = DenseKalman()
        for box, velocity in zip(*self.walkers(gen, 40)):
            state, reference = motion.init_state(box), dense.init_state(box)
            for _ in range(100):
                box = box + velocity
                state = motion.update(*motion.predict(*state), box)
                reference = dense.update(dense.predict(reference), box)
            self.assert_agree(state, reference)


class TestStack:
    def test_stack_equals_one_at_a_time_bitwise(self, motion, rng):
        states = [random_state(rng, motion) for _ in range(200)]
        z = np.array([center_form(random_box(rng, pos_range=100.0)) for _ in range(200)])
        mean, cov = (np.stack(a) for a in zip(*states))
        pred_mean, pred_cov = motion.predict(mean, cov)
        upd_mean, upd_cov = motion.update(pred_mean, pred_cov, z)
        assert upd_mean.shape == (200, 8)
        assert upd_cov.shape == (200, 3, 4)
        for i, state in enumerate(states):
            p_mean, p_cov = motion.predict(*state)
            u_mean, u_cov = motion.update(p_mean, p_cov, z[i])
            assert np.array_equal(pred_mean[i], p_mean)
            assert np.array_equal(pred_cov[i], p_cov)
            assert np.array_equal(upd_mean[i], u_mean)
            assert np.array_equal(upd_cov[i], u_cov)

    def test_stack_of_one(self, motion, rng):
        mean, cov = random_state(rng, motion)
        z = center_form(random_box(rng, pos_range=100.0))
        out_mean, out_cov = motion.update(*motion.predict(mean[None], cov[None]), z[None])
        single_mean, single_cov = motion.update(*motion.predict(mean, cov), z)
        assert np.array_equal(out_mean[0], single_mean)
        assert np.array_equal(out_cov[0], single_cov)

    def test_stacked_init_equals_one_at_a_time_bitwise(self, motion, rng):
        z = np.array([center_form(random_box(rng, pos_range=100.0)) for _ in range(50)])
        stack_mean, stack_cov = motion.init_state(z)
        assert stack_mean.shape == (50, 8)
        for i in range(50):
            single_mean, single_cov = motion.init_state(z[i])
            assert np.array_equal(stack_mean[i], single_mean)
            assert np.array_equal(stack_cov[i], single_cov)
