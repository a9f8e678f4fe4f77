import random

import numpy as np
import pytest

from oracles import ScalarKalman
from wintrack.geometry import BoundingBox
from wintrack.kalman import KalmanState, MotionFilter

from conftest import center_form, random_box


@pytest.fixture
def motion():
    return MotionFilter()


def random_state(rng: random.Random, motion: MotionFilter) -> KalmanState:
    state = motion.init_state(center_form(random_box(rng, pos_range=100.0)))
    mean = state.mean.copy()
    mean[4:] = [rng.uniform(-2, 2) for _ in range(4)]
    return KalmanState(mean, state.covariance)


def assert_symmetric_psd(cov, sym_tol=1e-9, eig_floor=-1e-9):
    assert np.max(np.abs(cov - cov.T)) <= sym_tol
    assert np.min(np.linalg.eigvalsh(cov)) >= eig_floor


class TestInitState:
    def test_center_conversion_square(self, motion):
        state = motion.init_state(center_form(BoundingBox(0, 0, 10, 10)))
        assert np.allclose(state.mean, [5, 5, 10, 10, 0, 0, 0, 0])

    def test_center_conversion_rectangle(self, motion):
        state = motion.init_state(center_form(BoundingBox(10, 20, 4, 8)))
        assert np.allclose(state.mean[:4], [12, 24, 4, 8])
        assert np.all(state.mean[4:] == 0)

    def test_covariance_diagonal_psd(self, motion, rng):
        for _ in range(20):
            state = motion.init_state(center_form(random_box(rng)))
            assert np.count_nonzero(state.covariance - np.diag(np.diag(state.covariance))) == 0
            assert_symmetric_psd(state.covariance)

    def test_noise_weights_scale_with_height(self):
        state = MotionFilter().init_state(np.array([5.0, 20.0, 10.0, 40.0]))
        assert state.covariance[0, 0] == pytest.approx((40 / 20) ** 2)
        assert state.covariance[4, 4] == pytest.approx((40 / 160) ** 2)


class TestPredict:
    def test_zero_velocity_fixed_point(self, motion):
        state = motion.init_state(np.array([5.0, 5.0, 10.0, 10.0]))
        out = motion.predict(state, process_noise=np.zeros((8, 8)))
        assert np.array_equal(out.mean, state.mean)

    def test_one_euler_step(self, motion):
        state = KalmanState(
            np.array([0.0, 0.0, 2.0, 2.0, 1.0, 0.0, 0.0, 0.0]), np.eye(8)
        )
        out = motion.predict(state)
        assert out.mean[0] == 1.0
        assert out.mean[1] == 0.0
        assert np.all(out.mean[2:4] == [2.0, 2.0])

    def test_size_velocity_moves_size(self, motion):
        state = KalmanState(
            np.array([0.0, 0.0, 4.0, 8.0, 0.0, 0.0, 0.5, -0.5]), np.eye(8)
        )
        out = motion.predict(state)
        assert out.mean[2] == 4.5
        assert out.mean[3] == 7.5

    def test_covariance_grows_and_stays_psd(self, motion, rng):
        state = random_state(rng, motion)
        out = motion.predict(state)
        assert_symmetric_psd(out.covariance)
        assert np.trace(out.covariance) > np.trace(state.covariance)


class TestUpdate:
    def test_tiny_noise_pins_mean_to_measurement(self, motion):
        state = motion.init_state(np.array([5.0, 5.0, 10.0, 10.0]))
        state = motion.predict(state)
        z = np.array([9.0, 8.5, 12.0, 9.0])
        out = motion.update(state, z, measurement_noise=np.eye(4) * 1e-9)
        assert np.allclose(out.mean[:4], z, atol=1e-6)

    def test_zero_innovation_keeps_mean(self, motion):
        state = motion.init_state(np.array([20.0, 30.0, 20.0, 40.0]))
        out = motion.update(state, state.mean[:4])
        assert np.allclose(out.mean, state.mean, atol=1e-10)

    def test_measured_variance_never_grows(self, motion, rng):
        for _ in range(50):
            state = random_state(rng, motion)
            state = motion.predict(state)
            out = motion.update(state, center_form(random_box(rng, pos_range=100.0)))
            prior = state.covariance[:4, :4]
            post = out.covariance[:4, :4]
            assert np.min(np.linalg.eigvalsh(prior - post)) >= -1e-9

    def test_repeated_update_innovation_non_increasing(self, motion):
        state = motion.init_state(np.array([5.0, 5.0, 10.0, 10.0]))
        z = np.array([10.0, 10.0, 12.0, 12.0])
        previous = np.inf
        for _ in range(50):
            norm = float(np.linalg.norm(z - state.mean[:4]))
            assert norm <= previous + 1e-12
            previous = norm
            state = motion.update(state, z)


class TestScalarReduction:
    def test_matches_hand_rolled_scalar_filter(self, motion, rng):
        for _ in range(30):
            x0 = rng.uniform(-50, 50)
            v0 = rng.uniform(-5, 5)
            p = [[rng.uniform(0.5, 4.0), 0.0], [0.0, rng.uniform(0.5, 4.0)]]
            q_pos = rng.uniform(0.01, 1.0)
            q_vel = rng.uniform(0.001, 0.1)
            r = rng.uniform(0.05, 2.0)

            oracle = ScalarKalman(x0, v0, p)
            mean = np.zeros(8)
            mean[0], mean[4] = x0, v0
            cov = np.zeros((8, 8))
            cov[0, 0], cov[0, 4] = p[0][0], p[0][1]
            cov[4, 0], cov[4, 4] = p[1][0], p[1][1]
            state = KalmanState(mean, cov)

            q_full = np.zeros((8, 8))
            q_full[0, 0], q_full[4, 4] = q_pos, q_vel
            r_full = np.eye(4) * r

            for _ in range(12):
                oracle.predict(q_pos, q_vel)
                state = motion.predict(state, process_noise=q_full)
                z = oracle.x + rng.uniform(-3, 3)
                oracle.update(z, r)
                measurement = np.array([z, 0.0, 1.0, 1.0])
                state = motion.update(state, measurement, measurement_noise=r_full)

                assert state.mean[0] == pytest.approx(oracle.x, abs=1e-10)
                assert state.mean[4] == pytest.approx(oracle.v, abs=1e-10)
                assert state.covariance[0, 0] == pytest.approx(oracle.p[0][0], abs=1e-10)
                assert state.covariance[0, 4] == pytest.approx(oracle.p[0][1], abs=1e-10)
                assert state.covariance[4, 4] == pytest.approx(oracle.p[1][1], abs=1e-10)


class TestCycleInvariants:
    def test_predict_update_cycles_stay_symmetric_psd(self, motion, rng):
        state = motion.init_state(np.array([15.0, 30.0, 30.0, 60.0]))
        for _ in range(200):
            state = motion.predict(state)
            assert_symmetric_psd(state.covariance)
            z = center_form(random_box(rng, pos_range=60.0, side_lo=20.0, side_hi=70.0))
            state = motion.update(state, z)
            assert_symmetric_psd(state.covariance)
            # a valid measurement always leaves a usable size behind
            assert state.mean[2] > 0 and state.mean[3] > 0


class TestStack:
    def test_stack_equals_one_at_a_time_bitwise(self, motion, rng):
        states = [random_state(rng, motion) for _ in range(200)]
        z = np.array([center_form(random_box(rng, pos_range=100.0)) for _ in range(200)])
        stack = KalmanState(np.stack([s.mean for s in states]),
                            np.stack([s.covariance for s in states]))
        predicted = motion.predict(stack)
        updated = motion.update(predicted, z)
        assert updated.mean.shape == (200, 8)
        assert updated.covariance.shape == (200, 8, 8)
        for i, state in enumerate(states):
            p = motion.predict(state)
            u = motion.update(p, z[i])
            assert np.array_equal(predicted.mean[i], p.mean)
            assert np.array_equal(predicted.covariance[i], p.covariance)
            assert np.array_equal(updated.mean[i], u.mean)
            assert np.array_equal(updated.covariance[i], u.covariance)

    def test_stack_of_one(self, motion, rng):
        state = random_state(rng, motion)
        z = center_form(random_box(rng, pos_range=100.0))
        one = KalmanState(state.mean[None], state.covariance[None])
        out = motion.update(motion.predict(one), z[None])
        single = motion.update(motion.predict(state), z)
        assert np.array_equal(out.mean[0], single.mean)
        assert np.array_equal(out.covariance[0], single.covariance)

    def test_stacked_init_equals_one_at_a_time_bitwise(self, motion, rng):
        z = np.array([center_form(random_box(rng, pos_range=100.0)) for _ in range(50)])
        stack = motion.init_state(z)
        assert stack.mean.shape == (50, 8)
        for i in range(50):
            single = motion.init_state(z[i])
            assert np.array_equal(stack.mean[i], single.mean)
            assert np.array_equal(stack.covariance[i], single.covariance)
