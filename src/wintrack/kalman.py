"""Constant-velocity Kalman filter over bounding-box motion state.

The mean is the 8-vector (cx, cy, w, h, vcx, vcy, vw, vh): box center,
width and height, and their per-frame velocities, so one filter serves
every tracker in the package.  Operations are pure and take (..., 4)
measurements of (cx, cy, w, h): one row gives one state, N rows a stack of
N, so a tracker steps all its live tracks in one call.

Noise is diagonal and scale-adaptive: standard deviations h/20 for
measured components and h/160 for velocities, h the box height.  So no
(component, velocity) pair is coupled to another, and the 8x8 covariance
is four independent 2x2 blocks.  The covariance holds just those, shape
(..., 3, 4): rows p00 (component variance), p01 (component-velocity
covariance) and p11 (velocity variance); columns cx, cy, w and h.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

DEFAULT_POSITION_WEIGHT = 1.0 / 20.0
DEFAULT_VELOCITY_WEIGHT = 1.0 / 160.0

# Standard deviation per unit of box height, per covariance row.
_NOISE_WEIGHTS = np.array([[DEFAULT_POSITION_WEIGHT] * 4, [0.0] * 4,
                           [DEFAULT_VELOCITY_WEIGHT] * 4])


@dataclass(frozen=True)
class KalmanState:
    mean: np.ndarray        # shape (..., 8)
    covariance: np.ndarray  # shape (..., 3, 4): p00, p01, p11 per component


def _noise(h) -> np.ndarray:
    """Height-scaled diagonal noise as blocks, one per height: (..., 3, 4)."""
    return (_NOISE_WEIGHTS * np.asarray(h, dtype=float)[..., None, None]) ** 2


class MotionFilter:
    """Predict/update engine; holds no state of its own or of any track."""

    def init_state(self, measurement: np.ndarray) -> KalmanState:
        """State centered on the measurement with zero initial velocity."""
        z = np.asarray(measurement, dtype=float)
        mean = np.zeros(z.shape[:-1] + (8,))
        mean[..., :4] = z
        return KalmanState(mean=mean, covariance=_noise(z[..., 3]))

    def predict(self, state: KalmanState) -> KalmanState:
        """One constant-velocity step, Q from the prior mean's height."""
        x, p = state.mean, state.covariance
        mean = x.copy()
        mean[..., :4] += x[..., 4:]
        # F P Fᵀ per block: F P = (p00 + p01, p01 + p11, p11); Fᵀ adds row 1 to row 0.
        covariance = p.copy()
        covariance[..., :2, :] += p[..., 1:, :]
        covariance[..., 0, :] += covariance[..., 1, :]
        covariance += _noise(x[..., 3])
        return KalmanState(mean=mean, covariance=covariance)

    def update(self, state: KalmanState, measurement: np.ndarray) -> KalmanState:
        """Measurement update, R from the measured height.

        With gains k0 = p00/s and k1 = p01/s, s = p00 + r, the posterior
        block is (k0 r, k1 r, p11 - k1 p01).  Its determinant is r/s times
        the prior's, so the block stays positive semidefinite.
        """
        z = np.asarray(measurement, dtype=float)
        x, p = state.mean, state.covariance
        r = (DEFAULT_POSITION_WEIGHT * z[..., 3, None, None]) ** 2
        gain = p[..., :2, :] / (p[..., :1, :] + r)
        innovation = z - x[..., :4]
        mean = x + (gain * innovation[..., None, :]).reshape(x.shape)
        covariance = np.empty_like(p)
        covariance[..., :2, :] = gain * r
        covariance[..., 2, :] = p[..., 2, :] - gain[..., 1, :] * p[..., 1, :]
        return KalmanState(mean=mean, covariance=covariance)
