"""Constant-velocity Kalman filter over bounding-box motion state.

The mean is the 8-vector (cx, cy, w, h, vcx, vcy, vw, vh): box center,
width and height, and their per-frame velocities, so one filter serves
every tracker in the package.  Operations are pure and take (..., 4)
measurements of (cx, cy, w, h): one row gives one state, N rows a stack of
N, so a tracker steps all its live tracks in one call.  A state passes as
two arrays, (mean, cov).

Noise is diagonal and scale-adaptive: standard deviations h/20 for
measured components and h/160 for velocities, h the box height.  So no
(component, velocity) pair is coupled to another, and the 8x8 covariance
is four independent 2x2 blocks.  The covariance holds just those, shape
(..., 3, 4): rows p00 (component variance), p01 (component-velocity
covariance) and p11 (velocity variance); columns cx, cy, w and h.
"""

from __future__ import annotations

import numpy as np

DEFAULT_POSITION_WEIGHT = 1.0 / 20.0
DEFAULT_VELOCITY_WEIGHT = 1.0 / 160.0

# Standard deviation per unit of box height, per covariance row.
_NOISE_WEIGHTS = np.array([[DEFAULT_POSITION_WEIGHT] * 4, [0.0] * 4,
                           [DEFAULT_VELOCITY_WEIGHT] * 4])


def _noise(h) -> np.ndarray:
    """Height-scaled diagonal noise as blocks, one per height: (..., 3, 4)."""
    return (_NOISE_WEIGHTS * np.asarray(h, dtype=float)[..., None, None]) ** 2


class MotionFilter:
    """Predict/update engine; holds no state of its own or of any track."""

    def init_state(self, measurement: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """State centered on the measurement with zero initial velocity."""
        z = np.asarray(measurement, dtype=float)
        mean = np.zeros(z.shape[:-1] + (8,))
        mean[..., :4] = z
        return mean, _noise(z[..., 3])

    def predict(self, mean: np.ndarray, cov: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """One constant-velocity step, Q from the prior mean's height."""
        x = mean.copy()
        x[..., :4] += mean[..., 4:]
        # F P Fᵀ per block: F P = (p00 + p01, p01 + p11, p11); Fᵀ adds row 1 to row 0.
        p = cov.copy()
        p[..., :2, :] += cov[..., 1:, :]
        p[..., 0, :] += p[..., 1, :]
        p += _noise(mean[..., 3])
        return x, p

    def update(self, mean: np.ndarray, cov: np.ndarray,
               measurement: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Measurement update, R from the measured height.

        With gains k0 = p00/s and k1 = p01/s, s = p00 + r, the posterior
        block is (k0 r, k1 r, p11 - k1 p01).  Its determinant is r/s times
        the prior's, so the block stays positive semidefinite.
        """
        z = np.asarray(measurement, dtype=float)
        r = (DEFAULT_POSITION_WEIGHT * z[..., 3, None, None]) ** 2
        gain = cov[..., :2, :] / (cov[..., :1, :] + r)
        innovation = z - mean[..., :4]
        x = mean + (gain * innovation[..., None, :]).reshape(mean.shape)
        p = np.empty_like(cov)
        p[..., :2, :] = gain * r
        p[..., 2, :] = cov[..., 2, :] - gain[..., 1, :] * cov[..., 1, :]
        return x, p
