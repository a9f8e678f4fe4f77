"""Constant-velocity Kalman filter over bounding-box motion state.

The state is the 8-vector (cx, cy, w, h, vcx, vcy, vw, vh): box center,
width and height, and their per-frame velocities.  Carrying width and
height directly (rather than scale/aspect) means one filter serves every
tracker in the package.  All operations are pure: they take a state and
return a new one.  A state may also be a stack of N states (mean (N, 8),
covariance (N, 8, 8)); init_state, predict and update run the same
arithmetic on every row at once, so a tracker steps all its live tracks in
one call.

Noise is scale-adaptive: standard deviations are proportional to the box
height, with weights h/20 for measured components and h/160 for velocities
(a common convention for this family of filters).  The weights are module
constants; predict/update accept explicit noise overrides.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .geometry import BoundingBox

STATE_DIM = 8
MEASUREMENT_DIM = 4

DEFAULT_POSITION_WEIGHT = 1.0 / 20.0
DEFAULT_VELOCITY_WEIGHT = 1.0 / 160.0

# Constant-velocity transition: position += velocity, size += size velocity.
_F = np.eye(STATE_DIM)
_F[:MEASUREMENT_DIM, MEASUREMENT_DIM:] = np.eye(MEASUREMENT_DIM)
# Measurement picks out (cx, cy, w, h).
_H = np.eye(MEASUREMENT_DIM, STATE_DIM)
_DIAG = np.arange(STATE_DIM)
# Per-component standard deviation per unit of box height.
_NOISE_WEIGHTS = np.array([DEFAULT_POSITION_WEIGHT] * MEASUREMENT_DIM
                          + [DEFAULT_VELOCITY_WEIGHT] * MEASUREMENT_DIM)


class DegenerateStateError(ValueError):
    """Raised when a state's width or height is not positive."""


@dataclass(frozen=True)
class KalmanState:
    mean: np.ndarray        # shape (..., 8)
    covariance: np.ndarray  # shape (..., 8, 8), each symmetric PSD


def box_to_measurement(box: BoundingBox) -> np.ndarray:
    return np.array([box.cx, box.cy, box.w, box.h], dtype=float)


def state_to_box(state: KalmanState) -> BoundingBox:
    """Inverse of the center-form conversion, for one unstacked state.

    Raises DegenerateStateError when the state's width or height is not
    positive; callers decide whether to drop or retire the track.
    """
    cx, cy, w, h = state.mean[:MEASUREMENT_DIM]
    if w <= 0 or h <= 0:
        raise DegenerateStateError(f"state has non-positive size w={w}, h={h}")
    return BoundingBox(cx - w / 2.0, cy - h / 2.0, w, h)


def _measured(measurement: Union[BoundingBox, np.ndarray]) -> np.ndarray:
    if isinstance(measurement, BoundingBox):
        return box_to_measurement(measurement)
    return np.asarray(measurement, dtype=float)


def _transposed(m: np.ndarray) -> np.ndarray:
    return np.swapaxes(m, -1, -2)


def _symmetrized(p: np.ndarray) -> np.ndarray:
    return (p + _transposed(p)) / 2.0


def _noise(h) -> np.ndarray:
    """Height-scaled diagonal covariance, one per height: (..., 8, 8)."""
    std = _NOISE_WEIGHTS * np.asarray(h, dtype=float)[..., None]
    noise = np.zeros(std.shape + (STATE_DIM,))
    noise[..., _DIAG, _DIAG] = std ** 2
    return noise


class MotionFilter:
    """Predict/update engine; holds no state of its own or of any track."""

    def init_state(self, measurement: Union[BoundingBox, np.ndarray]) -> KalmanState:
        """State centered on the measurement with zero initial velocity.

        A BoundingBox gives one state; an (N, 4) array of (cx, cy, w, h)
        rows gives a stack of N.
        """
        z = _measured(measurement)
        mean = np.zeros(z.shape[:-1] + (STATE_DIM,))
        mean[..., :MEASUREMENT_DIM] = z
        return KalmanState(mean=mean, covariance=_noise(z[..., 3]))

    def predict(
        self, state: KalmanState, process_noise: Optional[np.ndarray] = None
    ) -> KalmanState:
        """One constant-velocity step: F x, F P Fᵀ + Q, for one state or a stack.

        Q defaults to the height-scaled diagonal computed from the prior
        mean; pass process_noise (8x8) to override.
        """
        if process_noise is None:
            q = _noise(state.mean[..., 3])
        else:
            q = np.asarray(process_noise, dtype=float)
        mean = state.mean @ _F.T
        covariance = _symmetrized(_F @ state.covariance @ _F.T + q)
        return KalmanState(mean=mean, covariance=covariance)

    def update(
        self,
        state: KalmanState,
        measurement: Union[BoundingBox, np.ndarray],
        measurement_noise: Optional[np.ndarray] = None,
    ) -> KalmanState:
        """Standard measurement update against (cx, cy, w, h).

        A single state takes a BoundingBox; a stack of N states takes an
        (N, 4) array of (cx, cy, w, h) rows.  R defaults to the
        height-scaled diagonal from the measurement; pass measurement_noise
        (4x4) to override.  The posterior covariance is formed in Joseph
        form and re-symmetrized, so symmetry and positive semidefiniteness
        hold by construction.
        """
        z = _measured(measurement)
        if measurement_noise is None:
            r = _noise(z[..., 3])[..., :MEASUREMENT_DIM, :MEASUREMENT_DIM]
        else:
            r = np.asarray(measurement_noise, dtype=float)
        p = state.covariance
        # H picks the first four state components, so H x, H P and H P Hᵀ
        # are slices.
        innovation = z - state.mean[..., :MEASUREMENT_DIM]
        s = p[..., :MEASUREMENT_DIM, :MEASUREMENT_DIM] + r
        gain = _transposed(np.linalg.solve(s, p[..., :MEASUREMENT_DIM, :]))
        mean = state.mean + (gain @ innovation[..., None])[..., 0]
        i_kh = np.eye(STATE_DIM) - gain @ _H
        covariance = _symmetrized(
            i_kh @ p @ _transposed(i_kh) + gain @ r @ _transposed(gain)
        )
        return KalmanState(mean=mean, covariance=covariance)
