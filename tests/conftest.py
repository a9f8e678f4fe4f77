from __future__ import annotations

import random

import numpy as np
import pytest

from wintrack.geometry import BoundingBox
from wintrack.synth import NoiseSpec, Scenario, TargetSpec


def random_box(rng: random.Random, pos_range=30.0, side_lo=10.0, side_hi=30.0):
    return BoundingBox(
        rng.uniform(0.0, pos_range),
        rng.uniform(0.0, pos_range),
        rng.uniform(side_lo, side_hi),
        rng.uniform(side_lo, side_hi),
    )


def center_form(box: BoundingBox) -> np.ndarray:
    """A box as the filter's (cx, cy, w, h) measurement row."""
    return np.array([box.cx, box.cy, box.w, box.h])


def random_scenario(seed: int) -> Scenario:
    """A varied multi-target scene: drifting boxes, jitter, dropout, dips."""
    rng = random.Random(seed)
    frames = rng.randint(30, 60)
    targets = []
    n_targets = rng.randint(1, 4)
    for i in range(n_targets):
        x0 = rng.uniform(50.0, 400.0)
        y0 = rng.uniform(50.0, 300.0)
        speed = rng.uniform(-3.0, 3.0)
        vy = rng.uniform(-1.5, 1.5)
        targets.append(TargetSpec(
            waypoints=((1, x0, y0), (frames, x0 + speed * frames, y0 + vy * frames)),
            width=rng.uniform(24.0, 48.0),
            height=rng.uniform(48.0, 96.0),
        ))
    dips = []
    if rng.random() < 0.5:
        t = rng.randint(1, n_targets)
        a = rng.randint(5, frames - 6)
        dips.append((t, a, a + rng.randint(1, 4), rng.uniform(0.15, 0.5)))
    noise = NoiseSpec(
        jitter_std=rng.uniform(0.0, 1.0),
        dropout=rng.uniform(0.0, 0.05),
        confidence_dips=tuple(dips),
    )
    return Scenario(name=f"random-{seed}", seed=seed, frame_count=frames,
                    targets=tuple(targets), noise=noise)


@pytest.fixture
def rng() -> random.Random:
    return random.Random(1234)
