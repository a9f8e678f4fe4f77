"""Deterministic synthetic tracking scenes for tests and benchmark runs.

A scenario describes piecewise-linear targets plus a degradation model
(position jitter, detection dropout, scheduled confidence dips) and
generates a ground-truth sequence together with the degraded per-frame
detections.  Randomness comes from numpy's default generator (PCG64),
which is seedable and produces identical streams on every platform, so
generated files are byte-stable for a fixed scenario.

Scenarios load from a plain-text INI config (see ``load_scenario``) and a
handful of named scenes covering the failure modes the package targets
(crossing paths, long occlusion with an id switch, confidence dips,
general weaving motion) ship as ``BUNDLED_SCENARIOS``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from numbers import Integral
from pathlib import Path

import numpy as np

from .geometry import BoundingBox
from .ini import read_ini
from .motio import Detection, MotRecord, SequenceData


class ScenarioError(ValueError):
    """Invalid scenario definition or config file."""


@dataclass(frozen=True)
class TargetSpec:
    """One target: a piecewise-linear center path with a fixed box size.

    ``waypoints`` are (frame, cx, cy) triples with strictly increasing
    frames; the target exists from its first to its last waypoint frame.
    ``hidden`` lists inclusive frame ranges where the target is absent from
    the scene entirely (no ground truth, no detection).
    """

    waypoints: tuple[tuple[int, float, float], ...]
    width: float
    height: float
    hidden: tuple[tuple[int, int], ...] = ()

    def __post_init__(self):
        if not self.waypoints:
            raise ScenarioError("target needs at least one waypoint")
        frames = [f for f, _, _ in self.waypoints]
        if any(b <= a for a, b in zip(frames, frames[1:])):
            raise ScenarioError("waypoint frames must be strictly increasing")
        if frames[0] < 1:
            raise ScenarioError("waypoint frames must be >= 1")
        for _, cx, cy in self.waypoints:
            if not (math.isfinite(cx) and math.isfinite(cy)):
                raise ScenarioError(
                    f"waypoint coordinates must be finite, got ({cx!r}, {cy!r})"
                )
        for name in ("width", "height"):
            side = getattr(self, name)
            if not 0 < side < math.inf:
                raise ScenarioError(
                    f"target {name} must be positive and finite, got {side!r}"
                )
        for a, b in self.hidden:
            if a > b:
                raise ScenarioError(f"hidden range {a}-{b} is empty")

    def center_at(self, frame: int) -> tuple[float, float]:
        wps = self.waypoints
        if frame <= wps[0][0]:
            return wps[0][1], wps[0][2]
        for (f1, x1, y1), (f2, x2, y2) in zip(wps, wps[1:]):
            if f1 <= frame <= f2:
                t = (frame - f1) / (f2 - f1)
                return x1 + (x2 - x1) * t, y1 + (y2 - y1) * t
        return wps[-1][1], wps[-1][2]

    def present_at(self, frame: int) -> bool:
        if not self.waypoints[0][0] <= frame <= self.waypoints[-1][0]:
            return False
        return not any(a <= frame <= b for a, b in self.hidden)


@dataclass(frozen=True)
class NoiseSpec:
    """Degradations applied to detections (ground truth is never touched).

    ``dropout_windows`` entries are (target, start, end, probability) and
    override the global dropout inside their range; ``confidence_dips``
    entries are (target, start, end, confidence).
    """

    jitter_std: float = 0.0
    dropout: float = 0.0
    dropout_windows: tuple[tuple[int, int, int, float], ...] = ()
    confidence_dips: tuple[tuple[int, int, int, float], ...] = ()

    def __post_init__(self):
        if not 0 <= self.jitter_std < math.inf:
            raise ScenarioError(
                f"jitter_std must be finite and >= 0, got {self.jitter_std!r}"
            )
        if not 0.0 <= self.dropout <= 1.0:
            raise ScenarioError("dropout must be a probability")
        for t, a, b, p in self.dropout_windows:
            if t < 1 or a > b or not 0.0 <= p <= 1.0:
                raise ScenarioError(f"bad dropout window {(t, a, b, p)}")
        for t, a, b, c in self.confidence_dips:
            if t < 1 or a > b or not 0.0 <= c <= 1.0:
                raise ScenarioError(f"bad confidence dip {(t, a, b, c)}")


# Scenario's whole-number fields by scenario-file key: (field, least value).
_COUNTS = {"seed": ("seed", 0), "frames": ("frame_count", 1)}  # numpy rejects seeds < 0


def _check_count(what: str, value, least: int) -> None:
    if isinstance(value, bool) or not isinstance(value, Integral) or value < least:
        raise ScenarioError(f"{what} must be an integer >= {least}, got {value!r}")


@dataclass(frozen=True)
class Scenario:
    name: str
    seed: int
    frame_count: int
    targets: tuple[TargetSpec, ...]
    noise: NoiseSpec = field(default_factory=NoiseSpec)

    def __post_init__(self):
        for name, least in _COUNTS.values():
            _check_count(name, getattr(self, name), least)
        for key in ("dropout_windows", "confidence_dips"):
            for t, *_ in getattr(self.noise, key):
                if t > len(self.targets):
                    raise ScenarioError(f"[noise] {key!r} refers to unknown target {t}")


def generate(scenario: Scenario) -> tuple[SequenceData, dict[int, list[Detection]]]:
    """Produce (ground truth, per-frame detections), deterministic per seed.

    Ground-truth ids are the 1-based target positions.  Detections copy the
    ground-truth boxes with jitter applied to position only, confidences per
    the dip schedule (1.0 otherwise), and rows dropped per the dropout model.
    """
    rng = np.random.default_rng(scenario.seed)
    noise = scenario.noise
    records: list[MotRecord] = []
    detections: dict[int, list[Detection]] = {}

    for frame in range(1, scenario.frame_count + 1):
        for target_id, target in enumerate(scenario.targets, start=1):
            if not target.present_at(frame):
                continue
            cx, cy = target.center_at(frame)
            box = BoundingBox(cx - target.width / 2.0, cy - target.height / 2.0,
                              target.width, target.height)
            records.append(MotRecord(frame, target_id, box, 1.0, 1, 1.0))

            confidence = 1.0
            for t, a, b, c in noise.confidence_dips:
                if t == target_id and a <= frame <= b:
                    confidence = c
            drop_prob = noise.dropout
            for t, a, b, p in noise.dropout_windows:
                if t == target_id and a <= frame <= b:
                    drop_prob = p
            if noise.jitter_std > 0:
                dx, dy = rng.normal(0.0, noise.jitter_std, size=2)
                det_box = box.translated(float(dx), float(dy))
            else:
                det_box = box
            if drop_prob > 0 and rng.random() < drop_prob:
                continue
            detections.setdefault(frame, []).append(
                Detection(frame, det_box, confidence)
            )

    return SequenceData(tuple(records)), detections


# --- config files -----------------------------------------------------------

def _split(token: str, sep: str, form: str) -> list[str]:
    """``token``'s fields between ``sep``s; ``form`` names them, as in 'start-end'."""
    parts = token.split(sep)
    if len(parts) != form.count(sep) + 1:
        raise ValueError(f"{token!r} should be {form}")
    return parts


def _range(token: str) -> tuple[int, int]:
    start, end = _split(token, "-", "start-end")
    return int(start), int(end)


def _waypoint(token: str) -> tuple[int, float, float]:
    frame, cx, cy = _split(token, ":", "frame:cx:cy")
    return int(frame), float(cx), float(cy)


def _target_range(token: str) -> tuple[int, int, int, float]:
    target, span, value = _split(token, ":", "target:start-end:value")
    return (int(target), *_range(span), float(value))


def _each(parse):
    """A parser for a list of ``parse``'s tokens, separated by whitespace or commas."""
    return lambda text: tuple(map(parse, text.replace(",", " ").split()))


_SCENARIO_KEYS = {"name": str, "seed": int, "frames": int}
_TARGET_KEYS = {"waypoints": _each(_waypoint), "width": float, "height": float,
                "hidden": _each(_range)}
_NOISE_KEYS = {"jitter_std": float, "dropout": float,
               "dropout_windows": _each(_target_range), "confidence_dips": _each(_target_range)}


def _section_keys(section: str):
    head, _, index = section.partition(" ")
    if head == "target" and index.isdigit():
        return _TARGET_KEYS
    return {"scenario": _SCENARIO_KEYS, "noise": _NOISE_KEYS}.get(section)


def _spec(cls, section: str, sections: dict):
    """``cls`` made from the section's values; a fault names the section."""
    try:
        return cls(**sections.get(section, {}))
    except (ScenarioError, TypeError) as exc:  # TypeError: a required key is missing
        raise ScenarioError(f"[{section}] {exc}") from exc


def load_scenario(path) -> Scenario:
    """Load a scenario from an INI-style config.

    Layout::

        [scenario]
        seed = 7
        frames = 60

        [target 1]
        waypoints = 1:60:100 60:220:100   ; frame:cx:cy
        width = 36
        height = 72
        hidden = 25-36                    ; optional absent ranges

        [noise]                           ; optional
        jitter_std = 0.5
        dropout = 0.01
        dropout_windows = 1:25-36:1.0     ; target:start-end:prob
        confidence_dips = 1:20-23:0.3     ; target:start-end:conf

    Unknown sections or keys are rejected by name, and every error names
    the file and, where it applies, the section and key.
    """
    sections = read_ini(path, _section_keys, ScenarioError)
    if "scenario" not in sections:
        raise ScenarioError(f"{path}: missing [scenario] section")
    targets = {int(s.partition(" ")[2]): s for s in sections if s.startswith("target ")}
    if sorted(targets) != list(range(1, len(targets) + 1)):
        raise ScenarioError(f"{path}: target sections must be numbered 1..n")
    values = sections["scenario"]
    if "frames" not in values:
        raise ScenarioError(f"{path}: missing key 'frames' in [scenario]")
    for key, (_, least) in _COUNTS.items():
        if key in values:
            _check_count(f"{path}: [scenario] {key!r}", values[key], least)
    try:
        return Scenario(name=values.get("name", Path(path).stem), seed=values.get("seed", 0),
                        frame_count=values["frames"],
                        targets=tuple(_spec(TargetSpec, targets[i], sections)
                                      for i in sorted(targets)),
                        noise=_spec(NoiseSpec, "noise", sections))
    except ScenarioError as exc:
        raise ScenarioError(f"{path}: {exc}") from exc


# --- bundled scenes -----------------------------------------------------------

def _make_bundled() -> dict[str, Scenario]:
    scenes = {}
    scenes["crossing"] = Scenario(
        name="crossing", seed=11, frame_count=40,
        targets=(
            TargetSpec(((1, 60.0, 100.0), (40, 216.0, 100.0)), 36.0, 72.0),
            TargetSpec(((1, 216.0, 130.0), (40, 60.0, 130.0)), 36.0, 72.0),
        ),
    )
    # One person leaves the scene for 40 frames and reappears on the same
    # slow path: long enough to kill a per-frame track at default max_age,
    # short enough for a window-rate tracker to bridge.
    scenes["idswitch"] = Scenario(
        name="idswitch", seed=23, frame_count=120,
        targets=(
            TargetSpec(((1, 100.0, 100.0), (120, 147.6, 100.0)), 36.0, 72.0,
                       hidden=((36, 75),)),
            TargetSpec(((1, 300.0, 220.0), (120, 420.0, 220.0)), 36.0, 72.0),
        ),
    )
    # Detector blind spot: the person stays in the scene but produces no
    # detections for 12 consecutive frames.
    scenes["occlusion"] = Scenario(
        name="occlusion", seed=31, frame_count=60,
        targets=(
            TargetSpec(((1, 80.0, 90.0), (60, 103.6, 90.0)), 36.0, 72.0),
        ),
        noise=NoiseSpec(dropout_windows=((1, 25, 36, 1.0),)),
    )
    scenes["confdip"] = Scenario(
        name="confdip", seed=47, frame_count=50,
        targets=(
            TargetSpec(((1, 100.0, 100.0), (50, 198.0, 100.0)), 36.0, 72.0),
            TargetSpec(((1, 100.0, 190.0), (50, 198.0, 190.0)), 36.0, 72.0),
        ),
        noise=NoiseSpec(jitter_std=0.5, confidence_dips=((1, 20, 23, 0.3),)),
    )
    scenes["weave"] = Scenario(
        name="weave", seed=59, frame_count=80,
        targets=(
            TargetSpec(((1, 60.0, 80.0), (40, 220.0, 120.0), (80, 60.0, 80.0)),
                       36.0, 72.0),
            TargetSpec(((1, 260.0, 240.0), (80, 100.0, 60.0)), 36.0, 72.0),
            TargetSpec(((10, 340.0, 90.0), (70, 340.0, 290.0)), 36.0, 72.0),
        ),
        noise=NoiseSpec(jitter_std=0.8, dropout=0.01),
    )
    return scenes


BUNDLED_SCENARIOS = _make_bundled()
BUNDLED_SUITE = ("crossing", "idswitch", "occlusion", "confdip", "weave")


def bundled_scenario(name: str) -> Scenario:
    try:
        return BUNDLED_SCENARIOS[name]
    except KeyError:
        known = ", ".join(sorted(BUNDLED_SCENARIOS))
        raise ScenarioError(f"unknown bundled scenario {name!r} (have: {known})")
