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

import configparser
import math
from dataclasses import dataclass, field
from numbers import Integral
from pathlib import Path

import numpy as np

from .geometry import BoundingBox
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


@dataclass(frozen=True)
class Scenario:
    name: str
    seed: int
    frame_count: int
    targets: tuple[TargetSpec, ...]
    noise: NoiseSpec = field(default_factory=NoiseSpec)

    def __post_init__(self):
        count = self.frame_count
        if isinstance(count, bool) or not isinstance(count, Integral) or count < 1:
            raise ScenarioError(f"frame_count must be an integer >= 1, got {count!r}")
        n = len(self.targets)
        for t, *_ in (*self.noise.dropout_windows, *self.noise.confidence_dips):
            if t > n:
                raise ScenarioError(f"noise entry refers to unknown target {t}")


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

_SCENARIO_KEYS = {"name", "seed", "frames"}
_TARGET_KEYS = {"waypoints", "width", "height", "hidden"}
_NOISE_KEYS = {"jitter_std", "dropout", "dropout_windows", "confidence_dips"}


def _tokens(text: str) -> list[str]:
    return text.replace(",", " ").split()


def _parse_range(token: str) -> tuple[int, int]:
    a, sep, b = token.partition("-")
    if not sep:
        raise ScenarioError(f"expected 'start-end' range, got {token!r}")
    return int(a), int(b)


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

    Unknown sections or keys are rejected by name.
    """
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    try:
        with open(path, "r", encoding="utf-8") as fh:
            parser.read_file(fh)
    except configparser.Error as exc:
        raise ScenarioError(f"{path}: {exc}") from exc

    if not parser.has_section("scenario"):
        raise ScenarioError(f"{path}: missing [scenario] section")

    target_sections: dict[int, str] = {}
    for section in parser.sections():
        if section in ("scenario", "noise"):
            continue
        head, _, index = section.partition(" ")
        if head != "target" or not index.isdigit():
            raise ScenarioError(f"{path}: unknown section [{section}]")
        target_sections[int(index)] = section
    if sorted(target_sections) != list(range(1, len(target_sections) + 1)):
        raise ScenarioError(f"{path}: target sections must be numbered 1..n")

    def check_keys(section: str, allowed: set[str]):
        for key in parser[section]:
            if key not in allowed:
                raise ScenarioError(f"unknown key {key!r} in section [{section}]")

    try:
        check_keys("scenario", _SCENARIO_KEYS)
        sc = parser["scenario"]
        name = sc.get("name", Path(path).stem)
        seed = sc.getint("seed", 0)
        frames = sc.getint("frames")  # required: None fails Scenario's check

        targets = []
        for i in range(1, len(target_sections) + 1):
            section = target_sections[i]
            check_keys(section, _TARGET_KEYS)
            tc = parser[section]
            if "waypoints" not in tc or "width" not in tc or "height" not in tc:
                raise ScenarioError(f"[{section}] needs waypoints, width and height")
            waypoints = []
            for token in _tokens(tc["waypoints"]):
                parts = token.split(":")
                if len(parts) != 3:
                    raise ScenarioError(f"waypoint {token!r} should be frame:cx:cy")
                waypoints.append((int(parts[0]), float(parts[1]), float(parts[2])))
            hidden = tuple(_parse_range(t) for t in _tokens(tc.get("hidden", "")))
            targets.append(TargetSpec(tuple(waypoints), tc.getfloat("width"),
                                      tc.getfloat("height"), hidden))

        noise = NoiseSpec()
        if parser.has_section("noise"):
            check_keys("noise", _NOISE_KEYS)
            nc = parser["noise"]
            windows = []
            for token in _tokens(nc.get("dropout_windows", "")):
                target, rng_, prob = token.split(":")
                windows.append((int(target), *_parse_range(rng_), float(prob)))
            dips = []
            for token in _tokens(nc.get("confidence_dips", "")):
                target, rng_, conf = token.split(":")
                dips.append((int(target), *_parse_range(rng_), float(conf)))
            noise = NoiseSpec(nc.getfloat("jitter_std", 0.0),
                              nc.getfloat("dropout", 0.0),
                              tuple(windows), tuple(dips))
        return Scenario(name=name, seed=seed, frame_count=frames,
                        targets=tuple(targets), noise=noise)
    except (ValueError, configparser.Error) as exc:
        # Every error in the file's content, the specs' own checks included,
        # names the file once.
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
