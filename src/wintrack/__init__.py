"""Windowed multilevel ID correction over SORT-family trackers.

The package pairs a per-frame tracker with a second tracker that runs once
per k-frame window over each track's best detection, then relabels the
per-frame output with the window-rate ids.  It ships the three
appearance-free base trackers (SORT, ByteTrack, OC-SORT), a MOT metrics
engine (MOTA, MOTP, IDF1, HOTA), MOTChallenge file I/O, a synthetic
scenario generator, and a CLI (``wintrack``).
"""

from .assignment import solve
from .geometry import BoundingBox, iou_distance_matrix
from .metrics import (
    ClearCounts,
    IdentityCounts,
    MetricsReport,
    UndefinedMetricError,
    evaluate,
    evaluate_sequences,
    hota,
    idf1,
    match_clear,
    mota,
    motp,
)
from .motio import (
    Detection,
    MotFileError,
    MotRecord,
    SequenceData,
    read_detections,
    read_ground_truth,
    read_results,
    write_results,
)
from .synth import NoiseSpec, Scenario, ScenarioError, TargetSpec, generate
from .trackers import TrackerConfig, Tracklet, make_tracker, run_tracker
from .window import WindowedTracker, run_windowed

__version__ = "0.1.0"

__all__ = [
    "BoundingBox",
    "ClearCounts",
    "Detection",
    "IdentityCounts",
    "MetricsReport",
    "MotFileError",
    "MotRecord",
    "NoiseSpec",
    "Scenario",
    "ScenarioError",
    "SequenceData",
    "TargetSpec",
    "TrackerConfig",
    "Tracklet",
    "UndefinedMetricError",
    "WindowedTracker",
    "evaluate",
    "evaluate_sequences",
    "generate",
    "hota",
    "idf1",
    "iou_distance_matrix",
    "make_tracker",
    "match_clear",
    "mota",
    "motp",
    "read_detections",
    "read_ground_truth",
    "read_results",
    "run_tracker",
    "run_windowed",
    "solve",
    "write_results",
]
