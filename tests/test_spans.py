"""The benchmark's traced run wraps named functions of the package; a rename
on either side would make a layer read 0 without failing anything else."""

import importlib.util
from pathlib import Path

from wintrack.geometry import BoundingBox
from wintrack.metrics import evaluate
from wintrack.synth import bundled_scenario, generate
from wintrack.trackers import TrackerConfig, make_tracker
from wintrack.window import WindowedTracker, run_windowed

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"

# The spans a windowed run must record.  The metrics.* spans are left out:
# they wrap public wrappers that ``evaluate`` never calls, so they read 0
# until ROADMAP item 1 retargets them.
TRACKING_SPANS = (
    "trackers.step",
    "window.finalize",
    "kalman.predict",
    "kalman.update",
    "geometry.iou@trackers",
    "geometry.iou@window",
    "assignment.solve@trackers",
    "assignment.solve@window",
)


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_every_span_target_resolves():
    tracer = load_spans().Tracer()
    tracer.install()
    try:
        missing = list(tracer.missing)
    finally:
        tracer.uninstall()
    assert missing == []


def test_tracking_spans_fire_on_a_windowed_run():
    _, dets = generate(bundled_scenario("occlusion"))
    wt = WindowedTracker(make_tracker(TrackerConfig(kind="ocsort")),
                         make_tracker(TrackerConfig(kind="bytetrack")), 3)
    tracer = load_spans().Tracer()
    tracer.install()
    try:
        run_windowed(wt, dets)
    finally:
        tracer.uninstall()
    totals = tracer.totals()
    assert [name for name in TRACKING_SPANS if name not in totals] == []


def test_metrics_spans_fire_on_a_contended_evaluate():
    # Two gt ids, each labelled x for two frames and y for two: every
    # trajectory pair matches, so identity calls the solver.  The bench's
    # `score` sequences never contend, so its traced run cannot show this.
    a, b = BoundingBox(0.0, 0.0, 10.0, 10.0), BoundingBox(100.0, 0.0, 10.0, 10.0)
    gt = {f: [(1, a), (2, b)] for f in range(1, 5)}
    pred = {f: [(11, a), (12, b)] if f < 3 else [(12, a), (11, b)] for f in range(1, 5)}
    tracer = load_spans().Tracer()
    tracer.install()
    try:
        assert evaluate(gt, pred).identity.idtp == 4
    finally:
        tracer.uninstall()
    totals = tracer.totals()
    assert [name for name in ("geometry.iou@metrics", "assignment.solve@metrics")
            if name not in totals] == []
