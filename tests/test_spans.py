"""The benchmark's traced run wraps named functions of the package; a rename
on either side would make a layer read 0 without failing anything else."""

import importlib.util
from pathlib import Path

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
