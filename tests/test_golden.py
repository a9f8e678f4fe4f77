"""Standing goldens: the (frame, id) column of tracker output and the
metric reports scored on it, hashed.

Each id digest was recorded from the package before its Kalman step and
OC-SORT direction term were vectorized.  Those rewrites, like any
refactor of the tracking core, must leave every emitted id where it was;
a mismatch here means the association or the filter arithmetic changed
an outcome, not merely a last bit of a state.

The plain-option digests were recorded before the trackers held their
live tracks in one table of arrays.  They run each kind with recovery and
the direction term off, min_hits=1 and max_age=1, alone and under a
ByteTrack level 2 with the same options, so tracks spawn, emit and retire
in the same frames and row order decides assignment ties.

The report digest was recorded before the metrics shared one pairing of
each sequence's frames.  It hashes every ``evaluate`` field, floats as
hex, so a refactor of the metrics must leave each count and score
bit-identical.
"""

import hashlib
import random

import pytest

from wintrack.metrics import evaluate, frames_from_records
from wintrack.synth import (
    BUNDLED_SUITE,
    NoiseSpec,
    Scenario,
    TargetSpec,
    bundled_scenario,
    generate,
)
from wintrack.trackers import TRACKER_KINDS, TrackerConfig, make_tracker, run_tracker
from wintrack.window import WindowedTracker, run_windowed

GOLDEN_K = 3

BUNDLED_DIGESTS = {
    "crossing": "5aaaff929cdb232c",
    "idswitch": "84b3ed6026639644",
    "occlusion": "2a799f59c2b52f9f",
    "confdip": "ad14ff04a9515da2",
    "weave": "7249a8e5050e8028",
}

DENSE_DIGEST = "1367248d3e908d38"

REPORT_DIGEST = "d1138266b28899ea"

# Without recovery or direction term, every track confirmed at once and
# retired after one missed step: spawn, emit and retirement in one frame.
PLAIN_OPTIONS = dict(oru_enabled=False, ocm_weight=0.0, min_hits=1, max_age=1)

PLAIN_DIGESTS = {
    "crossing": "df2c30c1bd5dc444",
    "idswitch": "e3a936bd24a31b53",
    "occlusion": "4146c16b7939755c",
    "confdip": "a3fa891818c68fdc",
    "weave": "57c83f66bc357f20",
}

DENSE_PLAIN_DIGEST = "5fb86250692421a9"


def dense_crossing_scenario() -> Scenario:
    """30 targets crossing a 150 px band in both directions at about
    5 px/frame over 100 frames, with jitter, dropout and confidence dips.

    The band is narrow enough that OC-SORT's direction term decides some
    associations: with ocm_weight=0 the ids differ."""
    rng = random.Random(20240)
    frames = 100
    targets = []
    for i in range(30):
        y0 = rng.uniform(150.0, 300.0)
        y1 = y0 + rng.uniform(-60.0, 60.0)
        x0, x1 = (100.0, 500.0) if i % 2 == 0 else (500.0, 100.0)
        start = rng.randint(1, 20)
        targets.append(TargetSpec(
            waypoints=((start, x0, y0), (start + frames - 20, x1, y1)),
            width=rng.uniform(24.0, 40.0),
            height=rng.uniform(56.0, 90.0),
        ))
    dips = tuple((t, a, a + 3, 0.3) for t, a in ((3, 20), (11, 35), (17, 50), (26, 28)))
    noise = NoiseSpec(jitter_std=0.8, dropout=0.03, confidence_dips=dips)
    return Scenario(name="dense-crossing", seed=20240, frame_count=frames,
                    targets=tuple(targets), noise=noise)


def _id_digest(tracked) -> str:
    h = hashlib.sha256()
    for td in tracked:
        h.update(f"{td.frame},{td.track_id}\n".encode())
    return h.hexdigest()[:16]


def _run(dets, l1, l2):
    level1 = make_tracker(TrackerConfig(kind=l1))
    if l2 is None:
        return run_tracker(level1, dets)
    wt = WindowedTracker(level1, make_tracker(TrackerConfig(kind=l2)), GOLDEN_K)
    return run_windowed(wt, dets)


def _report_line(report) -> str:
    floats = [getattr(report, f) for f in ("mota", "motp", "idf1", "hota", "det_a", "ass_a")]
    c, i, a = report.clear, report.identity, report.hota_acc
    floats += [c.similarity_sum, *a.tp, *a.fn, *a.fp, *a.ass_sum]
    ints = [c.gt_det, c.tp, c.fp, c.fn, c.idsw, i.idtp, i.idfp, i.idfn]
    return ",".join([*map(str, ints), *(float(x).hex() for x in floats)]) + "\n"


def _suite_digest(dets, configs) -> str:
    return hashlib.sha256(
        "".join(_id_digest(_run(dets, l1, l2)) for l1, l2 in configs).encode()
    ).hexdigest()[:16]


SOLO_AND_PAIRS = [(l1, None) for l1 in TRACKER_KINDS] + [
    (l1, l2) for l1 in TRACKER_KINDS for l2 in TRACKER_KINDS
]


@pytest.mark.parametrize("name", BUNDLED_SUITE)
def test_bundled_ids_unchanged(name):
    _, dets = generate(bundled_scenario(name))
    assert _suite_digest(dets, SOLO_AND_PAIRS) == BUNDLED_DIGESTS[name]


def test_dense_crossing_ids_unchanged():
    _, dets = generate(dense_crossing_scenario())
    assert _suite_digest(dets, [("ocsort", "bytetrack")]) == DENSE_DIGEST


def _plain_suite_digest(dets) -> str:
    h = hashlib.sha256()
    for kind in TRACKER_KINDS:
        level1 = make_tracker(TrackerConfig(kind=kind, **PLAIN_OPTIONS))
        h.update(_id_digest(run_tracker(level1, dets)).encode())
        level1 = make_tracker(TrackerConfig(kind=kind, **PLAIN_OPTIONS))
        level2 = make_tracker(TrackerConfig(kind="bytetrack", **PLAIN_OPTIONS))
        wt = WindowedTracker(level1, level2, GOLDEN_K)
        h.update(_id_digest(run_windowed(wt, dets)).encode())
    return h.hexdigest()[:16]


@pytest.mark.parametrize("name", BUNDLED_SUITE)
def test_bundled_ids_unchanged_with_plain_options(name):
    _, dets = generate(bundled_scenario(name))
    assert _plain_suite_digest(dets) == PLAIN_DIGESTS[name]


def test_dense_crossing_ids_unchanged_with_plain_options():
    _, dets = generate(dense_crossing_scenario())
    assert _plain_suite_digest(dets) == DENSE_PLAIN_DIGEST


def test_bundled_reports_unchanged():
    h = hashlib.sha256()
    for name in BUNDLED_SUITE:
        gt, dets = generate(bundled_scenario(name))
        gt_frames = frames_from_records(gt.evaluable())
        for l1, l2 in SOLO_AND_PAIRS:
            report = evaluate(gt_frames, frames_from_records(_run(dets, l1, l2)))
            h.update(_report_line(report).encode())
    assert h.hexdigest()[:16] == REPORT_DIGEST
