"""Standing goldens for the corrector at every tested window length but the
one ``test_golden.py`` pins (k=3): the (frame, id) column of each bundled
scene through all 9 level-1 x level-2 pairs at default configs, hashed.

The digests were recorded before the corrector picked each id's best box
with one sort and stepped level 2 on the window's arrays.  A rewrite of
the relabel must leave every emitted id where it was at every k.
"""

import hashlib

import pytest

from wintrack.synth import BUNDLED_SUITE, bundled_scenario, generate
from wintrack.trackers import TRACKER_KINDS, TrackerConfig, make_tracker
from wintrack.window import WindowedTracker, run_windowed

WINDOW_DIGESTS = {
    "crossing": {1: "c4093c34b303292d", 2: "e0b60f2854d44436", 5: "dec0fdc0b115f8de"},
    "idswitch": {1: "a0dccc6ab78caea2", 2: "a272095efe35dc88", 5: "2f9e48e9bc148323"},
    "occlusion": {1: "f672c1de501a6c3e", 2: "c818dc4d9fd76cbf", 5: "995bfc27d4f1ea3d"},
    "confdip": {1: "ec3c1f48cc012a07", 2: "af17492de6c576fa", 5: "a28e891e40551822"},
    "weave": {1: "8eabcf7a928f2746", 2: "44d273f043d136b9", 5: "e59d4730467319b0"},
}


def _pairs_digest(dets, k) -> str:
    h = hashlib.sha256()
    for l1 in TRACKER_KINDS:
        for l2 in TRACKER_KINDS:
            wt = WindowedTracker(make_tracker(TrackerConfig(kind=l1)),
                                 make_tracker(TrackerConfig(kind=l2)), k)
            for td in run_windowed(wt, dets):
                h.update(f"{td.frame},{td.track_id}\n".encode())
            h.update(b"--\n")
    return h.hexdigest()[:16]


@pytest.mark.parametrize("name", BUNDLED_SUITE)
def test_windowed_ids_unchanged_at_each_k(name):
    _, dets = generate(bundled_scenario(name))
    digests = {k: _pairs_digest(dets, k) for k in WINDOW_DIGESTS[name]}
    assert digests == WINDOW_DIGESTS[name]
