import functools
import math

import pytest

from wintrack.geometry import BoundingBox
from wintrack.metrics import frames_from_records, match_clear
from wintrack.motio import Detection, MotRecord
from wintrack.synth import bundled_scenario, generate
from wintrack.trackers import (
    TRACKER_KINDS,
    TrackerConfig,
    make_tracker,
    run_tracker,
)
from wintrack.window import (
    UNMATCHED_ID_OFFSET,
    WindowedTracker,
    run_windowed,
    select_best,
)

from conftest import random_scenario


def det(frame, cx, cy, w=40.0, h=80.0, conf=1.0):
    return Detection(frame, BoundingBox(cx - w / 2, cy - h / 2, w, h), conf)


def tracked(frame, cx, cy, track_id, conf=1.0):
    d = det(frame, cx, cy, conf=conf)
    return MotRecord(frame, track_id, d.box, d.confidence)


# Every level-1 x level-2 pairing at every tested window length, run at the
# default configs on INVARIANT_SEEDS for the corrector's invariants.
PAIRINGS = [(l1, l2, k) for l1 in TRACKER_KINDS for l2 in TRACKER_KINDS
            for k in (1, 2, 3, 5)]
INVARIANT_SEEDS = (11, 12)


@functools.cache
def scene(seed):
    return generate(random_scenario(seed))


def windowed(l1, l2, k, seed):
    _, dets = scene(seed)
    wt = WindowedTracker(make_tracker(TrackerConfig(kind=l1)),
                         make_tracker(TrackerConfig(kind=l2)), k)
    return run_windowed(wt, dets)


# Shared by the invariant tests, so each pairing runs once for all of them.
windowed_once = functools.cache(windowed)


@functools.cache
def solo_content_by_frame(kind, seed):
    _, dets = scene(seed)
    solo = run_tracker(make_tracker(TrackerConfig(kind=kind)), dets)
    return content_by_frame(solo)


def content_by_frame(rows):
    """Each frame's boxes and confidences in emitted order, ids left out."""
    out = {}
    for td in rows:
        b = td.box
        out.setdefault(td.frame, []).append((b.x, b.y, b.w, b.h, td.confidence))
    return out


def sort_pair(k, **overrides):
    cfg = TrackerConfig(kind="sort", min_hits=1, **overrides)
    return WindowedTracker(make_tracker(cfg), make_tracker(cfg), k)


class TestSelectBest:
    def test_argmax_confidence(self):
        best = select_best([tracked(1, 100, 100, 1, conf=0.5),
                            tracked(2, 100, 100, 1, conf=0.9),
                            tracked(3, 100, 100, 1, conf=0.7)])
        assert len(best) == 1
        assert best[0].confidence == 0.9
        assert best[0].frame == 2

    def test_one_entry_per_id(self):
        best = select_best([tracked(1, 100, 100, 1, conf=0.6),
                            tracked(1, 300, 100, 2, conf=0.8),
                            tracked(2, 100, 100, 1, conf=0.7)])
        assert [td.track_id for td in best] == [1, 2]
        assert [td.confidence for td in best] == [0.7, 0.8]

    def test_ties_keep_earliest_frame(self):
        best = select_best([tracked(f, 100 + f, 100, 1, conf=0.8) for f in (3, 5)])
        assert best[0].frame == 3


class TestWindowing:
    def test_k2_emits_every_other_frame(self):
        wt = sort_pair(2)
        emitted_at = {}
        for f in range(1, 5):
            out = wt.push_frame(f, [det(f, 100, 100)])
            emitted_at[f] = out
        assert emitted_at[1] is None and emitted_at[3] is None
        assert sorted(td.frame for td in emitted_at[2]) == [1, 2]
        assert sorted(td.frame for td in emitted_at[4]) == [3, 4]

    def test_k1_emits_every_frame(self):
        wt = sort_pair(1)
        for f in range(1, 4):
            out = wt.push_frame(f, [det(f, 100, 100)])
            assert out is not None
            assert [td.frame for td in out] == [f]

    def test_empty_frames_count_toward_k(self):
        wt = sort_pair(3)
        assert wt.push_frame(1, [det(1, 100, 100)]) is None
        assert wt.push_frame(2, []) is None
        out = wt.push_frame(3, [det(3, 100, 100)])
        assert out is not None
        assert sorted(td.frame for td in out) == [1, 3]

    def test_out_of_order_push_rejected(self):
        wt = sort_pair(2)
        wt.push_frame(5, [])
        with pytest.raises(ValueError, match="out-of-order"):
            wt.push_frame(5, [])

    def test_rejected_push_leaves_window_open(self):
        wt = sort_pair(3)
        assert wt.push_frame(1, [det(1, 100, 100)]) is None
        assert wt.push_frame(2, [det(2, 100, 100)]) is None
        with pytest.raises(ValueError, match="out-of-order"):
            wt.push_frame(2, [det(2, 100, 100)])
        out = wt.push_frame(3, [det(3, 100, 100)])
        assert out is not None
        assert sorted(td.frame for td in out) == [1, 2, 3]

    def test_k_must_be_positive(self):
        cfg = TrackerConfig(kind="sort")
        with pytest.raises(ValueError):
            WindowedTracker(make_tracker(cfg), make_tracker(cfg), 0)

    @pytest.mark.parametrize("k", [2.5, math.nan, True])
    def test_k_must_be_an_integer(self, k):
        # Such a k never equals the buffered frame count, so no window
        # would close before flush.  A bool is not a count, though True == 1.
        cfg = TrackerConfig(kind="sort")
        with pytest.raises(ValueError, match="window length k"):
            WindowedTracker(make_tracker(cfg), make_tracker(cfg), k)

    def test_latency_bound(self):
        # frame t appears in the output of push ceil(t/k)*k (or flush)
        wt = sort_pair(3)
        seen = {}
        for f in range(1, 8):
            out = wt.push_frame(f, [det(f, 100, 100)])
            for td in out or []:
                seen[td.frame] = f
        for td in wt.flush():
            seen[td.frame] = 7
        assert seen == {1: 3, 2: 3, 3: 3, 4: 6, 5: 6, 6: 6, 7: 7}


class TestFlush:
    def test_partial_window_flushes(self):
        wt = sort_pair(5)
        outputs = []
        for f in range(1, 8):
            out = wt.push_frame(f, [det(f, 100, 100)])
            if out:
                outputs.append(out)
        tail = wt.flush()
        assert len(outputs) == 1 and len(outputs[0]) == 5
        assert sorted(td.frame for td in tail) == [6, 7]

    def test_flush_empty_buffer(self):
        wt = sort_pair(4)
        assert wt.flush() == []

    def test_flush_after_exact_multiple_returns_nothing(self):
        wt = sort_pair(10)
        for f in range(1, 11):
            wt.push_frame(f, [det(f, 100, 100)])
        assert wt.flush() == []


class TestCorrection:
    def test_stationary_target_constant_ids_across_windows(self):
        wt = sort_pair(2)
        frames = {f: [det(f, 100, 100)] for f in range(1, 11)}
        out = run_windowed(wt, frames)
        assert len(out) == 10
        assert len({td.track_id for td in out}) == 1

    def test_unmatched_level1_gets_offset_namespace_id(self):
        # level 2 with min_hits=3 emits nothing in the first two windows, so
        # every level-1 id maps to the fresh namespace there
        l1 = make_tracker(TrackerConfig(kind="sort", min_hits=1))
        l2 = make_tracker(TrackerConfig(kind="sort", min_hits=3))
        wt = WindowedTracker(l1, l2, 2)
        out = wt.push_frame(1, [det(1, 100, 100)])
        out = wt.push_frame(2, [det(2, 100, 100)])
        assert {td.track_id for td in out} == {UNMATCHED_ID_OFFSET + 1}

    def test_level2_confidence_filtering_yields_fresh_ids(self):
        # selected boxes keep their confidences, so a ByteTrack level 2
        # discards a sub-threshold track as background and that track's
        # level-1 boxes never receive a level-2 id
        l1 = make_tracker(TrackerConfig(kind="sort", min_hits=1))
        l2 = make_tracker(TrackerConfig(kind="bytetrack", min_hits=1,
                                        low_conf_threshold=0.1))
        wt = WindowedTracker(l1, l2, 2)
        frames = {f: [det(f, 100, 100, conf=0.9), det(f, 300, 100, conf=0.05)]
                  for f in (1, 2)}
        wt.push_frame(1, frames[1])
        out = wt.push_frame(2, frames[2])
        ids_by_cx = {}
        for td in out:
            ids_by_cx.setdefault(td.box.x + td.box.w / 2.0, set()).add(td.track_id)
        assert ids_by_cx[100.0] == {1}  # level-2 id namespace starts at 1
        assert ids_by_cx[300.0] == {UNMATCHED_ID_OFFSET + 2}

    @pytest.mark.parametrize("l1_next, l2_next", [
        (1, UNMATCHED_ID_OFFSET + 1),
        (UNMATCHED_ID_OFFSET + 2, UNMATCHED_ID_OFFSET + 1),
        (UNMATCHED_ID_OFFSET + 1, 2 * UNMATCHED_ID_OFFSET + 1),
    ])
    def test_fresh_id_never_equals_a_level2_id(self, l1_next, l2_next):
        # the 0.3-confidence box is background to ByteTrack's level 2, so it
        # keeps a fresh id while the 0.9 box takes level 2's next id
        l1 = make_tracker(TrackerConfig(kind="sort", min_hits=1))
        l2 = make_tracker(TrackerConfig(kind="bytetrack", min_hits=1))
        l1._next_id = l1_next
        l2._next_id = l2_next
        wt = WindowedTracker(l1, l2, 1)
        out = wt.push_frame(1, [det(1, 100, 100, conf=0.3),
                                det(1, 300, 100, conf=0.9)])
        assert len({td.track_id for td in out}) == len(out) == 2

    @pytest.mark.parametrize("l1, l2, k", PAIRINGS)
    def test_content_preserved_only_ids_change(self, l1, l2, k):
        for seed in INVARIANT_SEEDS:
            corrected = windowed_once(l1, l2, k, seed)
            assert content_by_frame(corrected) == solo_content_by_frame(l1, seed)

    @pytest.mark.parametrize("l1, l2, k", PAIRINGS)
    def test_per_frame_id_injectivity(self, l1, l2, k):
        for seed in INVARIANT_SEEDS:
            per_frame = {}
            for td in windowed_once(l1, l2, k, seed):
                per_frame.setdefault(td.frame, []).append(td.track_id)
            for ids in per_frame.values():
                assert len(ids) == len(set(ids))

    @pytest.mark.parametrize("l1, l2, k", PAIRINGS)
    def test_determinism(self, l1, l2, k):
        for seed in INVARIANT_SEEDS:
            assert windowed(l1, l2, k, seed) == windowed_once(l1, l2, k, seed)

    def test_id_switch_corrected_within_window(self):
        # the bundled scene where the per-frame tracker switches ids across a
        # long absence: corrected output carries one id, and its switch count
        # drops strictly below the baseline's
        gt, dets = generate(bundled_scenario("idswitch"))
        gt_frames = frames_from_records(gt.evaluable())
        cfg = TrackerConfig(kind="sort", min_hits=1)
        baseline = run_tracker(make_tracker(cfg), dets)
        base_idsw = match_clear(gt_frames, frames_from_records(baseline)).idsw
        assert base_idsw >= 1
        for k in (2, 3):
            wt = WindowedTracker(
                make_tracker(cfg),
                make_tracker(TrackerConfig(kind="bytetrack", min_hits=1)), k)
            corrected = run_windowed(wt, dets)
            corr_idsw = match_clear(gt_frames, frames_from_records(corrected)).idsw
            assert corr_idsw < base_idsw
            # the reappearing person keeps one id end to end
            gap_target = [td.track_id for td in corrected
                          if abs(td.box.y + td.box.h / 2.0 - 100.0) < 1.0]
            assert len(set(gap_target)) == 1


class TestStateHolding:
    def test_window_rate_tracker_bridges_long_gap(self):
        # per-frame tracker with max_age=5 loses a 12-frame occlusion; the
        # same tracker stepped once per 3-frame window holds on
        _, dets = generate(bundled_scenario("occlusion"))
        cfg = TrackerConfig(kind="sort", max_age=5, min_hits=1)
        solo = run_tracker(make_tracker(cfg), dets)
        assert len({td.track_id for td in solo}) == 2

        wt = WindowedTracker(make_tracker(cfg), make_tracker(cfg), 3)
        corrected = run_windowed(wt, dets)
        pre_gap = {td.track_id for td in corrected if td.frame < 25}
        post_gap = {td.track_id for td in corrected if td.frame > 36}
        assert pre_gap == post_gap
        assert len(pre_gap) == 1
