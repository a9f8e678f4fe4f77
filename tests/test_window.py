import functools
import gc
import math
import re
import tracemalloc

import numpy as np
import pytest

from wintrack.geometry import BoundingBox
from wintrack.metrics import frames_from_records, match_clear
from wintrack.motio import Detection, MotRecord
from wintrack.synth import BUNDLED_SUITE, bundled_scenario, generate
from wintrack.trackers import (
    TRACKER_KINDS,
    TrackerConfig,
    make_tracker,
    run_tracker,
    track_frames,
)
from wintrack.window import (
    LEVEL1_ID_LIMIT,
    UNMATCHED_ID_OFFSET,
    WindowedTracker,
    best_rows,
    correct,
    run_windowed,
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


def select_best(rows):
    """The rows best_rows picks from a window's rows."""
    ids = np.array([td.track_id for td in rows])
    confidences = np.array([td.confidence for td in rows])
    return [rows[i] for i in best_rows(ids, confidences)]


class TestBestRows:
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


class TestPushRows:
    @pytest.mark.parametrize("frame", [2, 1])
    def test_frame_not_after_the_last_rejected_within_a_window(self, frame):
        wt = sort_pair(3)
        assert wt.push_rows(1, [tracked(1, 100, 100, 1)]) is None
        assert wt.push_rows(2, [tracked(2, 100, 100, 1)]) is None
        with pytest.raises(ValueError, match="out-of-order frame"):
            wt.push_rows(frame, [tracked(frame, 100, 100, 1)])
        # The rejected rows are not buffered; the window stays open.
        out = wt.push_rows(3, [tracked(3, 100, 100, 1)])
        assert [td.frame for td in out] == [1, 2, 3]

    @pytest.mark.parametrize("frame", [2, 1])
    def test_frame_not_after_the_last_rejected_across_windows(self, frame):
        wt = sort_pair(2)
        assert wt.push_rows(1, [tracked(1, 100, 100, 1)]) is None
        assert wt.push_rows(2, [tracked(2, 100, 100, 1)]) is not None
        with pytest.raises(ValueError, match="out-of-order frame"):
            wt.push_rows(frame, [])
        assert wt.flush() == []

    def test_push_frame_reports_level1_order_error_first(self):
        wt = sort_pair(2)
        wt.push_frame(3, [])
        with pytest.raises(ValueError, match="already stepped 3"):
            wt.push_frame(3, [])


def sort_bytetrack_pair(k):
    """SORT level 1 under a ByteTrack level 2 that confirms on one hit."""
    return WindowedTracker(make_tracker(TrackerConfig(kind="sort")),
                           make_tracker(TrackerConfig(kind="bytetrack", min_hits=1)), k)


class TestPushRowsChecks:
    """A window's rows are checked when it is finalized; a faulty window
    raises and is dropped, and the corrector goes on with the next one."""

    def test_row_of_another_frame_rejected(self):
        wt = sort_bytetrack_pair(2)
        assert wt.push_rows(1, [tracked(5, 100, 100, 1)]) is None
        with pytest.raises(ValueError, match="row frame 5 does not match pushed frame 1"):
            wt.push_rows(2, [tracked(2, 100, 100, 1)])

    def test_id_repeated_in_a_frame_rejected(self):
        wt = sort_bytetrack_pair(2)
        assert wt.push_rows(1, [tracked(1, 100, 100, 1)]) is None
        with pytest.raises(ValueError, match="level-1 rows: frame 2 repeats id 1"):
            wt.push_rows(2, [tracked(2, 100, 100, 1), tracked(2, 300, 100, 1)])

    def test_one_id_in_several_frames_accepted(self):
        wt = sort_bytetrack_pair(3)
        for f in (1, 2):
            assert wt.push_rows(f, [tracked(f, 100, 100, 7), tracked(f, 300, 100, 8)]) is None
        out = wt.push_rows(3, [tracked(3, 100, 100, 7)])
        assert [(td.frame, td.track_id) for td in out] == [(1, 1), (1, 2), (2, 1), (2, 2),
                                                           (3, 1)]

    @pytest.mark.parametrize("track_id", [2**62, 2**62 + 1, 2**63 - 1, 2**63 + 5, 10**30])
    def test_id_at_or_above_the_limit_rejected(self, track_id):
        wt = sort_bytetrack_pair(1)
        with pytest.raises(ValueError, match=f"level-1 id {track_id} is not below {2**62}"):
            wt.push_rows(1, [tracked(1, 100, 100, 3), tracked(1, 300, 100, track_id)])
        assert LEVEL1_ID_LIMIT == 2**62

    def test_largest_id_below_the_limit_keeps_its_fresh_id(self):
        # 2m + 1 for m = 2**62 - 1 is the largest int64, 2**63 - 1.
        wt = WindowedTracker(make_tracker(TrackerConfig(kind="sort")),
                             make_tracker(TrackerConfig(kind="sort", min_hits=3)), 1)
        out = wt.push_rows(1, [tracked(1, 100, 100, 2**62 - 1)])
        assert [td.track_id for td in out] == [2**63 - 1]

    def test_flush_checks_the_partial_window(self):
        wt = sort_bytetrack_pair(3)
        wt.push_rows(1, [tracked(1, 100, 100, 1), tracked(1, 300, 100, 1)])
        with pytest.raises(ValueError, match="frame 1 repeats id 1"):
            wt.flush()
        assert wt.flush() == []

    # A float id would be truncated to int64, so 1.5 and 1 would share one
    # output id; nan would fail inside numpy; a bool is no integer either.
    @pytest.mark.parametrize("track_id", [1.5, 2.0, math.nan, True, np.True_, np.float64(3)])
    def test_non_integer_id_rejected(self, track_id):
        wt = sort_bytetrack_pair(2)
        assert wt.push_rows(1, [tracked(1, 100, 100, 1)]) is None
        rows = [tracked(2, 100, 100, 1), tracked(2, 300, 100, track_id)]
        with pytest.raises(ValueError,
                           match=re.escape(f"frame 2 has id {track_id!r}, not an integer")):
            wt.push_rows(2, rows)
        assert wt.level2.tracks == []

    def test_lone_non_integer_id_rejected(self):
        wt = sort_bytetrack_pair(1)
        with pytest.raises(ValueError, match="frame 1 has id True, not an integer"):
            wt.push_rows(1, [tracked(1, 100, 100, True)])

    def test_numpy_integer_ids_accepted(self):
        def corrected(ids):
            wt = sort_bytetrack_pair(2)
            wt.push_rows(1, [tracked(1, 100, 100, ids[0]), tracked(1, 300, 100, ids[1])])
            out = wt.push_rows(2, [tracked(2, 100, 100, ids[0]), tracked(2, 300, 100, ids[1])])
            return [(td.frame, td.track_id, td.box) for td in out]

        assert corrected([np.int64(7), np.int32(8)]) == corrected([7, 8])

    def test_faulty_window_dropped_before_level2_steps(self):
        wt = sort_bytetrack_pair(2)
        wt.push_rows(1, [tracked(1, 100, 100, 1)])
        with pytest.raises(ValueError, match="row frame 9"):
            wt.push_rows(2, [tracked(9, 100, 100, 1)])
        assert wt.level2.tracks == []
        wt.push_rows(3, [tracked(3, 100, 100, 1)])
        out = wt.push_rows(4, [tracked(4, 100, 100, 1)])
        assert [(td.frame, td.track_id) for td in out] == [(3, 1), (4, 1)]


class TestLongStream:
    def test_namespaces_and_memory_hold_over_a_long_stream(self):
        # 10**5 frames pushed as level-1 rows, a row pair every 25th frame:
        # a 0.9 box that jumps among three places, so level 2 (max_age=1)
        # starts a track and issues an id each window, and a 0.05 box that
        # level 2 ignores as background, so it keeps its fresh id.  Each
        # window gives both boxes new level-1 ids; level-1 and level-2 ids
        # both cross UNMATCHED_ID_OFFSET.
        n_frames, k, every = 10**5, 1000, 25
        n_windows, per_window = n_frames // k, k // every
        wt = WindowedTracker(make_tracker(TrackerConfig(kind="sort")),
                             make_tracker(TrackerConfig(kind="bytetrack", min_hits=1,
                                                        max_age=1)), k)
        wt.level2._next_id = UNMATCHED_ID_OFFSET - n_windows // 2
        first_level1 = UNMATCHED_ID_OFFSET - n_windows
        places = [BoundingBox(100.0 + 300.0 * i, 100.0, 40.0, 80.0) for i in range(3)]
        background = BoundingBox(100.0, 500.0, 40.0, 80.0)
        level2_side = np.zeros((n_windows, per_window), dtype=np.int64)
        fresh_side = np.zeros((n_windows, per_window), dtype=np.int64)

        spans = []    # traced (current, peak) bytes over windows 10-19 and 90-99
        tracemalloc.start()
        try:
            for w in range(n_windows):
                ids = first_level1 + 2 * w, first_level1 + 2 * w + 1
                for f in range(w * k + 1, (w + 1) * k + 1):
                    rows = ([MotRecord(f, ids[0], places[w % 3], 0.9),
                             MotRecord(f, ids[1], background, 0.05)]
                            if f % every == 0 else ())
                    out = wt.push_rows(f, rows)
                emitted = [td.track_id for td in out]
                level2_side[w], fresh_side[w] = emitted[0::2], emitted[1::2]
                if w + 1 in (n_windows // 10, n_windows - n_windows // 10):
                    gc.collect()    # empties the interpreter's free lists
                    tracemalloc.reset_peak()
                elif w + 1 in (n_windows // 5, n_windows):
                    gc.collect()
                    spans.append(tracemalloc.get_traced_memory())
        finally:
            tracemalloc.stop()

        assert (level2_side > 0).all() and (fresh_side > 0).all()
        assert np.intersect1d(level2_side, fresh_side).size == 0
        # One level-2 id per window, on both sides of the offset.
        assert (level2_side == level2_side[:, :1]).all()
        assert len(np.unique(level2_side)) == n_windows
        assert level2_side.min() <= UNMATCHED_ID_OFFSET < level2_side.max()
        assert fresh_side.min() < 2 * UNMATCHED_ID_OFFSET < fresh_side.max()
        # Late windows hold and need no more memory than early ones.
        (early_now, early_peak), (late_now, late_peak) = spans
        assert late_now <= early_now + 4096, spans
        assert late_peak <= early_peak + 4096, spans


@functools.cache
def bundled_detections(name):
    return generate(bundled_scenario(name))[1]


@functools.cache
def level1_frames(name, l1):
    """One level-1 run over a bundled scene, as (frame, rows) pairs."""
    return list(track_frames(make_tracker(TrackerConfig(kind=l1)),
                             bundled_detections(name)))


def row_hexes(rows):
    return [(td.frame, td.track_id,
             *(float(v).hex() for v in (td.box.x, td.box.y, td.box.w, td.box.h)),
             float(td.confidence).hex()) for td in rows]


class TestCorrect:
    @pytest.mark.parametrize("name", BUNDLED_SUITE)
    @pytest.mark.parametrize("l1", TRACKER_KINDS)
    @pytest.mark.parametrize("l2", TRACKER_KINDS)
    def test_recorded_level1_frames_equal_run_windowed(self, name, l1, l2):
        # One level-1 run is corrected at every k; each equals the run that
        # steps its own level 1, row for row.
        dets = bundled_detections(name)
        frames = level1_frames(name, l1)
        for k in (1, 2, 3, 5):
            def windowed():
                return WindowedTracker(make_tracker(TrackerConfig(kind=l1)),
                                       make_tracker(TrackerConfig(kind=l2)), k)
            want = run_windowed(windowed(), dets)
            assert want
            assert row_hexes(correct(windowed(), frames)) == row_hexes(want)

    def test_frames_through_their_last_detection_frame(self):
        frames = {2: [det(2, 100, 100)], 4: [det(4, 100, 100)]}
        stepped = track_frames(make_tracker(TrackerConfig(kind="sort", min_hits=1)),
                               frames)
        assert [(f, len(rows)) for f, rows in stepped] == [(1, 0), (2, 1), (3, 0), (4, 1)]


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
