import math
import random

import numpy as np
import pytest

from wintrack.geometry import BoundingBox, box_array
from wintrack.kalman import MotionFilter
from wintrack.motio import Detection, MotRecord
from wintrack.synth import generate
from wintrack.trackers import (
    ByteTracker,
    OcSortTracker,
    SortTracker,
    TrackerConfig,
    associate_iou,
    direction_costs,
    make_tracker,
    run_tracker,
)

from conftest import center_form, random_scenario
from oracles import direction_cost_scalar


def det(frame, cx, cy, w=40.0, h=80.0, conf=1.0):
    return Detection(frame, BoundingBox(cx - w / 2, cy - h / 2, w, h), conf)


def stationary(frames, cx=100.0, cy=100.0, conf=1.0):
    return {f: [det(f, cx, cy, conf=conf)] for f in range(1, frames + 1)}


class TestConfigValidation:
    def test_threshold_ordering_enforced(self):
        with pytest.raises(ValueError):
            TrackerConfig(low_conf_threshold=0.7, high_conf_threshold=0.4)

    def test_counts_must_be_positive(self):
        with pytest.raises(ValueError):
            TrackerConfig(max_age=0)
        with pytest.raises(ValueError):
            TrackerConfig(min_hits=0)

    @pytest.mark.parametrize("field", ["max_age", "min_hits", "ocm_delta_t"])
    @pytest.mark.parametrize("value", [2.5, math.nan, math.inf, True])
    def test_non_integer_counts_rejected(self, field, value):
        # nan passes a "< 1" check (nan < 1 is False): as max_age it retires
        # every track, as min_hits it confirms none, and as ocm_delta_t it
        # fails later when the observation ring is sized.  True is an
        # Integral and would pass as 1.
        with pytest.raises(ValueError, match=field):
            TrackerConfig(kind="ocsort", **{field: value})

    def test_integer_counts_accepted(self):
        cfg = TrackerConfig(max_age=np.int64(5), min_hits=1, ocm_delta_t=2)
        assert (cfg.max_age, cfg.min_hits, cfg.ocm_delta_t) == (5, 1, 2)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            TrackerConfig(kind="deepsort")

    @pytest.mark.parametrize("weight", [math.nan, math.inf])
    def test_non_finite_ocm_weight_rejected(self, weight):
        # nan would switch the direction term off silently (nan > 0 is
        # False); inf would make inf * 0 on the first association.
        with pytest.raises(ValueError, match="ocm_weight"):
            TrackerConfig(kind="ocsort", ocm_weight=weight)

    @pytest.mark.parametrize("kind", ["sort", "ocsort"])
    @pytest.mark.parametrize("value", ["false", 0.5, None, 1])
    def test_non_bool_oru_enabled_rejected(self, kind, value):
        # Under OC-SORT a string or float reached the "&" mask of the first
        # step with a lost track and died there with a TypeError.
        with pytest.raises(ValueError, match="oru_enabled"):
            TrackerConfig(kind=kind, oru_enabled=value)


class TestAssociateIou:
    def test_exact_overlap_matches(self):
        b = BoundingBox(10, 10, 30, 60)
        rows, cols = associate_iou(box_array([b]), box_array([b]), gate=0.7)
        assert list(zip(rows.tolist(), cols.tolist())) == [(0, 0)]

    def test_distance_above_gate_leaves_both_unmatched(self):
        a = BoundingBox(0, 0, 10, 10)
        b = BoundingBox(9, 9, 10, 10)  # IoU 1/199, distance ~0.995
        rows, cols = associate_iou(box_array([a]), box_array([b]), gate=0.7)
        assert rows.tolist() == cols.tolist() == []
        assert np.delete(np.arange(1), rows).tolist() == [0]
        assert np.delete(np.arange(1), cols).tolist() == [0]

    def test_no_tracks_or_no_detections_give_empty_index_arrays(self):
        b = BoundingBox(10, 10, 30, 60)
        for tracks, dets in (([], [b]), ([b], []), ([], [])):
            rows, cols = associate_iou(box_array(tracks), box_array(dets), gate=0.7)
            assert rows.dtype == cols.dtype == np.intp
            assert rows.shape == cols.shape == (0,)

    def test_equals_gated_bruteforce_optimum(self, rng):
        from oracles import solve_bruteforce, total_cost
        from wintrack.geometry import iou_distance_matrix

        from conftest import random_box

        for _ in range(30):
            tracks = box_array([random_box(rng) for _ in range(3)])
            dets = box_array([random_box(rng) for _ in range(3)])
            dist = iou_distance_matrix(tracks, dets)
            fast = associate_iou(tracks, dets, gate=0.7)
            slow = solve_bruteforce(dist, dist <= 0.7)
            assert total_cost(dist, *fast) == total_cost(dist, *slow)
            assert len(fast[0]) == len(slow[0])


class TestStepContract:
    def test_out_of_order_frame_rejected(self):
        t = SortTracker(TrackerConfig())
        t.step(3, [])
        with pytest.raises(ValueError, match="out-of-order"):
            t.step(3, [])
        with pytest.raises(ValueError, match="out-of-order"):
            t.step(2, [])

    def test_detection_frame_mismatch_rejected(self):
        t = SortTracker(TrackerConfig())
        with pytest.raises(ValueError, match="does not match"):
            t.step(1, [det(2, 100, 100)])

    def test_first_frame_two_targets_min_hits_one(self):
        t = SortTracker(TrackerConfig(min_hits=1))
        out = t.step(1, [det(1, 50, 50), det(1, 300, 50)])
        assert len(out) == 2
        assert sorted(td.track_id for td in out) == [1, 2]

    def test_stationary_target_keeps_one_id(self):
        t = SortTracker(TrackerConfig(min_hits=1))
        out = run_tracker(t, stationary(10))
        assert len(out) == 10
        assert {td.track_id for td in out} == {1}

    def test_min_hits_suppresses_warmup_frames(self):
        t = SortTracker(TrackerConfig(min_hits=3))
        out = run_tracker(t, stationary(10))
        assert sorted(td.frame for td in out) == list(range(3, 11))

    def test_output_frame_purity(self):
        t = SortTracker(TrackerConfig(min_hits=1))
        for f in range(1, 6):
            for td in t.step(f, [det(f, 100, 100)]):
                assert td.frame == f

    def test_emitted_boxes_are_the_matched_detections(self):
        t = SortTracker(TrackerConfig(min_hits=1))
        d = det(1, 100, 100)
        out = t.step(1, [d])
        assert out == [MotRecord(1, 1, d.box, d.confidence)]


class TestLifecycle:
    def test_statuses_follow_hits_and_misses(self):
        # tentative below min_hits, active from it, lost once a frame is missed
        t = SortTracker(TrackerConfig(min_hits=3, max_age=5))
        assert t.step(1, [det(1, 100, 100)]) == []
        assert (t.tracks[0].hit_streak, t.tracks[0].frames_since_update) == (1, 0)
        t.step(2, [det(2, 100, 100)])
        assert len(t.step(3, [det(3, 100, 100)])) == 1
        assert (t.tracks[0].hit_streak, t.tracks[0].frames_since_update) == (3, 0)
        t.step(4, [])
        assert (t.tracks[0].hit_streak, t.tracks[0].frames_since_update) == (0, 1)

    def test_track_removed_after_max_age(self):
        t = SortTracker(TrackerConfig(min_hits=1, max_age=4))
        frames = {1: [det(1, 100, 100)], 2: [det(2, 100, 100)], 3: [det(3, 100, 100)]}
        for f in range(10, 13):
            frames[f] = [det(f, 100, 100)]
        out = run_tracker(t, frames)
        # gap of 6 missed frames > max_age: the id may never come back
        late_ids = {td.track_id for td in out if td.frame >= 10}
        assert late_ids == {2}
        early_ids = {td.track_id for td in out if td.frame <= 3}
        assert early_ids == {1}

    def test_track_survives_gap_within_max_age(self):
        t = SortTracker(TrackerConfig(min_hits=1, max_age=8))
        frames = {1: [det(1, 100, 100)], 2: [det(2, 100, 100)], 3: [det(3, 100, 100)]}
        for f in range(10, 13):
            frames[f] = [det(f, 100, 100)]
        out = run_tracker(t, frames)
        assert {td.track_id for td in out} == {1}

    def test_ids_never_reused(self):
        t = SortTracker(TrackerConfig(min_hits=1, max_age=1))
        issued = []
        for f in range(1, 21, 4):
            # every fourth frame a detection far from the last one, with a
            # 3-frame gap in between, so the previous track is always dead
            cx = 100.0 if (f // 4) % 2 == 0 else 400.0
            out = t.step(f, [det(f, cx, 100)])
            for g in range(f + 1, f + 4):
                t.step(g, [])
            issued.extend(td.track_id for td in out)
        assert issued == sorted(set(issued))


class TestCrossing:
    def test_sort_holds_ids_through_linear_crossing(self):
        # two constant-velocity targets pass through each other; the oracle
        # is the generating scene itself: boxes are exact, so every output
        # box identifies its ground-truth target
        frames = {}
        for f in range(1, 41):
            a = det(f, 60 + 4.0 * (f - 1), 100)
            b = det(f, 216 - 4.0 * (f - 1), 130)
            frames[f] = [a, b]
        t = SortTracker(TrackerConfig(min_hits=1))
        out = run_tracker(t, frames)
        assert len(out) == 80
        owner = {}
        for td in out:
            # recover which target generated this box from its center
            f = td.frame
            cx = td.box.x + td.box.w / 2.0
            target = "a" if abs(cx - (60 + 4.0 * (f - 1))) < 1e-6 else "b"
            owner.setdefault(td.track_id, set()).add(target)
        # each id sticks to exactly one target for the whole sequence
        assert all(len(v) == 1 for v in owner.values())
        assert len(owner) == 2


class TestByteTrack:
    def test_all_high_confidence_equals_sort(self):
        frames = {f: [det(f, 100 + 2.0 * f, 100, conf=0.9),
                      det(f, 300, 200, conf=0.8)] for f in range(1, 21)}
        byte_out = run_tracker(ByteTracker(TrackerConfig(kind="bytetrack")), frames)
        sort_out = run_tracker(SortTracker(TrackerConfig(kind="sort")), frames)
        assert byte_out == sort_out

    def test_confidence_dip_kept_by_second_stage(self):
        # five-frame trace: the detection dips to 0.3 for two frames but the
        # track keeps its id because stage 2 re-associates it
        conf = {1: 0.9, 2: 0.9, 3: 0.3, 4: 0.3, 5: 0.9}
        frames = {f: [det(f, 100, 100, conf=c)] for f, c in conf.items()}
        t = ByteTracker(TrackerConfig(kind="bytetrack", min_hits=1,
                                      high_conf_threshold=0.6,
                                      low_conf_threshold=0.1))
        out = run_tracker(t, frames)
        assert sorted(td.frame for td in out) == [1, 2, 3, 4, 5]
        assert {td.track_id for td in out} == {1}

    def test_below_low_threshold_is_background(self):
        t = ByteTracker(TrackerConfig(kind="bytetrack", min_hits=1,
                                      low_conf_threshold=0.1))
        out = t.step(1, [det(1, 100, 100, conf=0.05)])
        assert out == []
        assert t.tracks == []

    def test_mid_confidence_never_spawns(self):
        t = ByteTracker(TrackerConfig(kind="bytetrack", min_hits=1,
                                      high_conf_threshold=0.6,
                                      low_conf_threshold=0.1))
        out = t.step(1, [det(1, 100, 100, conf=0.3)])
        assert out == []
        assert t.tracks == []

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_collapsed_thresholds_equal_sort(self, seed):
        _, dets = generate(random_scenario(seed))
        byte_cfg = TrackerConfig(kind="bytetrack", high_conf_threshold=0.0,
                                 low_conf_threshold=0.0)
        sort_cfg = TrackerConfig(kind="sort")
        byte_out = run_tracker(ByteTracker(byte_cfg), dets)
        sort_out = run_tracker(SortTracker(sort_cfg), dets)
        assert byte_out == sort_out


class TestOcSort:
    def test_single_observation_reduces_to_sort_association(self):
        # no motion history: the direction term is zero and association is
        # plain gated IoU, so the two trackers agree frame for frame
        frames = {1: [det(1, 100, 100), det(1, 260, 100)],
                  2: [det(2, 104, 100), det(2, 255, 101)]}
        oc = OcSortTracker(TrackerConfig(kind="ocsort", min_hits=1))
        so = SortTracker(TrackerConfig(kind="sort", min_hits=1))
        for f in (1, 2):
            assert oc.step(f, frames[f]) == so.step(f, frames[f])

    def test_direction_breaks_iou_ties(self):
        # track moving +x, lost one frame; two candidates at exactly equal
        # IoU distance from the last observation, one ahead, one behind
        t = OcSortTracker(TrackerConfig(kind="ocsort", min_hits=1))
        t.step(1, [det(1, 0, 30, w=30, h=60)])
        t.step(2, [det(2, 10, 30, w=30, h=60)])
        t.step(3, [])
        ahead = det(4, 18, 30, w=30, h=60)
        behind = det(4, 2, 30, w=30, h=60)
        out = t.step(4, [behind, ahead])
        by_box = {td.box.x + td.box.w / 2.0: td.track_id for td in out}
        assert by_box[18.0] == 1
        assert by_box[2.0] == 2

    def test_occlusion_recovery_and_replay_matches_explicit_filter(self):
        # linear path, five missed frames, re-detected on the path; the
        # rebuilt filter state must equal one fed the interpolated boxes
        speed = 3.0
        boxes = {f: det(f, 50 + speed * (f - 1), 90) for f in range(1, 10)}
        t = OcSortTracker(TrackerConfig(kind="ocsort", min_hits=1))
        for f in (1, 2, 3):
            out = t.step(f, [boxes[f]])
        for f in (4, 5, 6, 7, 8):
            assert t.step(f, []) == []
        out = t.step(9, [boxes[9]])
        assert [td.track_id for td in out] == [1]

        oracle = MotionFilter()
        mean, cov = oracle.init_state(center_form(boxes[1].box))
        for f in range(2, 10):
            mean, cov = oracle.update(*oracle.predict(mean, cov),
                                      center_form(boxes[f].box))
        assert [track.id for track in t.tracks] == [1]
        assert np.allclose(t._table.mean[0], mean, atol=1e-8)
        assert np.allclose(t._table.cov[0], cov, atol=1e-8)

    @pytest.mark.parametrize("seed", [4, 5, 6])
    def test_ocm_zero_and_oru_off_equal_sort(self, seed):
        _, dets = generate(random_scenario(seed))
        oc_cfg = TrackerConfig(kind="ocsort", ocm_weight=0.0, oru_enabled=False)
        sort_cfg = TrackerConfig(kind="sort")
        oc_out = run_tracker(OcSortTracker(oc_cfg), dets)
        sort_out = run_tracker(SortTracker(sort_cfg), dets)
        assert oc_out == sort_out


class TestDirectionCosts:
    def test_agrees_with_scalar_oracle(self):
        # np.arccos and math.acos may differ in the last bit, so not bitwise
        rng = np.random.default_rng(11)
        headings = rng.normal(0.0, 5.0, size=(20, 2))
        displacements = rng.normal(0.0, 30.0, size=(20, 15, 2))
        displacements[3, 4] = -headings[3]          # opposite: cost 1
        displacements[5, 6] = 2.0 * headings[5]     # aligned: cost 0
        out = direction_costs(headings, displacements)
        assert out.shape == (20, 15)
        for i in range(20):
            for j in range(15):
                expected = direction_cost_scalar(tuple(headings[i]),
                                                 tuple(displacements[i, j]))
                assert out[i, j] == pytest.approx(expected, abs=1e-12)

    def test_zero_vectors_cost_exactly_zero(self):
        headings = np.array([[0.0, 0.0], [3.0, -4.0]])
        displacements = np.array([[[1.0, 2.0], [-5.0, 0.5]],
                                  [[0.0, 0.0], [-3.0, 4.0]]])
        out = direction_costs(headings, displacements)
        assert out[0, 0] == 0.0 and out[0, 1] == 0.0  # no heading
        assert out[1, 0] == 0.0                       # detection on the last centre
        assert out[1, 1] == pytest.approx(1.0, abs=1e-12)


class TestHistoryBound:
    @pytest.mark.parametrize("kind", ["sort", "bytetrack", "ocsort"])
    def test_history_holds_only_what_association_reads(self, kind):
        cfg = TrackerConfig(kind=kind, min_hits=1)
        tracker = make_tracker(cfg)
        rng = random.Random(3)
        observed = []
        for f in range(1, 501):
            d = det(f, 100.0 + 0.7 * f + rng.uniform(-0.5, 0.5), 200.0)
            out = tracker.step(f, [d])
            assert [td.track_id for td in out] == [1]
            observed.append(d.box)
            for t in tracker.tracks:
                assert len(t.history) <= cfg.ocm_delta_t + 1
        assert len(tracker.tracks) == 1
        if kind == "ocsort":
            # the heading spans the last ocm_delta_t steps of the full path
            ref, last = observed[-1 - cfg.ocm_delta_t], observed[-1]
            heading = tracker._headings(np.array([0]))[0]
            (lx, ly), (rx, ry) = center_form(last)[:2], center_form(ref)[:2]
            assert tuple(heading.tolist()) == (lx - rx, ly - ry)


class TestDegeneratePrediction:
    """A box that shrinks 6 px a frame, then goes unseen, is predicted with
    a negative size; such a track sits association out but stays alive."""

    @staticmethod
    def _shrink_then_reappear(kind):
        tracker = make_tracker(TrackerConfig(kind=kind, min_hits=1))
        sides = range(100, 45, -6)      # 100 px down to 46 px, frames 1-10

        def square(f, side):
            return Detection(f, BoundingBox(500 - side / 2, 500 - side / 2, side, side), 0.9)

        for f, side in enumerate(sides, start=1):
            assert [td.track_id for td in tracker.step(f, [square(f, side)])] == [1]
        for f in range(11, 26):
            assert tracker.step(f, []) == []
        return tracker, tracker.step(26, [square(26, 46)])

    @pytest.mark.parametrize("kind", ["sort", "bytetrack"])
    def test_degenerate_track_is_skipped_and_kept(self, kind):
        tracker, out = self._shrink_then_reappear(kind)
        assert [td.track_id for td in out] == [2]
        assert [(t.id, t.frames_since_update, t.hit_streak) for t in tracker.tracks] \
            == [(1, 16, 0), (2, 0, 1)]
        assert tracker._table.mean[0, 2] < 0.0

    def test_ocsort_retakes_through_its_last_box(self):
        tracker, out = self._shrink_then_reappear("ocsort")
        assert [td.track_id for td in out] == [1]
        assert [(t.id, t.frames_since_update, t.hit_streak) for t in tracker.tracks] \
            == [(1, 0, 1)]


class TestDeterminism:
    @pytest.mark.parametrize("kind", ["sort", "bytetrack", "ocsort"])
    def test_identical_runs_identical_output(self, kind):
        _, dets = generate(random_scenario(7))
        cfg = TrackerConfig(kind=kind, min_hits=2)
        first = run_tracker(make_tracker(cfg), dets)
        second = run_tracker(make_tracker(cfg), dets)
        assert first == second

    @pytest.mark.parametrize("kind", ["sort", "bytetrack", "ocsort"])
    def test_id_uniqueness_across_run(self, kind):
        scenario = random_scenario(8)
        _, dets = generate(scenario)
        tracker = make_tracker(TrackerConfig(kind=kind, min_hits=1, max_age=3))
        id_last_frame = {}
        for f in range(1, scenario.frame_count + 1):
            for td in tracker.step(f, dets.get(f, [])):
                # an id, once it disappears for good, is never re-issued to a
                # new tracklet: emitted frames per id must be contiguous-ish
                # (strictly increasing overall emission is enough here)
                id_last_frame.setdefault(td.track_id, []).append(f)
        for frames in id_last_frame.values():
            assert frames == sorted(frames)
