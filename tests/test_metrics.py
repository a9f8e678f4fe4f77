import math
import random

import numpy as np
import pytest

import wintrack.metrics
from oracles import idf1_bruteforce
from wintrack.geometry import BoundingBox, iou_matrix
from wintrack.metrics import (
    HOTA_ALPHAS,
    UndefinedMetricError,
    evaluate,
    evaluate_sequences,
    frames_from_records,
    frames_from_tracked,
    hota,
    idf1,
    match_clear,
    mota,
    motp,
    report_csv,
    report_table,
)
from wintrack.synth import bundled_scenario, generate
from wintrack.trackers import TrackerConfig, make_tracker, run_tracker


def box(cx, cy, w=10.0, h=10.0):
    return BoundingBox(cx - w / 2, cy - h / 2, w, h)


def single_track(frames, ident=1, cx=50.0, cy=50.0):
    return {f: [(ident, box(cx, cy))] for f in frames}


def split_id_case():
    """One 10-frame ground-truth track; the prediction switches id at frame 6
    with geometry untouched."""
    gt = single_track(range(1, 11))
    pred = {f: [(101 if f <= 5 else 102, box(50.0, 50.0))] for f in range(1, 11)}
    return gt, pred


def second_of_two_sequences(gt, pred):
    return evaluate_sequences([(pred, pred), (gt, pred)])


# Every public entry point that scores (gt, pred) frames.
ENTRY_POINTS = [evaluate, match_clear, idf1, hota]
ENTRY_IDS = ["evaluate", "match_clear", "idf1", "hota"]


class TestClear:
    def test_perfect_prediction(self):
        gt = single_track(range(1, 11))
        counts = match_clear(gt, gt)
        assert (counts.tp, counts.fp, counts.fn, counts.idsw) == (10, 0, 0, 0)
        assert counts.gt_det == 10
        assert mota(counts) == 1.0
        assert motp(counts) == 1.0

    def test_split_id_micro_case(self):
        gt, pred = split_id_case()
        counts = match_clear(gt, pred)
        assert counts.idsw == 1
        assert (counts.fp, counts.fn) == (0, 0)
        assert mota(counts) == pytest.approx(0.9, abs=1e-12)

    def test_empty_predictions(self):
        gt = single_track(range(1, 6))
        counts = match_clear(gt, {})
        assert counts.fn == counts.gt_det == 5
        assert mota(counts) == 0.0
        with pytest.raises(UndefinedMetricError):
            motp(counts)

    def test_mota_can_go_negative(self):
        gt = single_track(range(1, 3))
        pred = {f: [(9, box(500.0, 500.0)), (8, box(600.0, 500.0))]
                for f in range(1, 3)}
        counts = match_clear(gt, pred)
        assert mota(counts) < 0.0

    def test_mota_undefined_without_ground_truth(self):
        counts = match_clear({}, single_track(range(1, 3)))
        with pytest.raises(UndefinedMetricError):
            mota(counts)

    def test_match_persistence_resists_a_better_newcomer(self):
        # an established correspondence survives even though a new prediction
        # overlaps the target better in the second frame
        g = box(50.0, 50.0)
        offset = box(51.0, 50.0)
        gt = {1: [(1, g)], 2: [(1, g)]}
        pred = {1: [(7, offset)], 2: [(7, offset), (8, g)]}
        counts = match_clear(gt, pred)
        assert counts.idsw == 0
        assert counts.tp == 2
        assert counts.fp == 1
        assert counts.similarity_sum == pytest.approx(2 * (9 / 11))

    def test_switch_counted_across_observation_gap(self):
        gt = single_track(range(1, 7))
        pred = {1: [(5, box(50.0, 50.0))], 2: [(5, box(50.0, 50.0))],
                4: [(6, box(50.0, 50.0))], 5: [(6, box(50.0, 50.0))],
                6: [(6, box(50.0, 50.0))]}
        counts = match_clear(gt, pred)
        assert counts.idsw == 1


class TestIdf1:
    def test_perfect(self):
        gt = single_track(range(1, 11))
        score, counts = idf1(gt, gt)
        assert score == 1.0
        assert counts.idtp == 10 and counts.idfp == 0 and counts.idfn == 0

    def test_split_id_micro_case(self):
        gt, pred = split_id_case()
        score, counts = idf1(gt, pred)
        assert (counts.idtp, counts.idfn, counts.idfp) == (5, 5, 5)
        assert score == pytest.approx(0.5, abs=1e-12)

    def test_empty_predictions(self):
        gt = single_track(range(1, 6))
        score, counts = idf1(gt, {})
        assert score == 0.0
        assert counts.idtp == 0 and counts.idfn == 5

    def test_matches_bruteforce_on_random_micro_instances(self):
        rng = random.Random(99)
        for _ in range(60):
            gt, pred = random_micro_instance(rng)
            score, counts = idf1(gt, pred)
            expected_score, idtp, idfp, idfn = idf1_bruteforce(gt, pred)
            assert counts.idtp == idtp
            assert score == pytest.approx(expected_score, abs=1e-12)


class TestHota:
    def test_perfect(self):
        gt = single_track(range(1, 11))
        score, acc = hota(gt, gt)
        assert score == pytest.approx(1.0, abs=1e-12)
        assert np.all(acc.det_a_per_alpha() == 1.0)
        assert np.all(acc.ass_a_per_alpha() == 1.0)

    def test_split_id_micro_case(self):
        gt, pred = split_id_case()
        score, acc = hota(gt, pred)
        assert np.allclose(acc.det_a_per_alpha(), 1.0)
        assert np.allclose(acc.ass_a_per_alpha(), 0.5)
        assert score == pytest.approx(math.sqrt(0.5), abs=1e-9)

    def test_false_positive_track_halves_det_a(self):
        gt = single_track(range(1, 5))
        pred = {f: [(1, box(50.0, 50.0)), (2, box(500.0, 500.0))]
                for f in range(1, 5)}
        score, acc = hota(gt, pred)
        assert np.allclose(acc.det_a_per_alpha(), 0.5)
        assert np.allclose(acc.ass_a_per_alpha(), 1.0)
        assert score == pytest.approx(math.sqrt(0.5), abs=1e-9)

    def test_empty_predictions(self):
        gt = single_track(range(1, 5))
        score, acc = hota(gt, {})
        assert score == 0.0

    def test_alpha_grid(self):
        assert len(HOTA_ALPHAS) == 19
        assert HOTA_ALPHAS[0] == 0.05 and HOTA_ALPHAS[-1] == 0.95


class TestEvaluate:
    def test_perfect_report(self):
        gt = single_track(range(1, 11))
        report = evaluate(gt, gt)
        for field in ("mota", "motp", "idf1", "hota", "det_a", "ass_a"):
            assert getattr(report, field) == pytest.approx(1.0, abs=1e-9)

    def test_pooling_uses_counts_not_score_means(self):
        gt_a = single_track(range(1, 31))
        gt_b = single_track(range(1, 11))
        pred_b = {f: [(1, box(50.0, 50.0))] for f in range(1, 6)}
        pooled = evaluate_sequences([(gt_a, gt_a), (gt_b, pred_b)])
        mota_a = evaluate(gt_a, gt_a).mota
        mota_b = evaluate(gt_b, pred_b).mota
        assert pooled.mota == pytest.approx(1.0 - 5 / 40, abs=1e-12)
        assert pooled.mota != pytest.approx((mota_a + mota_b) / 2, abs=1e-6)
        assert pooled.clear.gt_det == 40

    def test_report_internal_identities(self):
        rng = random.Random(5)
        for _ in range(20):
            gt, pred = random_micro_instance(rng)
            if not gt or not any(gt.values()):
                continue
            counts = match_clear(gt, pred)
            if counts.tp == 0:
                continue
            report = evaluate(gt, pred)
            c, i = report.clear, report.identity
            assert c.tp + c.fn == c.gt_det
            assert report.mota == pytest.approx(
                1 - (c.fn + c.fp + c.idsw) / c.gt_det, abs=1e-12)
            denom = i.idtp + 0.5 * (i.idfn + i.idfp)
            assert report.idf1 == pytest.approx(i.idtp / denom if denom else 0.0,
                                                abs=1e-12)

    @pytest.mark.parametrize("score", ENTRY_POINTS, ids=ENTRY_IDS)
    def test_repeated_predicted_id_in_a_frame_rejected(self, score):
        # read row by row, CLEAR and HOTA would count both rows and a map
        # from id to box would keep one
        a = box(50.0, 50.0)
        gt = {1: [(1, a)], 2: [(1, a)]}
        pred = {1: [(7, a), (7, a)], 2: [(7, a)]}
        with pytest.raises(ValueError, match=r"prediction.* frame 1 .*id 7"):
            score(gt, pred)

    @pytest.mark.parametrize("score", ENTRY_POINTS + [second_of_two_sequences],
                             ids=ENTRY_IDS + ["evaluate_sequences"])
    def test_repeated_ground_truth_id_rejected_in_any_sequence(self, score):
        gt = single_track(range(1, 4))
        bad = {1: [(1, box(50.0, 50.0))], 3: [(2, box(0, 0)), (2, box(20, 20))]}
        with pytest.raises(ValueError, match=r"ground truth.* frame 3 .*id 2"):
            score(bad, gt)

    def test_one_iou_matrix_per_frame(self, monkeypatch):
        gt, dets = generate(bundled_scenario("crossing"))
        gt_frames = frames_from_records(gt.evaluable())
        pred = frames_from_tracked(
            run_tracker(make_tracker(TrackerConfig(kind="sort")), dets))
        calls = []

        def counted(a, b):
            calls.append(1)
            return iou_matrix(a, b)

        monkeypatch.setattr(wintrack.metrics, "iou_matrix", counted)
        evaluate(gt_frames, pred)
        assert len(calls) == len(gt_frames.keys() | pred.keys())

    def test_idtp_bounded_by_clear_tp(self):
        rng = random.Random(6)
        for _ in range(30):
            gt, pred = random_micro_instance(rng)
            counts = match_clear(gt, pred)
            _, identity = idf1(gt, pred)
            assert identity.idtp <= counts.tp


class TestInvariances:
    def test_uniform_scaling_leaves_scores_unchanged(self):
        rng = random.Random(7)
        gt, pred = random_micro_instance(rng, ensure_content=True)
        base = evaluate(gt, pred)
        factor = 2.5

        def scale(frames):
            return {
                f: [(i, BoundingBox(b.x * factor, b.y * factor,
                                    b.w * factor, b.h * factor))
                    for i, b in items]
                for f, items in frames.items()
            }

        scaled = evaluate(scale(gt), scale(pred))
        for field in ("mota", "motp", "idf1", "hota", "det_a", "ass_a"):
            assert getattr(scaled, field) == pytest.approx(
                getattr(base, field), abs=1e-9)

    def test_pred_id_relabeling_leaves_scores_unchanged(self):
        rng = random.Random(8)
        gt, pred = random_micro_instance(rng, ensure_content=True)
        base = evaluate(gt, pred)
        relabeled = {
            f: [(i * 13 + 7, b) for i, b in items] for f, items in pred.items()
        }
        out = evaluate(gt, relabeled)
        for field in ("mota", "motp", "idf1", "hota", "det_a", "ass_a"):
            assert getattr(out, field) == getattr(base, field)


class TestRendering:
    def test_table_has_one_decimal_percentages(self):
        gt = single_track(range(1, 11))
        text = report_table(evaluate(gt, gt))
        assert "MOTA       100.0" in text.replace("  ", " ") or "100.0" in text
        assert "gtDet" in text

    def test_csv_round_trip(self):
        gt, pred = split_id_case()
        text = report_csv(evaluate(gt, pred))
        header, row = text.strip().split("\n")
        cells = dict(zip(header.split(","), row.split(",")))
        assert cells["mota"] == "90.0"
        assert cells["idf1"] == "50.0"
        assert cells["hota"] == "70.7"
        assert cells["idsw"] == "1"


def random_micro_instance(rng: random.Random, ensure_content: bool = False):
    """Up to 3 tracks over up to 8 frames, with id relabeling, jitter large
    enough to cross the matching threshold, dropouts and false positives."""
    while True:
        frames = rng.randint(1, 8)
        gt = {f: [] for f in range(1, frames + 1)}
        pred = {f: [] for f in range(1, frames + 1)}
        n_tracks = rng.randint(0, 3)
        fp_id = 900
        for gid in range(1, n_tracks + 1):
            cx = rng.uniform(0, 40)
            cy = rng.uniform(0, 40)
            vx = rng.uniform(-2, 2)
            switch_at = rng.randint(1, frames + 1)
            for f in range(1, frames + 1):
                if rng.random() < 0.15:
                    continue
                g = box(cx + vx * f, cy, 12, 12)
                gt[f].append((gid, g))
                if rng.random() < 0.2:
                    continue
                jitter = rng.uniform(-7, 7)
                pid = gid + (100 if f >= switch_at else 0)
                pred[f].append((pid, box(cx + vx * f + jitter, cy, 12, 12)))
        for f in range(1, frames + 1):
            if rng.random() < 0.1:
                fp_id += 1
                pred[f].append((fp_id, box(rng.uniform(100, 200), 150, 12, 12)))
        if not ensure_content:
            return gt, pred
        if any(gt.values()) and any(pred.values()):
            counts = match_clear(gt, pred)
            if counts.tp > 0:
                return gt, pred
