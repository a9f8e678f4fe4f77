"""Acceptance suite.

One test per criterion; each prints a PASS/FAIL line (run with ``pytest -s
tests/test_acceptance.py`` to see them) and enforces the stated tolerance.
"""

import math
import random
import time
from collections import Counter
from contextlib import contextmanager

import numpy as np
import pytest

from oracles import ScalarKalman, grid_iou, idf1_bruteforce, solve_bruteforce, total_cost
from wintrack.assignment import solve
from wintrack.cli import main
from wintrack.geometry import BoundingBox, box_array, iou_matrix
from wintrack.kalman import (
    DEFAULT_POSITION_WEIGHT,
    DEFAULT_VELOCITY_WEIGHT,
    MotionFilter,
)
from wintrack.metrics import (
    evaluate,
    frames_from_records,
    hota,
    idf1,
    match_clear,
    mota,
)
from wintrack.motio import (
    Detection,
    MotRecord,
    read_results,
    write_detections,
    write_ground_truth,
    write_results,
)
from wintrack.synth import BUNDLED_SUITE, bundled_scenario, generate
from wintrack.trackers import (
    ByteTracker,
    OcSortTracker,
    SortTracker,
    TrackerConfig,
    make_tracker,
    run_tracker,
)
from wintrack.window import WindowedTracker, run_windowed

from conftest import center_form, random_scenario
from test_metrics import random_micro_instance, split_id_case


@contextmanager
def criterion(number: int, title: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:2d} FAIL  {title}")
        raise
    print(f"ACCEPTANCE {number:2d} PASS  {title}")


def test_criterion_1_assignment_optimality():
    with criterion(1, "assignment matches brute force on 2000 gated matrices in <5s"):
        rng = random.Random(20240)
        start = time.perf_counter()
        for trial in range(2000):
            rows = rng.randint(1, 6)
            cols = rng.randint(1, 6)
            m = np.array([[rng.random() for _ in range(cols)] for _ in range(rows)])
            gate = rng.random() if trial % 2 else np.inf
            fast = solve(m, m <= gate)
            slow = solve_bruteforce(m, m <= gate)
            assert len(fast[0]) == len(slow[0])
            assert total_cost(m, *fast) == total_cost(m, *slow)
        elapsed = time.perf_counter() - start
        assert elapsed < 5.0, f"took {elapsed:.2f}s"


def test_criterion_2_iou_oracle():
    with criterion(2, "iou agrees with grid-counting oracle within 1e-3 on 1000 pairs"):
        rng = random.Random(20241)

        def rb():
            return BoundingBox(rng.uniform(0, 30), rng.uniform(0, 30),
                               rng.uniform(10, 30), rng.uniform(10, 30))

        for _ in range(1000):
            a, b = rb(), rb()
            v = iou_matrix(box_array([a]), box_array([b]))[0, 0]
            assert abs(v - grid_iou(a, b)) <= 1e-3
            assert v == iou_matrix(box_array([b]), box_array([a]))[0, 0]
            assert 0.0 <= v <= 1.0
        assert iou_matrix(box_array([rb()]),
                          box_array([rb().translated(1000.0, 0.0)]))[0, 0] == 0.0


def test_criterion_3_kalman_oracles():
    with criterion(3, "scalar-filter oracle to 1e-10; covariance invariants over 1000 cycles"):
        rng = random.Random(20242)
        motion = MotionFilter()
        for _ in range(100):
            x0 = rng.uniform(-100, 100)
            v0 = rng.uniform(-5, 5)
            p = [[rng.uniform(0.2, 5.0), 0.0], [0.0, rng.uniform(0.2, 5.0)]]
            oracle = ScalarKalman(x0, v0, p)
            mean = np.zeros(8)
            mean[0], mean[3], mean[4] = x0, rng.uniform(2.0, 30.0), v0
            cov = np.zeros((3, 4))
            cov[0, 0], cov[2, 0] = p[0][0], p[1][1]
            for _ in range(rng.randint(3, 15)):
                # q comes from the prior height and r from the measured one.
                h = mean[3]
                oracle.predict((DEFAULT_POSITION_WEIGHT * h) ** 2,
                               (DEFAULT_VELOCITY_WEIGHT * h) ** 2)
                mean, cov = motion.predict(mean, cov)
                z = oracle.x + rng.uniform(-3, 3)
                measurement = np.array([z, 0.0, 1.0, rng.uniform(4.0, 30.0)])
                oracle.update(z, (DEFAULT_POSITION_WEIGHT * measurement[3]) ** 2)
                mean, cov = motion.update(mean, cov, measurement)
                assert abs(mean[0] - oracle.x) <= 1e-10
                assert abs(mean[4] - oracle.v) <= 1e-10
                assert abs(cov[0, 0] - oracle.p[0][0]) <= 1e-10
                assert abs(cov[1, 0] - oracle.p[0][1]) <= 1e-10
                assert abs(cov[2, 0] - oracle.p[1][1]) <= 1e-10

        def assert_blocks_psd(cov):
            p00, p01, p11 = cov
            assert np.min(p00) >= 0 and np.min(p11) >= 0
            assert np.min(p00 * p11 - p01 ** 2) >= -1e-9

        mean, cov = motion.init_state(np.array([15.0, 30.0, 30.0, 60.0]))
        for _ in range(1000):
            mean, cov = motion.predict(mean, cov)
            assert_blocks_psd(cov)
            z = center_form(BoundingBox(rng.uniform(-5, 5), rng.uniform(-5, 5),
                                        rng.uniform(20, 40), rng.uniform(50, 70)))
            mean, cov = motion.update(mean, cov, z)
            assert_blocks_psd(cov)


def test_criterion_4_metrics_exactness():
    with criterion(4, "perfect=1.0; split-id micro 0.900/0.500/0.7071; idf1 == brute force x200"):
        for name in ("crossing", "weave"):
            gt, _ = generate(bundled_scenario(name))
            frames = frames_from_records(gt.evaluable())
            report = evaluate(frames, frames)
            for field in ("mota", "motp", "idf1", "hota"):
                assert abs(getattr(report, field) - 1.0) <= 1e-9

        gt, pred = split_id_case()
        assert abs(mota(match_clear(gt, pred)) - 0.900) <= 1e-6
        score, _ = idf1(gt, pred)
        assert abs(score - 0.500) <= 1e-6
        hota_score, _ = hota(gt, pred)
        assert abs(hota_score - math.sqrt(0.5)) <= 1e-6

        rng = random.Random(20243)
        for _ in range(200):
            g, p = random_micro_instance(rng)
            score, counts = idf1(g, p)
            expected, idtp, _, _ = idf1_bruteforce(g, p)
            assert counts.idtp == idtp
            assert abs(score - expected) <= 1e-12


def test_criterion_5_tracker_degeneracies(tmp_path):
    with criterion(5, "collapsed ByteTrack == SORT, neutered OC-SORT == SORT (byte-for-byte x20); ORU replay to 1e-8"):
        for seed in range(20):
            _, dets = generate(random_scenario(1000 + seed))
            sort_out = run_tracker(SortTracker(TrackerConfig(kind="sort")), dets)
            byte_out = run_tracker(
                ByteTracker(TrackerConfig(kind="bytetrack",
                                          high_conf_threshold=0.0,
                                          low_conf_threshold=0.0)), dets)
            oc_out = run_tracker(
                OcSortTracker(TrackerConfig(kind="ocsort", ocm_weight=0.0,
                                            oru_enabled=False)), dets)

            def rendered(tracked, name):
                path = tmp_path / name
                write_results(path, sorted(tracked, key=lambda t: (t.frame, t.track_id)))
                return path.read_bytes()

            assert rendered(sort_out, "s.txt") == rendered(byte_out, "b.txt")
            assert rendered(sort_out, "s.txt") == rendered(oc_out, "o.txt")

        # observation-centric re-update equals an explicitly replayed filter
        speed = 3.0
        boxes = {f: Detection(f, BoundingBox(50 + speed * (f - 1) - 20, 50, 40, 80), 1.0)
                 for f in range(1, 10)}
        tracker = OcSortTracker(TrackerConfig(kind="ocsort", min_hits=1))
        for f in range(1, 9):
            tracker.step(f, [boxes[f]] if f <= 3 else [])
        out = tracker.step(9, [boxes[9]])
        assert [td.track_id for td in out] == [1]
        motion = MotionFilter()
        mean, cov = motion.init_state(center_form(boxes[1].box))
        for f in range(2, 10):
            mean, cov = motion.update(*motion.predict(mean, cov),
                                      center_form(boxes[f].box))
        assert [track.id for track in tracker.tracks] == [1]
        assert np.max(np.abs(tracker._table.mean[0] - mean)) <= 1e-8
        assert np.max(np.abs(tracker._table.cov[0] - cov)) <= 1e-8


def _idf1_for(gt_frames, tracked):
    score, _ = idf1(gt_frames, frames_from_records(tracked))
    return score


def _idsw_for(gt_frames, tracked):
    return match_clear(gt_frames, frames_from_records(tracked)).idsw


def _windowed_run(cfg_l1, cfg_l2, k, dets):
    wt = WindowedTracker(make_tracker(cfg_l1), make_tracker(cfg_l2), k)
    return run_windowed(wt, dets)


def test_criterion_6_window_correction():
    with criterion(6, "id-switch scene: windowed k=2,3 strictly fewer IDSW and higher IDF1 than baseline"):
        gt, dets = generate(bundled_scenario("idswitch"))
        gt_frames = frames_from_records(gt.evaluable())
        cfg_l1 = TrackerConfig(kind="sort", min_hits=1)
        cfg_l2 = TrackerConfig(kind="bytetrack", min_hits=1)
        baseline = run_tracker(make_tracker(cfg_l1), dets)
        base_idsw = _idsw_for(gt_frames, baseline)
        base_idf1 = _idf1_for(gt_frames, baseline)
        assert base_idsw >= 1
        for k in (2, 3):
            corrected = _windowed_run(cfg_l1, cfg_l2, k, dets)
            assert _idsw_for(gt_frames, corrected) < base_idsw
            assert _idf1_for(gt_frames, corrected) > base_idf1


def test_criterion_7_state_holding_ratio():
    with criterion(7, "12-frame occlusion: SORT max_age=5 re-ids, windowed k=3 preserves the id"):
        _, dets = generate(bundled_scenario("occlusion"))
        cfg = TrackerConfig(kind="sort", max_age=5, min_hits=1)
        solo = run_tracker(make_tracker(cfg), dets)
        pre = {td.track_id for td in solo if td.frame < 25}
        post = {td.track_id for td in solo if td.frame > 36}
        assert pre.isdisjoint(post)

        corrected = _windowed_run(cfg, TrackerConfig(kind="sort", max_age=5,
                                                     min_hits=1), 3, dets)
        pre = {td.track_id for td in corrected if td.frame < 25}
        post = {td.track_id for td in corrected if td.frame > 36}
        assert pre == post and len(pre) == 1


def test_criterion_8_k_degradation_direction():
    with criterion(8, "k=10 never beats best of k in {2,3} on IDF1 across the bundled suite"):
        cfg_l1 = TrackerConfig(kind="sort", min_hits=1)
        cfg_l2 = TrackerConfig(kind="bytetrack", min_hits=1)
        for name in BUNDLED_SUITE:
            gt, dets = generate(bundled_scenario(name))
            gt_frames = frames_from_records(gt.evaluable())
            scores = {
                k: _idf1_for(gt_frames, _windowed_run(cfg_l1, cfg_l2, k, dets))
                for k in (2, 3, 10)
            }
            assert scores[10] <= max(scores[2], scores[3]) + 1e-12, (name, scores)


def test_criterion_9_io_stability_and_content_preservation(tmp_path):
    with criterion(9, "write-read-write byte stability x50; windowed output changes ids only"):
        rng = random.Random(20249)
        for i in range(50):
            gt, _ = generate(random_scenario(2000 + i))
            rows = [MotRecord(r.frame, r.track_id, r.box, round(rng.random(), 6))
                    for r in gt.records]
            rows.sort(key=lambda td: (td.frame, td.track_id))
            first = tmp_path / f"a{i}.txt"
            second = tmp_path / f"b{i}.txt"
            write_results(first, rows)
            write_results(second, read_results(first).records)
            assert first.read_bytes() == second.read_bytes()

        key = lambda td: (td.frame, td.box.x, td.box.y, td.box.w, td.box.h,
                          td.confidence)
        for name in BUNDLED_SUITE:
            _, dets = generate(bundled_scenario(name))
            cfg = TrackerConfig(kind="sort", min_hits=1)
            solo = run_tracker(make_tracker(cfg), dets)
            corrected = _windowed_run(cfg, TrackerConfig(kind="bytetrack",
                                                         min_hits=1), 3, dets)
            assert Counter(map(key, solo)) == Counter(map(key, corrected))


def test_criterion_10_end_to_end_sweep(tmp_path, capsys):
    with criterion(10, "sweep over the bundled suite <60s; baseline row equals track+eval"):
        start = time.perf_counter()
        baseline_rows = {}
        for name in BUNDLED_SUITE:
            gt, dets = generate(bundled_scenario(name))
            scene = tmp_path / name
            scene.mkdir()
            write_ground_truth(scene / "gt.txt", gt)
            write_detections(scene / "det.txt", dets)
            code = main(["sweep", "--det", str(scene / "det.txt"),
                         "--gt", str(scene / "gt.txt"),
                         "--l1", "sort", "--l2", "bytetrack", "--format", "csv"])
            assert code == 0
            lines = capsys.readouterr().out.strip().split("\n")
            assert len(lines) == 6  # header + baseline + k in {2,3,5,10}
            baseline_rows[name] = lines[1]

        for name in BUNDLED_SUITE:
            scene = tmp_path / name
            res = scene / "res.txt"
            assert main(["track", "--det", str(scene / "det.txt"),
                         "--l1", "sort", "--out", str(res)]) == 0
            assert main(["eval", "--gt", str(scene / "gt.txt"),
                         "--res", str(res), "--format", "csv"]) == 0
            eval_row = capsys.readouterr().out.strip().split("\n")[-1]
            assert baseline_rows[name].split(",")[2:] == eval_row.split(",")[:4]

        elapsed = time.perf_counter() - start
        assert elapsed < 60.0, f"took {elapsed:.2f}s"
