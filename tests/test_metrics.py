import math
import random
import re
import tracemalloc
from collections import Counter

import numpy as np
import pytest

import wintrack.metrics
from conftest import random_scenario
from oracles import (
    clear_per_frame,
    hota_per_alpha,
    identity_per_frame,
    idf1_bruteforce,
    pair_per_frame,
)
from test_golden import dense_crossing_scenario
from wintrack.assignment import crowded
from wintrack.geometry import BoundingBox, iou_matrix
from wintrack.metrics import (
    HOTA_ALPHAS,
    HotaAccumulator,
    IdentityCounts,
    UndefinedMetricError,
    evaluate,
    evaluate_sequences,
    frames_from_records,
    hota,
    identity_f1,
    idf1,
    match_clear,
    mota,
    motp,
)
from wintrack.synth import BUNDLED_SUITE, bundled_scenario, generate
from wintrack.trackers import (
    TRACKER_KINDS,
    TrackerConfig,
    make_tracker,
    run_tracker,
    track_frames,
)
from wintrack.window import WindowedTracker, correct, run_windowed


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
        assert motp(counts) == 0.0

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

    def test_more_matched_frames_beat_more_paired_trajectories(self):
        # Pair counts a-x 10, a-y 1, b-x 1: pairing a-y and b-x pairs both
        # trajectories but scores IDTP 2; a-x alone scores 10.
        a, b, x, y = 1, 2, 11, 12
        gt = {f: [(a, box(50, 50))] for f in range(1, 12)}
        gt[12] = [(b, box(150, 50))]
        pred = {f: [(x, box(50, 50))] for f in range(1, 11)}
        pred[11] = [(y, box(50, 50))]
        pred[12] = [(x, box(150, 50))]
        _, counts = idf1(gt, pred)
        assert (counts.idtp, counts.idfp, counts.idfn) == (10, 2, 2)
        assert counts.idtp == idf1_bruteforce(gt, pred)[1]

    def test_matches_bruteforce_on_random_micro_instances(self):
        rng = random.Random(99)
        for _ in range(60):
            gt, pred = random_micro_instance(rng)
            score, counts = idf1(gt, pred)
            expected_score, idtp, idfp, idfn = idf1_bruteforce(gt, pred)
            assert counts.idtp == idtp
            assert score == pytest.approx(expected_score, abs=1e-12)


class TestIdentity:
    def test_memory_stays_small_with_many_distinct_ids(self):
        # One row per frame and 2,000 distinct ids per side: a dense
        # gt ids x pred ids match matrix and the solver's copies of it
        # would need about 150 MiB.
        n = 2000
        gt = {f: [(f, box(50.0, 50.0))] for f in range(1, n + 1)}
        pred = {f: [(n + f, box(50.0, 50.0))] for f in range(1, n + 1)}
        seq = wintrack.metrics._Pairing(gt, pred)
        tracemalloc.start()
        try:
            counts = wintrack.metrics._identity(seq)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * 2 ** 20
        assert (counts.idtp, counts.idfp, counts.idfn) == (n, 0, 0)

    def test_matches_bruteforce_on_every_pair_graph_shape(self):
        rng = random.Random(28)
        seen = Counter()
        for case in range(1000):
            shape = IDENTITY_SHAPES[case % len(IDENTITY_SHAPES)]
            gt, pred, edges = identity_instance(rng, shape)
            seen[pair_graph_kind(edges, gt, pred)] += 1
            _, idtp, idfp, idfn = idf1_bruteforce(gt, pred)
            assert idf1(gt, pred)[1] == IdentityCounts(idtp, idfp, idfn), (shape, edges)
        # Each kind of pair graph the identity counts tell apart, many times.
        assert min(seen[k] for k in ("star", "mixed stars", "contended", "empty side")) >= 100, seen


# Pair graphs of identity_instance: the edges (gt id, pred id) that match in
# some frame, by shape.
IDENTITY_SHAPES = ("stars", "mixed stars", "swap", "random", "empty side")


def identity_instance(rng: random.Random, shape: str):
    """Up to 5 ids per side over 8 frames, and the {(gt id, pred id): frames
    matched} edges of their pair graph.  Gt id a moves in its own cell, 100 px
    from any other; a pred box on it either matches it (the same box, IoU 1)
    or misses it (shifted 6 px, IoU 0.25).  Unmatched rows of both sides and
    far-off predictions ride along."""
    n_frames, gts, preds = 8, [1, 2, 3, 4, 5], [11, 12, 13, 14, 15]
    rng.shuffle(gts)
    rng.shuffle(preds)

    def weight():
        return rng.choice((1, 1, 2, 3, 6))

    if shape == "stars":  # each a gt split over preds or a pred over gts
        edges = {}
        while gts and preds and rng.random() < 0.8:
            centre, leaves = (gts, preds) if rng.random() < 0.5 else (preds, gts)
            c = centre.pop()
            for _ in range(min(len(leaves), rng.randint(1, 3))):
                leaf = leaves.pop()
                edges[(c, leaf) if centre is gts else (leaf, c)] = weight()
    elif shape == "mixed stars":  # one gt over two preds, one pred over two gts
        (a, b, c), (x, y, z) = gts[:3], preds[:3]
        edges = {(a, x): weight(), (a, y): weight(), (b, z): weight(), (c, z): weight()}
    elif shape == "swap":  # a and b each matched by both x and y
        (a, b), (x, y) = gts[:2], preds[:2]
        edges = {(a, x): weight(), (a, y): weight(), (b, y): weight(), (b, x): weight()}
    elif shape == "random":
        edges = {(a, x): weight() for a in gts[:rng.randint(1, 5)]
                 for x in preds[:rng.randint(1, 5)] if rng.random() < 0.4}
    else:
        edges = {}
    if shape == "empty side" and rng.random() < 0.7:
        n_gt, n_pred = rng.choice(((0, rng.randint(0, 5)), (rng.randint(0, 5), 0)))
    else:
        n_gt, n_pred = rng.randint(0, 3), rng.randint(0, 3)
    gt_ids = sorted({a for a, _ in edges} | set(gts[:n_gt]))
    pred_ids = sorted({x for _, x in edges} | set(preds[:n_pred]))
    gt_at = {a: set() for a in gt_ids}  # frames each id has a row in
    pred_at = {x: set() for x in pred_ids}
    gt = {f: [] for f in range(1, n_frames + 1)}
    pred = {f: [] for f in range(1, n_frames + 1)}
    matched = Counter()
    for (a, x), w in edges.items():
        free = sorted(set(gt) - gt_at[a] - pred_at[x])
        for f in rng.sample(free, min(w, len(free))):
            gt_at[a].add(f)
            pred_at[x].add(f)
            gt[f].append((a, box(100.0 * a, 50.0)))
            pred[f].append((x, box(100.0 * a, 50.0)))
            matched[a, x] += 1
    for a in gt_ids:  # unmatched gt rows, some with a pred box that misses
        for f in sorted(set(gt) - gt_at[a]):
            if rng.random() < 0.3:
                gt[f].append((a, box(100.0 * a, 50.0)))
                free = [x for x in pred_ids if f not in pred_at[x]]
                if free and rng.random() < 0.5:
                    x = rng.choice(free)
                    pred_at[x].add(f)
                    pred[f].append((x, box(100.0 * a + 6.0, 50.0)))
    for x in pred_ids:  # far-off predictions
        for f in sorted(set(pred) - pred_at[x]):
            if rng.random() < 0.1:
                pred[f].append((x, box(50.0 * x, 500.0)))
    return gt, pred, dict(matched)


def pair_graph_kind(edges, gt, pred) -> str:
    if not any(gt.values()) or not any(pred.values()):
        return "empty side"
    deg_g = Counter(a for a, _ in edges)
    deg_p = Counter(x for _, x in edges)
    if any(deg_g[a] > 1 and deg_p[x] > 1 for a, x in edges):
        return "contended"
    if any(d > 1 for d in deg_g.values()) and any(d > 1 for d in deg_p.values()):
        return "mixed stars"
    return "star" if edges else "no match"


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

    def test_memory_stays_small_with_many_distinct_ids(self):
        # One row per frame and 2,000 distinct ids per side: an index over
        # every (alpha, gt id, pred id) would need about 600 MiB.
        n = 2000
        gt = {f: [(f, box(50.0, 50.0))] for f in range(1, n + 1)}
        pred = {f: [(n + f, box(50.0, 50.0))] for f in range(1, n + 1)}
        seq = wintrack.metrics._Pairing(gt, pred)
        tracemalloc.start()
        try:
            acc = wintrack.metrics._hota(seq)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 32 * 2 ** 20
        assert acc.tp.tolist() == acc.ass_sum.tolist() == [float(n)] * len(HOTA_ALPHAS)

    def test_alpha_grid(self):
        assert len(HOTA_ALPHAS) == 19
        assert HOTA_ALPHAS[0] == 0.05 and HOTA_ALPHAS[-1] == 0.95


def contended_gt_frame():
    """One gt box overlapped by two predictions, at IoU 48.5/151.5 = 0.3201
    (id 7) and 76.5/123.5 = 0.6194 (id 8): 10x10 boxes shifted 5.15 px
    right and 2.35 px left of it."""
    gt = {1: [(1, BoundingBox(0.0, 0.0, 10.0, 10.0))]}
    pred = {1: [(7, BoundingBox(5.15, 0.0, 10.0, 10.0)),
                (8, BoundingBox(-2.35, 0.0, 10.0, 10.0))]}
    return gt, pred


def crossed_two_by_two():
    """Frame 1: gt 1 overlaps pred 11 at IoU 9/11 = 0.818 and pred 12 at
    4.5/15.5 = 0.290; gt 2 overlaps pred 11 at 6/14 = 0.429 and misses
    pred 12.  Frame 2 repeats gt 1 and pred 11 alone."""
    g1, g2 = BoundingBox(0.0, 0.0, 10.0, 10.0), BoundingBox(5.0, 0.0, 10.0, 10.0)
    p11, p12 = BoundingBox(1.0, 0.0, 10.0, 10.0), BoundingBox(-5.5, 0.0, 10.0, 10.0)
    gt = {1: [(1, g1), (2, g2)], 2: [(1, g1)]}
    pred = {1: [(11, p11), (12, p12)], 2: [(11, p11)]}
    return gt, pred


def count_solver_calls(monkeypatch) -> list:
    calls = []
    match = wintrack.metrics._match_pairs

    def counted(overlap, threshold):
        calls.append(threshold)
        return match(overlap, threshold)

    monkeypatch.setattr(wintrack.metrics, "_match_pairs", counted)
    return calls


class TestHotaContended:
    """Frames where some alphas admit pairs that share a row or a column,
    with per-alpha counts derived by hand.  No IoU lies on the alpha grid."""

    def test_one_gt_two_predictions(self):
        _, acc = hota(*contended_gt_frame())
        # 0.05-0.30: both admitted, one matched; 0.35-0.60: only id 8
        # admitted; 0.65-0.95: none.
        assert acc.tp.tolist() == [1] * 12 + [0] * 7
        assert acc.fn.tolist() == [0] * 12 + [1] * 7
        assert acc.fp.tolist() == [1] * 12 + [2] * 7
        assert acc.ass_sum.tolist() == acc.tp.tolist()

    def test_maximum_matching_beats_the_best_pair(self):
        _, acc = hota(*crossed_two_by_two())
        # 0.05-0.25: frame 1 matches (1, 12) and (2, 11), where taking the
        # 0.818 pair first would match one; frame 2 matches (1, 11).
        # Lengths: gt 1 and pred 11 two frames each, gt 2 and pred 12 one.
        # A(1, 12) = 1/2, A(2, 11) = 1/2, A(1, 11) = 1/3.
        # 0.30-0.40: gt 1 and gt 2 contend for pred 11; the higher IoU wins,
        # so (1, 11) holds in both frames: A = 2 * 2/2.
        # 0.45-0.80: (1, 11) only.  0.85-0.95: nothing.
        assert acc.tp.tolist() == [3] * 5 + [2] * 3 + [2] * 8 + [0] * 3
        assert acc.fn.tolist() == [0] * 5 + [1] * 3 + [1] * 8 + [3] * 3
        assert acc.fp.tolist() == [0] * 5 + [1] * 3 + [1] * 8 + [3] * 3
        assert acc.ass_sum.tolist() == pytest.approx(
            [0.5 + 0.5 + 1 / 3] * 5 + [2.0] * 11 + [0.0] * 3, abs=1e-15)


class TestHotaSolverCalls:
    """The solver runs only at alphas whose admissible pairs share a row or
    a column; elsewhere those pairs are the one maximum matching."""

    def test_apart_targets_never_call_the_solver(self, monkeypatch):
        calls = count_solver_calls(monkeypatch)
        gt = {f: [(1, box(50.0, 50.0)), (2, box(80.0, 50.0))] for f in range(1, 6)}
        pred = {f: [(5, box(51.0, 50.0)), (6, box(80.0, 52.0)), (9, box(300.0, 50.0))]
                for f in range(1, 6)}
        score, _ = hota(gt, pred)
        assert calls == []
        assert score > 0.5

    def test_contended_frame_calls_the_solver_at_its_six_low_alphas(self, monkeypatch):
        calls = count_solver_calls(monkeypatch)
        hota(*contended_gt_frame())
        assert calls == list(HOTA_ALPHAS[:6])

    def test_two_by_two_calls_the_solver_in_its_crowded_frame_only(self, monkeypatch):
        calls = count_solver_calls(monkeypatch)
        hota(*crossed_two_by_two())
        assert calls == list(HOTA_ALPHAS[:8])


def level1_run(kind, dets):
    """A level-1 tracker of the kind and the (frame, rows) pairs it emits."""
    level1 = make_tracker(TrackerConfig(kind=kind))
    return level1, list(track_frames(level1, dets))


def assert_hota_equals_oracle(gt, pred):
    _, acc = hota(gt, pred)
    expected = hota_per_alpha(pair_per_frame(gt, pred))
    for got, want in zip((acc.tp, acc.fn, acc.fp, acc.ass_sum), expected):
        assert got.tobytes() == want.tobytes()


class TestHotaOracle:
    """tp, fn, fp and ass_sum equal, bit for bit, the solver run on every
    frame, once per distinct admissible mask, with running pair counts."""

    @pytest.mark.parametrize("seed", range(10))
    def test_random_scenarios_solo_and_windowed(self, seed):
        gt, dets = generate(random_scenario(seed))
        gt_frames = frames_from_records(gt.evaluable())
        for kind in TRACKER_KINDS:
            level1, frames = level1_run(kind, dets)
            solo = [td for _, rows in frames for td in rows]
            windowed = correct(WindowedTracker(
                level1, make_tracker(TrackerConfig(kind="bytetrack")), 3), frames)
            for out in (solo, windowed):
                assert_hota_equals_oracle(gt_frames, frames_from_records(out))

    def test_dense_crossing_windowed(self, monkeypatch):
        gt, dets = generate(dense_crossing_scenario())
        out = run_windowed(WindowedTracker(
            make_tracker(TrackerConfig(kind="ocsort")),
            make_tracker(TrackerConfig(kind="bytetrack")), 3), dets)
        calls = count_solver_calls(monkeypatch)
        assert_hota_equals_oracle(frames_from_records(gt.evaluable()),
                                  frames_from_records(out))
        assert len(calls) > 100  # many crowded alphas are exercised


class TestClearSolverCalls:
    """CLEAR calls the solver only in a frame where two pairs at its
    threshold share a row or a column; elsewhere those pairs are the
    frame's new matches."""

    def test_scene_without_a_contended_frame_never_calls_the_solver(self, monkeypatch):
        gt, dets = generate(bundled_scenario("idswitch"))
        gt_frames = frames_from_records(gt.evaluable())
        pred = frames_from_records(run_tracker(make_tracker(TrackerConfig(kind="sort")), dets))
        assert not any(crowded(overlap >= 0.5)
                       for _, _, overlap in pair_per_frame(gt_frames, pred) if overlap.size)
        calls = count_solver_calls(monkeypatch)
        counts = match_clear(gt_frames, pred)
        assert calls == []
        assert counts.tp > 0 and counts.idsw > 0

    def test_one_contended_frame_is_solved_alone(self, monkeypatch):
        # Frame 1: gt 1 overlaps pred 7 at IoU 80/120 = 2/3 and pred 8 at
        # 90/110 = 9/11; the solver keeps the larger, (1, 8).  Frame 2: pred 8
        # is gone and (1, 7) is the one pair at 0.5, a new match and a switch.
        g = BoundingBox(0.0, 0.0, 10.0, 10.0)
        p7, p8 = BoundingBox(2.0, 0.0, 10.0, 10.0), BoundingBox(-1.0, 0.0, 10.0, 10.0)
        gt = {1: [(1, g)], 2: [(1, g)]}
        pred = {1: [(7, p7), (8, p8)], 2: [(7, p7)]}
        calls = count_solver_calls(monkeypatch)
        counts = match_clear(gt, pred)
        assert calls == [0.5]
        assert (counts.gt_det, counts.tp, counts.fp, counts.fn, counts.idsw) == (2, 2, 1, 0, 1)
        assert counts.similarity_sum == 90.0 / 110.0 + 80.0 / 120.0


def score_hexes(clear, identity, acc) -> list:
    try:
        mota_hex = mota(clear).hex()
    except UndefinedMetricError:
        mota_hex = None
    return [mota_hex, motp(clear).hex(), identity_f1(identity).hex(), acc.score().hex(),
            float(np.mean(acc.det_a_per_alpha())).hex(),
            float(np.mean(acc.ass_a_per_alpha())).hex()]


def assert_equals_per_frame_oracles(gt, pred):
    """Every count and score equals, bit for bit, the per-frame oracles'."""
    frames = pair_per_frame(gt, pred)
    clear, (_, identity), (_, acc) = match_clear(gt, pred), idf1(gt, pred), hota(gt, pred)
    want_clear, want_identity = clear_per_frame(frames), identity_per_frame(frames)
    want_acc = HotaAccumulator(*hota_per_alpha(frames))
    assert repr(clear) == repr(want_clear)
    assert repr(identity) == repr(want_identity)
    for got, want in zip((acc.tp, acc.fn, acc.fp, acc.ass_sum),
                         (want_acc.tp, want_acc.fn, want_acc.fp, want_acc.ass_sum)):
        assert got.tobytes() == want.tobytes()
    scores = score_hexes(clear, identity, acc)
    assert scores == score_hexes(want_clear, want_identity, want_acc)
    if clear.gt_det:
        report = evaluate(gt, pred)
        assert [float(getattr(report, f)).hex() for f in
                ("mota", "motp", "idf1", "hota", "det_a", "ass_a")] == scores


def differential_scenario(name: str):
    return bundled_scenario(name) if name in BUNDLED_SUITE else random_scenario(int(name))


class TestPerFrameOracles:
    """The metrics read matches off one pairing of the sequence; the oracles
    walk it frame by frame with the solver on every frame."""

    @pytest.mark.parametrize("name", [*BUNDLED_SUITE, *map(str, range(12))])
    def test_scenes_solo_and_windowed(self, name):
        gt, dets = generate(differential_scenario(name))
        gt_frames = frames_from_records(gt.evaluable())
        # One level-1 run per kind: its rows, then their correction at each
        # (k, l2), equal row for row to run_tracker and run_windowed.
        runs = {kind: level1_run(kind, dets) for kind in TRACKER_KINDS}
        outs = [[td for _, rows in frames for td in rows] for _, frames in runs.values()]
        outs += [correct(WindowedTracker(runs[l1][0], make_tracker(TrackerConfig(kind=l2)), k),
                         runs[l1][1])
                 for k in (2, 3, 5) for l1 in TRACKER_KINDS for l2 in TRACKER_KINDS]
        for out in outs:
            assert_equals_per_frame_oracles(gt_frames, frames_from_records(out))

    def test_random_micro_instances(self):
        rng = random.Random(11)
        for _ in range(200):
            assert_equals_per_frame_oracles(*random_micro_instance(rng))

    def test_contended_instances(self):
        # Boxes on a coarse grid: pairs tie and crowd at every threshold.
        rng = random.Random(12)
        for _ in range(200):
            frames = range(1, rng.randint(2, 10))
            gt, pred = ({f: [(i, BoundingBox(rng.choice([0, 1, 2, 3]), rng.choice([0, 1]),
                                             rng.choice([4, 5, 6]), 5.0))
                             for i in rng.sample(range(1, 7), rng.randint(0, 4))]
                         for f in frames} for _ in range(2))
            assert_equals_per_frame_oracles(gt, pred)

    def test_long_contended_instances_carry_matches(self):
        # Up to 30 frames of grid boxes, the predicted ids past int64: crowded
        # frames follow crowded and uncrowded ones, so a match carried into a
        # crowded frame comes from the solver or from a frame's plain cells.
        rng = random.Random(13)
        follows = Counter()
        for _ in range(500):
            frames = range(1, rng.randint(2, 31))
            gt, pred = ({f: [(i + offset, BoundingBox(rng.choice([0, 1, 2, 3]), rng.choice([0, 1]),
                                                      rng.choice([4, 5, 6]), 5.0))
                             for i in rng.sample(range(1, 7), rng.randint(0, 4))]
                         for f in frames} for offset in (0, 2 ** 63))
            paired = pair_per_frame(gt, pred)
            crowd = [bool(crowded(overlap >= 0.5)) if overlap.size else False
                     for _, _, overlap in paired]
            follows.update(zip(crowd, crowd[1:]))
            assert repr(match_clear(gt, pred)) == repr(clear_per_frame(paired))
        assert follows[True, True] > 1000 and follows[False, True] > 1000


class TestEvaluate:
    def test_perfect_report(self):
        gt = single_track(range(1, 11))
        report = evaluate(gt, gt)
        for field in ("mota", "motp", "idf1", "hota", "det_a", "ass_a"):
            assert getattr(report, field) == pytest.approx(1.0, abs=1e-9)

    def test_no_true_positive_is_scored(self):
        # TrackEval's convention: MOTP = similarity / max(1, TP) is 0 without
        # a true positive, and the other scores stay defined.
        gt = single_track(range(1, 6))
        pred = single_track(range(1, 6), ident=7, cx=500.0)
        report = evaluate(gt, pred)
        assert (report.clear.tp, report.clear.fp, report.clear.fn) == (0, 5, 5)
        assert report.motp == 0.0
        assert report.mota == -1.0
        assert report.idf1 == report.hota == 0.0

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

    def test_predicted_id_beyond_int64_scores_like_any_other(self):
        gt, pred = crossed_two_by_two()
        wide = {f: [(2 ** 70 if i == 11 else i, b) for i, b in items]
                for f, items in pred.items()}
        want, got = evaluate(gt, pred), evaluate(gt, wide)
        assert repr(got.clear) == repr(want.clear)
        assert repr(got.identity) == repr(want.identity)
        for field in ("mota", "motp", "idf1", "hota", "det_a", "ass_a"):
            assert getattr(got, field).hex() == getattr(want, field).hex()

    @pytest.mark.parametrize("bad", [float("nan"), True, 1.0, 2.5, "1"])
    def test_non_integer_id_rejected(self, bad):
        # Scored as ids, nan would split into two trajectories and a switch,
        # True and 1.0 would merge with id 1, and 2.5 would be scored.
        b = box(50.0, 50.0)
        gt = {1: [(1, b)], 2: [(1, b)]}
        pred = {1: [(1, b)], 2: [(bad, b)]}
        with pytest.raises(ValueError, match=rf"^prediction: frame 2 has id {re.escape(repr(bad))}, not an integer$"):
            evaluate(gt, pred)
        with pytest.raises(ValueError, match=r"^ground truth: frame 2 has id"):
            evaluate(pred, gt)

    def test_numpy_integer_ids_score_like_ints(self):
        gt, pred = crossed_two_by_two()
        wide = {f: [(np.int64(i), b) for i, b in items] for f, items in pred.items()}
        assert repr(evaluate(gt, wide).clear) == repr(evaluate(gt, pred).clear)

    def test_one_iou_matrix_per_frame(self, monkeypatch):
        gt, dets = generate(bundled_scenario("crossing"))
        gt_frames = frames_from_records(gt.evaluable())
        pred = frames_from_records(
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
