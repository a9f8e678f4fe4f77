import math

import pytest

from wintrack.metrics import (
    evaluate,
    frames_from_records,
    match_clear,
)
from wintrack.synth import (
    BUNDLED_SCENARIOS,
    BUNDLED_SUITE,
    NoiseSpec,
    Scenario,
    ScenarioError,
    TargetSpec,
    bundled_scenario,
    generate,
    load_scenario,
)
from wintrack.trackers import TrackerConfig, make_tracker, run_tracker


def plain_scenario(**kwargs):
    defaults = dict(
        name="plain", seed=3, frame_count=20,
        targets=(
            TargetSpec(((1, 60.0, 80.0), (20, 90.0, 80.0)), 30.0, 60.0),
            TargetSpec(((1, 200.0, 200.0), (20, 230.0, 200.0)), 30.0, 60.0),
        ),
    )
    defaults.update(kwargs)
    return Scenario(**defaults)


class TestGenerate:
    def test_zero_noise_detections_equal_ground_truth(self):
        gt, dets = generate(plain_scenario())
        flat = [d for frame in sorted(dets) for d in dets[frame]]
        assert len(flat) == len(gt.records)
        for record, d in zip(gt.records, flat):
            assert d.frame == record.frame
            assert d.box == record.box
            assert d.confidence == 1.0

    def test_scheduled_dropout_removes_detections(self):
        scenario = plain_scenario(
            noise=NoiseSpec(dropout_windows=((1, 10, 15, 1.0),))
        )
        gt, dets = generate(scenario)
        target1_frames = {
            f for f in dets for d in dets[f]
            if abs(d.box.y + d.box.h / 2.0 - 80.0) < 1.0
        }
        assert target1_frames.isdisjoint(range(10, 16))
        # ground truth keeps the occluded rows
        assert sum(1 for r in gt.records if r.track_id == 1) == 20

    def test_confidence_dip_schedule(self):
        scenario = plain_scenario(
            noise=NoiseSpec(confidence_dips=((2, 5, 8, 0.25),))
        )
        _, dets = generate(scenario)
        for f in range(5, 9):
            confs = sorted(d.confidence for d in dets[f])
            assert confs == [0.25, 1.0]

    def test_fixed_seed_is_deterministic(self):
        scenario = plain_scenario(noise=NoiseSpec(jitter_std=1.0, dropout=0.1))
        gt1, dets1 = generate(scenario)
        gt2, dets2 = generate(scenario)
        assert gt1 == gt2
        assert dets1 == dets2

    def test_hidden_ranges_remove_ground_truth_too(self):
        scenario = plain_scenario(
            targets=(
                TargetSpec(((1, 60.0, 80.0), (20, 90.0, 80.0)), 30.0, 60.0,
                           hidden=((6, 9),)),
            ),
        )
        gt, dets = generate(scenario)
        frames = {r.frame for r in gt.records}
        assert frames.isdisjoint(range(6, 10))

    def test_clean_scene_is_perfectly_trackable(self):
        gt, dets = generate(plain_scenario())
        tracker = make_tracker(TrackerConfig(kind="sort", min_hits=1))
        tracked = run_tracker(tracker, dets)
        report = evaluate(frames_from_records(gt.evaluable()),
                          frames_from_records(tracked))
        assert report.mota == pytest.approx(1.0, abs=1e-9)
        assert report.idf1 == pytest.approx(1.0, abs=1e-9)


class TestValidation:
    def test_waypoints_must_increase(self):
        with pytest.raises(ScenarioError):
            TargetSpec(((5, 0.0, 0.0), (5, 1.0, 1.0)), 10.0, 10.0)

    def test_dropout_must_be_probability(self):
        with pytest.raises(ScenarioError):
            NoiseSpec(dropout=1.5)

    @pytest.mark.parametrize("jitter_std", [math.nan, math.inf, -0.5])
    def test_jitter_std_must_be_finite_and_non_negative(self, jitter_std):
        with pytest.raises(ScenarioError, match="jitter_std"):
            NoiseSpec(jitter_std=jitter_std)

    @pytest.mark.parametrize("field, value", [
        ("width", math.nan), ("width", math.inf), ("height", math.nan),
        ("height", -1.0),
    ])
    def test_box_side_must_be_finite_and_positive(self, field, value):
        sides = {"width": 10.0, "height": 10.0, field: value}
        with pytest.raises(ScenarioError, match=field):
            TargetSpec(((1, 0.0, 0.0),), **sides)

    @pytest.mark.parametrize("waypoint", [(1, math.nan, 100.0), (1, 0.0, -math.inf)])
    def test_waypoint_coordinates_must_be_finite(self, waypoint):
        with pytest.raises(ScenarioError, match="waypoint"):
            TargetSpec((waypoint,), 10.0, 10.0)

    @pytest.mark.parametrize("frame_count", [math.nan, 2.5, 0, "10", True])
    def test_frame_count_must_be_an_integer_at_least_one(self, frame_count):
        with pytest.raises(ScenarioError, match="frame_count"):
            plain_scenario(frame_count=frame_count)

    def test_noise_must_reference_existing_target(self):
        with pytest.raises(ScenarioError, match="unknown target"):
            plain_scenario(noise=NoiseSpec(confidence_dips=((9, 1, 2, 0.5),)))


class TestConfigFiles:
    GOOD = """
[scenario]
name = demo
seed = 5
frames = 30

[target 1]
waypoints = 1:50:60 30:110:60
width = 30
height = 60
hidden = 10-12

[target 2]
waypoints = 1:200:200 30:140:200
width = 24
height = 48

[noise]
jitter_std = 0.5
dropout = 0.02
dropout_windows = 2:5-7:1.0
confidence_dips = 1:20-22:0.3
"""

    def test_load_full_config(self, tmp_path):
        p = tmp_path / "demo.ini"
        p.write_text(self.GOOD)
        scenario = load_scenario(p)
        assert scenario.name == "demo"
        assert scenario.frame_count == 30
        assert len(scenario.targets) == 2
        assert scenario.targets[0].hidden == ((10, 12),)
        assert scenario.noise.dropout_windows == ((2, 5, 7, 1.0),)
        generate(scenario)

    def test_unknown_key_named_in_error(self, tmp_path):
        p = tmp_path / "bad.ini"
        p.write_text("[scenario]\nframes = 10\nspeed = 3\n")
        with pytest.raises(ScenarioError, match="'speed'"):
            load_scenario(p)

    def test_unknown_section_rejected(self, tmp_path):
        p = tmp_path / "bad.ini"
        p.write_text("[scenario]\nframes = 10\n[camera]\nfov = 90\n")
        with pytest.raises(ScenarioError, match="camera"):
            load_scenario(p)

    def test_target_numbering_must_be_contiguous(self, tmp_path):
        p = tmp_path / "bad.ini"
        p.write_text(
            "[scenario]\nframes = 10\n"
            "[target 2]\nwaypoints = 1:1:1\nwidth = 5\nheight = 5\n"
        )
        with pytest.raises(ScenarioError, match="numbered"):
            load_scenario(p)

    def test_bad_waypoint_format(self, tmp_path):
        p = tmp_path / "bad.ini"
        p.write_text(
            "[scenario]\nframes = 10\n"
            "[target 1]\nwaypoints = 1:1\nwidth = 5\nheight = 5\n"
        )
        with pytest.raises(ScenarioError, match="frame:cx:cy"):
            load_scenario(p)

    def test_missing_frames_key_is_scenario_error(self, tmp_path):
        p = tmp_path / "bad.ini"
        p.write_text("[scenario]\nseed = 1\n")
        with pytest.raises(ScenarioError, match="bad.ini: frame_count"):
            load_scenario(p)


class TestBundled:
    @pytest.mark.parametrize("kind", ["sort", "bytetrack", "ocsort"])
    def test_idswitch_scene_defeats_every_base_tracker(self, kind):
        # the absence is engineered to outlast max_age at default settings,
        # so every per-frame tracker re-identifies the returning person
        gt, dets = generate(bundled_scenario("idswitch"))
        tracked = run_tracker(make_tracker(TrackerConfig(kind=kind)), dets)
        counts = match_clear(frames_from_records(gt.evaluable()),
                             frames_from_records(tracked))
        assert counts.idsw >= 1

    def test_suite_names_resolve(self):
        assert set(BUNDLED_SUITE) <= set(BUNDLED_SCENARIOS)
        for name in BUNDLED_SUITE:
            scenario = bundled_scenario(name)
            gt, dets = generate(scenario)
            assert gt.records
            assert dets

    def test_unknown_name_raises(self):
        with pytest.raises(ScenarioError, match="unknown bundled"):
            bundled_scenario("nope")
