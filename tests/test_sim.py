"""Simulator: parabola sampling, make oracle, season generation, determinism."""

import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from shotarc.factors import compute_shot_factors, fit_path_line
from shotarc.ingest import load_events, load_roster, load_tracking
from shotarc.sim import (
    PressureModel,
    ReleaseState,
    SimConfig,
    TargetCrossing,
    UnreachableTargetError,
    clean_entry_radius_ft,
    make_with_back_rim_capture,
    physical_make_oracle,
    sample_trajectory,
    season_tracking,
    simulate_season,
    write_season,
)
from shotarc.trajectory import fit_trajectory


class TestSampleTrajectory:
    def test_one_second_flight_gives_25_samples(self):
        # choose the geometry so the flight takes exactly one second:
        # T^2 = 2 * (rim_rise + tan(A) * s_cross) / g  with A = 45 deg
        s_cross = (32.174 / 2.0 - 3.0) / 1.0
        release_dist = s_cross   # depth = rim radius -> crossing at rim center
        traj = sample_trajectory(
            ReleaseState((release_dist, 0.0), 7.0),
            TargetCrossing(0.75, 0.0, 45.0),
            np.random.default_rng(0),
        )
        assert traj.flight_time_s == pytest.approx(1.0, abs=1e-12)
        assert traj.n_flight == 25

    def test_sample_count_is_rounded_flight_frames(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            traj = sample_trajectory(
                ReleaseState((rng.uniform(22, 27), rng.uniform(-8, 8)), 7.0),
                TargetCrossing(rng.uniform(0.2, 1.4), rng.uniform(-0.5, 0.5),
                               rng.uniform(36, 55)),
                rng,
            )
            assert traj.n_flight == int(round(traj.flight_time_s * 25.0))

    def test_same_seed_identical_samples(self):
        a = sample_trajectory(ReleaseState((23.75, 2.0), 7.0), TargetCrossing(0.8, 0.1, 45.0),
                              np.random.default_rng(99), noise_sigma_ft=0.1)
        b = sample_trajectory(ReleaseState((23.75, 2.0), 7.0), TargetCrossing(0.8, 0.1, 45.0),
                              np.random.default_rng(99), noise_sigma_ft=0.1)
        np.testing.assert_array_equal(a.points, b.points)

    def test_zero_noise_round_trip_through_pipeline(self):
        rng = np.random.default_rng(5)
        for i in range(40):
            depth = rng.uniform(0.2, 1.4)
            lr = rng.uniform(-0.5, 0.5)
            ang = rng.uniform(38, 54)
            traj = sample_trajectory(
                ReleaseState((rng.uniform(22.5, 26.5), rng.uniform(-10, 10)), 7.0),
                TargetCrossing(depth, lr, ang), rng, extra_frames=2)
            release = traj.points[0, :2]
            fit = fit_trajectory(traj.points, release)
            f = compute_shot_factors(fit, fit_path_line(traj.points))
            assert f.depth_ft == pytest.approx(depth, abs=0.02)
            assert f.left_right_ft == pytest.approx(lr, abs=0.02)
            assert f.entry_angle_deg == pytest.approx(ang, abs=0.2)

    def test_unreachable_geometry_rejected(self):
        rng = np.random.default_rng(0)
        with pytest.raises(UnreachableTargetError):
            sample_trajectory(ReleaseState((2.0, 0.0), 7.0),
                              TargetCrossing(0.75, 3.0, 45.0), rng)


class TestMakeOracle:
    def test_center_crossing_at_45_degrees(self):
        # margin: 0.75 - 0.3938 / sin(45) = 0.193 ft of clearance
        assert physical_make_oracle(0.75, 0.0, 45.0)
        assert clean_entry_radius_ft(45.0) == pytest.approx(0.75 - 0.3938 / math.sin(math.pi / 4))
        assert clean_entry_radius_ft(45.0) == pytest.approx(0.193, abs=5e-4)

    def test_ball_over_rim_edge_misses(self):
        for ang in (35.0, 45.0, 60.0, 90.0):
            assert not physical_make_oracle(0.75, 0.75, ang)

    def test_vertical_drop_center(self):
        # sin(90) = 1: clearance 0.75 - 0.3938 > 0
        assert physical_make_oracle(0.75, 0.0, 90.0)

    def test_shallow_angles_cannot_score(self):
        # below ~31.7 degrees the ball cannot fit cleanly at any location
        assert clean_entry_radius_ft(30.0) < 0
        assert not physical_make_oracle(0.75, 0.0, 30.0)

    def test_angle_domain_enforced(self):
        with pytest.raises(ValueError):
            physical_make_oracle(0.75, 0.0, 0.0)

    @given(st.floats(0.0, 1.6), st.floats(-0.8, 0.8), st.floats(33.0, 90.0),
           st.floats(0.0, 0.99))
    @settings(max_examples=300)
    def test_shrinking_lr_never_turns_make_into_miss(self, depth, lr, ang, shrink):
        if physical_make_oracle(depth, lr, ang):
            assert physical_make_oracle(depth, lr * shrink, ang)

    def test_make_region_is_disk_section(self):
        # fixed angle: region in (depth, lr) is a disk around (rim radius, 0)
        ang = 46.0
        rad = clean_entry_radius_ft(ang)
        for depth, lr in [(0.75 + rad * 0.99, 0.0), (0.75, rad * 0.99),
                          (0.75 + rad / 2, rad * 0.7)]:
            expect = math.hypot(depth - 0.75, lr) <= rad
            assert physical_make_oracle(depth, lr, ang) == expect


class TestBackRimCapture:
    def test_zero_capture_identical_to_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            d, l, a = rng.uniform(0, 1.6), rng.uniform(-0.8, 0.8), rng.uniform(33, 80)
            assert make_with_back_rim_capture(d, l, a, 0.0) == physical_make_oracle(d, l, a)

    def test_deep_side_extension(self):
        rad = clean_entry_radius_ft(45.0)
        deep = 0.75 + rad + 0.1
        assert not physical_make_oracle(deep, 0.0, 45.0)
        assert make_with_back_rim_capture(deep, 0.0, 45.0, capture_ft=0.18)

    def test_short_side_unaffected(self):
        rad = clean_entry_radius_ft(45.0)
        short = 0.75 - rad - 0.05
        assert not make_with_back_rim_capture(short, 0.0, 45.0, capture_ft=0.5)


class TestSeason:
    def test_shapes_and_ground_truth_alignment(self):
        cfg = SimConfig(n_games=4, shots_per_game=30, seed=3)
        season = simulate_season(cfg)
        assert len(season.games) == 4
        assert len(season.ground_truth) == 120
        for game in season.games:
            assert len(game.player_ids) == 10
            cursor = 0
            for shot in game.shots:
                assert shot.release_frame == cursor
                cursor += len(shot.times_s)
                assert np.all(np.diff(shot.times_s) > 0)

    def test_seeded_determinism_bytes(self, tmp_path):
        cfg = SimConfig(n_games=3, shots_per_game=20, seed=11)
        p1 = write_season(simulate_season(cfg), tmp_path / "a")
        p2 = write_season(simulate_season(cfg), tmp_path / "b")
        for key in p1:
            h1 = hashlib.sha256(p1[key].read_bytes()).hexdigest()
            h2 = hashlib.sha256(p2[key].read_bytes()).hexdigest()
            assert h1 == h2, key

    def test_different_seed_different_bytes(self, tmp_path):
        a = write_season(simulate_season(SimConfig(n_games=2, shots_per_game=10, seed=1)),
                         tmp_path / "a")
        b = write_season(simulate_season(SimConfig(n_games=2, shots_per_game=10, seed=2)),
                         tmp_path / "b")
        assert a["tracking"].read_bytes() != b["tracking"].read_bytes()

    def test_null_pressure_equalizes_groups(self):
        pressure = PressureModel(depth_shift_ft=0.0, depth_var_inflation=1.0,
                                 lr_var_inflation=1.0, angle_rise_deg=0.0,
                                 angle_height_coef=0.0)
        cfg = SimConfig(n_games=40, shots_per_game=120, seed=5, pressure=pressure,
                        tracking_noise_ft=0.0)
        season = simulate_season(cfg)
        ndd = np.array([r.ndd_ft for r in season.ground_truth])
        depth = np.array([r.true_depth_ft for r in season.ground_truth])
        ratio = depth[ndd < 4].var() / depth[ndd > 6].var()
        assert 0.9 <= ratio <= 1.1

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SimConfig(outcome_flip_prob=0.7)
        with pytest.raises(ValueError):
            SimConfig(depth_angle_corr=1.2)

    def test_outcome_matches_oracle_when_no_flip(self):
        cfg = SimConfig(n_games=2, shots_per_game=50, seed=9)
        season = simulate_season(cfg)
        for r in season.ground_truth:
            expect = make_with_back_rim_capture(
                r.true_depth_ft, r.true_lr_ft, r.true_angle_deg, cfg.back_rim_capture_ft)
            assert r.outcome == int(expect)


class TestSeasonTracking:
    def test_equals_loading_the_written_files(self, tmp_path):
        season = simulate_season(SimConfig(n_games=3, shots_per_game=30, seed=5,
                                           corrupt_fraction=0.3))
        paths = write_season(season, tmp_path)
        loaded, report = load_tracking(paths["tracking"])
        assert report.n_rejected == 0
        tracking, events, roster = season_tracking(season)
        assert list(tracking) == list(loaded) == [g.game_id for g in season.games]
        for gid, game in tracking.items():
            want = loaded[gid]
            assert game.game_id == want.game_id
            for name in ("times", "ball", "player_ids", "player_xy"):
                got, exp = getattr(game, name), getattr(want, name)
                assert got.dtype == exp.dtype and got.shape == exp.shape, name
                np.testing.assert_array_equal(got, exp)
            assert game.id_table == want.id_table
            assert game.team_of == want.team_of
        assert events == load_events(paths["events"])[0]
        want_roster = load_roster(paths["roster"])[0]
        assert roster == want_roster
        assert list(roster) == list(want_roster)
