"""Simulator: the parabola solve, make oracle, season generation, determinism.

``oracle_simulate_season`` is the shot-at-a-time reference generator: it
solves and samples each shot's parabola with numpy arrays on its own
(``oracle_sample_trajectory``) and maps each point and player one at a
time.  ``TestOracleSeason`` holds ``simulate_season`` to it bit for bit."""

import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from shotarc.core import RIM_HEIGHT_FT, RIM_RADIUS_FT, expit, from_local_frame
from shotarc.factors import compute_shot_factors, fit_path_line
from shotarc.ingest import load_events, load_roster, load_tracking
from shotarc.season import fit_season
from shotarc.sim import (
    FRAME_RATE_HZ,
    MAX_RELEASE_HEIGHT_FT,
    MIN_RELEASE_HEIGHT_FT,
    GroundTruthShot,
    PressureModel,
    SeasonData,
    SimConfig,
    SimGame,
    SimShot,
    UnreachableTargetError,
    _solve_arc,
    clean_entry_radius_ft,
    make_defender_pool,
    make_shooter_pool,
    make_with_back_rim_capture,
    physical_make_oracle,
    season_tracking,
    simulate_season,
    write_season,
)
from shotarc.trajectory import fit_trajectory
from conftest import parabola_shot


# --- the shot-at-a-time season generator, kept as the reference ----------------------

def _oracle_path_through(release_xy, lr_ft):
    offset = np.zeros(2) - release_xy
    dist = float(np.hypot(*offset))
    if abs(lr_ft) >= dist:
        raise UnreachableTargetError("left-right offset exceeds release distance")
    u = offset / dist
    phi = -math.asin(lr_ft / dist)
    c, s = math.cos(phi), math.sin(phi)
    return np.array([c * u[0] - s * u[1], s * u[0] + c * u[1]])


def oracle_sample_trajectory(release_xy, height, depth_ft, lr_ft, angle_deg, rng,
                             noise_sigma_ft=0.0, extra_frames=0):
    """One shot's (n, 3) local-frame points, solved and sampled with numpy arrays throughout."""
    release_xy = np.asarray(release_xy, dtype=float)
    d = _oracle_path_through(release_xy, lr_ft)
    s_center = float((np.zeros(2) - release_xy) @ d)
    s_cross = s_center + depth_ft - RIM_RADIUS_FT
    if s_cross <= 0:
        raise UnreachableTargetError("crossing lies behind the release point")
    tan_a = math.tan(math.radians(angle_deg))
    c2 = -((RIM_HEIGHT_FT - height) + tan_a * s_cross) / s_cross**2
    c1 = -tan_a - 2.0 * c2 * s_cross
    if c2 >= 0.0 or c1 <= 0.0:
        raise UnreachableTargetError("no ascending-release parabola reaches the target")
    v_h = math.sqrt(32.174 / (-2.0 * c2))
    flight_time = s_cross / v_h
    n_flight = int(round(flight_time * FRAME_RATE_HZ))
    t = np.arange(n_flight + extra_frames) / FRAME_RATE_HZ
    s = v_h * t
    xy = release_xy[None, :] + s[:, None] * d[None, :]
    z = height + c1 * s + c2 * s * s
    pts = np.column_stack([xy, z])
    if noise_sigma_ft > 0.0:
        pts = pts + rng.normal(0.0, noise_sigma_ft, pts.shape)
    return pts


def _oracle_rotate(v, angle_rad):
    c, s = math.cos(angle_rad), math.sin(angle_rad)
    return np.array([c * v[0] - s * v[1], s * v[0] + c * v[1]])


_TEAMMATE_SPOTS = np.array([[30.0, -15.0], [32.0, -5.0], [34.0, 5.0], [30.0, 15.0]])
_OPPONENT_SPOTS = np.array([[44.0, -12.0], [46.0, -4.0], [48.0, 4.0], [44.0, 12.0]])


def oracle_simulate_season(config):
    """``simulate_season`` one shot at a time, each point and player mapped on its own."""
    root = np.random.SeedSequence(config.seed)
    pool_ss, season_ss = root.spawn(2)
    pool_rng = np.random.default_rng(pool_ss)
    shooters = make_shooter_pool(config, pool_rng)
    defenders = make_defender_pool(config, pool_rng)
    s_weights = np.array([s.participation for s in shooters])
    s_weights = s_weights / s_weights.sum()
    d_weights = np.array([d.participation for d in defenders])
    d_weights = d_weights / d_weights.sum()
    game_seeds = season_ss.spawn(config.n_games)
    games, truth = [], []
    shot_counter = 0
    mean_def_height = float(np.mean([d.height_in for d in defenders]))
    pressure = config.pressure
    for g in range(config.n_games):
        rng = np.random.default_rng(game_seeds[g])
        game_id = f"G{g:04d}"
        hoop_end = "left" if g % 2 == 0 else "right"
        lineup_s = rng.choice(len(shooters), size=min(5, len(shooters)), replace=False, p=s_weights)
        lineup_d = rng.choice(len(defenders), size=min(5, len(defenders)), replace=False,
                              p=d_weights)
        on_court_s = [shooters[i] for i in lineup_s]
        on_court_d = [defenders[i] for i in lineup_d]
        ids = tuple([s.player_id for s in on_court_s] + [d.player_id for d in on_court_d])
        teams = tuple(["A"] * len(on_court_s) + ["B"] * len(on_court_d))
        shots = []
        frame_cursor = 0
        for k in range(config.shots_per_game):
            si = int(rng.integers(len(on_court_s)))
            di = int(rng.integers(len(on_court_d)))
            shooter = on_court_s[si]
            defender = on_court_d[di]
            dist = rng.uniform(*config.release_distance_range_ft)
            azim = math.radians(rng.uniform(*config.release_azimuth_range_deg))
            release_xy = np.array([dist * math.cos(azim), dist * math.sin(azim)])
            height = config.release_height_ft
            if config.release_height_jitter_ft > 0:
                height = min(max(height + rng.normal(0.0, config.release_height_jitter_ft),
                                 MIN_RELEASE_HEIGHT_FT), MAX_RELEASE_HEIGHT_FT)
            ndd = float(np.clip(
                rng.gamma(config.ndd_gamma_shape, config.ndd_gamma_scale), *config.ndd_range_ft))
            intensity = expit((pressure.ramp_midpoint_ft - np.asarray(ndd, dtype=float))
                              / pressure.ramp_width_ft)
            contest = float(intensity) * defender.pressure_scale
            mean = shooter.aim_mean.copy()
            mean[0] += pressure.depth_shift_ft * contest * shooter.resilience
            mean[2] += (pressure.angle_rise_deg
                        + pressure.angle_height_coef * (defender.height_in - mean_def_height)
                        ) * contest
            scale = np.array([
                math.sqrt(1.0 + (pressure.depth_var_inflation - 1.0) * contest),
                math.sqrt(1.0 + (pressure.lr_var_inflation - 1.0) * contest),
                1.0,
            ])
            cov = shooter.aim_cov * np.outer(scale, scale)
            draw = rng.multivariate_normal(mean, cov, method="cholesky")
            depth = float(np.clip(draw[0], -0.9, 2.6))
            lr = float(np.clip(draw[1], -2.5, 2.5))
            angle = float(np.clip(draw[2], 33.0, 64.0))
            made = make_with_back_rim_capture(depth, lr, angle, config.back_rim_capture_ft)
            if config.outcome_flip_prob > 0.0 and rng.random() < config.outcome_flip_prob:
                made = not made
            pts = oracle_sample_trajectory(
                (float(release_xy[0]), float(release_xy[1])), height, depth, lr, angle, rng,
                noise_sigma_ft=config.tracking_noise_ft, extra_frames=config.extra_frames_past_rim)
            corrupted = False
            if config.corrupt_fraction > 0.0 and rng.random() < config.corrupt_fraction:
                corrupted = True
                if rng.random() < 0.5:
                    pts = pts.copy()
                    pts[:, 2] += rng.normal(0.0, 1.2, len(pts))
                else:
                    pts = pts[: max(3, len(pts) // 8)]
            to_rim = -release_xy / np.linalg.norm(release_xy)
            chi = math.radians(rng.normal(0.0, config.contest_angle_sd_deg))
            defender_xy = release_xy + ndd * _oracle_rotate(to_rim, -chi)
            player_local = np.empty((10, 2))
            t_spots = iter(_TEAMMATE_SPOTS)
            o_spots = iter(_OPPONENT_SPOTS)
            for j in range(len(on_court_s)):
                player_local[j] = release_xy if j == si else next(t_spots)
            for j in range(len(on_court_d)):
                player_local[5 + j] = defender_xy if j == di else next(o_spots)
            player_court = np.array([
                from_local_frame((p[0], p[1], 0.0), hoop_end)[:2] for p in player_local
            ])
            ball_court = np.array([from_local_frame(tuple(p), hoop_end) for p in pts])
            times = np.round(k * 30.0 + np.arange(len(pts)) / FRAME_RATE_HZ, 2)
            shot_id = f"T{shot_counter:06d}"
            shot_counter += 1
            shots.append(SimShot(shot_id=shot_id, shooter_id=shooter.player_id,
                                 release_frame=frame_cursor, outcome=int(made),
                                 ball_points=ball_court, times_s=times, player_xy=player_court))
            frame_cursor += len(pts)
            truth.append(GroundTruthShot(
                shot_id=shot_id, game_id=game_id, shooter_id=shooter.player_id,
                defender_id=defender.player_id, ndd_ft=ndd, contest_intensity=contest,
                true_depth_ft=depth, true_lr_ft=lr, true_angle_deg=angle, outcome=int(made),
                corrupted=corrupted))
        games.append(SimGame(game_id=game_id, hoop_end=hoop_end, player_ids=ids,
                             player_teams=teams, shots=tuple(shots)))
    return SeasonData(config=config, shooter_pool=shooters, defender_pool=defenders,
                      games=games, ground_truth=truth)


def _assert_same_bits(got, want, what):
    assert got.dtype == want.dtype and got.shape == want.shape, what
    assert got.tobytes() == want.tobytes(), what


class TestSampleTrajectory:
    """Sampled arcs: the pipeline recovers their crossings; the solve refuses one it
    cannot reach."""

    def test_zero_noise_round_trip_through_pipeline(self):
        rng = np.random.default_rng(5)
        for i in range(40):
            depth = rng.uniform(0.2, 1.4)
            lr = rng.uniform(-0.5, 0.5)
            ang = rng.uniform(38, 54)
            x, y = rng.uniform(22.5, 26.5), rng.uniform(-10, 10)
            pts, release, _ = parabola_shot(release_dist=math.hypot(x, y),
                                            azimuth_rad=math.atan2(y, x), lr_ft=lr,
                                            depth_ft=depth, entry_angle_deg=ang)
            fit = fit_trajectory(pts, release)
            f = compute_shot_factors(fit, fit_path_line(pts))
            assert f.depth_ft == pytest.approx(depth, abs=0.02)
            assert f.left_right_ft == pytest.approx(lr, abs=0.02)
            assert f.entry_angle_deg == pytest.approx(ang, abs=0.2)

    def test_unreachable_geometry_rejected(self):
        with pytest.raises(UnreachableTargetError):
            _solve_arc(2.0, 0.0, 7.0, 0.75, 3.0, 45.0)


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
        nan, inf = float("nan"), float("inf")
        for bad in [
            {"outcome_flip_prob": 0.7},
            {"depth_angle_corr": 1.2},
            {"depth_angle_corr": nan},
            {"ndd_range_ft": (5.0, 1.0)},
            {"ndd_range_ft": (1.0,)},
            {"release_distance_range_ft": (22.5, inf)},
            {"release_azimuth_range_deg": (55.0, -55.0)},
            {"tracking_noise_ft": nan},
            {"tracking_noise_ft": -0.1},
            {"release_height_jitter_ft": nan},
            {"release_height_jitter_ft": -0.1},
            {"contest_angle_sd_deg": -1.0},
            {"mean_depth_ft": inf},
            {"ndd_gamma_shape": -1.0},
            {"ndd_gamma_scale": 0.0},
            {"n_shooters": 4},
            {"n_defenders": 3},
            {"extra_frames_past_rim": -1},
            {"n_games": 2.5},
            {"n_games": True},
            {"extra_frames_past_rim": 1.5},
            {"seed": -1},
            {"seed": "x"},
            {"release_distance_range_ft": (0.1, 0.2)},
            {"release_distance_range_ft": (2.9, 3.2)},
            {"release_height_ft": 10.0},
            {"release_height_ft": 30.0},
            {"release_height_ft": 3.4},
            {"release_height_ft": -50.0},
        ]:
            with pytest.raises(ValueError):
                SimConfig(**bad)
        for bad in [
            {"ramp_width_ft": -0.2},
            {"ramp_width_ft": 0.0},
            {"ramp_midpoint_ft": nan},
            {"depth_var_inflation": 0.9},
        ]:
            with pytest.raises(ValueError):
                PressureModel(**bad)

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

    @pytest.mark.parametrize("height, jitter", [
        (MIN_RELEASE_HEIGHT_FT, 0.0), (MAX_RELEASE_HEIGHT_FT, 0.0), (MIN_RELEASE_HEIGHT_FT, 3.0)])
    def test_release_heights_within_the_bounds_fit(self, height, jitter):
        # the lower bound keeps the fit's release prior from rejecting the arcs as noisy
        season = simulate_season(SimConfig(n_games=2, shots_per_game=40, seed=3,
                                           release_height_ft=height,
                                           release_height_jitter_ft=jitter))
        assert fit_season(*season_tracking(season)).filtering.retention >= 0.9


class TestOracleSeason:
    """The two-phase generator against the shot-at-a-time reference, bit for bit."""

    @pytest.mark.parametrize("config", [
        # both hoop ends, both corruption kinds, outcome flips and release-height jitter
        SimConfig(seed=21, n_games=3, shots_per_game=40, corrupt_fraction=0.6,
                  outcome_flip_prob=0.2, release_height_jitter_ft=0.3),
        # no samples past the rim, no tracking noise, pools of exactly one lineup
        SimConfig(seed=4, n_games=2, shots_per_game=30, extra_frames_past_rim=0,
                  tracking_noise_ft=0.0, n_shooters=5, n_defenders=5, corrupt_fraction=0.3),
        # integer-valued settings, as a JSON config gives them
        SimConfig(seed=8, n_games=2, shots_per_game=25, release_height_ft=7,
                  ndd_range_ft=(1, 9), release_distance_range_ft=(22, 27), back_rim_capture_ft=0),
        # jittered release heights clipped below the rim
        SimConfig(seed=9, n_games=2, shots_per_game=20, release_height_ft=9.0,
                  release_height_jitter_ft=2.0),
        # jittered release heights clipped from below
        SimConfig(seed=10, n_games=2, shots_per_game=20, release_height_ft=3.5,
                  release_height_jitter_ft=2.0),
    ])
    def test_bit_identical_to_oracle(self, config, tmp_path):
        got, want = simulate_season(config), oracle_simulate_season(config)
        assert {g.hoop_end for g in got.games} == {"left", "right"}
        assert len(got.games) == len(want.games)
        for g, w in zip(got.games, want.games):
            assert (g.game_id, g.hoop_end, g.player_ids, g.player_teams) == (
                w.game_id, w.hoop_end, w.player_ids, w.player_teams)
            assert g.n_frames == w.n_frames
            assert len(g.shots) == len(w.shots)
            for a, b in zip(g.shots, w.shots):
                assert (a.shot_id, a.shooter_id, a.release_frame, a.outcome) == (
                    b.shot_id, b.shooter_id, b.release_frame, b.outcome)
                for name in ("ball_points", "times_s", "player_xy"):
                    _assert_same_bits(getattr(a, name), getattr(b, name), (a.shot_id, name))
        assert [repr(r) for r in got.ground_truth] == [repr(r) for r in want.ground_truth]
        kinds = {(r.corrupted, len(s.times_s) < 10)
                 for r, s in zip(got.ground_truth, (s for g in got.games for s in g.shots))}
        if config.corrupt_fraction:
            assert {(True, True), (True, False), (False, False)} <= kinds
        got_paths = write_season(got, tmp_path / "got")
        want_paths = write_season(want, tmp_path / "want")
        for key in got_paths:
            assert got_paths[key].read_bytes() == want_paths[key].read_bytes(), key
