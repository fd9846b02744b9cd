"""Cross-module integration on simulated seasons."""

import numpy as np
import pytest

from shotarc.cli import fit_season, main, read_shot_rows
from shotarc.effects import EffectsDataset, apply_min_shots_filter, fit_effects
from shotarc.evaluate import binned_profiles, spearman
from shotarc.makeprob import TrainConfig, predict, train
from shotarc.sim import PressureModel, SimConfig, season_tracking, simulate_season, write_season
from conftest import shot_row_objects


@pytest.fixture(scope="module")
def pressured_season():
    """Season with strong planted pressure effects and modest outcome noise."""
    cfg = SimConfig(seed=91, n_games=60, shots_per_game=220, n_defenders=24,
                    pressure_scale_sd=0.55,
                    pressure=PressureModel(depth_shift_ft=-0.13),
                    outcome_flip_prob=0.05)
    season = simulate_season(cfg)
    rows = fit_season(*season_tracking(season)).rows
    return season, rows


@pytest.fixture(scope="module")
def pressured_dataset(pressured_season):
    season, rows = pressured_season
    factors = rows.matrix(("depth_ft", "lr_ft", "entry_angle_deg"))
    outcomes = rows["outcome"].astype(float)
    model = train(factors, outcomes, TrainConfig())
    data = EffectsDataset(
        shooters=rows["shooter_id"],
        defenders=rows["defender_id"],
        ndd_ft=rows["ndd_ft"],
        outcomes=outcomes,
        probs=predict(model, factors),
        game_ids=rows["game_id"],
    )
    return season, rows, data


class TestPlantedEffectRecovery:
    def test_fitted_gamma_tracks_planted_pressure(self, pressured_dataset):
        season, _, data = pressured_dataset
        filtered = apply_min_shots_filter(data, threshold=200)
        est = fit_effects(filtered, "defender", "prob")
        planted = {d.player_id: d.pressure_scale for d in season.defender_pool}
        players = sorted(est.effects)
        counts = {p: int((filtered.defenders == p).sum()) for p in players}
        assert min(counts.values()) >= 200
        # stronger planted pressure -> more negative fitted impact
        rho = spearman([est.effects[p] for p in players],
                       [-planted[p] for p in players])
        assert rho > 0.8


class TestPressureTrendsThroughPipeline:
    # the pressure ramp saturates below 4 ft, so the two fully-contested
    # bins are statistically exchangeable; a 5-bin Spearman of 0.9 is the
    # expected value of a perfectly planted trend
    def test_depth_rises_with_ndd(self, pressured_season):
        _, rows = pressured_season
        ndd, depth = rows["ndd_ft"], rows["depth_ft"]
        prof = binned_profiles(ndd, depth, np.arange(0.0, 10.1, 2.0),
                               bin_by="ndd", value="depth")
        assert prof.trend >= 0.85   # contested (small NDD) shots land shorter

    def test_entry_angle_falls_with_ndd(self, pressured_season):
        _, rows = pressured_season
        ndd, angle = rows["ndd_ft"], rows["entry_angle_deg"]
        prof = binned_profiles(ndd, angle, np.arange(0.0, 10.1, 2.0),
                               bin_by="ndd", value="entry_angle")
        assert prof.trend <= -0.85  # tight contests push arcs steeper

    def test_taller_defenders_raise_angles_when_contesting(self):
        # uniform pressure scale isolates the height pathway
        cfg = SimConfig(seed=14, n_games=50, shots_per_game=200, n_defenders=40,
                        pressure_scale_sd=0.0,
                        pressure=PressureModel(angle_height_coef=0.28))
        rows = fit_season(*season_tracking(simulate_season(cfg))).rows
        contested = rows["ndd_ft"] < 4.0
        heights = rows["defender_height_in"][contested]
        angle = rows["entry_angle_deg"][contested]
        prof = binned_profiles(heights, angle, np.arange(72.0, 88.1, 4.0),
                               bin_by="defender_height", value="entry_angle")
        assert prof.trend == 1.0


class TestFileRoundTripExactness:
    def test_zero_noise_factors_survive_file_round_trip(self, tmp_path):
        # the emitted text files must reproduce in-memory factor estimates
        cfg = SimConfig(seed=2023, n_games=4, shots_per_game=50, tracking_noise_ft=0.0)
        season = simulate_season(cfg)
        write_season(season, tmp_path / "season")
        out = tmp_path / "fit"
        assert main(["fit",
                     "--tracking", str(tmp_path / "season" / "tracking.jsonl"),
                     "--events", str(tmp_path / "season" / "events.csv"),
                     "--roster", str(tmp_path / "season" / "roster.csv"),
                     "--out-dir", str(out)]) == 0
        rows = shot_row_objects(read_shot_rows(out / "factors.csv"))
        truth = {r.shot_id: r for r in season.ground_truth}
        assert len(rows) == 200
        for r in rows:
            t = truth[r.shot_id]
            assert r.depth_ft == pytest.approx(t.true_depth_ft, abs=0.02)
            assert r.lr_ft == pytest.approx(t.true_lr_ft, abs=0.02)
            assert r.entry_angle_deg == pytest.approx(t.true_angle_deg, abs=0.2)

        fitted = fit_season(*season_tracking(season)).rows
        expected = {r.shot_id: r for r in shot_row_objects(fitted)}
        for r in rows:
            e = expected[r.shot_id]
            assert r.depth_ft == e.depth_ft        # repr round-trip is exact
            assert r.lr_ft == e.lr_ft
            assert r.entry_angle_deg == e.entry_angle_deg
