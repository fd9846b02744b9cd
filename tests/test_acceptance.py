"""Acceptance suite: one test per release criterion, at the stated tolerances.

Each test prints a single PASS/FAIL line (visible with ``pytest -s`` or in
captured output).  The heavyweight seasons are shared through module-scoped
fixtures; every random quantity descends from a fixed seed, so the suite is
bit-reproducible.
"""

import contextlib
import hashlib
import json
import math
import shutil
import time
from pathlib import Path

import numpy as np
import pytest
from scipy.special import expit

from shotarc.cli import fit_season, main
from shotarc.effects import EffectsDataset, apply_min_shots_filter, fit_effects
from shotarc.evaluate import (
    SubsampleSpec,
    binned_mean_by_depth,
    split_half_rank_correlation,
    subsample_mse,
    variance_comparison,
)
from shotarc.factors import compute_shot_factors, fit_path_line
from shotarc.makeprob import (
    Standardizer,
    TrainConfig,
    design_row,
    gradient,
    log_likelihood,
    predict,
    train,
)
from shotarc.sim import SimConfig, season_tracking, simulate_season
from shotarc.trajectory import (
    BASE_EPSILON,
    fit_trajectory,
    make_pseudo_data,
    quadratic_features,
)
from conftest import assert_season_matches_chain, base_posterior, parabola_shot, season_chain


@contextlib.contextmanager
def criterion(number: int, description: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} FAIL: {description}")
        raise
    print(f"ACCEPTANCE {number} PASS: {description}")


DEFAULT_SEASON = SimConfig(seed=777, n_games=120, shots_per_game=420,
                           n_shooters=40, n_defenders=40)
RB_SEASON = SimConfig(seed=1400, n_games=120, shots_per_game=420,
                      n_shooters=40, n_defenders=40, outcome_flip_prob=0.10)


@pytest.fixture(scope="module")
def default_season_fit():
    """The default season's fit, and the one-shot chain over its extracted shots."""
    season = season_tracking(simulate_season(DEFAULT_SEASON))
    return fit_season(*season), season_chain(*season)


@pytest.fixture(scope="module")
def default_season_rows(default_season_fit):
    return default_season_fit[0].rows


@pytest.fixture(scope="module")
def default_season_model(default_season_rows):
    rows = default_season_rows
    factors = np.array([[r.depth_ft, r.lr_ft, r.entry_angle_deg] for r in rows])
    outcomes = np.array([float(r.outcome) for r in rows])
    model = train(factors, outcomes, TrainConfig())
    return model, factors, outcomes


def lstsq_oracle(samples, release_xy, epsilon, pseudo_weight=1.0):
    """Closed-form ridge solution through an independent augmented lstsq."""
    xy_p, z_p = make_pseudo_data(release_xy)
    A = np.vstack([
        quadratic_features(samples[:, :2]),
        np.sqrt(pseudo_weight) * quadratic_features(xy_p),
        np.sqrt(epsilon) * np.eye(6),
    ])
    b = np.concatenate([samples[:, 2], np.sqrt(pseudo_weight) * z_p, np.zeros(6)])
    beta, *_ = np.linalg.lstsq(A, b, rcond=None)
    return beta


def test_criterion_1_trajectory_oracle_equivalence():
    with criterion(1, "trajectory fit matches independent oracle (1e-8); "
                      "sequential == batch updates (1e-10); runtime < 10 s"):
        t0 = time.perf_counter()
        rng = np.random.default_rng(20240101)
        # tracked shots carry measurement noise; exactly-radial noise-free
        # designs are conditioned at ~1e16 where float64 determines the
        # posterior itself to no better than ~1e-7 (see decisions ledger)
        for i in range(100):
            pts, release, _ = parabola_shot(
                release_dist=rng.uniform(22.5, 26.5),
                azimuth_rad=rng.uniform(-0.95, 0.95),
                lr_ft=rng.normal(0.0, 0.16),
                depth_ft=rng.normal(0.72, 0.22),
                entry_angle_deg=rng.uniform(38.0, 54.0),
                noise=0.12,
                seed=9000 + i,
            )
            fit = fit_trajectory(pts, release)
            oracle = lstsq_oracle(pts, release, BASE_EPSILON)
            assert np.max(np.abs(fit.beta - oracle)) <= 1e-8

            xy_p, z_p = make_pseudo_data(release)
            Xp = quadratic_features(xy_p)
            X = quadratic_features(pts[:, :2])
            seq = base_posterior().updated(Xp, z_p).updated(X, pts[:, 2])
            batch = base_posterior().updated(
                np.vstack([Xp, X]), np.concatenate([z_p, pts[:, 2]]))
            assert np.max(np.abs(seq.mean - batch.mean)) <= 1e-10
            np.testing.assert_allclose(seq.precision, batch.precision,
                                       rtol=1e-10, atol=1e-10)
            assert abs(seq.scale - batch.scale) <= 1e-10 * max(1.0, abs(batch.scale))
        elapsed = time.perf_counter() - t0
        assert elapsed < 10.0, f"took {elapsed:.1f}s"


def test_batched_fit_matches_one_shot_chain_on_default_season(default_season_fit):
    # the season fit solves a game at a time; shot by shot, the one-shot
    # chain gives the same rejections, and beta, RMSE and factors within 1e-9
    fit, chain = default_season_fit
    assert len(chain) == DEFAULT_SEASON.n_shots
    assert_season_matches_chain(fit, chain)


def test_criterion_2_factor_recovery_zero_noise():
    with criterion(2, "zero-noise factor recovery within 0.02 ft / 0.2 deg on "
                      "1000 shots; center crossings exact to 1e-6 in; runtime < 30 s"):
        t0 = time.perf_counter()
        cfg = SimConfig(seed=2024, n_games=10, shots_per_game=100,
                        tracking_noise_ft=0.0)
        season = simulate_season(cfg)
        rows = fit_season(*season_tracking(season)).rows
        truth = {r.shot_id: r for r in season.ground_truth}
        assert len(rows) == 1000
        for r in rows:
            t = truth[r.shot_id]
            assert abs(r.depth_ft - t.true_depth_ft) <= 0.02
            assert abs(r.lr_ft - t.true_lr_ft) <= 0.02
            assert abs(r.entry_angle_deg - t.true_angle_deg) <= 0.2

        rng = np.random.default_rng(7)
        for k in range(20):
            x, y = float(rng.uniform(22.5, 26.5)), float(rng.uniform(-8, 8))
            angle = float(rng.uniform(38.0, 55.0))
            pts, release, _ = parabola_shot(release_dist=math.hypot(x, y),
                                            azimuth_rad=math.atan2(y, x), depth_ft=0.75,
                                            lr_ft=0.0, entry_angle_deg=angle)
            fit = fit_trajectory(pts, release)
            f = compute_shot_factors(fit, fit_path_line(pts))
            assert abs(f.depth_in - 9.0) <= 1e-6
        elapsed = time.perf_counter() - t0
        assert elapsed < 30.0, f"took {elapsed:.1f}s"


def test_criterion_3_logistic_recovery():
    with criterion(3, "logistic recovery within 3 oracle SEs on 50k shots; "
                      "score equations 1e-6; gradient vs central FD 1e-5"):
        rng = np.random.default_rng(33)
        n = 50_000
        raw = np.column_stack([
            rng.normal(0.75, 0.22, n),
            rng.normal(0.0, 0.17, n),
            rng.normal(45.5, 4.0, n),
        ])
        std = Standardizer.fit(raw)
        X = design_row(raw, std)
        beta_true = np.array([-0.4, 0.9, -0.45, 0.3, -0.6, -0.45, -0.1, 0.07, 0.12, -0.04])
        y = (rng.random(n) < expit(X @ beta_true)).astype(float)

        model = train(raw, y, TrainConfig(ridge=1e-6))
        assert model.converged
        info = (X.T * (expit(X @ beta_true) * (1 - expit(X @ beta_true)))) @ X
        se = np.sqrt(np.diag(np.linalg.inv(info)))
        assert np.all(np.abs(model.coeffs - beta_true) <= 3.0 * se)

        g_opt = gradient(X, y, model.coeffs, ridge=1e-6)
        assert np.max(np.abs(g_opt)) < 1e-6

        def penalized(c):
            return log_likelihood(X, y, c) - 0.5 * 1e-6 * float(c[1:] @ c[1:])

        points = [model.coeffs] + [model.coeffs + rng.normal(0, 0.3, 10) for _ in range(5)]
        h = 1e-5
        for c in points:
            g = gradient(X, y, c, ridge=1e-6)
            for j in range(10):
                up, dn = c.copy(), c.copy()
                up[j] += h
                dn[j] -= h
                fd = (penalized(up) - penalized(dn)) / (2 * h)
                assert abs(g[j] - fd) <= 1e-5 * max(1.0, abs(fd))


def test_criterion_4_depth_angle_optima(default_season_rows, default_season_model):
    with criterion(4, "model argmax depth bin in {10, 11} in; probability range "
                      "over 42-48 deg smaller than over 7-9 in depth"):
        rows = default_season_rows
        model, factors, _ = default_season_model
        probs = predict(model, factors)
        depth = factors[:, 0]
        table = binned_mean_by_depth(depth, probs, bin_width_in=1.0,
                                     min_bin_n=len(rows) // 200)
        assert table.argmax_center_in in (10.0, 11.0)

        angle = factors[:, 2]
        abins = np.round(angle).astype(int)
        angle_means = [float(np.mean(probs[abins == b]))
                       for b in range(42, 49) if int((abins == b).sum()) >= 100]
        assert len(angle_means) == 7
        by_center = {r.center: r.mean for r in table.rows}
        depth_means = [by_center[c] for c in (7.0, 8.0, 9.0)]
        angle_range = max(angle_means) - min(angle_means)
        depth_range = max(depth_means) - min(depth_means)
        assert angle_range < depth_range


def test_criterion_5_variance_inflation_round_trip(default_season_rows):
    with criterion(5, "planted 1.56x / 1.38x contested-variance inflation "
                      "re-measured within +/-0.15 at >= 10k shots per group"):
        rows = default_season_rows
        out = variance_comparison(
            np.array([r.depth_ft for r in rows]),
            np.array([r.lr_ft for r in rows]),
            np.array([r.ndd_ft for r in rows]),
            seed=3,
        )
        assert out["depth"].n_contested >= 10_000
        assert out["depth"].n_open >= 10_000
        assert abs(out["depth"].ratio - 1.56) <= 0.15
        assert abs(out["lr"].ratio - 1.38) <= 0.15


def test_criterion_6_rao_blackwell_variance_reduction():
    with criterion(6, "prob-response gamma MSE strictly below raw at every "
                      "fraction 0.1..0.5; split-half rho(prob) > rho(raw)"):
        season = simulate_season(RB_SEASON)
        assert RB_SEASON.n_games >= 120 and RB_SEASON.n_defenders >= 30
        rows = fit_season(*season_tracking(season)).rows
        factors = np.array([[r.depth_ft, r.lr_ft, r.entry_angle_deg] for r in rows])
        outcomes = np.array([float(r.outcome) for r in rows])
        model = train(factors, outcomes, TrainConfig())
        probs = predict(model, factors)
        data = EffectsDataset(
            shooters=np.array([r.shooter_id for r in rows]),
            defenders=np.array([r.defender_id for r in rows]),
            ndd_ft=np.array([r.ndd_ft for r in rows]),
            outcomes=outcomes,
            probs=probs,
            game_ids=np.array([r.game_id for r in rows]),
        )
        spec = SubsampleSpec(fractions=(0.1, 0.2, 0.3, 0.4, 0.5), n_replicates=20, seed=5)
        results = subsample_mse(data, spec, min_shots=100)
        by = {}
        for r in results:
            by.setdefault(r.fraction, {})[r.response_kind] = r.mse
        for frac in spec.fractions:
            assert by[frac]["prob"] < by[frac]["raw"], (
                f"fraction {frac}: prob {by[frac]['prob']:.3e} "
                f"vs raw {by[frac]['raw']:.3e}")
        rho_raw = split_half_rank_correlation(data, response_kind="raw", min_shots=100)
        rho_prob = split_half_rank_correlation(data, response_kind="prob", min_shots=100)
        assert rho_prob > rho_raw


def test_criterion_7_effects_algebra():
    with criterion(7, "sum-to-zero 1e-8; constant response -> zero effects; "
                      "balanced 2x2 exact to 1e-10; cascade filter fixed point"):
        rng = np.random.default_rng(70)
        data = EffectsDataset(
            shooters=np.array([f"S{rng.integers(9)}" for _ in range(800)]),
            defenders=np.array([f"D{rng.integers(9)}" for _ in range(800)]),
            ndd_ft=rng.uniform(1, 9, 800),
            outcomes=(rng.random(800) < 0.4).astype(float),
        )
        est = fit_effects(data, "defender", "raw")
        assert abs(sum(est.shooter_effects.values())) <= 1e-8
        assert abs(sum(est.effects.values())) <= 1e-8

        const = EffectsDataset(
            shooters=np.array(["A", "A", "B", "B"]),
            defenders=np.array(["K1", "K2", "K1", "K2"]),
            ndd_ft=np.full(4, 5.0),
            outcomes=np.full(4, 1.0),
        )
        est_c = fit_effects(const, "defender", "raw")
        assert est_c.intercept == pytest.approx(1.0, abs=1e-12)
        assert all(abs(v) <= 1e-12 for v in est_c.effects.values())

        balanced = EffectsDataset(
            shooters=np.array(["A", "A", "B", "B"]),
            defenders=np.array(["K1", "K2", "K1", "K2"]),
            ndd_ft=np.full(4, 5.0),
            outcomes=np.array([0.5 + 0.03 + 0.05, 0.5 + 0.03 - 0.05,
                               0.5 - 0.03 + 0.05, 0.5 - 0.03 - 0.05]),
        )
        est_b = fit_effects(balanced, "defender", "raw")
        assert est_b.shooter_effects["A"] == pytest.approx(0.03, abs=1e-10)
        assert est_b.effects["K1"] == pytest.approx(0.05, abs=1e-10)

        rows = ([("Y", "X")] * 60 + [("Y", "K")] * 45 + [("Z", "K")] * 120
                + [("W", "K")] * 120 + [("Z", "X")] * 30)
        cascade = EffectsDataset(
            shooters=np.array([r[0] for r in rows]),
            defenders=np.array([r[1] for r in rows]),
            ndd_ft=np.full(len(rows), 5.0),
            outcomes=np.zeros(len(rows)),
        )
        filtered = apply_min_shots_filter(cascade, threshold=100)
        assert "X" not in set(filtered.defenders)
        assert "Y" not in set(filtered.shooters)
        again = apply_min_shots_filter(filtered, threshold=100)
        assert len(again) == len(filtered)


def _run_pipeline(base: Path, seed: int) -> tuple[dict[str, str], float]:
    """One full CLI pipeline run; returns (output digests by name, seconds)."""
    t0 = time.perf_counter()
    season = base / "season"
    cfg = base / "sim.json"
    cfg.write_text(json.dumps({
        "seed": seed, "n_games": 120, "shots_per_game": 420,
        "n_shooters": 40, "n_defenders": 40}))
    assert main(["simulate", "--config", str(cfg), "--out-dir", str(season)]) == 0

    fit_dir = base / "fit"
    assert main(["fit",
                 "--tracking", str(season / "tracking.jsonl"),
                 "--events", str(season / "events.csv"),
                 "--roster", str(season / "roster.csv"),
                 "--out-dir", str(fit_dir)]) == 0

    model = base / "model.json"
    assert main(["train-makeprob", "--factors", str(fit_dir / "factors.csv"),
                 "--out-model", str(model)]) == 0

    preds = base / "predictions.csv"
    assert main(["predict", "--model", str(model),
                 "--factors", str(fit_dir / "factors.csv"), "--out", str(preds)]) == 0

    eff = base / "effects"
    for kind in ("raw", "prob"):
        assert main(["effects", "--factors", str(preds), "--model-kind", "defender",
                     "--response-kind", kind, "--out-dir", str(eff)]) == 0
    assert main(["effects", "--factors", str(preds), "--model-kind", "resilience",
                 "--response-kind", "prob", "--out-dir", str(eff),
                 "--manifest", str(eff / "manifest_resilience.json")]) == 0

    ev = base / "eval"
    spec5 = base / "fig5.json"
    spec5.write_text(json.dumps({"n_replicates": 20, "seed": 5, "min_shots": 100}))
    assert main(["evaluate", "--analysis", "fig3", "--shots", str(preds),
                 "--out-dir", str(ev)]) == 0
    assert main(["evaluate", "--analysis", "depth-bins", "--shots", str(preds),
                 "--out-dir", str(ev)]) == 0
    assert main(["evaluate", "--analysis", "fig5", "--shots", str(preds),
                 "--spec", str(spec5), "--out-dir", str(ev)]) == 0
    elapsed = time.perf_counter() - t0

    digests = {}
    for path in sorted(base.rglob("*")):
        if path.is_file() and path != cfg and path != spec5:
            digests[str(path.relative_to(base))] = hashlib.sha256(
                path.read_bytes()).hexdigest()
    return digests, elapsed


def test_criterion_8_determinism_and_scale(tmp_path):
    with criterion(8, "full 50,000-shot pipeline under 10 minutes and "
                      "byte-identical across two seeded runs"):
        run_a = tmp_path / "runA"
        run_b = tmp_path / "runB"
        run_a.mkdir()
        run_b.mkdir()
        digests_a, seconds_a = _run_pipeline(run_a, seed=424242)
        shutil.rmtree(run_a)
        digests_b, seconds_b = _run_pipeline(run_b, seed=424242)
        shutil.rmtree(run_b)
        print(f"pipeline wall time: run A {seconds_a:.1f}s, run B {seconds_b:.1f}s")
        assert seconds_a < 600.0 and seconds_b < 600.0
        assert digests_a == digests_b
        assert len(digests_a) >= 15
