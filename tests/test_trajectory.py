"""Conjugate quadratic-surface fitting against independent linear-algebra oracles."""

import numpy as np
import pytest

from shotarc.trajectory import (
    BASE_EPSILON,
    FilterThresholds,
    IllConditionedError,
    InsufficientSamplesError,
    filter_shots,
    fit_trajectory,
    make_pseudo_data,
    quadratic_features,
)
from conftest import base_posterior, parabola_shot, sequential_chain


def lstsq_oracle(samples_xy, z, release_xy, epsilon, pseudo_weight=1.0):
    """Ridge solution via an augmented least-squares system (SVD path).

    Independent of the package's equilibrated normal-equations solver: the
    prior and pseudo rows are stacked as extra observations and the system
    is solved with numpy's lstsq.
    """
    xy_p, z_p = make_pseudo_data(release_xy)
    rows = [quadratic_features(samples_xy)]
    targets = [np.asarray(z, dtype=float)]
    if pseudo_weight > 0:
        rows.append(np.sqrt(pseudo_weight) * quadratic_features(xy_p))
        targets.append(np.sqrt(pseudo_weight) * z_p)
    rows.append(np.sqrt(epsilon) * np.eye(6))
    targets.append(np.zeros(6))
    A = np.vstack(rows)
    b = np.concatenate(targets)
    beta, *_ = np.linalg.lstsq(A, b, rcond=None)
    return beta


def criterion_1_shots():
    """The 100 noisy shots of acceptance criterion 1, as (points, release_xy)."""
    rng = np.random.default_rng(20240101)
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
        yield pts, release


class TestPseudoData:
    def test_stated_construction(self):
        xy, z = make_pseudo_data((20.0, 5.0))
        assert xy.tolist() == [[20.0, 5.0], [20.0, 5.0], [0.0, 0.0], [0.0, 0.0]]
        assert z.tolist() == [7.0, 7.0, 10.0, 10.0]

    def test_always_four_rows_duplicated_pairwise(self):
        xy, z = make_pseudo_data((-11.0, 3.5))
        assert xy.shape == (4, 2) and z.shape == (4,)
        assert np.array_equal(xy[0], xy[1]) and np.array_equal(xy[2], xy[3])

    def test_feature_expansion(self):
        xy, _ = make_pseudo_data((2.0, 3.0))
        row = quadratic_features(xy)[0]
        assert row.tolist() == [1.0, 2.0, 3.0, 4.0, 9.0, 6.0]

    def test_release_at_rim_rejected(self):
        # a per-shot fit failure, so a season run counts the shot as unfittable
        with pytest.raises(IllConditionedError):
            make_pseudo_data((0.0, 0.0))


class TestFit:
    def test_exact_recovery_without_pseudo(self):
        beta_true = np.array([10.0, 0.5, -0.2, -0.03, -0.01, 0.005])
        rng = np.random.default_rng(1)
        xy = rng.uniform(-5, 25, size=(60, 2))
        z = quadratic_features(xy) @ beta_true
        fit = fit_trajectory(np.column_stack([xy, z]), (20.0, 5.0), pseudo_weight=0.0)
        np.testing.assert_allclose(fit.beta, beta_true, atol=1e-6)

    def test_pseudo_only_fit_hits_targets(self):
        fit = fit_trajectory(np.empty((0, 3)), (20.0, 5.0), min_samples=0)
        xy_p, z_p = make_pseudo_data((20.0, 5.0))
        np.testing.assert_allclose(quadratic_features(xy_p) @ fit.beta, z_p, atol=1e-3)

    def test_min_samples_threshold(self):
        pts = np.column_stack([np.arange(4.0), np.zeros(4), np.full(4, 8.0)])
        with pytest.raises(InsufficientSamplesError):
            fit_trajectory(pts, (20.0, 0.0), min_samples=5)

    def test_matches_independent_oracle_on_random_shots(self):
        rng = np.random.default_rng(7)
        for i in range(25):
            pts, release, _ = parabola_shot(
                release_dist=rng.uniform(22.5, 26.5),
                azimuth_rad=rng.uniform(-0.9, 0.9),
                lr_ft=rng.normal(0, 0.15),
                depth_ft=rng.normal(0.75, 0.2),
                entry_angle_deg=rng.uniform(40, 52),
                noise=0.12,
                seed=100 + i,
            )
            fit = fit_trajectory(pts, release)
            oracle = lstsq_oracle(pts[:, :2], pts[:, 2], release,
                                  DEFAULT_PRIOR_EPS, pseudo_weight=1.0)
            np.testing.assert_allclose(fit.beta, oracle, atol=1e-8)

    def test_sequential_equals_batch(self):
        pts, release, _ = parabola_shot(noise=0.1, seed=3, lr_ft=0.2)
        xy_p, z_p = make_pseudo_data(release)
        Xp, X = quadratic_features(xy_p), quadratic_features(pts[:, :2])

        seq = base_posterior().updated(Xp, z_p).updated(X, pts[:, 2])
        batch = base_posterior().updated(
            np.vstack([Xp, X]), np.concatenate([z_p, pts[:, 2]]))

        np.testing.assert_allclose(seq.precision, batch.precision, atol=1e-10)
        np.testing.assert_allclose(seq.shift, batch.shift, atol=1e-10)
        assert seq.shape == batch.shape
        assert seq.scale == pytest.approx(batch.scale, abs=1e-10)
        np.testing.assert_allclose(seq.mean, batch.mean, atol=1e-10)

    # the chain's scale telescopes mu'h differences, so its cancellation
    # error grows with the pseudo weight (1.3e-9 at 2.5); the closed form
    # reads the stacked residual
    @pytest.mark.parametrize("pseudo_weight,scale_tol", [(1.0, 1e-10), (0.0, 1e-10), (2.5, 1e-8)])
    def test_one_solve_beta_equals_sequential_chain(self, pseudo_weight, scale_tol):
        for pts, release in criterion_1_shots():
            fit = fit_trajectory(pts, release, pseudo_weight=pseudo_weight)
            chain = sequential_chain(pts, release, pseudo_weight)
            assert np.array_equal(fit.beta, chain.mean)
            assert np.array_equal(fit.posterior_precision, chain.precision)
            assert fit.posterior_shape == chain.shape
            assert abs(fit.posterior_scale - chain.scale) <= scale_tol

    @pytest.mark.parametrize("pseudo_weight", [-1.0, float("nan")])
    def test_invalid_pseudo_weight_rejected(self, pseudo_weight):
        pts, release, _ = parabola_shot(noise=0.1, seed=5)
        with pytest.raises(ValueError, match="pseudo_weight"):
            fit_trajectory(pts, release, pseudo_weight=pseudo_weight)

    def test_pseudo_only_fit_equals_chain(self):
        fit = fit_trajectory(np.empty((0, 3)), (20.0, 5.0), min_samples=0)
        xy_p, z_p = make_pseudo_data((20.0, 5.0))
        chain = base_posterior().updated(quadratic_features(xy_p), z_p)
        assert np.array_equal(fit.beta, chain.mean)
        assert fit.posterior_shape == chain.shape
        assert abs(fit.posterior_scale - chain.scale) <= 1e-10

    def test_duplicate_observation_influence(self):
        pts, release, _ = parabola_shot(noise=0.1, seed=5, lr_ft=0.25)
        fit = fit_trajectory(pts, release)
        target_xy = pts[10, :2]
        features = quadratic_features(target_xy)

        # zero-residual duplicate: posterior mean is a fixed point
        on_surface = np.array([[*target_xy, float((features @ fit.beta)[0])]])
        refit = fit_trajectory(np.vstack([pts, on_surface]), release)
        np.testing.assert_allclose(refit.beta, fit.beta, atol=1e-9)

        # a duplicate displaced upward pulls the local prediction upward
        displaced = on_surface + np.array([0.0, 0.0, 0.4])
        refit_up = fit_trajectory(np.vstack([pts, displaced]), release)
        assert float((features @ refit_up.beta)[0]) > float((features @ fit.beta)[0])



DEFAULT_PRIOR_EPS = BASE_EPSILON


class TestRmse:
    def test_perfect_fit_zero(self):
        pts, release, _ = parabola_shot(lr_ft=0.2, seed=2)
        fit = fit_trajectory(pts, release)
        assert fit.rmse_ft == pytest.approx(0.0, abs=1e-7)

    def test_noise_scale_recovered(self):
        vals = []
        for i in range(20):
            pts, release, _ = parabola_shot(noise=0.1, seed=40 + i, lr_ft=0.2)
            fit = fit_trajectory(pts, release)
            vals.append(fit.rmse_ft)
        assert 0.05 <= np.median(vals) <= 0.2


def _record(shot_id, rmse=0.0, n=25, gap=0.04, fitted=True):
    return {"shot_id": shot_id, "n_samples": n, "fitted": fitted, "max_gap_s": gap,
            "rmse_ft": rmse if fitted else float("nan")}


def _filter(recs, *thresholds):
    """filter_shots on the records' columns: (kept shot ids, report)."""
    col = {key: np.array([r[key] for r in recs]) for key in recs[0]}
    reason, report = filter_shots(col["n_samples"], col["fitted"], col["max_gap_s"],
                                  col["rmse_ft"], *thresholds)
    return col["shot_id"][reason == ""].tolist(), report


class TestFilter:
    def test_all_clean_all_retained(self):
        recs = [_record(f"s{i}") for i in range(10)]
        kept, report = _filter(recs)
        assert len(kept) == 10
        assert report.retention == 1.0
        assert report.rejections == {}

    def test_noisy_shot_excluded_with_reason(self):
        recs = [_record("good"), _record("bad", rmse=0.8)]
        kept, report = _filter(recs)
        assert kept == ["good"]
        assert report.rejections == {"noisy": 1}

    def test_reason_priority_and_counts(self):
        recs = [
            _record("a", fitted=False),
            _record("b", n=3),
            _record("b2", n=3, fitted=False),   # a thin window is reported as thin
            _record("c", gap=0.5),
            _record("c2", gap=0.5, fitted=False),
            _record("d", rmse=2.0),
            _record("d2", rmse=2.0, gap=0.5),
            _record("e"),
        ]
        kept, report = _filter(recs, FilterThresholds())
        assert kept == ["e"]
        assert report.rejections == {
            "unfittable": 2, "insufficient_samples": 2, "gapped": 2, "noisy": 1}
        assert report.retention == pytest.approx(1 / 8)

    @pytest.mark.parametrize("kwargs", [
        {"min_samples": 1}, {"min_samples": -3}, {"min_samples": 2.5}, {"min_samples": 5.0},
        {"max_rmse_ft": float("nan")}, {"max_rmse_ft": 0.0}, {"max_rmse_ft": -1.0},
        {"max_gap_s": float("nan")}, {"max_gap_s": 0.0},
    ])
    def test_unusable_thresholds_rejected(self, kwargs):
        with pytest.raises(ValueError):
            FilterThresholds(**kwargs)

    def test_infinite_limits_mean_no_limit(self):
        recs = [_record("gappy", gap=50.0), _record("noisy", rmse=50.0), _record("thin", n=2)]
        inf = float("inf")
        kept, report = _filter(recs, FilterThresholds(min_samples=2, max_rmse_ft=inf,
                                                      max_gap_s=inf))
        assert kept == ["gappy", "noisy", "thin"]
        assert report.rejections == {}
