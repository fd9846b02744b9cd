"""Logistic make-probability model: recovery, score equations, calibration."""

import numpy as np
import pytest
from scipy.special import expit

from shotarc.makeprob import (
    DegenerateOutcomesError,
    MakeProbModel,
    Standardizer,
    TrainConfig,
    TrainingError,
    design_row,
    gradient,
    log_likelihood,
    predict,
    train,
)


def sample_factors(rng, n):
    """Raw factor triples shaped like season output (feet, feet, degrees)."""
    depth = rng.normal(0.75, 0.22, n)
    lr = rng.normal(0.0, 0.17, n)
    angle = rng.normal(45.5, 4.0, n)
    return np.column_stack([depth, lr, angle])


def information_se(X, coeffs):
    """Oracle standard errors from the Fisher information at the truth."""
    p = expit(X @ coeffs)
    info = (X.T * (p * (1 - p))) @ X
    return np.sqrt(np.diag(np.linalg.inv(info)))


class TestDesignRow:
    def test_origin(self):
        std = Standardizer(means=np.zeros(3), scales=np.ones(3))
        row = design_row(np.array([0.0, 0.0, 0.0]), std)
        np.testing.assert_array_equal(row, [1.0] + [0.0] * 9)

    def test_hand_arithmetic(self):
        std = Standardizer(means=np.zeros(3), scales=np.ones(3))
        row = design_row(np.array([1.0, 2.0, 3.0]), std)
        np.testing.assert_array_equal(row, [1, 1, 2, 3, 1, 4, 9, 2, 3, 6])

    def test_row_length_always_ten(self):
        std = Standardizer.fit(np.random.default_rng(0).normal(size=(50, 3)))
        rows = design_row(np.random.default_rng(1).normal(size=(7, 3)), std)
        assert rows.shape == (7, 10)


class TestTraining:
    def test_parameter_recovery_within_oracle_ses(self):
        rng = np.random.default_rng(42)
        n = 50_000
        raw = sample_factors(rng, n)
        std = Standardizer.fit(raw)
        X = design_row(raw, std)
        beta_true = np.array([0.2, 0.9, -0.5, 0.35, -0.55, -0.4, -0.12, 0.08, 0.15, -0.05])
        y = (rng.random(n) < expit(X @ beta_true)).astype(float)

        model = train(raw, y, TrainConfig(ridge=1e-6))
        assert model.converged
        se = information_se(X, beta_true)
        # training standardizes identically (same constants), so coefficients are comparable
        np.testing.assert_allclose(model.feature_means, std.means)
        err = np.abs(model.coeffs - beta_true)
        assert np.all(err <= 3.0 * se), (err / se).round(2)

    def test_score_equations_at_optimum(self):
        rng = np.random.default_rng(3)
        n = 20_000
        raw = sample_factors(rng, n)
        std = Standardizer.fit(raw)
        X = design_row(raw, std)
        beta = np.array([0.1, 0.6, -0.3, 0.2, -0.4, -0.3, -0.1, 0.0, 0.1, 0.0])
        y = (rng.random(n) < expit(X @ beta)).astype(float)
        model = train(raw, y)
        g = gradient(X, y, model.coeffs, ridge=1e-6)
        assert np.max(np.abs(g)) < 1e-6

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(5)
        raw = sample_factors(rng, 800)
        std = Standardizer.fit(raw)
        X = design_row(raw, std)
        y = (rng.random(800) < 0.5).astype(float)
        for trial in range(5):
            coeffs = rng.normal(0, 0.5, 10)
            g = gradient(X, y, coeffs, ridge=1e-6)
            eps = 1e-6
            for j in rng.choice(10, size=4, replace=False):
                up, dn = coeffs.copy(), coeffs.copy()
                up[j] += eps
                dn[j] -= eps
                pen_up = 0.5 * 1e-6 * (up[1:] @ up[1:])
                pen_dn = 0.5 * 1e-6 * (dn[1:] @ dn[1:])
                fd = ((log_likelihood(X, y, up) - pen_up)
                      - (log_likelihood(X, y, dn) - pen_dn)) / (2 * eps)
                assert g[j] == pytest.approx(fd, rel=1e-5, abs=1e-4)

    def test_degenerate_outcomes_rejected(self):
        rng = np.random.default_rng(1)
        raw = sample_factors(rng, 600)
        with pytest.raises(DegenerateOutcomesError):
            train(raw, np.ones(600))

    def test_too_few_shots_rejected(self):
        rng = np.random.default_rng(1)
        raw = sample_factors(rng, 100)
        y = (rng.random(100) < 0.5).astype(float)
        with pytest.raises(TrainingError):
            train(raw, y)

    def test_training_deterministic(self):
        rng = np.random.default_rng(9)
        raw = sample_factors(rng, 2000)
        y = (rng.random(2000) < 0.45).astype(float)
        m1 = train(raw, y)
        m2 = train(raw, y)
        assert np.array_equal(m1.coeffs, m2.coeffs)

    def test_calibrated_in_aggregate(self):
        rng = np.random.default_rng(11)
        n = 20_000
        raw = sample_factors(rng, n)
        std = Standardizer.fit(raw)
        X = design_row(raw, std)
        beta = np.array([-0.3, 0.8, -0.2, 0.3, -0.5, -0.2, -0.05, 0.1, 0.0, 0.0])
        y = (rng.random(n) < expit(X @ beta)).astype(float)
        model = train(raw, y)
        assert float(np.mean(predict(model, raw))) == pytest.approx(float(y.mean()), abs=1e-6)

    def test_ridge_vanishes_in_the_small_lambda_limit(self):
        # the default penalty exists for conditioning only; plain logistic
        # regression is recovered as lambda -> 0
        rng = np.random.default_rng(23)
        n = 5000
        raw = sample_factors(rng, n)
        std = Standardizer.fit(raw)
        X = design_row(raw, std)
        beta = np.array([0.0, 0.5, -0.3, 0.2, -0.4, -0.3, -0.1, 0.0, 0.0, 0.0])
        y = (rng.random(n) < expit(X @ beta)).astype(float)
        m_default = train(raw, y, TrainConfig(ridge=1e-6))
        m_zero = train(raw, y, TrainConfig(ridge=0.0))
        np.testing.assert_allclose(m_default.coeffs, m_zero.coeffs, atol=1e-5)

    def test_standardization_invariance_of_predictions(self):
        rng = np.random.default_rng(13)
        n = 4000
        raw = sample_factors(rng, n)
        y = (rng.random(n) < 0.4 + 0.2 * (raw[:, 0] > 0.75)).astype(float)
        scaled = raw * np.array([12.0, 12.0, 1.0])  # same data in inches
        m_ft = train(raw, y)
        m_in = train(scaled, y)
        p_ft = predict(m_ft, raw)
        p_in = predict(m_in, scaled)
        np.testing.assert_allclose(p_ft, p_in, atol=1e-8)


class TestPredict:
    def test_zero_coefficients_give_half(self):
        model = MakeProbModel(np.zeros(10), np.zeros(3), np.ones(3), 0, True, 0.0)
        assert predict(model, np.array([0.3, -0.1, 44.0])) == 0.5

    def test_saturation_stays_strictly_inside_unit_interval(self):
        coeffs = np.zeros(10)
        coeffs[0] = 1e9
        model = MakeProbModel(coeffs, np.zeros(3), np.ones(3), 0, True, 0.0)
        p_hi = predict(model, np.array([0.0, 0.0, 0.0]))
        coeffs2 = coeffs.copy()
        coeffs2[0] = -1e9
        model2 = MakeProbModel(coeffs2, np.zeros(3), np.ones(3), 0, True, 0.0)
        p_lo = predict(model2, np.array([0.0, 0.0, 0.0]))
        assert 0.0 < p_lo < p_hi < 1.0

    def test_monotone_in_positive_diagonal_direction(self):
        # pure linear model with a positive depth coefficient, no interactions
        coeffs = np.zeros(10)
        coeffs[1] = 0.8
        model = MakeProbModel(coeffs, np.zeros(3), np.ones(3), 0, True, 0.0)
        depths = np.linspace(-2, 2, 41)
        probs = predict(model, np.column_stack([depths, np.zeros(41), np.zeros(41)]))
        assert np.all(np.diff(probs) > 0)


class TestSurfaceAndPersistence:
    def test_surface_argmax_reported(self):
        rng = np.random.default_rng(17)
        raw = sample_factors(rng, 3000)
        y = (np.abs(raw[:, 0] - 0.85) < 0.2).astype(float)
        flip = rng.random(3000) < 0.1
        y[flip] = 1.0 - y[flip]
        model = train(raw, y, TrainConfig())
        depths = np.linspace(0.2, 1.4, 25)
        probs = predict(model, np.column_stack([depths, np.zeros(25), np.full(25, 45.5)]))
        assert 0.5 < depths[np.argmax(probs)] < 1.2

    def test_json_round_trip(self):
        rng = np.random.default_rng(19)
        raw = sample_factors(rng, 1500)
        y = (rng.random(1500) < 0.4).astype(float)
        model = train(raw, y)
        clone = MakeProbModel.from_json(model.to_json())
        np.testing.assert_array_equal(clone.coeffs, model.coeffs)
        assert clone.train_n == model.train_n
        assert clone.converged == model.converged

    def test_version_checked(self):
        with pytest.raises(ValueError):
            MakeProbModel.from_json('{"version": 99}')
