"""Logistic shot-make model on estimated shot factors.

The linear predictor uses the three factors (depth D, left-right LR, entry
angle A), their squares, and their pairwise products:

    1, D, LR, A, D^2, LR^2, A^2, D*LR, D*A, LR*A

Factors are standardized before the feature expansion so the quadratic
terms stay well conditioned; predictions are invariant to that choice.
Training maximizes a ridge-stabilized log-likelihood (tiny default penalty
on non-intercept terms) by Newton / iteratively reweighted least squares
with step halving.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .core import expit

N_FEATURES = 10
FEATURE_NAMES = ("1", "D", "LR", "A", "D^2", "LR^2", "A^2", "D*LR", "D*A", "LR*A")
MODEL_FORMAT_VERSION = 1

# linear predictors are clipped here so probabilities stay strictly inside (0, 1)
MAX_LINEAR_PREDICTOR = 30.0
# Newton stops after this many steps, or once no gradient entry reaches GRAD_TOL
MAX_ITER = 100
GRAD_TOL = 1e-8


class TrainingError(ValueError):
    pass


class DegenerateOutcomesError(TrainingError):
    """All outcomes identical; the model is not identifiable."""


@dataclass(frozen=True)
class Standardizer:
    """Per-factor centering and scaling constants (depth, left-right, angle)."""

    means: np.ndarray    # (3,)
    scales: np.ndarray   # (3,)

    @classmethod
    def fit(cls, factors: np.ndarray) -> "Standardizer":
        f = np.asarray(factors, dtype=float)
        means = f.mean(axis=0)
        scales = f.std(axis=0)
        scales = np.where(scales > 0, scales, 1.0)
        return cls(means=means, scales=scales)

    def apply(self, factors: np.ndarray) -> np.ndarray:
        return (np.asarray(factors, dtype=float) - self.means) / self.scales


def design_row(factors: np.ndarray, standardizer: Standardizer) -> np.ndarray:
    """Feature row(s) for raw factor triples (depth_ft, lr_ft, angle_deg)."""
    f = np.asarray(factors, dtype=float)
    squeeze = f.ndim == 1
    if squeeze:
        f = f[None, :]
    s = standardizer.apply(f)
    d, l, a = s[:, 0], s[:, 1], s[:, 2]
    rows = np.column_stack([
        np.ones_like(d), d, l, a,
        d * d, l * l, a * a,
        d * l, d * a, l * a,
    ])
    return rows[0] if squeeze else rows


@dataclass(frozen=True)
class TrainConfig:
    ridge: float = 1e-6          # penalty on non-intercept coefficients
    min_shots: int = 500

    def __post_init__(self) -> None:
        if not 0.0 <= self.ridge < math.inf:
            raise TrainingError(f"ridge must be finite and >= 0, got {self.ridge!r}")
        if type(self.min_shots) is not int or self.min_shots < 1:
            raise TrainingError(f"min_shots must be an integer >= 1, got {self.min_shots!r}")


@dataclass(frozen=True)
class MakeProbModel:
    coeffs: np.ndarray           # (10,)
    feature_means: np.ndarray    # (3,)
    feature_scales: np.ndarray   # (3,)
    train_n: int
    converged: bool
    log_likelihood: float

    @property
    def standardizer(self) -> Standardizer:
        return Standardizer(means=self.feature_means, scales=self.feature_scales)

    def to_json(self) -> dict:
        """The model file's document, which ``from_json`` reads back."""
        return {
            "version": MODEL_FORMAT_VERSION,
            "model": "quadratic-logistic-shot-make",
            "feature_names": list(FEATURE_NAMES),
            "coeffs": self.coeffs.tolist(),
            "feature_means": self.feature_means.tolist(),
            "feature_scales": self.feature_scales.tolist(),
            "train_n": self.train_n,
            "converged": self.converged,
            "log_likelihood": self.log_likelihood,
        }

    @classmethod
    def from_json(cls, text: str | bytes) -> "MakeProbModel":
        """The model of a ``to_json`` document.  A ``TrainingError`` for text that is not a
        JSON object, another version, coefficients, means or scales that are
        not 10, 3 and 3 finite numbers, a scale not above 0, or a missing or
        mistyped ``train_n``, ``converged`` or ``log_likelihood``."""
        try:
            doc = json.loads(text)
        except ValueError as exc:      # JSONDecodeError, or bytes that are not UTF-8
            raise TrainingError(f"model file is not JSON: {exc}") from None
        except RecursionError:
            raise TrainingError("model file is not JSON: nested too deeply") from None
        version = doc.get("version") if isinstance(doc, dict) else None
        if version != MODEL_FORMAT_VERSION:
            raise TrainingError(f"unsupported model version {version!r}")
        arrays = ("coeffs", "feature_means", "feature_scales")
        for key, n in zip(arrays, (N_FEATURES, 3, 3)):
            values = doc.get(key)
            if not (type(values) is list and len(values) == n
                    and all(type(v) in (int, float) and math.isfinite(v) for v in values)):
                raise TrainingError(f"model {key} must be {n} finite numbers, not {values!r}")
        if min(doc["feature_scales"]) <= 0:
            raise TrainingError(f"model feature_scales must be above 0: {doc['feature_scales']}")
        if not (type(doc.get("train_n")) is int and type(doc.get("converged")) is bool
                and type(doc.get("log_likelihood")) in (int, float)):
            raise TrainingError("model train_n, converged and log_likelihood must be "
                                "an integer, a boolean and a number")
        return cls(*(np.asarray(doc[key], dtype=float) for key in arrays), doc["train_n"],
                   doc["converged"], float(doc["log_likelihood"]))


def _penalty_diag(ridge: float) -> np.ndarray:
    d = np.full(N_FEATURES, ridge)
    d[0] = 0.0
    return d


def log_likelihood(X: np.ndarray, y: np.ndarray, coeffs: np.ndarray) -> float:
    """Unpenalized Bernoulli log-likelihood at the given coefficients."""
    eta = np.clip(X @ coeffs, -MAX_LINEAR_PREDICTOR, MAX_LINEAR_PREDICTOR)
    return float(np.sum(y * eta - np.logaddexp(0.0, eta)))


def gradient(X: np.ndarray, y: np.ndarray, coeffs: np.ndarray, ridge: float = 0.0) -> np.ndarray:
    """Gradient of the ridge-penalized log-likelihood."""
    p = expit(np.clip(X @ coeffs, -MAX_LINEAR_PREDICTOR, MAX_LINEAR_PREDICTOR))
    return X.T @ (y - p) - _penalty_diag(ridge) * coeffs


def train(
    factors: np.ndarray,
    outcomes: np.ndarray,
    config: TrainConfig = TrainConfig(),
) -> MakeProbModel:
    """Fit the make-probability model on raw factor triples and 0/1 outcomes."""
    f = np.asarray(factors, dtype=float)
    y = np.asarray(outcomes, dtype=float)
    if f.ndim != 2 or f.shape[1] != 3:
        raise TrainingError("factors must be (n, 3): depth_ft, lr_ft, angle_deg")
    if len(f) != len(y):
        raise TrainingError("factors and outcomes differ in length")
    if len(y) < config.min_shots:
        raise TrainingError(f"{len(y)} shots < required minimum {config.min_shots}")
    if not np.all((y == 0.0) | (y == 1.0)):
        raise TrainingError("outcomes must be 0/1")
    if y.min() == y.max():
        raise DegenerateOutcomesError("all outcomes identical")

    std = Standardizer.fit(f)
    X = design_row(f, std)
    pen = _penalty_diag(config.ridge)

    coeffs = np.zeros(N_FEATURES)
    ybar = y.mean()
    coeffs[0] = np.log(ybar / (1.0 - ybar))

    def objective(c: np.ndarray) -> float:
        return log_likelihood(X, y, c) - 0.5 * float(pen @ (c * c))

    obj = objective(coeffs)
    converged = False
    for _ in range(MAX_ITER):
        eta = np.clip(X @ coeffs, -MAX_LINEAR_PREDICTOR, MAX_LINEAR_PREDICTOR)
        p = expit(eta)
        g = X.T @ (y - p) - pen * coeffs
        if np.max(np.abs(g)) < GRAD_TOL:
            converged = True
            break
        w = p * (1.0 - p)
        hess = (X.T * w) @ X + np.diag(pen)
        step = np.linalg.solve(hess, g)
        # step halving keeps Newton from overshooting on near-separable data
        t = 1.0
        for _ in range(30):
            cand = coeffs + t * step
            if objective(cand) >= obj - 1e-12:
                break
            t *= 0.5
        coeffs = coeffs + t * step
        obj = objective(coeffs)

    return MakeProbModel(
        coeffs=coeffs,
        feature_means=std.means,
        feature_scales=std.scales,
        train_n=len(y),
        converged=converged,
        log_likelihood=log_likelihood(X, y, coeffs),
    )


def predict(model: MakeProbModel, factors: np.ndarray) -> np.ndarray | float:
    """Make probability for raw factor triples; always strictly inside (0, 1)."""
    rows = design_row(np.asarray(factors, dtype=float), model.standardizer)
    eta = np.clip(rows @ model.coeffs, -MAX_LINEAR_PREDICTOR, MAX_LINEAR_PREDICTOR)
    p = expit(eta)
    return float(p) if np.ndim(p) == 0 else p

