"""Bayesian quadratic-surface fit for shot trajectories.

Each shot's ball height is modeled as a quadratic in the horizontal
coordinates,

    E(z) = b0 + b1*x + b2*y + b3*x^2 + b4*y^2 + b5*x*y,

estimated with a conjugate Normal-Inverse-Gamma prior.  The prior is built
from a nearly flat base (tiny isotropic precision) updated with four
pseudo-observations: two at the release location with a 7 ft height target
and two at the rim center with a 10 ft target.  The reported coefficients
are the posterior mean, which is the ridge-type solution

    (Lambda0 + X'X)^-1 (Lambda0 mu0 + X'z)

over pseudo and observed rows combined.

Numerically, the conjugate state is kept in natural parameters (Lambda,
Lambda*mu) together with a stacked square-root representation (prior
Cholesky rows, weighted pseudo rows, sample rows); the posterior mean is
solved through the stacked system, whose condition number is the square
root of the normal equations'.  The condition guard is evaluated on the
column-equilibrated normal matrix, since the raw monomial basis is badly
scaled for any court-sized design.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .core import RELEASE_HEIGHT_PRIOR_FT, RIM_HEIGHT_FT

N_COEFFS = 6
FEATURE_NAMES = ("1", "x", "y", "x^2", "y^2", "x*y")

# The nearly flat base prior: an isotropic precision kept tiny, so the
# pseudo-data, not the base, carries the prior information and an exactly
# observed arc is recovered to well below reporting precision; then the
# inverse-gamma shape and scale.
BASE_EPSILON = 1e-10
BASE_SHAPE = 1e-3
BASE_SCALE = 1e-3
# legitimately underdetermined fits (near-collinear samples, pseudo-data
# alone) sit at data_scale / BASE_EPSILON ~ 1e13..1e17 and are resolved
# exactly by the prior; the square-root solve stays accurate to roughly
# sqrt(condition) * eps, so only conditions beyond ~1e20 are rejected
CONDITION_GUARD = 1e20


class TrajectoryFitError(ValueError):
    """Base class for per-shot fit failures (shot flagged, not fatal)."""


class InsufficientSamplesError(TrajectoryFitError):
    pass


class IllConditionedError(TrajectoryFitError):
    pass


def quadratic_features(xy: np.ndarray) -> np.ndarray:
    """Expand horizontal points (n, 2) into the 6-column design of the surface model."""
    xy = np.asarray(xy, dtype=float)
    if xy.ndim == 1:
        xy = xy[None, :]
    x, y = xy[:, 0], xy[:, 1]
    return np.column_stack([np.ones_like(x), x, y, x * x, y * y, x * y])


@dataclass(frozen=True)
class TrajectoryPrior:
    """Normal-Inverse-Gamma prior: beta | s2 ~ N(mean, s2 * precision^-1), s2 ~ IG(shape, scale)."""

    mean: np.ndarray
    precision: np.ndarray
    shape: float
    scale: float

    def __post_init__(self) -> None:
        mean = np.asarray(self.mean, dtype=float)
        prec = np.asarray(self.precision, dtype=float)
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "precision", prec)
        if mean.shape != (N_COEFFS,) or prec.shape != (N_COEFFS, N_COEFFS):
            raise ValueError("prior must have a 6-vector mean and 6x6 precision")
        if not np.allclose(prec, prec.T):
            raise ValueError("prior precision must be symmetric")
        try:
            np.linalg.cholesky(prec)
        except np.linalg.LinAlgError:
            raise ValueError("prior precision must be positive definite") from None
        if not (self.shape > 0 and self.scale > 0):
            raise ValueError("prior shape and scale must be positive")


@dataclass(frozen=True)
class PriorConfig:
    """The weight each of the four pseudo-observations carries in the prior."""

    pseudo_weight: float = 1.0

    def __post_init__(self) -> None:
        if not self.pseudo_weight >= 0:
            raise ValueError("pseudo_weight must be non-negative")

    def base_prior(self) -> TrajectoryPrior:
        return TrajectoryPrior(
            mean=np.zeros(N_COEFFS),
            precision=BASE_EPSILON * np.eye(N_COEFFS),
            shape=BASE_SHAPE,
            scale=BASE_SCALE,
        )

    @cached_property
    def base_posterior(self) -> "NigPosterior":
        """The validated, factored base prior; built once per config and only read."""
        return posterior_from_prior(self.base_prior())


def make_pseudo_data(release_xy: tuple[float, float] | np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Four pseudo-observations encoding prior knowledge of shot arcs.

    Two rows at the release location with height target 7 ft, two rows at
    the rim center with height target 10 ft.  Returns (xy rows (4, 2),
    z targets (4,)).  A release at the rim center leaves the prior with no
    direction to the rim and raises IllConditionedError.
    """
    rx, ry = float(release_xy[0]), float(release_xy[1])
    if np.hypot(rx, ry) < 1e-12:    # the rim center is the local origin
        raise IllConditionedError("release point coincides with the rim center")
    xy = np.array([[rx, ry], [rx, ry], [0.0, 0.0], [0.0, 0.0]])
    z = np.array([RELEASE_HEIGHT_PRIOR_FT, RELEASE_HEIGHT_PRIOR_FT, RIM_HEIGHT_FT, RIM_HEIGHT_FT])
    return xy, z


@dataclass(frozen=True)
class NigPosterior:
    """Natural-parameter state of the NIG distribution: (Lambda, Lambda*mu, a, b).

    A square-root representation of the information matrix (stacked rows
    R with R'R = Lambda and targets y with R'y = shift) is carried along;
    the posterior mean is solved through the stacked system, whose
    conditioning is the square root of Lambda's.  The values are
    mathematically identical to the normal-equations solution.

    ``updated`` applies one conjugate update at a time.  ``fit_trajectory``
    forms the same final state in one step; this sequential chain is kept as
    its reference.
    """

    precision: np.ndarray      # Lambda
    shift: np.ndarray          # h = Lambda @ mu
    shape: float
    scale: float
    root: np.ndarray = field(repr=False, compare=False)
    root_target: np.ndarray = field(repr=False, compare=False)

    @property
    def mean(self) -> np.ndarray:
        beta, *_ = np.linalg.lstsq(self.root, self.root_target, rcond=None)
        return beta

    def updated(self, X: np.ndarray, z: np.ndarray, weight: float = 1.0) -> "NigPosterior":
        """Conjugate update with rows X and targets z, each carrying `weight`."""
        if weight < 0:
            raise ValueError("weight must be non-negative")
        X = np.asarray(X, dtype=float)
        z = np.asarray(z, dtype=float)
        lam = self.precision + weight * (X.T @ X)
        h = self.shift + weight * (X.T @ z)
        w = np.sqrt(weight)
        root = np.vstack([self.root, w * X])
        root_target = np.concatenate([self.root_target, w * z])
        mu_old = self.mean
        new = NigPosterior(lam, h, self.shape + weight * len(z) / 2.0, self.scale,
                           root=root, root_target=root_target)
        mu_new = new.mean
        scale = self.scale + 0.5 * (
            weight * float(z @ z) + float(mu_old @ self.shift) - float(mu_new @ h)
        )
        return NigPosterior(lam, h, new.shape, scale, root=root, root_target=root_target)


def posterior_from_prior(prior: TrajectoryPrior) -> NigPosterior:
    prec = np.asarray(prior.precision, dtype=float)
    mean = np.asarray(prior.mean, dtype=float)
    chol_t = np.linalg.cholesky(prec).T
    return NigPosterior(
        precision=prec.copy(),
        shift=prec @ mean,
        shape=prior.shape,
        scale=prior.scale,
        root=chol_t,
        root_target=chol_t @ mean,
    )


def equilibrated_condition(lam: np.ndarray) -> float:
    d = 1.0 / np.sqrt(np.diag(lam))
    return float(np.linalg.cond(lam * d[:, None] * d[None, :]))


@dataclass(frozen=True)
class FittedTrajectory:
    """Posterior-mean surface coefficients plus fit diagnostics for one shot."""

    beta: np.ndarray                   # (6,)
    posterior_precision: np.ndarray    # (6, 6)
    posterior_shape: float
    posterior_scale: float
    rmse_ft: float
    n_samples: int
    condition: float = float("nan")

    def predict_z(self, xy: np.ndarray) -> np.ndarray:
        return quadratic_features(xy) @ self.beta


def fit_trajectory(
    samples: np.ndarray,
    release_xy: tuple[float, float] | np.ndarray,
    prior_config: PriorConfig = PriorConfig(),
    min_samples: int = 5,
) -> FittedTrajectory:
    """Fit the quadratic surface to one shot's (n, 3) local-frame ball samples.

    The posterior is the conjugate update of the base prior with the four
    pseudo-points and then the observed samples.  It is formed in one step:
    the natural parameters and the stacked square root
    [chol(Lambda0)'; sqrt(w) * pseudo rows; sample rows] are summed and
    stacked in the order the sequential ``NigPosterior.updated`` chain uses,
    so one least-squares solve on that root gives the chain's posterior mean
    bit for bit.  The inverse-gamma scale follows in closed form from the
    residual of the stacked system, b = b0 + |y - R beta|^2 / 2.

    Raises InsufficientSamplesError or IllConditionedError; both mark the
    shot unfittable rather than aborting a season run.
    """
    pts = np.asarray(samples, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise ValueError("samples must be an (n, 3) array of local-frame points")
    if len(pts) < min_samples:
        raise InsufficientSamplesError(f"{len(pts)} samples < min_samples={min_samples}")
    if not np.all(np.isfinite(pts)):
        raise ValueError("samples contain non-finite coordinates")

    base = prior_config.base_posterior
    weight = prior_config.pseudo_weight
    xy_p, z_p = make_pseudo_data(release_xy)
    Xp = quadratic_features(xy_p)
    X = quadratic_features(pts[:, :2])
    z = pts[:, 2]
    precision = base.precision + weight * (Xp.T @ Xp) + X.T @ X

    cond = equilibrated_condition(precision)
    if cond > CONDITION_GUARD:
        raise IllConditionedError(f"equilibrated condition {cond:.3e} exceeds guard")

    w = np.sqrt(weight)
    root = np.vstack([base.root, w * Xp, X])
    root_target = np.concatenate([base.root_target, w * z_p, z])
    beta, *_ = np.linalg.lstsq(root, root_target, rcond=None)
    stacked_resid = root_target - root @ beta
    if len(pts):
        resid = X @ beta - z
        rmse = float(np.sqrt(np.mean(resid**2)))
    else:
        rmse = float("nan")
    return FittedTrajectory(
        beta=beta,
        posterior_precision=precision,
        posterior_shape=base.shape + weight * len(z_p) / 2.0 + len(z) / 2.0,
        posterior_scale=base.scale + 0.5 * float(stacked_resid @ stacked_resid),
        rmse_ft=rmse,
        n_samples=len(pts),
        condition=cond,
    )


def trajectory_rmse(fitted: FittedTrajectory, samples: np.ndarray) -> float:
    """Root-mean-square z-residual of a fitted surface on observed samples."""
    pts = np.asarray(samples, dtype=float)
    if len(pts) == 0:
        raise ValueError("empty sample list")
    resid = fitted.predict_z(pts[:, :2]) - pts[:, 2]
    return float(np.sqrt(np.mean(resid**2)))


# --- season-level filtering -------------------------------------------------

@dataclass(frozen=True)
class FilterThresholds:
    """Retention rules applied before any downstream modeling.

    Defaults were tuned on simulated seasons with injected corruption so a
    ~10% corruption rate yields roughly 90% retention.  ``min_samples`` is
    an integer of at least 2 (a path line needs two samples); both limits
    must be positive, NaN is refused and ``inf`` means no limit.
    """

    min_samples: int = 5
    max_rmse_ft: float = 0.5
    max_gap_s: float = 0.2

    def __post_init__(self) -> None:
        if not (isinstance(self.min_samples, int) and self.min_samples >= 2):
            raise ValueError(f"min_samples must be an integer >= 2, got {self.min_samples!r}")
        for name in ("max_rmse_ft", "max_gap_s"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)!r}")


@dataclass(frozen=True)
class ShotFitRecord:
    """Join of a shot id with its fit outcome and sampling diagnostics."""

    shot_id: str
    fitted: FittedTrajectory | None     # None when the fit failed
    n_samples: int
    max_gap_s: float


@dataclass(frozen=True)
class FilterReport:
    n_input: int
    n_retained: int
    rejections: dict[str, int] = field(default_factory=dict)

    @property
    def retention(self) -> float:
        return self.n_retained / self.n_input if self.n_input else 1.0


def filter_shots(
    records: list[ShotFitRecord],
    thresholds: FilterThresholds = FilterThresholds(),
) -> tuple[list[ShotFitRecord], FilterReport]:
    """Keep shots passing every threshold; count rejections by reason.

    Each shot is counted once, under the first reason that applies, in
    this order: fewer than ``min_samples`` samples (``insufficient_samples``),
    no fitted surface (``unfittable``), a sampling gap above ``max_gap_s``
    (``gapped``), a fit RMSE above ``max_rmse_ft`` (``noisy``).
    """
    retained: list[ShotFitRecord] = []
    reasons: Counter[str] = Counter()
    for rec in records:
        if rec.n_samples < thresholds.min_samples:
            reasons["insufficient_samples"] += 1
        elif rec.fitted is None:
            reasons["unfittable"] += 1
        elif rec.max_gap_s > thresholds.max_gap_s:
            reasons["gapped"] += 1
        elif rec.fitted.rmse_ft > thresholds.max_rmse_ft:
            reasons["noisy"] += 1
        else:
            retained.append(rec)
    return retained, FilterReport(n_input=len(records), n_retained=len(retained), rejections=dict(reasons))
