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

Numerically, the posterior is formed in one stacked solve: the base root
sqrt(epsilon) * I, the weighted pseudo rows and the sample rows are stacked
into one least-squares system, whose condition number is the square root
of the normal equations'.  The condition guard is evaluated on the
column-equilibrated normal matrix, since the raw monomial basis is badly
scaled for any court-sized design.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .core import RELEASE_HEIGHT_PRIOR_FT, RIM_HEIGHT_FT

N_COEFFS = 6

# The nearly flat base prior: an isotropic precision kept tiny, so the
# pseudo-data, not the base, carries the prior information and an exactly
# observed arc is recovered to well below reporting precision; then the
# inverse-gamma shape and scale.
BASE_EPSILON = 1e-10
BASE_SHAPE = 1e-3
BASE_SCALE = 1e-3
# the base precision, its square root (bit for bit the transposed Cholesky
# factor of that diagonal precision) and the root's targets (the mean is zero)
_BASE_PRECISION = BASE_EPSILON * np.eye(N_COEFFS)
_BASE_ROOT = np.sqrt(BASE_EPSILON) * np.eye(N_COEFFS)
_BASE_TARGET = np.zeros(N_COEFFS)
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


def fit_trajectory(
    samples: np.ndarray,
    release_xy: tuple[float, float] | np.ndarray,
    pseudo_weight: float = 1.0,
    min_samples: int = 5,
) -> FittedTrajectory:
    """Fit the quadratic surface to one shot's (n, 3) local-frame ball samples.

    The posterior is the conjugate update of the base prior with the four
    pseudo-points, each carrying ``pseudo_weight``, and then the observed
    samples.  It is formed in one step: the precision and the stacked square
    root [sqrt(epsilon) * I; sqrt(w) * pseudo rows; sample rows] are summed
    and stacked in the order of the one-update-at-a-time chain, so one
    least-squares solve on that root gives the chain's posterior mean bit for
    bit.  The inverse-gamma scale follows in closed form from the residual of
    the stacked system, b = b0 + |y - R beta|^2 / 2.

    Raises InsufficientSamplesError or IllConditionedError; both mark the
    shot unfittable rather than aborting a season run.
    """
    if not pseudo_weight >= 0:
        raise ValueError(f"pseudo_weight must be non-negative, got {pseudo_weight!r}")
    pts = np.asarray(samples, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise ValueError("samples must be an (n, 3) array of local-frame points")
    if len(pts) < min_samples:
        raise InsufficientSamplesError(f"{len(pts)} samples < min_samples={min_samples}")
    if not np.all(np.isfinite(pts)):
        raise ValueError("samples contain non-finite coordinates")

    xy_p, z_p = make_pseudo_data(release_xy)
    Xp = quadratic_features(xy_p)
    X = quadratic_features(pts[:, :2])
    z = pts[:, 2]
    precision = _BASE_PRECISION + pseudo_weight * (Xp.T @ Xp) + X.T @ X

    cond = equilibrated_condition(precision)
    if cond > CONDITION_GUARD:
        raise IllConditionedError(f"equilibrated condition {cond:.3e} exceeds guard")

    w = np.sqrt(pseudo_weight)
    root = np.vstack([_BASE_ROOT, w * Xp, X])
    root_target = np.concatenate([_BASE_TARGET, w * z_p, z])
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
        posterior_shape=BASE_SHAPE + pseudo_weight * len(z_p) / 2.0 + len(z) / 2.0,
        posterior_scale=BASE_SCALE + 0.5 * float(stacked_resid @ stacked_resid),
        rmse_ft=rmse,
        n_samples=len(pts),
    )


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
