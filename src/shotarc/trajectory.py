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

Numerically, the posterior mean has one solve, ``fit_trajectories``, of which
``fit_trajectory`` is the one-row view: the base root sqrt(epsilon) * I, the
pseudo rows and the sample rows are stacked into one least-squares system per
shot, whose condition number is the square root of the normal equations'.  The
condition guard is evaluated on the column-equilibrated normal matrix, since
the raw monomial basis is badly scaled for any court-sized design.
"""

from __future__ import annotations

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


# the pseudo-observations' height targets: two at the release, two at the rim center
_PSEUDO_Z = np.array([RELEASE_HEIGHT_PRIOR_FT] * 2 + [RIM_HEIGHT_FT] * 2)


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
    return xy, _PSEUDO_Z.copy()


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
    min_samples: int = 5,
) -> FittedTrajectory:
    """Fit the quadratic surface to one shot's (n, 3) local-frame ball samples.

    A one-row view of ``fit_trajectories``, which gives beta and the RMSE.  The
    precision is summed in the order of the one-update-at-a-time chain, and the
    inverse-gamma scale is b0 + |y - R beta|^2 / 2 on the stacked system.
    Raises InsufficientSamplesError or IllConditionedError; both mark the shot
    unfittable rather than aborting a season run.
    """
    pts = np.asarray(samples, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise ValueError("samples must be an (n, 3) array of local-frame points")
    if len(pts) < min_samples:
        raise InsufficientSamplesError(f"{len(pts)} samples < min_samples={min_samples}")
    xy_p, z_p = make_pseudo_data(release_xy)
    with np.errstate(invalid="ignore"):     # no samples: the RMSE is 0/0, NaN
        fitted, beta, rmse = _solve([pts], xy_p[0], min_samples)
    if not fitted[0]:
        raise IllConditionedError(f"equilibrated condition exceeds {CONDITION_GUARD:.0e}")
    Xp, X = quadratic_features(xy_p), quadratic_features(pts[:, :2])
    stacked_resid = np.concatenate([_BASE_TARGET, z_p, pts[:, 2]]) - np.vstack(
        [_BASE_ROOT, Xp, X]) @ beta[0]
    return FittedTrajectory(
        beta=beta[0],
        posterior_precision=_BASE_PRECISION + Xp.T @ Xp + X.T @ X,
        posterior_shape=BASE_SHAPE + len(z_p) / 2.0 + len(pts) / 2.0,
        posterior_scale=BASE_SCALE + 0.5 * float(stacked_resid @ stacked_resid),
        rmse_ft=float(rmse[0]),
        n_samples=len(pts),
    )


# the rows and targets every shot's stacked root shares: the base root, and the two
# pseudo rows at the rim center after the two at the release
_RIM_PSEUDO_ROWS = quadratic_features(np.zeros((2, 2)))
_PRIOR_TARGET = np.concatenate([_BASE_TARGET, _PSEUDO_Z])
# a padded solve holds a few arrays of (shots x (prior rows + longest window)) rows;
# blocks stay below this many rows, so one long window among many short ones costs its
# own rows once, not once per shot beside it
MAX_PADDED_ROWS = 1 << 14


def padded_blocks(n_samples: np.ndarray, min_samples: int) -> list[np.ndarray]:
    """The shots with at least ``min_samples`` samples, shortest first, in blocks.

    A block of k shots whose longest window holds n samples pads to
    k * (len(_PRIOR_TARGET) + n) rows, at most ``MAX_PADDED_ROWS`` unless the
    block is a single shot.
    """
    n_samples = np.asarray(n_samples, dtype=np.int64)
    thick = np.flatnonzero(n_samples >= min_samples)
    order = thick[np.argsort(n_samples[thick], kind="stable")]
    rows = (len(_PRIOR_TARGET) + n_samples[order]).tolist()
    blocks, start = [], 0
    for i, m in enumerate(rows):
        if i > start and (i + 1 - start) * m > MAX_PADDED_ROWS:
            blocks.append(order[start:i])
            start = i
    return blocks + [order[start:]] if len(order) else []


def fit_trajectories(
    samples: list[np.ndarray],
    release_xy: np.ndarray,
    min_samples: int = 5,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The posterior-mean surfaces of many shots at once.

    ``samples`` holds each shot's (n_i, 3) local-frame points and
    ``release_xy`` (k, 2) its release; ``min_samples`` below 1 is a ValueError.
    Returns ``fitted`` (k,), true for a shot with at least ``min_samples``
    samples, a release away from the rim center and an equilibrated
    condition within ``CONDITION_GUARD``, and its ``beta`` (k, 6) and
    ``rmse_ft`` (k,), NaN where ``fitted`` is false.

    The shots are solved in ``padded_blocks``.  In a block, the shots'
    stacked roots [sqrt(epsilon) * I; pseudo rows; sample rows] are
    zero-padded to the longest window, which changes neither R nor the
    solution, and solved by one batched QR factorization and triangular
    solve (Golub & Van Loan, Matrix Computations, sec. 5.3).  Since R'R is
    the posterior precision, the equilibrated condition is the square of
    that of R with unit columns.
    """
    if min_samples < 1:
        raise ValueError(f"min_samples must be at least 1, got {min_samples!r}")
    return _solve(samples, release_xy, min_samples)


def _solve(samples: list[np.ndarray], release_xy: np.ndarray,
           min_samples: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``fit_trajectories`` for any ``min_samples``; below 1, a shot without samples
    gets the pseudo-observation-only fit that ``fit_trajectory`` offers."""
    k = len(samples)
    n = np.array([len(s) for s in samples], dtype=np.int64)
    release = np.asarray(release_xy, dtype=float).reshape(k, 2)
    fitted, beta, rmse = np.zeros(k, dtype=bool), np.full((k, N_COEFFS), np.nan), np.full(k, np.nan)
    for block in padded_blocks(n, min_samples):
        counts = n[block]
        pts = np.concatenate([samples[i] for i in block])
        if not np.all(np.isfinite(pts)):
            raise ValueError("samples contain non-finite coordinates")
        valid = np.arange(counts.max()) < counts[:, None]
        X = np.zeros(valid.shape + (N_COEFFS,))
        z = np.zeros(valid.shape)
        X[valid] = quadratic_features(pts[:, :2])
        z[valid] = pts[:, 2]
        pseudo = quadratic_features(np.repeat(release[block], 2, axis=0)).reshape(-1, 2, N_COEFFS)
        root = np.concatenate([np.broadcast_to(_BASE_ROOT, (len(block), N_COEFFS, N_COEFFS)),
                               pseudo, np.broadcast_to(_RIM_PSEUDO_ROWS, pseudo.shape), X], axis=1)
        target = np.concatenate(
            [np.broadcast_to(_PRIOR_TARGET, (len(block), len(_PRIOR_TARGET))), z], axis=1)
        q, r = np.linalg.qr(root)
        cond = np.linalg.cond(r / np.linalg.norm(r, axis=-2, keepdims=True)) ** 2
        b = np.linalg.solve(r, np.einsum("kmj,km->kj", q, target)[..., None])[..., 0]
        resid = np.einsum("kmj,kj->km", X, b) - z
        # make_pseudo_data refuses a release at the rim center
        ok = (cond <= CONDITION_GUARD) & (np.hypot(*release[block].T) >= 1e-12)
        done = block[ok]
        fitted[done] = True
        beta[done] = b[ok]
        rmse[done] = np.sqrt(np.einsum("km,km->k", resid, resid)[ok] / counts[ok])
    return fitted, beta, rmse


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


# the rejection reasons of ``filter_shots``, in the order they are tested
FILTER_REASONS = ("insufficient_samples", "unfittable", "gapped", "noisy")


@dataclass(frozen=True)
class FilterReport:
    n_input: int
    n_retained: int
    rejections: dict[str, int] = field(default_factory=dict)

    @property
    def retention(self) -> float:
        return self.n_retained / self.n_input if self.n_input else 1.0


def filter_shots(
    n_samples: np.ndarray,
    fitted: np.ndarray,
    max_gap_s: np.ndarray,
    rmse_ft: np.ndarray,
    thresholds: FilterThresholds = FilterThresholds(),
) -> tuple[np.ndarray, FilterReport]:
    """Keep shots passing every threshold; count rejections by reason.

    Takes one value per shot in each array and returns each shot's reason
    ("" for a kept shot) with the counts.  Each shot is counted once, under
    the first reason that applies, in this order: fewer than ``min_samples``
    samples (``insufficient_samples``), no fitted surface (``unfittable``), a
    sampling gap above ``max_gap_s`` (``gapped``), a fit RMSE above
    ``max_rmse_ft`` (``noisy``).
    """
    code = np.select([np.asarray(n_samples) < thresholds.min_samples,
                      ~np.asarray(fitted, dtype=bool),
                      np.asarray(max_gap_s) > thresholds.max_gap_s,
                      np.asarray(rmse_ft) > thresholds.max_rmse_ft],
                     list(range(len(FILTER_REASONS))), default=-1)
    counts = np.bincount(code[code >= 0], minlength=len(FILTER_REASONS))
    report = FilterReport(n_input=len(code), n_retained=int(np.count_nonzero(code < 0)),
                          rejections={r: int(k) for r, k in zip(FILTER_REASONS, counts) if k})
    return np.array(("",) + FILTER_REASONS)[code + 1], report
