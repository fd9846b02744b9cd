"""Shared fixtures: deterministic synthetic shots and the sequential
conjugate-update oracle for fit-level tests."""

import math
from dataclasses import dataclass, field

import numpy as np
import pytest

from shotarc.core import RIM_RADIUS_FT
from shotarc.factors import CrossingError, PathError, compute_shot_factors, fit_path_line
from shotarc.ingest import extract_shot_events
from shotarc.trajectory import (
    BASE_EPSILON,
    BASE_SCALE,
    BASE_SHAPE,
    N_COEFFS,
    FilterThresholds,
    TrajectoryFitError,
    fit_trajectory,
    make_pseudo_data,
    quadratic_features,
)

GRAVITY = 32.174


def parabola_shot(
    release_dist=23.75,
    azimuth_rad=0.0,
    lr_ft=0.0,
    depth_ft=0.75,
    entry_angle_deg=45.0,
    release_height=7.0,
    noise=0.0,
    seed=0,
    frame_rate=25.0,
    extra=2,
):
    """Plain-numpy projectile shot independent of the sim module.

    Builds the unique vertical-plane parabola through the release point and
    the requested rim-plane crossing, then samples it at the frame rate.
    Returns (points (n,3), release_xy, truth dict).
    """
    rng = np.random.default_rng(seed)
    release = np.array([release_dist * math.cos(azimuth_rad),
                        release_dist * math.sin(azimuth_rad)])
    to_rim = -release / np.linalg.norm(release)
    phi = -math.asin(lr_ft / release_dist)
    c, s = math.cos(phi), math.sin(phi)
    d = np.array([c * to_rim[0] - s * to_rim[1], s * to_rim[0] + c * to_rim[1]])
    s_center = float((np.zeros(2) - release) @ d)
    s_cross = s_center + depth_ft - RIM_RADIUS_FT
    tan_a = math.tan(math.radians(entry_angle_deg))
    c2 = -((10.0 - release_height) + tan_a * s_cross) / s_cross**2
    c1 = -tan_a - 2 * c2 * s_cross
    v_h = math.sqrt(GRAVITY / (-2 * c2))
    n = int(round(s_cross / v_h * frame_rate)) + extra
    t = np.arange(n) / frame_rate
    arc = v_h * t
    xy = release[None, :] + arc[:, None] * d[None, :]
    z = release_height + c1 * arc + c2 * arc**2
    pts = np.column_stack([xy, z])
    if noise > 0:
        pts = pts + rng.normal(0, noise, pts.shape)
    truth = {
        "depth_ft": depth_ft,
        "lr_ft": lr_ft,
        "entry_angle_deg": entry_angle_deg,
        "s_cross": s_cross,
        "direction": d,
        "release_xy": release,
    }
    return pts, release, truth


@pytest.fixture
def shot_factory():
    return parabola_shot


@dataclass(frozen=True)
class NigPosterior:
    """Natural-parameter state of the NIG distribution: (Lambda, Lambda*mu, a, b).

    A square-root representation of the information matrix (stacked rows
    R with R'R = Lambda and targets y with R'y = shift) is carried along;
    the posterior mean is solved through the stacked system, whose
    conditioning is the square root of Lambda's.  The values are
    mathematically identical to the normal-equations solution.

    ``updated`` applies one conjugate update at a time.  ``fit_trajectory``
    forms the same final state in one step; this sequential chain is its
    reference.
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


def base_posterior() -> NigPosterior:
    """The nearly flat base prior, its root the Cholesky factor of its precision."""
    prec = BASE_EPSILON * np.eye(N_COEFFS)
    mean = np.zeros(N_COEFFS)
    chol_t = np.linalg.cholesky(prec).T
    return NigPosterior(
        precision=prec.copy(),
        shift=prec @ mean,
        shape=BASE_SHAPE,
        scale=BASE_SCALE,
        root=chol_t,
        root_target=chol_t @ mean,
    )


def sequential_chain(pts, release, pseudo_weight=1.0):
    """Base prior, then the pseudo-points, then the samples, one update at a time."""
    xy_p, z_p = make_pseudo_data(release)
    return base_posterior().updated(
        quadratic_features(xy_p), z_p, weight=pseudo_weight).updated(
        quadratic_features(pts[:, :2]), pts[:, 2])


@dataclass(frozen=True)
class OneShot:
    """The one-shot chain's outcome for one shot: the fit's beta and RMSE (None
    when ``fit_trajectory`` raised), the reason that dropped the shot ("" when
    it made a row) and its (depth, left-right, entry angle), None without a row."""

    beta: np.ndarray | None
    rmse_ft: float | None
    rejection: str
    factors: tuple[float, float, float] | None


def one_shot_chain(samples, release_xy, max_gap_s, thresholds=FilterThresholds()) -> list[OneShot]:
    """The reference for the batched season fit: shot by shot, ``fit_trajectory``,
    the filter's rules in their stated order, then ``fit_path_line`` and
    ``compute_shot_factors``."""
    out = []
    for pts, release, gap in zip(samples, release_xy, max_gap_s):
        try:
            fitted = fit_trajectory(pts, release, min_samples=thresholds.min_samples)
        except TrajectoryFitError:
            fitted = None
        factors, rejection = None, ""
        if len(pts) < thresholds.min_samples:
            rejection = "insufficient_samples"
        elif fitted is None:
            rejection = "unfittable"
        elif gap > thresholds.max_gap_s:
            rejection = "gapped"
        elif fitted.rmse_ft > thresholds.max_rmse_ft:
            rejection = "noisy"
        else:
            try:
                f = compute_shot_factors(fitted, fit_path_line(pts))
                factors = (f.depth_ft, f.left_right_ft, f.entry_angle_deg)
            except (PathError, CrossingError) as exc:
                rejection = exc.flag
        out.append(OneShot(None if fitted is None else fitted.beta,
                           None if fitted is None else fitted.rmse_ft, rejection, factors))
    return out


def season_chain(tracking, events, roster, thresholds=FilterThresholds()) -> list[OneShot]:
    """``one_shot_chain`` over every shot that ``extract_shot_events`` extracts."""
    shots, _ = extract_shot_events(tracking, events, roster, min_samples=thresholds.min_samples)
    return one_shot_chain([ev.samples for ev in shots], [ev.release_xy for ev in shots],
                          [ev.max_gap_s for ev in shots], thresholds)


def assert_matches_chain(rejection, fitted, beta, rmse, factors, chain, tol=1e-9):
    """Per-shot columns of the batched path against the one-shot chain: the same
    rejection and fit outcome, and beta, RMSE and factors (k, 3) within ``tol``."""
    assert list(rejection) == [c.rejection for c in chain]
    assert list(fitted) == [c.beta is not None for c in chain]
    done, row = np.asarray(fitted), np.asarray(rejection) == ""
    assert np.isnan(beta[~done]).all() and np.isnan(rmse[~done]).all()
    np.testing.assert_allclose(
        beta[done], np.reshape([c.beta for c in chain if c.beta is not None], (-1, 6)),
        rtol=0, atol=tol)
    np.testing.assert_allclose(rmse[done], [c.rmse_ft for c in chain if c.beta is not None],
                               rtol=0, atol=tol)
    assert np.isnan(factors[~row]).all()
    np.testing.assert_allclose(
        factors[row], np.reshape([c.factors for c in chain if not c.rejection], (-1, 3)),
        rtol=0, atol=tol)


def assert_season_matches_chain(fit, chain, tol=1e-9):
    """Every extracted shot of a ``SeasonFit`` against the one-shot chain, and its
    rows the chain's rows in extraction order."""
    fits = fit.fits
    assert len(fits) == len(chain)
    assert_matches_chain(fits["rejection"], fits["fitted"], fits["beta"], fits["rmse_ft"],
                         fits.matrix(("depth_ft", "lr_ft", "entry_angle_deg")), chain, tol)
    assert fit.rows["shot_id"].tolist() == fits["shot_id"][fits["rejection"] == ""].tolist()
