"""Shared fixtures: deterministic synthetic shots and the sequential
conjugate-update oracle for fit-level tests."""

import math
from dataclasses import dataclass, field

import numpy as np
import pytest

from shotarc.core import RIM_RADIUS_FT
from shotarc.trajectory import (
    BASE_EPSILON,
    BASE_SCALE,
    BASE_SHAPE,
    N_COEFFS,
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
