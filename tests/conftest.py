"""Shared fixtures: deterministic synthetic shots for fit-level tests."""

import math

import numpy as np
import pytest

from shotarc.core import RIM_RADIUS_FT

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
