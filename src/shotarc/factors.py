"""Shot factors: depth, left-right distance, and entry angle.

A shot's horizontal path is summarized by a total-least-squares line through
the sampled (x, y) positions.  Substituting that line into the fitted
quadratic surface gives the height as a quadratic in the path coordinate;
its larger root at rim height is the descending rim-plane crossing, from
which the three factors follow:

    depth      = crossing coordinate minus the front-rim coordinate
    left-right = signed perpendicular miss of the path line at rim center
    entry angle = arctan(|dz/ds|) at the crossing, degrees below horizontal

Positive left-right means the shooter's right.  A path through the rim
center reports depth equal to the rim radius (0.75 ft = 9 in).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import RIM_HEIGHT_FT, RIM_RADIUS_FT, ShotFactors
from .trajectory import FittedTrajectory

_RIM_XY = np.zeros(2)       # the rim center, in the local frame


class PathError(ValueError):
    """Horizontal path line cannot be determined."""


class CrossingError(ValueError):
    """Base for rim-plane crossing failures; carries a reason flag."""

    flag = "degenerate"


class NoCrossingError(CrossingError):
    """Modeled arc never reaches rim height on the way down."""

    flag = "short_airball"


class AscendingCrossingError(CrossingError):
    """Arc meets rim height only while rising; no descending branch."""

    flag = "ascending"


@dataclass(frozen=True)
class ShotPath:
    """Oriented horizontal line through a shot's samples.

    Points on the line are anchor + s * direction, with s increasing from
    release toward the rim.  s_center is the path coordinate of the rim
    center's orthogonal projection; the front rim sits one rim radius
    earlier along the path.
    """

    anchor: np.ndarray          # (2,)
    direction: np.ndarray       # (2,), unit norm
    s_front_rim: float
    s_center: float


def fit_path_line(samples: np.ndarray) -> ShotPath:
    """Total-least-squares line through the horizontal sample coordinates.

    Orientation follows flight order (first sample -> last sample), which
    runs from release toward the rim for any extracted shot window.
    """
    pts = np.asarray(samples, dtype=float)
    xy = pts[:, :2] if pts.shape[1] >= 2 else pts
    if len(xy) < 2:
        raise PathError("need at least 2 samples to fit a path line")
    centroid = xy.mean(axis=0)
    centered = xy - centroid
    # principal direction of the horizontal scatter
    _, svals, vt = np.linalg.svd(centered, full_matrices=False)
    if svals[0] < 1e-12:
        raise PathError("samples horizontally coincident; path undefined")
    direction = vt[0]
    chord = xy[-1] - xy[0]
    orient = float(chord @ direction)
    if orient == 0.0:
        raise PathError("cannot orient path: endpoints coincide horizontally")
    if orient < 0.0:
        direction = -direction

    s_center = float((_RIM_XY - centroid) @ direction)
    return ShotPath(
        anchor=centroid,
        direction=direction,
        s_front_rim=s_center - RIM_RADIUS_FT,
        s_center=s_center,
    )


def path_height_coefficients(fitted: FittedTrajectory, path: ShotPath) -> tuple[float, float, float]:
    """Coefficients (c0, c1, c2) of z(s) = c0 + c1*s + c2*s^2 along the path."""
    ax, ay = path.anchor
    dx, dy = path.direction
    b0, b1, b2, b3, b4, b5 = fitted.beta
    c0 = b0 + b1 * ax + b2 * ay + b3 * ax * ax + b4 * ay * ay + b5 * ax * ay
    c1 = b1 * dx + b2 * dy + 2 * b3 * ax * dx + 2 * b4 * ay * dy + b5 * (ax * dy + ay * dx)
    c2 = b3 * dx * dx + b4 * dy * dy + b5 * dx * dy
    return float(c0), float(c1), float(c2)


def rim_plane_crossing(fitted: FittedTrajectory, path: ShotPath) -> tuple[float, float]:
    """Descending crossing of the modeled arc with the rim plane.

    Returns (s_cross, dz_ds).  The larger real root of z(s) = rim height is
    the descending branch of a concave arc; a positive slope there means the
    model only crosses the plane while rising, which is flagged degenerate.
    """
    c0, c1, c2 = path_height_coefficients(fitted, path)
    a, b, c = c2, c1, c0 - RIM_HEIGHT_FT

    if abs(a) < 1e-14:
        if b == 0.0:
            raise NoCrossingError("flat profile never reaches rim height")
        s = -c / b
        if b >= 0.0:
            raise AscendingCrossingError("linear profile crosses rim height rising")
        return float(s), float(b)

    disc = b * b - 4.0 * a * c
    if disc < 0.0:
        raise NoCrossingError("modeled arc never reaches rim height")
    sq = math.sqrt(disc)
    # numerically stable pair of roots
    q = -0.5 * (b + math.copysign(sq, b)) if b != 0.0 else -0.5 * sq
    r1 = q / a
    r2 = c / q if q != 0.0 else r1
    s = max(r1, r2)
    slope = c1 + 2.0 * c2 * s
    if slope >= 0.0:
        raise AscendingCrossingError("crossing slope is non-negative")
    return float(s), float(slope)


def left_right_of_path(path: ShotPath) -> float:
    """Signed perpendicular miss of the path at rim center; + is shooter's right."""
    foot = path.anchor + path.s_center * path.direction
    right_hat = np.array([path.direction[1], -path.direction[0]])
    return float((foot - _RIM_XY) @ right_hat)


def compute_shot_factors(fitted: FittedTrajectory, path: ShotPath) -> ShotFactors:
    """Depth, left-right, and entry angle from one fitted shot."""
    s_cross, slope = rim_plane_crossing(fitted, path)
    return ShotFactors(
        depth_ft=s_cross - path.s_front_rim,
        left_right_ft=left_right_of_path(path),
        entry_angle_deg=math.degrees(math.atan(abs(slope))),
    )
