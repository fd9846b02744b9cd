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

    flag = "path_degenerate"


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


def shot_factors(samples: list[np.ndarray], beta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``fit_path_line`` and ``compute_shot_factors`` for many shots at once.

    ``samples`` holds each shot's (n_i, 3) points, n_i >= 2, and ``beta``
    (k, 6) its fitted surface.  Returns (k, 3) depth, left-right and entry
    angle, and (k,) the ``flag`` of the error the one-shot chain raises
    first, "" where it raises none (factors NaN there).

    The path direction is the principal axis of each shot's 2 x 2 scatter
    matrix [[sxx, sxy], [sxy, syy]], whose larger eigenvalue is the squared
    leading singular value of the centered samples.  Sums run over the
    shots' samples in one concatenated array, so no shot is padded.
    """
    n = np.array([len(s) for s in samples], dtype=np.int64)
    if not len(n):
        return np.empty((0, 3)), np.empty(0, dtype=str)
    if n.min() < 2:
        raise ValueError("every shot needs at least 2 samples")
    xy = np.concatenate([s[:, :2] for s in samples])
    starts = np.cumsum(n) - n
    anchor = np.add.reduceat(xy, starts) / n[:, None]
    centered = xy - np.repeat(anchor, n, axis=0)
    cx, cy = centered.T
    sxx, syy, sxy = (np.add.reduceat(v, starts) for v in (cx * cx, cy * cy, cx * cy))
    top = 0.5 * (sxx + syy) + np.hypot(0.5 * (sxx - syy), sxy)     # the larger eigenvalue
    theta = 0.5 * np.arctan2(2.0 * sxy, sxx - syy)                 # and its eigenvector's angle
    dx, dy = np.cos(theta), np.sin(theta)
    chord = xy[starts + n - 1] - xy[starts]
    orient = chord[:, 0] * dx + chord[:, 1] * dy
    flip = np.where(orient < 0.0, -1.0, 1.0)
    dx, dy = flip * dx, flip * dy
    ax, ay = anchor.T
    s_center = -ax * dx + -ay * dy
    s_front_rim = s_center - RIM_RADIUS_FT

    # z(s) = c0 + c1 s + c2 s^2 along the path, as path_height_coefficients
    b0, b1, b2, b3, b4, b5 = np.asarray(beta, dtype=float).T
    c0 = b0 + b1 * ax + b2 * ay + b3 * ax * ax + b4 * ay * ay + b5 * ax * ay
    c1 = b1 * dx + b2 * dy + 2 * b3 * ax * dx + 2 * b4 * ay * dy + b5 * (ax * dy + ay * dx)
    c2 = b3 * dx * dx + b4 * dy * dy + b5 * dx * dy
    # the descending rim-plane root, branch for branch as rim_plane_crossing
    a, b, c = c2, c1, c0 - RIM_HEIGHT_FT
    linear = np.abs(a) < 1e-14
    with np.errstate(divide="ignore", invalid="ignore"):
        disc = b * b - 4.0 * a * c
        sq = np.sqrt(disc)
        q = np.where(b != 0.0, -0.5 * (b + np.copysign(sq, b)), -0.5 * sq)
        r1 = q / a
        r2 = np.where(q != 0.0, c / q, r1)
        s_cross = np.where(linear, -c / b, np.where(r2 > r1, r2, r1))
        slope = np.where(linear, b, c1 + 2.0 * c2 * s_cross)
    no_crossing = np.where(linear, b == 0.0, disc < 0.0)
    flag = np.select(
        [np.sqrt(top) < 1e-12, orient == 0.0, no_crossing, slope >= 0.0],
        [PathError.flag, PathError.flag, NoCrossingError.flag, AscendingCrossingError.flag], "")

    # left_right_of_path: the foot of the rim center on the path, against the right normal
    foot_x, foot_y = ax + s_center * dx, ay + s_center * dy
    factors = np.column_stack([s_cross - s_front_rim, foot_x * dy + foot_y * -dx,
                               np.degrees(np.arctan(np.abs(slope)))])
    good = flag == ""
    if not (np.isfinite(factors[good, :2]).all()
            and np.all((factors[good, 2] > 0.0) & (factors[good, 2] <= 90.0))):
        raise ValueError("factors not finite, or an entry angle outside (0, 90]")   # as ShotFactors
    factors[~good] = np.nan
    return factors, flag
