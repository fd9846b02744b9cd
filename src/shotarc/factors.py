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

from dataclasses import dataclass

import numpy as np

from .core import RIM_HEIGHT_FT, RIM_RADIUS_FT, ShotFactors
from .trajectory import FittedTrajectory


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
    """Total-least-squares line through the horizontal sample coordinates, as
    one row of ``shot_factors``.  Orientation follows flight order (first sample
    -> last sample), from release toward the rim for any extracted shot window."""
    pts = np.asarray(samples, dtype=float)
    if len(pts) < 2:
        raise PathError("need at least 2 samples to fit a path line")
    anchor, direction, s_center, degenerate = _path_lines([pts])
    if degenerate[0]:
        raise PathError("samples coincide horizontally, or so do the endpoints; path undefined")
    return ShotPath(anchor=anchor[0], direction=direction[0],
                    s_front_rim=float(s_center[0] - RIM_RADIUS_FT), s_center=float(s_center[0]))


def compute_shot_factors(fitted: FittedTrajectory, path: ShotPath) -> ShotFactors:
    """Depth, left-right, and entry angle from one fitted shot: one row of
    ``shot_factors``' crossing step."""
    factors, flag = _crossings(np.reshape(fitted.beta, (1, 6)), np.reshape(path.anchor, (1, 2)),
                               np.reshape(path.direction, (1, 2)), np.array([path.s_center]))
    for error in (NoCrossingError, AscendingCrossingError):
        if flag[0] == error.flag:
            raise error(error.__doc__)
    return ShotFactors(*factors[0].tolist())


def _path_lines(samples: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Anchor (k, 2), unit direction (k, 2) and ``s_center`` (k,) of each shot's
    path line, and (k,) True where ``PathError`` applies.

    The path direction is the principal axis of each shot's 2 x 2 scatter
    matrix [[sxx, sxy], [sxy, syy]], whose larger eigenvalue is the squared
    leading singular value of the centered samples.  Sums run over the
    shots' samples in one concatenated array, so no shot is padded.
    """
    n = np.array([len(s) for s in samples], dtype=np.int64)
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
    return anchor, np.column_stack([dx, dy]), s_center, (np.sqrt(top) < 1e-12) | (orient == 0.0)


def _crossings(beta: np.ndarray, anchor: np.ndarray, direction: np.ndarray,
               s_center: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(k, 3) depth, left-right and entry angle at each descending rim-plane crossing,
    and (k,) the ``NoCrossingError`` or ``AscendingCrossingError`` flag, or ""."""
    ax, ay = anchor.T
    dx, dy = direction.T
    # z(s) = c0 + c1 s + c2 s^2 along the path
    b0, b1, b2, b3, b4, b5 = np.asarray(beta, dtype=float).T
    c0 = b0 + b1 * ax + b2 * ay + b3 * ax * ax + b4 * ay * ay + b5 * ax * ay
    c1 = b1 * dx + b2 * dy + 2 * b3 * ax * dx + 2 * b4 * ay * dy + b5 * (ax * dy + ay * dx)
    c2 = b3 * dx * dx + b4 * dy * dy + b5 * dx * dy
    # the larger root of z(s) = rim height, from the numerically stable pair of roots
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
    flag = np.select([no_crossing, slope >= 0.0],
                     [NoCrossingError.flag, AscendingCrossingError.flag], "")
    # left-right: the foot of the rim center on the path, against the right normal
    foot_x, foot_y = ax + s_center * dx, ay + s_center * dy
    factors = np.column_stack([s_cross - (s_center - RIM_RADIUS_FT), foot_x * dy + foot_y * -dx,
                               np.degrees(np.arctan(np.abs(slope)))])
    return factors, flag


def shot_factors(samples: list[np.ndarray], beta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Depth, left-right and entry angle of many shots; ``fit_path_line`` and
    ``compute_shot_factors`` are its steps for one shot.

    ``samples`` holds each shot's (n_i, 3) points, n_i >= 2, and ``beta``
    (k, 6) its fitted surface.  Returns (k, 3) depth, left-right and entry
    angle, and (k,) the ``flag`` of the error the one-shot chain raises
    first, "" where it raises none (factors NaN there).
    """
    if not len(samples):
        return np.empty((0, 3)), np.empty(0, dtype=str)
    if min(len(s) for s in samples) < 2:
        raise ValueError("every shot needs at least 2 samples")
    anchor, direction, s_center, degenerate = _path_lines(samples)
    factors, flag = _crossings(beta, anchor, direction, s_center)
    flag = np.where(degenerate, PathError.flag, flag)
    good = flag == ""
    if not (np.isfinite(factors[good, :2]).all()
            and np.all((factors[good, 2] > 0.0) & (factors[good, 2] <= 90.0))):
        raise ValueError("factors not finite, or an entry angle outside (0, 90]")   # as ShotFactors
    factors[~good] = np.nan
    return factors, flag
