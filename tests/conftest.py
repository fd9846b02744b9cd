"""Shared fixtures: deterministic synthetic shots, the sequential
conjugate-update oracle and the SVD one-shot solve for fit-level tests, the
scalar shot-factor oracle for the array factors, and the text-mode
``json.loads`` range parse, with its own row-at-a-time buffers, for the
tracking loader's range parse."""

import io
import json
import math
from array import array
from collections import Counter
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
import pytest

from shotarc.core import RIM_HEIGHT_FT, RIM_RADIUS_FT, ShotFactors
from shotarc.factors import AscendingCrossingError, CrossingError, NoCrossingError, PathError, \
    ShotPath
from shotarc import ingest
from shotarc.ingest import extract_shot_events
from shotarc.trajectory import (
    BASE_EPSILON,
    BASE_SCALE,
    BASE_SHAPE,
    CONDITION_GUARD,
    N_COEFFS,
    FilterThresholds,
    IllConditionedError,
    InsufficientSamplesError,
    TrajectoryFitError,
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
    reference, and ``lstsq_fit`` gives the chain's mean in one solve.
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

    def updated(self, X: np.ndarray, z: np.ndarray) -> "NigPosterior":
        """Conjugate update with rows X and targets z."""
        X = np.asarray(X, dtype=float)
        z = np.asarray(z, dtype=float)
        lam = self.precision + X.T @ X
        h = self.shift + X.T @ z
        root = np.vstack([self.root, X])
        root_target = np.concatenate([self.root_target, z])
        mu_old = self.mean
        new = NigPosterior(lam, h, self.shape + len(z) / 2.0, self.scale,
                           root=root, root_target=root_target)
        mu_new = new.mean
        scale = self.scale + 0.5 * (float(z @ z) + float(mu_old @ self.shift) - float(mu_new @ h))
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


def sequential_chain(pts, release):
    """Base prior, then the pseudo-points, then the samples, one update at a time."""
    xy_p, z_p = make_pseudo_data(release)
    return base_posterior().updated(quadratic_features(xy_p), z_p).updated(
        quadratic_features(pts[:, :2]), pts[:, 2])


class LstsqFit(NamedTuple):
    beta: np.ndarray
    rmse_ft: float


def lstsq_fit(pts, release, min_samples=5) -> LstsqFit:
    """One shot's fit by an SVD solve, independent of the package's batched QR.

    The stacked root [sqrt(epsilon) * I; pseudo rows; sample rows] is built in
    ``sequential_chain``'s order and solved by ``lstsq``, so its beta is the
    chain's mean bit for bit.  The condition guard reads the equilibrated
    posterior precision.  Raises the ``TrajectoryFitError`` that
    ``fit_trajectory`` raises.
    """
    pts = np.asarray(pts, dtype=float)
    if len(pts) < min_samples:
        raise InsufficientSamplesError(f"{len(pts)} samples < min_samples={min_samples}")
    xy_p, z_p = make_pseudo_data(release)
    Xp, X = quadratic_features(xy_p), quadratic_features(pts[:, :2])
    precision = BASE_EPSILON * np.eye(N_COEFFS) + Xp.T @ Xp + X.T @ X
    d = 1.0 / np.sqrt(np.diag(precision))
    cond = np.linalg.cond(precision * d[:, None] * d[None, :])     # scaled to a unit diagonal
    if cond > CONDITION_GUARD:
        raise IllConditionedError(f"equilibrated condition {cond:.3e} exceeds guard")
    root = np.vstack([np.sqrt(BASE_EPSILON) * np.eye(N_COEFFS), Xp, X])
    beta, *_ = np.linalg.lstsq(root, np.concatenate([np.zeros(N_COEFFS), z_p, pts[:, 2]]),
                               rcond=None)
    rmse = float(np.sqrt(np.mean((X @ beta - pts[:, 2]) ** 2))) if len(pts) else float("nan")
    return LstsqFit(beta, rmse)


def oracle_path_line(samples) -> ShotPath:
    """``fit_path_line`` by an SVD of the centered horizontal samples."""
    xy = np.asarray(samples, dtype=float)[:, :2]
    if len(xy) < 2:
        raise PathError("need at least 2 samples to fit a path line")
    centroid = xy.mean(axis=0)
    _, svals, vt = np.linalg.svd(xy - centroid, full_matrices=False)
    if svals[0] < 1e-12:
        raise PathError("samples horizontally coincident; path undefined")
    direction = vt[0]
    orient = float((xy[-1] - xy[0]) @ direction)
    if orient == 0.0:
        raise PathError("cannot orient path: endpoints coincide horizontally")
    if orient < 0.0:
        direction = -direction
    s_center = float(-centroid @ direction)      # the rim center is the local origin
    return ShotPath(centroid, direction, s_center - RIM_RADIUS_FT, s_center)


def oracle_factors(fitted, path: ShotPath) -> ShotFactors:
    """``compute_shot_factors`` by scalar algebra: the path-height quadratic
    z(s) = c0 + c1 s + c2 s^2, its larger root at rim height, and the signed
    miss of the path at the rim center."""
    ax, ay = path.anchor
    dx, dy = path.direction
    b0, b1, b2, b3, b4, b5 = fitted.beta
    c0 = b0 + b1 * ax + b2 * ay + b3 * ax * ax + b4 * ay * ay + b5 * ax * ay
    c1 = b1 * dx + b2 * dy + 2 * b3 * ax * dx + 2 * b4 * ay * dy + b5 * (ax * dy + ay * dx)
    c2 = b3 * dx * dx + b4 * dy * dy + b5 * dx * dy
    a, b, c = c2, c1, c0 - RIM_HEIGHT_FT
    if abs(a) < 1e-14:
        if b == 0.0:
            raise NoCrossingError("flat profile never reaches rim height")
        s, slope = -c / b, b
    else:
        disc = b * b - 4.0 * a * c
        if disc < 0.0:
            raise NoCrossingError("modeled arc never reaches rim height")
        sq = math.sqrt(disc)
        q = -0.5 * (b + math.copysign(sq, b)) if b != 0.0 else -0.5 * sq
        r1 = q / a
        s = max(r1, c / q if q != 0.0 else r1)
        slope = c1 + 2.0 * c2 * s
    if slope >= 0.0:
        raise AscendingCrossingError("crossing slope is non-negative")
    foot = path.anchor + path.s_center * path.direction
    return ShotFactors(depth_ft=float(s - path.s_front_rim),
                       left_right_ft=float(foot @ [dy, -dx]),
                       entry_angle_deg=math.degrees(math.atan(abs(slope))))


@dataclass(frozen=True)
class OneShot:
    """The one-shot chain's outcome for one shot: the fit's beta and RMSE (None
    when ``lstsq_fit`` raised), the reason that dropped the shot ("" when
    it made a row) and its (depth, left-right, entry angle), None without a row."""

    beta: np.ndarray | None
    rmse_ft: float | None
    rejection: str
    factors: tuple[float, float, float] | None


def one_shot_chain(samples, release_xy, max_gap_s, thresholds=FilterThresholds()) -> list[OneShot]:
    """The reference for the batched season fit: shot by shot, ``lstsq_fit``,
    the filter's rules in their stated order, then ``oracle_path_line`` and
    ``oracle_factors``."""
    out = []
    for pts, release, gap in zip(samples, release_xy, max_gap_s):
        try:
            fitted = lstsq_fit(pts, release, thresholds.min_samples)
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
                f = oracle_factors(fitted, oracle_path_line(pts))
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


def json_number(value) -> float:
    """A JSON number as a float; a string, bool or null is no number."""
    if type(value) not in (int, float):
        raise TypeError(f"{value!r} is not a JSON number")
    return float(value)


def _oracle_row_fields(doc):
    """(game_id, t, ball, (player id, team) pairs, interleaved player x/y) of one JSON frame."""
    players = doc["players"]
    ball = doc["ball"]
    return (
        doc["game_id"],
        json_number(doc["t"]),
        (json_number(ball[0]), json_number(ball[1]), json_number(ball[2])),
        [(p["id"], p["team"]) for p in players],
        [json_number(v) for p in players for v in (p["x"], p["y"])],
    )


class _OracleGameBuffers:
    """One game's rows that pass every row-local check, appended one row at a time,
    each row's pairs interned one by one."""

    def __init__(self):
        self.row = array("q")
        self.times = array("d")
        self.ball = array("d")
        self.codes = array("h")
        self.xy = array("d")
        self.pairs = []
        self._index = {}

    def append(self, row, t, ball, pairs, xy) -> bool:
        """Append the row; False, appending nothing, if a player id or team is bad."""
        try:
            codes = list(map(self._index.__getitem__, pairs))
        except (KeyError, TypeError):
            codes = self._intern(pairs)
            if codes is None:
                return False
        self.row.append(row)
        self.times.append(t)
        self.ball.extend(ball)
        self.codes.extend(codes)
        self.xy.extend(xy)
        return True

    def _intern(self, pairs):
        """Codes of the row's pairs, or None, interning nothing, if an id or team is bad."""
        if not all(ingest._good_id(value) for pair in pairs for value in pair):
            return None
        index = self._index
        for pair in pairs:
            if pair not in index:
                index[pair] = len(self.pairs)
                self.pairs.append(pair)
        return [index[pair] for pair in pairs]

    def part(self) -> ingest._GamePart:
        n = len(self.times)
        return ingest._GamePart(
            np.frombuffer(self.row, dtype=np.int64),
            np.frombuffer(self.times, dtype=np.float64),
            np.frombuffer(self.ball, dtype=np.float64).reshape(n, 3),
            np.frombuffer(self.codes, dtype=np.int16).reshape(n, ingest.PLAYERS_PER_FRAME),
            np.frombuffer(self.xy, dtype=np.float64).reshape(n, ingest.PLAYERS_PER_FRAME, 2),
            pairs=self.pairs)


def oracle_parse_range(path, start, end) -> ingest._RangeParse:
    """``ingest._parse_range`` as a text stream read by ``json.loads`` alone, checked and
    buffered one row at a time.

    The bytes are decoded with ``surrogateescape`` and split into lines by
    universal newlines (LF, CR or CR LF); a blank line (``str.strip``)
    is skipped, but still numbered.  A line nested too deep for ``json.loads``
    raises ``RecursionError`` here.  The order of the games is not part of
    the result: ``ingest._apply_time_rules`` orders them by their first kept row.
    """
    games = {}
    n_rows = 0
    reasons = Counter()
    isfinite = math.isfinite
    raw = io.BufferedReader(ingest._ByteRange(path, start, end), 1 << 16)
    with io.TextIOWrapper(raw, encoding="utf-8", errors="surrogateescape", newline="") as fh:
        for row, line in enumerate(fh, start):
            if not line.strip():
                continue
            n_rows += 1
            try:
                game_id, t, ball, pairs, xy = _oracle_row_fields(json.loads(line))
            except (ValueError, KeyError, TypeError, IndexError, OverflowError):
                reasons["unparseable"] += 1
                continue
            if len(pairs) != ingest.PLAYERS_PER_FRAME:
                reasons["wrong_player_count"] += 1
                continue
            if not (isfinite(t) and all(map(isfinite, ball)) and all(map(isfinite, xy))):
                reasons["non_finite"] += 1
                continue
            try:
                game = games[game_id]
            except (KeyError, TypeError):   # a new game id, or one that is not a string
                if not ingest._good_id(game_id):
                    reasons["unparseable"] += 1
                    continue
                game = games[game_id] = _OracleGameBuffers()
            if not game.append(row, t, ball, pairs, xy):
                reasons["unparseable"] += 1
    return ingest._RangeParse(n_rows, dict(reasons),
                              {gid: g.part() for gid, g in games.items() if g.times})
