"""Shared fixtures: deterministic synthetic shots, the sequential
conjugate-update oracle and the SVD one-shot solve for fit-level tests, the
scalar shot-factor oracle for the array factors, the text-mode
``json.loads`` range parse, with its own row-at-a-time buffers, for the
tracking loader's range parse, the shot-at-a-time extraction for the
per-game shot extraction, the f-string tracking writer and row-by-row
``csv.writer`` shots file for the writers that format floats in bulk, and a
shots table as ``ShotRow`` objects."""

import csv
import io
import json
import math
from array import array
from collections import Counter
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
import pytest

from shotarc.core import RIM_HEIGHT_FT, RIM_RADIUS_FT, ShotFactors, rim_center_xy, \
    to_local_frame
from shotarc.factors import AscendingCrossingError, CrossingError, NoCrossingError, PathError, \
    ShotPath
from shotarc import ingest
from shotarc.ingest import EVENT_COLUMNS, ExtractionReport, extract_shot_events
from shotarc.season import SHOT_COLUMNS, ShotRow, ShotTable
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
    return one_shot_chain(shots["samples"], shots["release_xy"], shots["max_gap_s"], thresholds)


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


# --- the shot-at-a-time extraction, kept as the oracle of extract_shot_events ---------

class OracleIngestError(ValueError):
    pass


class NoOpponentsError(OracleIngestError):
    pass


def nearest_defender(ids, teams, xy, shooter_id):
    """Opposing player minimizing planar distance to the shooter in one tracking row.

    ``ids``, ``teams`` and ``xy`` hold the row's players in the same order.
    Returns (defender id, distance, shooter's position in the row,
    defender's position in the row).  Ties break toward the
    lexicographically smaller player id.
    """
    try:
        s = ids.index(shooter_id)
    except ValueError:
        raise OracleIngestError(f"shooter {shooter_id} not on court") from None
    s_team = teams[s]
    sx, sy = xy[s]
    best = None
    for k, (pid, team, (x, y)) in enumerate(zip(ids, teams, xy)):
        if team == s_team:
            continue
        dist = math.hypot(x - sx, y - sy)
        if best is None or (dist, pid) < best:
            best, d = (dist, pid), k
    if best is None:
        raise NoOpponentsError("no opposing player on court at release")
    return best[1], best[0], s, d


def contest_angle(shooter_xy, defender_xy, rim_xy) -> float:
    """Signed angle between shooter->rim and shooter->defender rays, degrees.

    Positive means the defender stands on the shooter's right; the value
    lies in (-180, 180].
    """
    ux, uy = rim_xy[0] - shooter_xy[0], rim_xy[1] - shooter_xy[1]
    vx, vy = defender_xy[0] - shooter_xy[0], defender_xy[1] - shooter_xy[1]
    if math.hypot(ux, uy) < 1e-12:
        raise OracleIngestError("shooter co-located with the rim")
    if math.hypot(vx, vy) < 1e-12:
        raise OracleIngestError("defender co-located with the shooter; angle undefined")
    cross = ux * vy - uy * vx
    dot = ux * vx + uy * vy
    return math.degrees(math.atan2(-cross, dot))


def cut_at_rim_plane(z) -> int:
    """Index one past the first frame at/below rim height on the way down.

    Arcs that never rise above the rim plane have no descending crossing;
    the whole window is kept.
    """
    if len(z) == 0:
        return 0
    apex = int(np.argmax(z))
    if z[apex] <= RIM_HEIGHT_FT:
        return len(z)
    for i in range(apex + 1, len(z)):
        if z[i] <= RIM_HEIGHT_FT:
            return i + 1
    return len(z)


class EventRow(NamedTuple):
    """One event, a row of the columns that ``ingest.load_events`` returns."""

    shot_id: str
    game_id: str
    shooter_id: str
    release_frame: int
    outcome: int
    hoop_end: str


@dataclass(frozen=True)
class ShotEvent:
    """One extracted three-point attempt with defender context and ball samples."""

    shot_id: str
    game_id: str
    shooter: str
    defender: str
    ndd_ft: float
    defender_height_in: float
    contest_angle_deg: float
    outcome: int
    samples: np.ndarray          # (n, 3) rim-local frame
    release_xy: tuple            # shooter location, rim-local frame
    max_gap_s: float             # largest step between sample times; 0 below two samples
    flags: tuple = ()


def oracle_extract(tracking, events, roster, min_samples=5, stream_break_s=1.0,
                   max_window_s=3.0):
    """``extract_shot_events`` one shot at a time, reading the event columns row by
    row: a ``ShotEvent`` per extracted shot from ``nearest_defender``,
    ``contest_angle`` and ``cut_at_rim_plane``, packed into the same columns at the end."""
    out = []
    reasons = Counter()
    n_flagged = 0
    steps = {}   # per game: gaps, break indices

    for ev in map(EventRow._make, zip(*(events[c].tolist() for c in EVENT_COLUMNS))):
        game = tracking.get(ev.game_id)
        if game is None:
            reasons["unknown_game"] += 1
            continue
        if not 0 <= ev.release_frame < len(game):
            reasons["release_out_of_range"] += 1
            continue
        try:
            rim_xy = rim_center_xy(ev.hoop_end)
        except ValueError:
            reasons["unknown_hoop_end"] += 1
            continue

        ids = [game.id_table[j] for j in game.player_ids[ev.release_frame].tolist()]
        xy = game.player_xy[ev.release_frame].tolist()
        try:
            defender_id, ndd, s, d = nearest_defender(
                ids, [game.team_of[pid] for pid in ids], xy, ev.shooter_id)
        except NoOpponentsError:
            reasons["no_defender"] += 1
            continue
        except OracleIngestError:
            reasons["shooter_not_on_court"] += 1
            continue

        # window: stop before a stream break or past max_window_s, then cut at the rim plane
        if ev.game_id not in steps:
            gaps = np.diff(game.times)
            steps[ev.game_id] = gaps, np.flatnonzero(~(gaps <= stream_break_s)) + 1
        gaps, breaks = steps[ev.game_id]
        times, first = game.times, ev.release_frame
        t0 = times[first]
        k = np.searchsorted(breaks, first + 1)
        end = breaks[k] if k < len(breaks) else len(times)
        # times increase, so times[h] - t0 <= max_window_s holds for a prefix of h; the
        # search finds its end up to the rounding of t0 + max_window_s, the slice exactly
        bound = min(max(int(np.searchsorted(times, t0 + max_window_s, side="right")),
                        first + 1), end)
        while bound < end and times[bound] - t0 <= max_window_s:
            bound += 1
        hi = first + 1 + int(np.count_nonzero(times[first + 1:bound] - t0 <= max_window_s))
        window = slice(first, hi)
        ball_local = np.column_stack(to_local_frame(game.ball[window].T, ev.hoop_end))
        cut = cut_at_rim_plane(ball_local[:, 2])
        samples = ball_local[:cut]
        max_gap = float(gaps[first:first + cut - 1].max()) if cut >= 2 else 0.0

        flags = []
        if len(samples) < min_samples:
            flags.append("insufficient_samples")

        shooter_xy = xy[s]
        try:
            angle = contest_angle(shooter_xy, xy[d], rim_xy)
        except OracleIngestError:
            angle = float("nan")
            flags.append("contest_angle_undefined")

        height = roster.get(defender_id)
        if height is None:
            height = float("nan")
            flags.append("defender_height_missing")

        release_local = to_local_frame((shooter_xy[0], shooter_xy[1], 0.0), ev.hoop_end)
        if flags:
            n_flagged += 1
        out.append(ShotEvent(
            shot_id=ev.shot_id,
            game_id=ev.game_id,
            shooter=ev.shooter_id,
            defender=defender_id,
            ndd_ft=ndd,
            defender_height_in=height,
            contest_angle_deg=angle,
            outcome=ev.outcome,
            samples=samples,
            release_xy=(release_local[0], release_local[1]),
            max_gap_s=max_gap,
            flags=tuple(flags),
        ))

    shots = {
        "shot_id": np.array([ev.shot_id for ev in out], dtype=object),
        "game_id": np.array([ev.game_id for ev in out], dtype=object),
        "shooter_id": np.array([ev.shooter for ev in out], dtype=object),
        "defender_id": np.array([ev.defender for ev in out], dtype=object),
        "ndd_ft": np.array([ev.ndd_ft for ev in out], dtype=float),
        "defender_height_in": np.array([ev.defender_height_in for ev in out], dtype=float),
        "contest_angle_deg": np.array([ev.contest_angle_deg for ev in out], dtype=float),
        "outcome": np.array([ev.outcome for ev in out], dtype=np.int64),
        "n_samples": np.array([len(ev.samples) for ev in out], dtype=np.int64),
        "flags": np.array([";".join(ev.flags) for ev in out], dtype=object),
        "max_gap_s": np.array([ev.max_gap_s for ev in out], dtype=float),
        "samples": [ev.samples for ev in out],
        "release_xy": np.array([ev.release_xy for ev in out], dtype=float).reshape(-1, 2),
    }
    return shots, ExtractionReport(n_events=len(events["shot_id"]), n_extracted=len(out),
                                   rejections=dict(reasons), n_flagged=n_flagged)


def assert_same_extraction(got, want):
    """Two ``extract_shot_events`` results equal column for column, to the bit
    (NaN and the sign of zero included), sample window for sample window, and in
    their reports, the rejection reasons in the same order."""
    (shots, report), (oracle_shots, oracle_report) = got, want
    assert list(shots) == list(oracle_shots)
    for name, expected in oracle_shots.items():
        values = shots[name]
        if name == "samples":
            assert len(values) == len(expected)
            for a, b in zip(values, expected):
                assert a.shape == b.shape and a.tobytes() == b.tobytes()
        else:
            assert (values.dtype, values.shape) == (expected.dtype, expected.shape), name
            if values.dtype == object:      # the ids and flags: str objects, not bytes
                assert [type(v) for v in values.tolist()] == [str] * len(values), name
                assert values.tolist() == expected.tolist(), name
            else:
                assert values.tobytes() == expected.tobytes(), name
    assert report == oracle_report
    assert list(report.rejections) == list(oracle_report.rejections)


def oracle_write_tracking(fh, game) -> None:
    """One ``sim.SimGame``'s tracking rows, one frame per line, every float by its
    own ``repr`` in an f-string."""
    prefix = f'{{"game_id":"{game.game_id}","t":'
    for shot in game.shots:
        players = ",".join(
            f'{{"id":"{pid}","team":"{team}","x":{x!r},"y":{y!r}}}'
            for pid, team, (x, y) in zip(
                game.player_ids, game.player_teams, shot.player_xy.tolist())
        )
        for t, (bx, by, bz) in zip(shot.times_s.tolist(), shot.ball_points.tolist()):
            fh.write(f'{prefix}{t!r},"ball":[{bx!r},{by!r},{bz!r}],"players":[{players}]}}\n')


def shot_row_objects(table) -> list:
    """One ``ShotRow`` per shot of a ``ShotTable`` that holds every column of
    ``SHOT_COLUMNS``, with ``make_prob`` None where the table has none."""
    cols = {"make_prob": np.full(len(table), None), **table.columns}
    return list(map(ShotRow, *(cols[c].tolist() for c in SHOT_COLUMNS + ("make_prob",))))


def oracle_write_shot_rows(rows, path) -> None:
    """The shots file row by row: each ``ShotRow`` (or each row of a ``ShotTable``,
    by ``shot_row_objects``) straight into ``csv.writer``, which writes floats
    by ``repr``; ``make_prob`` last when the table has it or some row has one."""
    if isinstance(rows, ShotTable):
        has_prob, rows = "make_prob" in rows.columns, shot_row_objects(rows)
    else:
        rows = list(rows)
        has_prob = any(row.make_prob is not None for row in rows)
    names = SHOT_COLUMNS + (("make_prob",) if has_prob else ())
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(names)
        writer.writerows([getattr(row, name) for name in names] for row in rows)
