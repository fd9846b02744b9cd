"""Synthetic season generator with a deterministic rim-geometry make oracle.

A shooter's intended rim-plane crossing (depth, left-right, entry angle) is
drawn from their skill distribution, perturbed by defender pressure as a
function of nearest-defender distance (NDD), realized as a drag-free
parabola sampled at 25 Hz with isotropic tracking noise, and scored by rim
geometry.  Everything downstream of the master seed is deterministic,
including the emitted text files.

Each game is generated in two phases.  The draw loop makes the random
draws of its shots in a fixed order, with the plain-float geometry that
later draws depend on (the parabola solve sets each shot's sample count).
The array phase then builds the game's sample points, noise, corruption,
court-frame maps, player positions and times an array at a time.  Both
phases use correctly rounded operations and the same library calls on the
same values as the shot-at-a-time reference generator in
``tests/test_sim.py``, which solves and samples each shot's parabola on
its own; the tests hold every season to that reference bit for bit.  A
game draws only from its own seed, so its bits do not depend on which
process makes it either.

Outcome rule.  The clean-entry oracle scores a make when the crossing
point clears both front and back rim:

    sqrt((depth - rim_radius)^2 + lr^2) <= rim_radius - ball_radius / sin(angle)

Real rims are kinder on the deep side: a ball contacting the back rim on
the way down tends to deaden and drop, while front-rim contact is fatal.
The simulator models this with an optional deterministic back-rim capture
zone that extends the make region deep of center by a fixed margin
(config ``back_rim_capture_ft``; 0 disables it, leaving the pure
clean-entry disk).  The capture zone is what moves the best-scoring depth
bin past the geometric center, as observed on real shooting data.

Pressure model.  NDD maps to a contest intensity in [0, 1] through a steep
logistic ramp centered between the open (>6 ft) and contested (<4 ft)
regimes.  Intensity scales a short-depth bias, depth/left-right variance
inflation, and an entry-angle rise that grows with defender height.
"""

from __future__ import annotations

import io
import math
import shutil
from collections.abc import Iterator
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from .core import (
    BALL_RADIUS_FT,
    RELEASE_HEIGHT_PRIOR_FT,
    RIM_HEIGHT_FT,
    RIM_RADIUS_FT,
    GameId,
    PlayerId,
    _expit_scalar,
    from_local_frame,
    part_count,
    receive,
    worker_processes,
)
from .ingest import EventRecord, GameTracking, RosterRecord

if TYPE_CHECKING:
    from multiprocessing.connection import Connection

GRAVITY_FT_S2 = 32.174
FRAME_RATE_HZ = 25.0
# a drawn target crossing is clipped to these depths, left-right offsets and angles
DEPTH_CLIP_FT = (-0.9, 2.6)
LR_CLIP_FT = 2.5
ANGLE_CLIP_DEG = (33.0, 64.0)
# a release no farther than this from the rim center can lie past the crossing
# of a clipped target (|lr| up to LR_CLIP_FT, depth down to DEPTH_CLIP_FT[0])
MIN_RELEASE_DISTANCE_FT = math.hypot(LR_CLIP_FT, RIM_RADIUS_FT - DEPTH_CLIP_FT[0])
# a release below rim height reaches every clipped target on a descending arc;
# a jittered release height is clipped to this
MAX_RELEASE_HEIGHT_FT = 9.5
# the trajectory fit's release pseudo-points pull every arc toward RELEASE_HEIGHT_PRIOR_FT
# at the release, and a release far below that prior fits as noisy: on seeded two-game
# seasons every shot is retained down to 3.25 ft, a few fit noisy at 3.0 ft, most at
# 2.5 ft and all at 2.0 ft; a jittered release height is clipped to this from below
MIN_RELEASE_HEIGHT_FT = RELEASE_HEIGHT_PRIOR_FT - 3.5


class UnreachableTargetError(ValueError):
    """No ascending-release parabola reaches the requested crossing."""


def _solve_arc(x: float, y: float, height: float, depth_ft: float, lr_ft: float,
               angle_deg: float) -> tuple:
    """The vertical-plane quadratic pinned by release, rim-height crossing and entry angle.

    Returns ``(dx, dy, c1, c2, v_h, flight_time_s, n_flight, s_cross_ft)``: at
    path coordinate ``s = v_h * t`` the ball is at ``(x, y) + s * (dx, dy)``,
    height ``height + c1 * s + c2 * s * s``.
    """
    ox, oy = 0.0 - x, 0.0 - y      # to the rim center; -x would give -0.0 at x = 0.0
    dist = float(np.hypot(ox, oy))
    if abs(lr_ft) >= dist:
        raise UnreachableTargetError("left-right offset exceeds release distance")
    ux, uy = ox / dist, oy / dist
    phi = -math.asin(lr_ft / dist)
    c, s = math.cos(phi), math.sin(phi)
    dx, dy = c * ux - s * uy, s * ux + c * uy
    # numpy's 1-d dot goes to BLAS, which may fuse the multiply-add: kept so
    # that seasons keep their bits
    s_center = float(np.array((ox, oy)) @ np.array((dx, dy)))
    s_cross = s_center + depth_ft - RIM_RADIUS_FT
    if s_cross <= 0:
        raise UnreachableTargetError("crossing lies behind the release point")

    tan_a = math.tan(math.radians(angle_deg))
    c2 = -((RIM_HEIGHT_FT - height) + tan_a * s_cross) / s_cross**2
    c1 = -tan_a - 2.0 * c2 * s_cross
    if c2 >= 0.0 or c1 <= 0.0:
        raise UnreachableTargetError("no ascending-release parabola reaches the target")

    v_h = math.sqrt(GRAVITY_FT_S2 / (-2.0 * c2))
    flight_time = s_cross / v_h
    return dx, dy, c1, c2, v_h, flight_time, int(round(flight_time * FRAME_RATE_HZ)), s_cross


def _arc_points(t, x, y, height, dx, dy, c1, c2, v_h) -> np.ndarray:
    """(n, 3) local-frame points at times ``t``; every other argument is a
    scalar or an array aligned with ``t``."""
    s = v_h * t
    return np.column_stack((x + s * dx, y + s * dy, height + c1 * s + c2 * s * s))


def clean_entry_radius_ft(entry_angle_deg: float) -> float:
    """Radius around rim center within which a crossing at this angle swishes."""
    return RIM_RADIUS_FT - BALL_RADIUS_FT / math.sin(math.radians(entry_angle_deg))


def physical_make_oracle(depth_ft: float, lr_ft: float, entry_angle_deg: float) -> bool:
    """Clean-entry make rule: the crossing point must clear front and back rim.

    The crossing point in path coordinates relative to rim center is
    (depth - rim_radius, lr); a make requires its distance from the center
    to stay within ``clean_entry_radius_ft`` of the entry angle.
    """
    if not 0.0 < entry_angle_deg <= 90.0:
        raise ValueError("entry angle must lie in (0, 90]")
    rad = clean_entry_radius_ft(entry_angle_deg)
    if rad <= 0.0:
        return False
    u = depth_ft - RIM_RADIUS_FT
    return math.hypot(u, lr_ft) <= rad


def make_with_back_rim_capture(depth_ft: float, lr_ft: float, entry_angle_deg: float,
                               capture_ft: float) -> bool:
    """Clean-entry oracle extended deep of center by a back-rim capture margin.

    Crossings past the clean window but within ``capture_ft`` of it on the
    deep side contact the back rim steeply enough to deaden and drop.
    ``capture_ft = 0`` reduces exactly to :func:`physical_make_oracle`.
    """
    if physical_make_oracle(depth_ft, lr_ft, entry_angle_deg):
        return True
    if capture_ft <= 0.0:
        return False
    u = depth_ft - RIM_RADIUS_FT
    if u <= 0.0:
        return False
    rad = clean_entry_radius_ft(entry_angle_deg)
    if rad <= 0.0:
        return False
    return math.hypot(max(u - capture_ft, 0.0), lr_ft) <= rad


# --- season configuration ----------------------------------------------------

@dataclass(frozen=True)
class ShooterSkill:
    """Ground-truth aim distribution and contest sensitivity for one shooter."""

    player_id: PlayerId
    height_in: float
    aim_mean: np.ndarray            # (3,) depth_ft, lr_ft, angle_deg
    aim_cov: np.ndarray             # (3, 3)
    resilience: float               # multiplies pressure-induced depth bias; 1 = league average
    participation: float            # relative chance of appearing in a game lineup


@dataclass(frozen=True)
class DefenderTrait:
    """Planted pressure parameters for one defender."""

    player_id: PlayerId
    height_in: float
    pressure_scale: float           # multiplies all contest effects; 1 = league average
    participation: float


@dataclass(frozen=True)
class PressureModel:
    """How NDD translates into trajectory perturbations."""

    open_threshold_ft: float = 6.0
    contested_threshold_ft: float = 4.0
    ramp_midpoint_ft: float = 5.0
    ramp_width_ft: float = 0.18
    depth_shift_ft: float = -0.07           # mean depth bias at full contest
    depth_var_inflation: float = 1.56       # contested/open depth variance target
    lr_var_inflation: float = 1.38          # contested/open left-right variance target
    angle_rise_deg: float = 1.1             # mean entry-angle rise at full contest
    angle_height_coef: float = 0.22         # extra degrees per inch of defender height above mean

    def __post_init__(self) -> None:
        _require_finite(self)
        if not self.ramp_width_ft > 0:
            raise ValueError("pressure ramp_width_ft must be positive")
        if self.depth_var_inflation < 1 or self.lr_var_inflation < 1:
            raise ValueError("variance inflation factors must be >= 1")

    def intensity(self, ndd_ft: float) -> float:
        return _expit_scalar((self.ramp_midpoint_ft - ndd_ft) / self.ramp_width_ft)


def _finite(value) -> bool:
    return type(value) is not bool and math.isfinite(value)   # a bool is no number here


def _require_finite(config) -> None:
    for f in fields(config):
        if f.type == "float" and not _finite(getattr(config, f.name)):
            raise ValueError(f"{f.name} must be finite, not {getattr(config, f.name)!r}")


@dataclass(frozen=True)
class SimConfig:
    """Season-level knobs; every random draw descends from ``seed``."""

    seed: int = 20140615
    n_games: int = 24
    shots_per_game: int = 50
    n_shooters: int = 40
    n_defenders: int = 40

    # league-level aim distribution (per-shooter means are drawn around these)
    mean_depth_ft: float = 0.70             # 8.4 in: shooters bias short of center
    depth_sd_ft: float = 0.24
    mean_angle_deg: float = 45.5
    angle_sd_deg: float = 4.3
    lr_sd_ft: float = 0.18
    depth_angle_corr: float = 0.35
    shooter_depth_mean_sd_ft: float = 0.07  # between-shooter spread of mean depth
    shooter_angle_mean_sd_deg: float = 1.3
    shooter_lr_sd_jitter: float = 0.20      # lognormal sigma of per-shooter lr sd
    resilience_sd: float = 0.45

    # defender pool
    defender_height_mean_in: float = 79.0
    defender_height_sd_in: float = 3.2
    pressure_scale_sd: float = 0.40
    participation_sd: float = 0.50          # lognormal sigma of lineup weights

    # release geometry
    release_distance_range_ft: tuple[float, float] = (22.5, 26.5)
    release_azimuth_range_deg: tuple[float, float] = (-55.0, 55.0)
    release_height_ft: float = 7.0
    release_height_jitter_ft: float = 0.0

    # nearest defender distance ~ Gamma(shape, scale), clipped
    ndd_gamma_shape: float = 4.0
    ndd_gamma_scale: float = 1.25
    ndd_range_ft: tuple[float, float] = (0.75, 10.0)
    contest_angle_sd_deg: float = 25.0

    pressure: PressureModel = field(default_factory=PressureModel)

    # measurement + outcome layers
    tracking_noise_ft: float = 0.10
    back_rim_capture_ft: float = 0.18
    outcome_flip_prob: float = 0.0          # optional extra outcome noise beyond rim geometry
    corrupt_fraction: float = 0.0           # fraction of shots with injected tracking corruption
    extra_frames_past_rim: int = 2

    def __post_init__(self) -> None:
        for f in fields(self):
            if f.type == "int" and type(getattr(self, f.name)) is not int:   # a bool is no count
                raise ValueError(f"{f.name} must be an integer, not {getattr(self, f.name)!r}")
        for name in ("n_games", "shots_per_game", "n_shooters", "n_defenders"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        for name in ("n_shooters", "n_defenders"):
            if getattr(self, name) < 5:
                raise ValueError(f"{name} must be at least 5, one side of a lineup")
        for name in ("seed", "extra_frames_past_rim"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")
        _require_finite(self)
        for name in ("release_distance_range_ft", "release_azimuth_range_deg", "ndd_range_ft"):
            bounds = getattr(self, name)
            if len(bounds) != 2 or not all(map(_finite, bounds)) or bounds[0] > bounds[1]:
                raise ValueError(f"{name} must be two finite numbers lo <= hi, not {bounds!r}")
        if self.release_distance_range_ft[0] <= MIN_RELEASE_DISTANCE_FT:
            raise ValueError(f"release_distance_range_ft must start above "
                             f"{MIN_RELEASE_DISTANCE_FT:.3f} ft, where every target is reachable, "
                             f"not {self.release_distance_range_ft!r}")
        if self.release_height_ft > MAX_RELEASE_HEIGHT_FT:
            raise ValueError(f"release_height_ft must be at most {MAX_RELEASE_HEIGHT_FT} ft, "
                             f"below the rim, not {self.release_height_ft!r}")
        if self.release_height_ft < MIN_RELEASE_HEIGHT_FT:
            raise ValueError(f"release_height_ft must be at least {MIN_RELEASE_HEIGHT_FT} ft, "
                             f"near the fit's {RELEASE_HEIGHT_PRIOR_FT} ft release prior, "
                             f"not {self.release_height_ft!r}")
        for f in fields(self):
            if ("_sd" in f.name or f.name in ("release_height_jitter_ft", "tracking_noise_ft")
                    ) and getattr(self, f.name) < 0:
                raise ValueError(f"{f.name} must be non-negative")
        if not (self.ndd_gamma_shape > 0 and self.ndd_gamma_scale > 0):
            raise ValueError("ndd_gamma_shape and ndd_gamma_scale must be positive")
        if not (0 <= self.outcome_flip_prob < 0.5):
            raise ValueError("outcome_flip_prob must lie in [0, 0.5)")
        if not (0 <= self.corrupt_fraction <= 1):
            raise ValueError("corrupt_fraction must lie in [0, 1]")
        if abs(self.depth_angle_corr) >= 1:
            raise ValueError("depth_angle_corr must lie in (-1, 1)")

    @property
    def n_shots(self) -> int:
        return self.n_games * self.shots_per_game


def make_shooter_pool(config: SimConfig, rng: np.random.Generator) -> list[ShooterSkill]:
    pool = []
    heights = np.clip(rng.normal(77.5, 3.0, config.n_shooters), 70, 88)
    for i in range(config.n_shooters):
        mean_depth = rng.normal(config.mean_depth_ft, config.shooter_depth_mean_sd_ft)
        mean_angle = rng.normal(config.mean_angle_deg, config.shooter_angle_mean_sd_deg)
        lr_sd = config.lr_sd_ft * float(np.exp(rng.normal(0.0, config.shooter_lr_sd_jitter)))
        sd = np.array([config.depth_sd_ft, lr_sd, config.angle_sd_deg])
        corr = np.array([
            [1.0, 0.0, config.depth_angle_corr],
            [0.0, 1.0, 0.0],
            [config.depth_angle_corr, 0.0, 1.0],
        ])
        cov = corr * np.outer(sd, sd)
        pool.append(ShooterSkill(
            player_id=f"S{i:03d}",
            height_in=float(heights[i]),
            aim_mean=np.array([mean_depth, 0.0, mean_angle]),
            aim_cov=cov,
            resilience=float(np.clip(rng.normal(1.0, config.resilience_sd), 0.0, 2.5)),
            participation=float(np.exp(rng.normal(0.0, config.participation_sd))),
        ))
    return pool


def make_defender_pool(config: SimConfig, rng: np.random.Generator) -> list[DefenderTrait]:
    pool = []
    heights = np.clip(
        rng.normal(config.defender_height_mean_in, config.defender_height_sd_in, config.n_defenders),
        72, 88,
    )
    for i in range(config.n_defenders):
        pool.append(DefenderTrait(
            player_id=f"D{i:03d}",
            height_in=float(heights[i]),
            pressure_scale=float(np.clip(rng.normal(1.0, config.pressure_scale_sd), 0.0, 2.5)),
            participation=float(np.exp(rng.normal(0.0, config.participation_sd))),
        ))
    return pool


# --- season containers ---------------------------------------------------------

@dataclass(frozen=True)
class GroundTruthShot:
    shot_id: str
    game_id: GameId
    shooter_id: PlayerId
    defender_id: PlayerId
    ndd_ft: float
    contest_intensity: float
    true_depth_ft: float
    true_lr_ft: float
    true_angle_deg: float
    outcome: int
    corrupted: bool


@dataclass(frozen=True)
class SimShot:
    shot_id: str
    shooter_id: PlayerId
    release_frame: int              # index into the game's frame sequence
    outcome: int
    ball_points: np.ndarray         # (n, 3) court frame
    times_s: np.ndarray             # (n,)
    player_xy: np.ndarray           # (10, 2) court frame, lineup order, static over the window


@dataclass(frozen=True)
class SimGame:
    game_id: GameId
    hoop_end: str
    player_ids: tuple[PlayerId, ...]    # 10 on-court ids; teams index-aligned
    player_teams: tuple[str, ...]
    shots: tuple[SimShot, ...]

    @property
    def n_frames(self) -> int:
        return sum(len(s.times_s) for s in self.shots)


@dataclass(frozen=True)
class SeasonData:
    config: SimConfig
    shooter_pool: list[ShooterSkill]
    defender_pool: list[DefenderTrait]
    games: list[SimGame]
    ground_truth: list[GroundTruthShot]


# fixed off-ball formation (local frame): teammates near midcourt, opponents deeper
_TEAMMATE_SPOTS = np.array([[30.0, -15.0], [32.0, -5.0], [34.0, 5.0], [30.0, 15.0]])
_OPPONENT_SPOTS = np.array([[44.0, -12.0], [46.0, -4.0], [48.0, 4.0], [44.0, 12.0]])
# _SPOT_OF[k][j]: the formation spot of lineup slot j when slot k is the shot's
# shooter (or defender); the entry for slot k itself is a placeholder
_SPOT_OF = np.array([np.insert(np.arange(4), k, 0) for k in range(5)])


def _season_draws(config: SimConfig) -> tuple[list[ShooterSkill], list[DefenderTrait], list]:
    """The shooter and defender pools, and one seed per game: all that games draw from."""
    pool_ss, season_ss = np.random.SeedSequence(config.seed).spawn(2)
    pool_rng = np.random.default_rng(pool_ss)
    shooters = make_shooter_pool(config, pool_rng)
    defenders = make_defender_pool(config, pool_rng)
    return shooters, defenders, season_ss.spawn(config.n_games)


def _simulate_block(config: SimConfig, shooters: list[ShooterSkill],
                    defenders: list[DefenderTrait], game_seeds: list, start: int,
                    ) -> Iterator[tuple[SimGame, list[GroundTruthShot]]]:
    """Games ``start, start + 1, ...``, one per seed of ``game_seeds``, made as
    they are read, each with its ground truth.

    A game draws only from its own seed, so a block of games has the same
    bits in whichever process it is made.
    """
    s_weights = np.array([s.participation for s in shooters])
    s_weights = s_weights / s_weights.sum()
    d_weights = np.array([d.participation for d in defenders])
    d_weights = d_weights / d_weights.sum()
    mean_def_height = float(np.mean([d.height_in for d in defenders]))

    for g, game_ss in enumerate(game_seeds, start):
        rng = np.random.default_rng(game_ss)
        lineup_s = rng.choice(len(shooters), size=5, replace=False, p=s_weights)
        lineup_d = rng.choice(len(defenders), size=5, replace=False, p=d_weights)
        yield _simulate_game(
            config, rng, f"G{g:04d}", "left" if g % 2 == 0 else "right",
            [shooters[i] for i in lineup_s], [defenders[i] for i in lineup_d],
            mean_def_height, g * config.shots_per_game)


def simulate_season(config: SimConfig) -> SeasonData:
    """Generate a full synthetic season; deterministic given ``config.seed``."""
    shooters, defenders, game_seeds = _season_draws(config)
    games: list[SimGame] = []
    truth: list[GroundTruthShot] = []
    for game, game_truth in _simulate_block(config, shooters, defenders, game_seeds, 0):
        games.append(game)
        truth.extend(game_truth)
    return SeasonData(
        config=config,
        shooter_pool=shooters,
        defender_pool=defenders,
        games=games,
        ground_truth=truth,
    )


def _simulate_game(config: SimConfig, rng: np.random.Generator, game_id: GameId, hoop_end: str,
                   on_court_s: list[ShooterSkill], on_court_d: list[DefenderTrait],
                   mean_def_height: float, first_shot: int,
                   ) -> tuple[SimGame, list[GroundTruthShot]]:
    """One game's shots: the draw loop, then the array phase."""
    pressure = config.pressure
    ndd_lo, ndd_hi = (float(b) for b in config.ndd_range_ft)
    truth: list[GroundTruthShot] = []
    arcs = []           # per shot: release x, y, height, then _solve_arc's dx, dy, c1, c2, v_h
    kept = []           # samples per shot after corruption
    noise = []          # tracking noise per shot, before truncation
    bumps = []          # z corruption of each bumped shot
    bumped = []
    slots = []          # lineup slots of the shooter and the defender
    defender_xy = []
    for k in range(config.shots_per_game):
        si = int(rng.integers(len(on_court_s)))
        di = int(rng.integers(len(on_court_d)))
        shooter = on_court_s[si]
        defender = on_court_d[di]

        # release geometry (local frame)
        dist = rng.uniform(*config.release_distance_range_ft)
        azim = math.radians(rng.uniform(*config.release_azimuth_range_deg))
        x, y = dist * math.cos(azim), dist * math.sin(azim)
        height = config.release_height_ft
        if config.release_height_jitter_ft > 0:
            height = min(max(height + rng.normal(0.0, config.release_height_jitter_ft),
                             MIN_RELEASE_HEIGHT_FT), MAX_RELEASE_HEIGHT_FT)

        # defender context
        ndd = min(max(rng.gamma(config.ndd_gamma_shape, config.ndd_gamma_scale), ndd_lo), ndd_hi)
        contest = pressure.intensity(ndd) * defender.pressure_scale

        # pressured aim distribution
        m_depth, m_lr, m_angle = shooter.aim_mean.tolist()
        mean = np.array((
            m_depth + pressure.depth_shift_ft * contest * shooter.resilience,
            m_lr,
            m_angle + (pressure.angle_rise_deg
                       + pressure.angle_height_coef * (defender.height_in - mean_def_height)
                       ) * contest,
        ))
        scale = np.array((
            math.sqrt(1.0 + (pressure.depth_var_inflation - 1.0) * contest),
            math.sqrt(1.0 + (pressure.lr_var_inflation - 1.0) * contest),
            1.0,
        ))
        draw = rng.multivariate_normal(mean, shooter.aim_cov * np.outer(scale, scale),
                                       method="cholesky")
        depth, lr, angle = draw.tolist()
        depth = min(max(depth, DEPTH_CLIP_FT[0]), DEPTH_CLIP_FT[1])
        lr = min(max(lr, -LR_CLIP_FT), LR_CLIP_FT)
        angle = min(max(angle, ANGLE_CLIP_DEG[0]), ANGLE_CLIP_DEG[1])

        made = make_with_back_rim_capture(depth, lr, angle, config.back_rim_capture_ft)
        if config.outcome_flip_prob > 0.0 and rng.random() < config.outcome_flip_prob:
            made = not made

        dx, dy, c1, c2, v_h, _, n_flight, _ = _solve_arc(x, y, height, depth, lr, angle)
        arcs.append((x, y, height, dx, dy, c1, c2, v_h))
        n = n_flight + config.extra_frames_past_rim
        if config.tracking_noise_ft > 0.0:
            noise.append(rng.normal(0.0, config.tracking_noise_ft, (n, 3)))
        # a corrupted shot gets z noise on every sample or, as often, a cut window
        corrupted = config.corrupt_fraction > 0.0 and rng.random() < config.corrupt_fraction
        bumped.append(corrupted and rng.random() < 0.5)
        if bumped[-1]:
            bumps.append(rng.normal(0.0, 1.2, n))
        elif corrupted:
            n = min(n, max(3, n // 8))
        kept.append(n)

        # defender placement at the release frame; positive contest angle
        # puts the defender on the shooter's right
        norm = float(np.linalg.norm(np.array((x, y))))
        chi = math.radians(rng.normal(0.0, config.contest_angle_sd_deg))
        c, s = math.cos(-chi), math.sin(-chi)
        to_x, to_y = -x / norm, -y / norm
        defender_xy.append((x + ndd * (c * to_x - s * to_y), y + ndd * (s * to_x + c * to_y)))
        slots.append((si, di))

        truth.append(GroundTruthShot(
            f"T{first_shot + k:06d}", game_id, shooter.player_id, defender.player_id,
            ndd, contest, depth, lr, angle, int(made), corrupted))

    # array phase: every sample of the game at once
    counts = np.array(kept)
    starts = np.cumsum(counts) - counts
    t = (np.arange(counts.sum()) - np.repeat(starts, counts)) / FRAME_RATE_HZ
    arcs = np.array(arcs)
    pts = _arc_points(t, *np.repeat(arcs, counts, axis=0).T)
    if noise:
        pts += np.concatenate([w[:n] for w, n in zip(noise, kept)])
    if bumps:
        pts[np.repeat(bumped, counts), 2] += np.concatenate(bumps)
    ball = np.column_stack(from_local_frame(pts.T, hoop_end))
    times = np.round(np.repeat(np.arange(len(kept)) * 30.0, counts) + t, 2)

    rows = np.arange(len(kept))
    si, di = np.array(slots).T
    local = np.concatenate((_TEAMMATE_SPOTS[_SPOT_OF[si]], _OPPONENT_SPOTS[_SPOT_OF[di]]), axis=1)
    local[rows, si] = arcs[:, :2]
    local[rows, 5 + di] = defender_xy
    px, py, _ = from_local_frame((local[..., 0], local[..., 1], 0.0), hoop_end)
    player_xy = np.stack((px, py), axis=-1)

    shots = tuple(
        SimShot(r.shot_id, r.shooter_id, a, r.outcome, ball[a:b], times[a:b], player_xy[k])
        for k, (r, a, b) in enumerate(zip(truth, starts.tolist(), (starts + counts).tolist()))
    )
    game = SimGame(
        game_id=game_id,
        hoop_end=hoop_end,
        player_ids=tuple(p.player_id for p in on_court_s + on_court_d),
        player_teams=("A",) * 5 + ("B",) * 5,
        shots=shots,
    )
    return game, truth


# --- the season as the loaders return it --------------------------------------------

def _position_tag(height_in: float) -> str:
    if height_in <= 76.0:
        return "G"
    if height_in <= 81.0:
        return "F"
    return "C"


def _roster(shooters: list[ShooterSkill], defenders: list[DefenderTrait]) -> list[RosterRecord]:
    """Every pooled player, sorted by player id."""
    players = sorted([(s.player_id, s.height_in) for s in shooters]
                     + [(d.player_id, d.height_in) for d in defenders])
    return [RosterRecord(pid, height, _position_tag(height)) for pid, height in players]


def season_tracking(
    season: SeasonData,
) -> tuple[dict[GameId, GameTracking], list[EventRecord], dict[PlayerId, RosterRecord]]:
    """The season as ``load_tracking``, ``load_events`` and ``load_roster`` return it.

    Equal, array for array, to loading the files :func:`write_season`
    writes, since those hold every float by its ``repr``.
    """
    tracking = {}
    for game in season.games:
        if not game.shots:
            continue
        counts = [len(shot.times_s) for shot in game.shots]
        tracking[game.game_id] = GameTracking(
            game_id=game.game_id,
            times=np.concatenate([shot.times_s for shot in game.shots]),
            ball=np.concatenate([shot.ball_points for shot in game.shots]),
            player_ids=np.tile(np.arange(len(game.player_ids), dtype=np.int16), (sum(counts), 1)),
            player_xy=np.repeat(np.stack([shot.player_xy for shot in game.shots]), counts, axis=0),
            id_table=list(game.player_ids),
            team_of=dict(zip(game.player_ids, game.player_teams)),
        )
    events = [EventRecord(shot.shot_id, game.game_id, shot.shooter_id, shot.release_frame,
                          shot.outcome, game.hoop_end)
              for game in season.games for shot in game.shots]
    roster = _roster(season.shooter_pool, season.defender_pool)
    return tracking, events, {r.player_id: r for r in roster}


# --- file emission ---------------------------------------------------------------
# write_season and simulate_to_files write each game's lines with the same helpers.

_EVENTS_HEADER = "shot_id,game_id,shooter_id,release_frame,outcome,hoop_end\n"
_TRUTH_HEADER = ("shot_id,game_id,shooter_id,defender_id,ndd_ft,contest_intensity,"
                 "true_depth_ft,true_lr_ft,true_angle_deg,outcome,corrupted\n")


def _write_tracking(fh, game: SimGame) -> None:
    """One game's tracking rows, one frame per line."""
    prefix = f'{{"game_id":"{game.game_id}","t":'
    for shot in game.shots:
        players = ",".join(
            f'{{"id":"{pid}","team":"{team}","x":{x!r},"y":{y!r}}}'
            for pid, team, (x, y) in zip(
                game.player_ids, game.player_teams, shot.player_xy.tolist())
        )
        for t, (bx, by, bz) in zip(shot.times_s.tolist(), shot.ball_points.tolist()):
            fh.write(f'{prefix}{t!r},"ball":[{bx!r},{by!r},{bz!r}],"players":[{players}]}}\n')


def _write_events(fh, game: SimGame) -> None:
    """One game's shot events."""
    for shot in game.shots:
        fh.write(f"{shot.shot_id},{game.game_id},{shot.shooter_id},"
                 f"{shot.release_frame},{shot.outcome},{game.hoop_end}\n")


def _write_truth(fh, records: list[GroundTruthShot]) -> None:
    for r in records:
        fh.write(f"{r.shot_id},{r.game_id},{r.shooter_id},{r.defender_id},"
                 f"{r.ndd_ft!r},{r.contest_intensity!r},{r.true_depth_ft!r},"
                 f"{r.true_lr_ft!r},{r.true_angle_deg!r},{r.outcome},{int(r.corrupted)}\n")


def _text_file(path: Path):
    # tracking lines are ~600 bytes: 204 MB of them took 0.178 s to write through Python's
    # default 8 KiB buffer and 0.110 s through 64 KiB (2 vCPUs, medians of 6)
    return path.open("w", encoding="utf-8", newline="\n", buffering=64 << 10)


def _season_paths(out_dir: str | Path) -> dict[str, Path]:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return {
        "tracking": out / "tracking.jsonl",
        "events": out / "events.csv",
        "roster": out / "roster.csv",
        "ground_truth": out / "ground_truth.csv",
    }


def _write_roster(path: Path, shooters: list[ShooterSkill],
                  defenders: list[DefenderTrait]) -> None:
    with _text_file(path) as fh:
        fh.write("player_id,height_in,position\n")
        for r in _roster(shooters, defenders):
            fh.write(f"{r.player_id},{r.height_in!r},{r.position}\n")


def write_season(season: SeasonData, out_dir: str | Path) -> dict[str, Path]:
    """Emit the ingest-compatible season files plus the ground-truth log.

    Floats are written with ``repr`` so values round-trip exactly; output
    bytes depend only on the season content.
    """
    paths = _season_paths(out_dir)
    with _text_file(paths["tracking"]) as fh:
        for game in season.games:
            _write_tracking(fh, game)
    with _text_file(paths["events"]) as fh:
        fh.write(_EVENTS_HEADER)
        for game in season.games:
            _write_events(fh, game)
    _write_roster(paths["roster"], season.shooter_pool, season.defender_pool)
    with _text_file(paths["ground_truth"]) as fh:
        fh.write(_TRUTH_HEADER)
        _write_truth(fh, season.ground_truth)
    return paths


# --- the season by blocks of games, in worker processes ------------------------------

# A block pays off in a worker only when it takes clearly longer to simulate and
# write than the worker takes to start (a fresh interpreter importing numpy).  On
# 2 vCPUs, `shotarc simulate` of 300-shot games in two blocks against one (median
# ratio, pairs won): 1,800 shots 0.87x 0/7 and 0.79x 2/9; 2,400 shots 1.06x 3/7 and
# 0.90x 2/9; 3,000 shots 1.25x 6/7 and 1.01x 6/9; 3,600 shots 1.10x 8/9; 4,200 shots
# 1.21x 8/9; 4,800 shots 1.34x 6/7 and 1.33x 8/9.  Two blocks start at 4,000 shots.
MIN_BLOCK_SHOTS = 2000


def _write_block(tracking, events, truth, config: SimConfig, shooters: list[ShooterSkill],
                 defenders: list[DefenderTrait], game_seeds: list, start: int) -> int:
    """Simulate a block of games, writing each game's lines as it is made; its makes."""
    made = 0
    for game, game_truth in _simulate_block(config, shooters, defenders, game_seeds, start):
        _write_tracking(tracking, game)
        _write_events(events, game)
        _write_truth(truth, game_truth)
        made += sum(r.outcome for r in game_truth)
    return made


def _block_worker(conn: Connection, config: SimConfig, start: int, stop: int, part: str) -> None:
    """Worker process body: games ``start`` to ``stop - 1`` with their tracking rows
    in the file ``part``, then one message, the tuple of the block's makes, its
    events lines and its ground-truth lines."""
    shooters, defenders, game_seeds = _season_draws(config)
    events, truth = io.StringIO(), io.StringIO()
    with _text_file(Path(part)) as tracking:
        made = _write_block(tracking, events, truth, config, shooters, defenders,
                            game_seeds[start:stop], start)
    conn.send((made, events.getvalue(), truth.getvalue()))


def simulate_to_files(config: SimConfig, out_dir: str | Path) -> tuple[dict[str, Path], int]:
    """The files of :func:`write_season` for the season of ``config``, byte for byte;
    returns their paths and the number of makes.

    The season is cut into ``core.part_count`` contiguous blocks of games: at
    most one per game, and more than one only if they average at least
    ``MIN_BLOCK_SHOTS`` shots.  This process makes the first block; a spawned
    worker makes each other one, writing its tracking rows to a hidden part
    file that is appended in game order and deleted.  Every file is written
    under a hidden name and renamed into place once the whole season is
    written, so a run that raises leaves the files of an earlier run as they
    were.  A script that calls this with a season of at least
    ``2 * MIN_BLOCK_SHOTS`` shots must keep its own work under
    ``if __name__ == "__main__":``, as for ``load_tracking``.
    """
    n = part_count(min(config.n_games, config.n_shots // MIN_BLOCK_SHOTS))
    paths = _season_paths(out_dir)
    hidden = {key: path.with_name(f".{path.name}.part") for key, path in paths.items()}
    cuts = [config.n_games * k // n for k in range(n + 1)]
    parts = [paths["tracking"].with_name(f".tracking.part{k}") for k in range(1, n)]
    jobs = [(config, start, stop, str(part)) for start, stop, part in zip(cuts[1:], cuts[2:], parts)]
    shooters, defenders, game_seeds = _season_draws(config)
    try:
        with (worker_processes(_block_worker, jobs) as conns,
              _text_file(hidden["tracking"]) as tracking,
              _text_file(hidden["events"]) as events,
              _text_file(hidden["ground_truth"]) as truth):
            events.write(_EVENTS_HEADER)
            truth.write(_TRUTH_HEADER)
            made = _write_block(tracking, events, truth, config, shooters, defenders,
                                game_seeds[:cuts[1]], 0)
            tracking.flush()
            for conn, part, start, stop in zip(conns, parts, cuts[1:], cuts[2:]):
                block_made, block_events, block_truth = receive(
                    conn, f"simulate worker for games {start}-{stop - 1}")
                made += block_made
                events.write(block_events)
                truth.write(block_truth)
                with part.open("rb") as fh:
                    shutil.copyfileobj(fh, tracking.buffer, 1 << 20)
                part.unlink()
        _write_roster(hidden["roster"], shooters, defenders)
        for key, path in paths.items():
            hidden[key].replace(path)
    finally:
        for path in (*parts, *hidden.values()):
            if path.is_file():
                path.unlink()
    return paths, made
