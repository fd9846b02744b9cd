"""Defender-impact and shooter-resilience regressions with sum-to-zero contrasts.

Two linear probability models over per-shot responses (binary outcome or
modeled make probability):

  defender kind:    Y = b0 + alpha_shooter + gamma_defender
  resilience kind:  Y = b0 + alpha_shooter + delta*NDD + gamma_shooter*NDD

Sum-to-zero coding makes b0 a grand mean, alpha/gamma deviations from it.
In the resilience model the default parametrization centers NDD at its
league mean and includes a common slope, so each shooter's gamma is the
deviation of their NDD sensitivity from the league average.  The literal
variant (per-shooter slopes, no common column) is available via
``common_slope=False``.  The fit solves the normal equations built from
per-level and per-cell sums; the n x p design is never formed.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import NamedTuple

import numpy as np

from .core import PlayerId

RESPONSE_KINDS = ("raw", "prob")
MODEL_KINDS = ("defender", "resilience")


class EffectsError(ValueError):
    pass


class RankDeficientError(EffectsError):
    def __init__(self, message: str, aliased: tuple[str, ...] = ()):
        super().__init__(message)
        self.aliased = aliased


class Coded(NamedTuple):
    """One id column coded once: its sorted distinct ids and each row's index into them."""

    levels: np.ndarray      # (k,) str, ascending
    codes: np.ndarray       # (n,) int

    @classmethod
    def of(cls, ids: np.ndarray) -> "Coded":
        levels, codes = np.unique(ids, return_inverse=True)
        return cls(levels, codes.reshape(-1))

    def counts(self) -> np.ndarray:
        """Rows per level, zero for a level no row holds any more."""
        return np.bincount(self.codes, minlength=len(self.levels))

    def present(self) -> "Coded":
        """The levels some row holds, in the same order, and the rows recoded to them:
        what ``Coded.of`` would give for the same rows, without sorting strings again."""
        held = self.counts() > 0
        return Coded(self.levels[held], (np.cumsum(held) - 1)[self.codes])


class Coding(NamedTuple):
    shooter: Coded
    defender: Coded
    game: Coded | None


@dataclass(frozen=True)
class EffectsDataset:
    """Per-shot rows joining shooter, defender, NDD, and responses.

    Shooter, defender and game ids are coded once, at construction
    (``coding``); ``subset`` hands the codes on, so no fit sorts ids again.
    """

    shooters: np.ndarray      # (n,) str
    defenders: np.ndarray     # (n,) str
    ndd_ft: np.ndarray        # (n,) float
    outcomes: np.ndarray      # (n,) float, 0/1 for makes and misses
    probs: np.ndarray | None = None   # (n,) float in [0, 1]
    game_ids: np.ndarray | None = None
    coding: Coding = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        n = len(self.shooters)
        for name in ("defenders", "ndd_ft", "outcomes"):
            if len(getattr(self, name)) != n:
                raise EffectsError(f"column {name} has mismatched length")
        if self.probs is not None and len(self.probs) != n:
            raise EffectsError("column probs has mismatched length")
        if self.game_ids is not None and len(self.game_ids) != n:
            raise EffectsError("column game_ids has mismatched length")
        for name in ("ndd_ft", "outcomes", "probs"):
            values = getattr(self, name)
            if values is not None and not np.all(np.isfinite(values)):
                raise EffectsError(f"column {name} holds non-finite values")
        if np.any(self.ndd_ft < 0):
            raise EffectsError("ndd must be non-negative")
        if self.probs is not None and (np.any(self.probs < 0) or np.any(self.probs > 1)):
            raise EffectsError("probs must lie in [0, 1]")
        object.__setattr__(self, "coding", Coding(
            Coded.of(self.shooters), Coded.of(self.defenders),
            None if self.game_ids is None else Coded.of(self.game_ids)))

    def __len__(self) -> int:
        return len(self.shooters)

    def response(self, kind: str) -> np.ndarray:
        if kind == "raw":
            return np.asarray(self.outcomes, dtype=float)
        if kind == "prob":
            if self.probs is None:
                raise EffectsError("dataset has no prob column")
            return np.asarray(self.probs, dtype=float)
        raise EffectsError(f"unknown response kind {kind!r}")

    def subset(self, mask: np.ndarray) -> "EffectsDataset":
        """The rows where ``mask`` holds, with their id codes carried over, not redone."""
        sub = object.__new__(EffectsDataset)    # rows of a checked dataset need no new checks
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name == "coding":
                value = Coding(*(None if c is None else Coded(c.levels, c.codes[mask])
                                 for c in value))
            elif value is not None:
                value = value[mask]
            object.__setattr__(sub, f.name, value)
        return sub


def apply_min_shots_filter(
    dataset: EffectsDataset,
    threshold: int = 100,
    roles: tuple[str, ...] = ("shooter", "defender"),
) -> EffectsDataset:
    """Drop rows of players below the shot-count threshold, to a fixed point.

    Removing one player's rows can push another below the threshold, so the
    scan repeats until no further rows are removed.
    """
    data = dataset
    while True:
        keep = np.ones(len(data), dtype=bool)
        for role in ("shooter", "defender"):
            if role in roles:
                players = getattr(data.coding, role)
                keep &= players.counts()[players.codes] >= threshold
        if keep.all():
            return data
        data = data.subset(keep)


def min_shots_roles(model_kind: str) -> tuple[str, ...]:
    """Roles the minimum-shots filter applies to: both for the defender model,
    shooters only for the resilience model, which has no defender term."""
    if model_kind not in MODEL_KINDS:
        raise EffectsError(f"unknown model kind {model_kind!r}")
    return ("shooter", "defender") if model_kind == "defender" else ("shooter",)


@dataclass(frozen=True)
class EffectEstimates:
    """Fitted intercept and player effects, expanded to every level."""

    model_kind: str
    response_kind: str
    intercept: float
    shooter_effects: dict[PlayerId, float]
    effect_role: str                       # which role the headline gammas describe
    effects: dict[PlayerId, float]         # defender impacts, or resilience slopes
    common_ndd_slope: float | None
    residual_sse: float
    n_rows: int
    player_counts: dict[PlayerId, int] = field(default_factory=dict)
    player_mean_response: dict[PlayerId, float] = field(default_factory=dict)


class _Block(NamedTuple):
    """One term of the design: each row holds ``value`` in the column of its level."""

    prefix: str                 # column name, or name prefix of a per-level term
    levels: np.ndarray | None   # None for a single column (intercept, common slope)
    index: np.ndarray           # (n,) each row's level
    value: np.ndarray           # (n,) each row's entry
    sum_to_zero: bool           # contrast coded: the last level is minus the others

    @property
    def names(self) -> list[str]:
        if self.levels is None:
            return [self.prefix]
        return [f"{self.prefix}[{p}]" for p in self.levels]


def _design_blocks(dataset: EffectsDataset, model_kind: str, common_slope: bool) -> list[_Block]:
    """The terms of either model kind, over the players present in ``dataset``."""
    if model_kind not in MODEL_KINDS:
        raise EffectsError(f"unknown model kind {model_kind!r}")
    n = len(dataset)
    shooter_levels, shooter_idx = dataset.coding.shooter.present()
    if len(shooter_levels) < 2:
        raise EffectsError("need at least 2 shooters after filtering")
    zeros, ones = np.zeros(n, dtype=np.intp), np.ones(n)
    blocks = [_Block("intercept", None, zeros, ones, False),
              _Block("shooter", shooter_levels, shooter_idx, ones, True)]
    if model_kind == "defender":
        defender_levels, defender_idx = dataset.coding.defender.present()
        if len(defender_levels) < 2:
            raise EffectsError("need at least 2 defenders after filtering")
        blocks.append(_Block("defender", defender_levels, defender_idx, ones, True))
        return blocks
    ndd = np.asarray(dataset.ndd_ft, dtype=float)
    if common_slope:
        centered = ndd - ndd.mean()
        blocks += [_Block("ndd", None, zeros, centered, False),
                   _Block("ndd:shooter", shooter_levels, shooter_idx, centered, True)]
    else:
        # literal variant: an uncentered slope per shooter, no common column
        blocks.append(_Block("ndd:shooter", shooter_levels, shooter_idx, ndd, False))
    return blocks


def _normal_equations(blocks: list[_Block], y: np.ndarray):
    """X'X and X'y of the contrast design from sums over levels and level pairs, with
    the levels x columns coding, the column names and the offset of each block's levels."""
    level_names = [b.names for b in blocks]
    offsets = np.cumsum([0] + [len(names) for names in level_names])
    width = int(offsets[-1])
    cols = [off + b.index for off, b in zip(offsets, blocks)]
    # Blocks own disjoint, ascending column ranges, so pair (a, b), a <= b,
    # fills block (a, b) of the upper triangle with one bincount: per-level
    # counts and sums, shooter x defender cells, per-shooter NDD moments.
    gram = np.zeros(width * width)
    for a, block_a in enumerate(blocks):
        for b in range(a, len(blocks)):
            gram += np.bincount(cols[a] * width + cols[b],
                                weights=block_a.value * blocks[b].value,
                                minlength=width * width)
    gram = gram.reshape(width, width)
    gram += np.triu(gram, 1).T
    rhs = sum(np.bincount(c, weights=b.value * y, minlength=width)
              for c, b in zip(cols, blocks))
    coded = [(start, end) for start, end, b in zip(offsets, offsets[1:], blocks) if b.sum_to_zero]
    coding = np.eye(width)
    for start, end in coded:
        coding[end - 1, start:end - 1] = -1.0     # the last level is minus the others
    last = [end - 1 for _, end in coded]
    coding = np.delete(coding, last, axis=1)
    names = np.delete(sum(level_names, []), last).tolist()
    return coding.T @ gram @ coding, coding.T @ rhs, coding, names, offsets


def fit_effects(
    dataset: EffectsDataset,
    model_kind: str,
    response_kind: str,
    common_slope: bool = True,
) -> EffectEstimates:
    """Ordinary least squares on the contrast design; effects sum to zero.

    The n x p design is never formed: its normal equations are built from
    per-level and per-cell sums (``_normal_equations``) and solved by
    Cholesky.  A Gram matrix with an eigenvalue at or below
    ``max(n, p) * eps`` times its largest raises ``RankDeficientError``
    naming the columns its null space touches.
    """
    if response_kind not in RESPONSE_KINDS:
        raise EffectsError(f"unknown response kind {response_kind!r}")
    y = dataset.response(response_kind)
    blocks = _design_blocks(dataset, model_kind, common_slope)
    gram, rhs, coding, names, offsets = _normal_equations(blocks, y)

    eps = np.finfo(float).eps
    eigvals = np.linalg.eigvalsh(gram)
    tol = eigvals[-1] * max(len(y), len(rhs)) * eps
    if eigvals[0] <= tol:
        # columns weighted in some null vector: the same for every null-space basis
        eigvals, eigvecs = np.linalg.eigh(gram)
        touched = np.abs(eigvecs[:, eigvals <= tol]).max(axis=1) > np.sqrt(eps)
        aliased = tuple(name for name, hit in zip(names, touched) if hit)
        raise RankDeficientError(
            f"design rank {int(np.sum(eigvals > tol))} < {len(rhs)} columns; "
            f"aliased: {', '.join(aliased) or 'unknown'}",
            aliased=aliased,
        )
    chol = np.linalg.cholesky(gram)
    coefs = np.linalg.solve(chol.T, np.linalg.solve(chol, rhs))

    per_block = np.split(coding @ coefs, offsets[1:-1])     # one coefficient per level
    resid = y - sum(b.value * coef[b.index] for b, coef in zip(blocks, per_block))
    headline = blocks[-1]           # defender impacts, or per-shooter NDD slopes
    counts = np.bincount(headline.index, minlength=len(headline.levels))
    sums = np.bincount(headline.index, weights=y, minlength=len(headline.levels))
    return EffectEstimates(
        model_kind=model_kind,
        response_kind=response_kind,
        intercept=float(per_block[0][0]),
        shooter_effects={str(pl): float(v) for pl, v in zip(blocks[1].levels, per_block[1])},
        effect_role="defender" if model_kind == "defender" else "shooter",
        effects={str(pl): float(v) for pl, v in zip(headline.levels, per_block[-1])},
        common_ndd_slope=float(per_block[2][0]) if blocks[2].prefix == "ndd" else None,
        residual_sse=float(resid @ resid),
        n_rows=len(y),
        player_counts={str(pl): int(c) for pl, c in zip(headline.levels, counts)},
        player_mean_response={str(pl): float(v) for pl, v in zip(headline.levels, sums / counts)},
    )


@dataclass(frozen=True)
class RankedPlayer:
    rank: int
    player_id: PlayerId
    effect: float
    effect_per_100: float
    n_shots: int
    opp_mean_prob: float


def rank_players(estimates: EffectEstimates) -> list[RankedPlayer]:
    """Ordered effect table; effects also scaled per 100 shots.

    A defender model puts the most negative effect first (best defenders), a
    resilience model the most positive first (most resilient shooters).
    Ties break lexicographically by player id.
    """
    sign = 1.0 if estimates.model_kind == "defender" else -1.0
    ordered = sorted(estimates.effects.items(), key=lambda kv: (sign * kv[1], kv[0]))
    return [
        RankedPlayer(
            rank=i + 1,
            player_id=pid,
            effect=val,
            effect_per_100=val * 100.0,
            n_shots=estimates.player_counts.get(pid, 0),
            opp_mean_prob=estimates.player_mean_response.get(pid, float("nan")),
        )
        for i, (pid, val) in enumerate(ordered)
    ]
