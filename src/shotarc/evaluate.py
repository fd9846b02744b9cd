"""Season-level analyses: contest variance ratios, factor profiles, depth-bin
make rates, subsample MSE curves, and split-half rank stability.

All procedures are order-independent in their inputs and bit-reproducible
under a fixed seed.  Tables are returned as plain dataclasses; CSV emission
lives in the CLI layer.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .effects import (
    RESPONSE_KINDS,
    EffectsDataset,
    EffectsError,
    apply_min_shots_filter,
    fit_effects,
    min_shots_roles,
)

OPEN_NDD_FT = 6.0
CONTESTED_NDD_FT = 4.0
# fig3 compares two groups only when each holds at least this many shots
MIN_GROUP = 30
# fig3 bootstrap resamples are drawn and reduced in blocks of about this many
# elements, which bounds the analysis's memory whatever the group sizes
BOOTSTRAP_BLOCK_ELEMENTS = 2**17


class EvalError(ValueError):
    pass


def _rank_with_ties(x: np.ndarray) -> np.ndarray:
    """Average ranks (1-based), ties (NaNs among them) sharing the mean of their positions."""
    _, inverse, counts = np.unique(np.asarray(x, dtype=float), return_inverse=True,
                                   return_counts=True)
    first = np.cumsum(counts) - counts
    return (first + (counts + 1) / 2)[inverse]


def spearman(xs, ys) -> float:
    """Spearman rank correlation with average ranks for ties."""
    x = np.asarray(xs, dtype=float)
    y = np.asarray(ys, dtype=float)
    if len(x) != len(y):
        raise EvalError("sequences differ in length")
    if len(x) < 2:
        raise EvalError("need at least 2 observations")
    rx, ry = _rank_with_ties(x), _rank_with_ties(y)
    sx, sy = rx.std(), ry.std()
    if sx == 0.0 or sy == 0.0:
        raise EvalError("zero rank variance")
    if np.array_equal(rx, ry):
        return 1.0
    if np.array_equal(rx, len(rx) + 1.0 - ry):
        return -1.0
    rho = float(np.mean((rx - rx.mean()) * (ry - ry.mean())) / (sx * sy))
    return min(1.0, max(-1.0, rho))


# --- contested/open variance ----------------------------------------------------

@dataclass(frozen=True)
class VarianceComparison:
    factor: str
    contested_var: float
    open_var: float
    ratio: float
    ci_low: float
    ci_high: float
    n_contested: int
    n_open: int


def _bootstrap_variances(values: np.ndarray, n_bootstrap: int, rng: np.random.Generator) -> np.ndarray:
    """Sample variances of ``n_bootstrap`` resamples of ``values``.

    Resamples are drawn and reduced ``BOOTSTRAP_BLOCK_ELEMENTS // n`` rows at
    a time, so memory stays bounded per block.  Consecutive block draws
    continue the generator's stream exactly as one
    ``(n_bootstrap, n)`` draw would, and each row's variance is reduced on
    its own, so the result equals the full-matrix formula bit for bit.
    """
    n = len(values)
    block = max(1, BOOTSTRAP_BLOCK_ELEMENTS // n)
    out = np.empty(n_bootstrap)
    for start in range(0, n_bootstrap, block):
        k = min(block, n_bootstrap - start)
        out[start:start + k] = values[rng.integers(0, n, size=(k, n))].var(axis=1, ddof=1)
    return out


def variance_comparison(
    depth_ft: np.ndarray,
    lr_ft: np.ndarray,
    ndd_ft: np.ndarray,
    open_threshold_ft: float = OPEN_NDD_FT,
    contested_threshold_ft: float = CONTESTED_NDD_FT,
    n_bootstrap: int = 1000,
    seed: int = 0,
) -> dict[str, VarianceComparison]:
    """Contested/open variance ratios for depth and left-right, with
    percentile bootstrap intervals.

    Contested shots have NDD below ``contested_threshold_ft``, open shots NDD
    above ``open_threshold_ft``.  A compared group holding a non-finite value
    or having zero sample variance, or an open-group resample with zero
    variance, is an ``EvalError``, never an inf or NaN ratio or interval.
    """
    if isinstance(n_bootstrap, bool) or not isinstance(n_bootstrap, numbers.Integral) or n_bootstrap < 1:
        raise EvalError(f"n_bootstrap must be a positive integer, got {n_bootstrap!r}")
    for name, threshold in (("open_threshold_ft", open_threshold_ft),
                            ("contested_threshold_ft", contested_threshold_ft)):
        if isinstance(threshold, bool) or not isinstance(threshold, numbers.Real) or not math.isfinite(threshold):
            raise EvalError(f"{name} must be a finite number, got {threshold!r}")
    if open_threshold_ft < contested_threshold_ft:
        raise EvalError(f"open_threshold_ft {open_threshold_ft!r} is below "
                        f"contested_threshold_ft {contested_threshold_ft!r}")
    depth = np.asarray(depth_ft, dtype=float)
    lr = np.asarray(lr_ft, dtype=float)
    ndd = np.asarray(ndd_ft, dtype=float)
    contested = ndd < contested_threshold_ft
    is_open = ndd > open_threshold_ft
    n_c, n_o = int(contested.sum()), int(is_open.sum())
    if n_c < MIN_GROUP or n_o < MIN_GROUP:
        raise EvalError(f"group below minimum size {MIN_GROUP}: contested={n_c}, open={n_o}")

    rng = np.random.default_rng(seed)
    out: dict[str, VarianceComparison] = {}
    for name, values in (("depth", depth), ("lr", lr)):
        groups = []
        for group, mask in (("contested", contested), ("open", is_open)):
            vals = values[mask]
            if not np.all(np.isfinite(vals)):
                raise EvalError(f"{name}: the {group} group holds non-finite values")
            var = float(vals.var(ddof=1))
            if var == 0.0:
                raise EvalError(f"{name}: the {group} group has zero sample variance")
            groups.append((vals, var))
        (vc, var_c), (vo, var_o) = groups
        boot_c = _bootstrap_variances(vc, n_bootstrap, rng)
        boot_o = _bootstrap_variances(vo, n_bootstrap, rng)
        if not boot_o.all():
            raise EvalError(f"{name}: a bootstrap resample of the open group has zero sample "
                            "variance (too few distinct values)")
        lo, hi = np.percentile(boot_c / boot_o, [2.5, 97.5])
        out[name] = VarianceComparison(
            factor=name,
            contested_var=var_c,
            open_var=var_o,
            ratio=var_c / var_o,
            ci_low=float(lo),
            ci_high=float(hi),
            n_contested=n_c,
            n_open=n_o,
        )
    return out


# --- binned summaries --------------------------------------------------------------

@dataclass(frozen=True)
class BinRow:
    center: float
    mean: float
    se: float
    n: int


def _bin_row(center: float, vals: np.ndarray) -> BinRow:
    """Mean, standard error (NaN for a single value) and count of one non-empty bin."""
    n = len(vals)
    se = float(vals.std(ddof=1) / np.sqrt(n)) if n > 1 else float("nan")
    return BinRow(center=center, mean=float(vals.mean()), se=se, n=n)


@dataclass(frozen=True)
class BinnedProfile:
    bin_by: str
    value: str
    rows: list[BinRow]
    trend: float     # Spearman of per-bin means against bin centers


def binned_profiles(
    bin_values: np.ndarray,
    values: np.ndarray,
    bin_edges: np.ndarray,
    bin_by: str = "ndd",
    value: str = "entry_angle",
) -> BinnedProfile:
    """Per-bin mean, standard error, and count, with a monotone-trend statistic.

    Empty bins are reported with n = 0 and NaN mean; the trend uses
    non-empty bins only.
    """
    b = np.asarray(bin_values, dtype=float)
    v = np.asarray(values, dtype=float)
    edges = np.asarray(bin_edges, dtype=float)
    if len(edges) < 2:
        raise EvalError("need at least 2 bin edges")
    rows: list[BinRow] = []
    centers, means = [], []
    for k in range(len(edges) - 1):
        mask = (b >= edges[k]) & (b < edges[k + 1])
        n = int(mask.sum())
        center = float(0.5 * (edges[k] + edges[k + 1]))
        if n == 0:
            rows.append(BinRow(center=center, mean=float("nan"), se=float("nan"), n=0))
            continue
        rows.append(_bin_row(center, v[mask]))
        centers.append(center)
        means.append(rows[-1].mean)
    trend = float("nan")
    if len(means) >= 2 and len(set(means)) > 1:
        trend = spearman(centers, means)
    return BinnedProfile(bin_by=bin_by, value=value, rows=rows, trend=trend)


@dataclass(frozen=True)
class DepthBinTable:
    rows: list[BinRow]          # center in inches, mean = make fraction
    argmax_center_in: float
    bin_width_in: float


def binned_mean_by_depth(
    depth_ft: np.ndarray,
    response: np.ndarray,
    bin_width_in: float = 1.0,
    min_bin_n: int = 1,
) -> DepthBinTable:
    """Mean response per depth bin (bins centered on multiples of the width).

    With a 0/1 response this is the make percentage by landing depth; with
    modeled probabilities it is the model's depth profile.  The argmax is
    taken over bins with at least ``min_bin_n`` shots.  A non-finite depth or
    response is an ``EvalError``, never a NaN bin.
    """
    depth_in = np.asarray(depth_ft, dtype=float) * 12.0
    y = np.asarray(response, dtype=float)
    if len(depth_in) != len(y):
        raise EvalError("depth and response differ in length")
    if len(y) == 0:
        raise EvalError("no shots")
    if not (np.all(np.isfinite(depth_in)) and np.all(np.isfinite(y))):
        raise EvalError("depth and response must be finite")
    centers = np.round(depth_in / bin_width_in) * bin_width_in
    rows: list[BinRow] = []
    best: tuple[float, float] | None = None
    for c in np.unique(centers):
        row = _bin_row(float(c), y[centers == c])
        rows.append(row)
        if row.n >= min_bin_n and (best is None or row.mean > best[0]):
            best = (row.mean, row.center)
    if best is None:
        raise EvalError(f"no bin reaches min_bin_n={min_bin_n}")
    return DepthBinTable(rows=rows, argmax_center_in=best[1], bin_width_in=bin_width_in)


def make_pct_by_depth_bin(
    depth_ft: np.ndarray,
    outcomes: np.ndarray,
    bin_width_in: float = 1.0,
    min_bin_n: int = 1,
) -> DepthBinTable:
    """Make fraction per depth bin; outcomes must be 0/1."""
    y = np.asarray(outcomes, dtype=float)
    if not np.all((y == 0.0) | (y == 1.0)):
        raise EvalError("outcomes must be 0/1")
    return binned_mean_by_depth(depth_ft, y, bin_width_in=bin_width_in, min_bin_n=min_bin_n)


# --- subsample MSE curves (variance-reduction experiment) --------------------------

@dataclass(frozen=True)
class SubsampleSpec:
    fractions: tuple[float, ...] = (0.1, 0.2, 0.3, 0.4, 0.5)
    n_replicates: int = 20
    seed: int = 0
    unit: str = "game"      # subsampling draws whole games, never loose shots

    def __post_init__(self) -> None:
        if any(not 0.0 < f <= 1.0 for f in self.fractions):
            raise EvalError("fractions must lie in (0, 1]")
        if self.n_replicates < 1:
            raise EvalError("need at least 1 replicate")
        if self.unit != "game":
            raise EvalError(f"unsupported subsampling unit {self.unit!r}")


@dataclass(frozen=True)
class SubsampleResult:
    fraction: float
    response_kind: str
    mse: float
    n_replicates_used: int
    n_dropped: int


def _filtered_games(dataset: EffectsDataset, model_kind: str, min_shots: int,
                    purpose: str) -> tuple[EffectsDataset, np.ndarray]:
    """The rows that pass the minimum-shots filter of ``model_kind``'s roles, and the
    game codes present among them; ``purpose`` says what the game ids are needed for."""
    if dataset.game_ids is None:
        raise EvalError(f"dataset must carry game ids for {purpose}")
    filtered = apply_min_shots_filter(dataset, min_shots, min_shots_roles(model_kind))
    if len(filtered) == 0:
        raise EvalError("no rows survive the minimum-shots filter")
    return filtered, np.flatnonzero(filtered.coding.game.counts())  # codes ascend as the ids sort


def subsample_mse(
    dataset: EffectsDataset,
    spec: SubsampleSpec,
    model_kind: str = "defender",
    min_shots: int = 100,
) -> list[SubsampleResult]:
    """MSE of subsample-fitted effects against full-season raw-response effects.

    The reference fit applies the minimum-shots filter to the roles that
    ``min_shots_roles`` names for the model and uses binary outcomes.  Each
    replicate samples games without replacement, keeps rows whose players
    survived the reference filter, refits, and measures the mean squared
    deviation of the headline effects over players present in the
    replicate.  Rank-deficient replicates are dropped and counted.
    """
    if dataset.probs is None:
        raise EvalError("dataset must carry make probabilities for the prob response")
    reference_data, games = _filtered_games(dataset, model_kind, min_shots,
                                            "game-unit subsampling")
    ref_effects = fit_effects(reference_data, model_kind, "raw").effects
    game = reference_data.coding.game
    rng = np.random.default_rng(spec.seed)
    results: list[SubsampleResult] = []
    for frac in spec.fractions:
        n_games = max(1, int(round(frac * len(games))))
        errors: dict[str, list[float]] = {k: [] for k in RESPONSE_KINDS}
        dropped: dict[str, int] = {k: 0 for k in RESPONSE_KINDS}
        for _ in range(spec.n_replicates):
            chosen = rng.choice(games, size=n_games, replace=False)
            sub = reference_data.subset(np.isin(game.codes, chosen))
            for kind in RESPONSE_KINDS:
                try:
                    est = fit_effects(sub, model_kind, kind)
                except EffectsError:    # RankDeficientError among them
                    dropped[kind] += 1
                    continue
                players = sorted(est.effects.keys() & ref_effects.keys())
                if not players:
                    dropped[kind] += 1
                    continue
                diff = np.array([est.effects[p] - ref_effects[p] for p in players])
                errors[kind].append(float(np.mean(diff**2)))
        for kind in RESPONSE_KINDS:
            used = len(errors[kind])
            results.append(SubsampleResult(
                fraction=frac,
                response_kind=kind,
                mse=float(np.mean(errors[kind])) if used else float("nan"),
                n_replicates_used=used,
                n_dropped=dropped[kind],
            ))
    return results


def split_half_rank_correlation(
    dataset: EffectsDataset,
    model_kind: str = "defender",
    response_kind: str = "raw",
    min_shots: int = 100,
) -> float:
    """Spearman correlation of player effects fitted on each chronological
    half of the season (games sorted by id), after the same minimum-shots
    filter as ``shotarc effects``."""
    filtered, games = _filtered_games(dataset, model_kind, min_shots, "the chronological split")
    if len(games) < 2:
        raise EvalError("need at least 2 games to split")
    mask = np.isin(filtered.coding.game.codes, games[: len(games) // 2])
    half_a = filtered.subset(mask)
    half_b = filtered.subset(~mask)
    est_a = fit_effects(half_a, model_kind, response_kind)
    est_b = fit_effects(half_b, model_kind, response_kind)
    common = sorted(set(est_a.effects) & set(est_b.effects))
    if len(common) < 2:
        raise EvalError("fewer than 2 players present in both halves")
    return spearman(
        [est_a.effects[p] for p in common],
        [est_b.effects[p] for p in common],
    )
