"""One season's shots fitted array at a time, and the table of shot rows they give.

``fit_season`` runs extraction, the trajectory solve, the filter and the
shot factors over a whole season.  The solve and the factors take one
game's shots at a time (``trajectory.fit_trajectories`` and
``factors.shot_factors``), so their arrays stay the size of a game's shots;
the solve's padded blocks are bounded apart from that
(``trajectory.MAX_PADDED_ROWS``).
``fit_trajectory``, ``fit_path_line`` and ``compute_shot_factors`` remain
the one-shot references these batched steps are tested against.
"""

from __future__ import annotations

import dataclasses
from collections import Counter
from collections.abc import Iterator
from typing import NamedTuple

import numpy as np

from .core import GameId, PlayerId
from .effects import EffectsDataset, EffectsError
from .factors import shot_factors
from .ingest import EventRecord, ExtractionReport, GameTracking, RosterRecord, extract_shot_events
from .trajectory import FilterReport, FilterThresholds, filter_shots, fit_trajectories

SHOT_COLUMNS = (
    "shot_id", "game_id", "shooter_id", "defender_id", "ndd_ft",
    "defender_height_in", "contest_angle_deg", "outcome",
    "depth_ft", "lr_ft", "entry_angle_deg", "rmse_ft", "n_samples", "flags",
)


@dataclasses.dataclass
class ShotRow:
    """One retained shot with defender context and estimated factors."""

    shot_id: str
    game_id: str
    shooter_id: PlayerId
    defender_id: PlayerId
    ndd_ft: float
    defender_height_in: float
    contest_angle_deg: float
    outcome: int
    depth_ft: float
    lr_ft: float
    entry_angle_deg: float
    rmse_ft: float
    n_samples: int
    flags: str = ""
    make_prob: float | None = None


@dataclasses.dataclass
class ShotTable:
    """Shots as columns by header name: ids as str arrays, ``outcome`` and
    ``n_samples`` as int64, the other ``SHOT_COLUMNS`` float64."""

    columns: dict[str, np.ndarray]
    n_rows: int

    def __len__(self) -> int:
        return self.n_rows

    def __getitem__(self, name: str) -> np.ndarray:
        return self.columns[name]

    def matrix(self, names: tuple[str, ...]) -> np.ndarray:
        return np.column_stack([self.columns[c] for c in names])

    def __iter__(self) -> Iterator[ShotRow]:
        """One ``ShotRow`` per shot; the table must hold every column of ``SHOT_COLUMNS``."""
        cols = {"make_prob": np.full(self.n_rows, None), **self.columns}
        return map(ShotRow, *(cols[c].tolist() for c in SHOT_COLUMNS + ("make_prob",)))

    def effects_dataset(self, require_prob: bool) -> EffectsDataset:
        cols = self.columns
        if require_prob and "make_prob" not in cols:
            raise EffectsError("shots file lacks make_prob; run `shotarc predict` first")
        return EffectsDataset(cols["shooter_id"], cols["defender_id"], cols["ndd_ft"],
                              cols["outcome"].astype(float), cols.get("make_prob"),
                              cols.get("game_id"))


class SeasonFit(NamedTuple):
    """Everything ``fit_season`` makes of one season.

    ``fits`` holds every extracted shot, in extraction order: the
    ``SHOT_COLUMNS`` (factors NaN where a shot has none), ``max_gap_s``,
    ``fitted`` (bool), ``beta`` (n, 6; NaN where not fitted) and
    ``rejection``, the filtering or factor reason that dropped the shot
    ("" for a row).  ``rows`` holds the ``SHOT_COLUMNS`` of the rows.
    """

    rows: ShotTable
    fits: ShotTable
    extraction: ExtractionReport
    filtering: FilterReport
    factor_rejections: dict[str, int]


def fit_season(
    tracking: dict[GameId, GameTracking],
    events: list[EventRecord],
    roster: dict[PlayerId, RosterRecord],
    thresholds: FilterThresholds = FilterThresholds(),
) -> SeasonFit:
    """Extract every tagged shot, fit its trajectory, filter the season, compute factors.

    Takes what ``load_tracking``, ``load_events`` and ``load_roster`` return
    (``sim.season_tracking`` returns the same for a simulated season).  With
    shot ids unique, as ``load_events`` leaves them, every event ends up in
    exactly one place: an extraction rejection, a filtering rejection, a
    factor rejection, or a row.
    """
    shots, extraction = extract_shot_events(
        tracking, events, roster, min_samples=thresholds.min_samples)
    samples = [ev.samples for ev in shots]
    cols: dict[str, np.ndarray] = {
        "shot_id": np.array([ev.shot_id for ev in shots], dtype=str),
        "game_id": np.array([ev.game_id for ev in shots], dtype=str),
        "shooter_id": np.array([ev.shooter for ev in shots], dtype=str),
        "defender_id": np.array([ev.defender for ev in shots], dtype=str),
        "ndd_ft": np.array([ev.ndd_ft for ev in shots], dtype=float),
        "defender_height_in": np.array([ev.defender_height_in for ev in shots], dtype=float),
        "contest_angle_deg": np.array([ev.contest_angle_deg for ev in shots], dtype=float),
        "outcome": np.array([ev.outcome for ev in shots], dtype=np.int64),
        "n_samples": np.array([len(s) for s in samples], dtype=np.int64),
        "flags": np.array([";".join(ev.flags) for ev in shots], dtype=str),
        "max_gap_s": np.array([ev.max_gap_s for ev in shots], dtype=float),
    }
    release = np.array([ev.release_xy for ev in shots], dtype=float).reshape(-1, 2)
    n = len(shots)
    # each game's shots, in extraction order, wherever its events sit in the file
    _, game_code = np.unique(cols["game_id"], return_inverse=True)
    games = np.split(np.argsort(game_code, kind="stable"), np.cumsum(np.bincount(game_code))[:-1])

    fitted, beta, rmse = np.zeros(n, dtype=bool), np.empty((n, 6)), np.empty(n)
    for idx in games:
        fitted[idx], beta[idx], rmse[idx] = fit_trajectories(
            [samples[i] for i in idx], release[idx], thresholds.min_samples)
    rejection, filtering = filter_shots(cols["n_samples"], fitted, cols["max_gap_s"], rmse,
                                        thresholds)
    kept = rejection == ""
    factors = np.full((n, 3), np.nan)
    for idx in games:
        idx = idx[kept[idx]]
        factors[idx], rejection[idx] = shot_factors([samples[i] for i in idx], beta[idx])
    has_row = rejection == ""
    cols.update(depth_ft=factors[:, 0], lr_ft=factors[:, 1], entry_angle_deg=factors[:, 2],
                rmse_ft=rmse, fitted=fitted, beta=beta, rejection=rejection)
    rows = ShotTable({c: cols[c][has_row] for c in SHOT_COLUMNS}, int(has_row.sum()))
    return SeasonFit(rows, ShotTable(cols, n), extraction, filtering,
                     dict(Counter(rejection[kept & ~has_row].tolist())))
