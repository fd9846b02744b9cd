"""One season's shots fitted array at a time, the shot rows they give, and the shots file.

``fit_season`` runs extraction, the trajectory solve, the filter and the
shot factors over a season's games.  Extraction, the solve and the factors
take one game's shots at a time (``ingest.extract_shot_events``,
``trajectory.fit_trajectories`` and ``factors.shot_factors``), so their
arrays stay the size of a game's shots; the solve's padded blocks are
bounded apart from that (``trajectory.MAX_PADDED_ROWS``).
``fit_trajectory`` is a one-row view of ``fit_trajectories``, as
``fit_path_line`` and ``compute_shot_factors`` are of ``shot_factors``.

``fit_files`` runs ``fit_season`` on a season's three files without
gathering every game's arrays in one process: each game that one byte range
of the tracking file alone holds is fitted in the worker that parsed it
(``ingest.tracking_ranges``), and only its shot columns and reports come
back.  This process fits the rest, and the shots are put back in event
order.  Every shot's numbers depend on its own game alone, so the result is
the one ``fit_season`` gives on all the games at once.

The shots file (``write_shot_rows``, ``read_shot_rows``) is a CSV of the
``SHOT_COLUMNS``, and of ``make_prob`` after ``predict``.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import re
from collections import Counter
from collections.abc import Iterable
from itertools import chain
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .core import GameId, PlayerId, float_reprs, receive
from .effects import EffectsDataset
from .factors import shot_factors
from .ingest import (ExtractionReport, GameTracking, LoadReport, extract_shot_events, load_events,
                     load_roster, tracking_ranges)
from .trajectory import FilterReport, FilterThresholds, filter_shots, fit_trajectories


class ShotsFileError(ValueError):
    """A shots file that cannot be read as one."""


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


# the shots file's columns: every ShotRow field but make_prob, which predict appends;
# ids are read as str objects, INTEGER_COLUMNS as int64, the rest as float64
SHOT_COLUMNS = tuple(f.name for f in dataclasses.fields(ShotRow))[:-1]
ID_COLUMNS = ("shot_id", "game_id", "shooter_id", "defender_id", "flags")
INTEGER_COLUMNS = ("outcome", "n_samples")


@dataclasses.dataclass
class ShotTable:
    """Shots as columns by header name: ids as object arrays of str, ``outcome``
    and ``n_samples`` as int64, the other ``SHOT_COLUMNS`` (and ``make_prob``)
    float64."""

    columns: dict[str, np.ndarray]
    n_rows: int

    def __len__(self) -> int:
        return self.n_rows

    def __getitem__(self, name: str) -> np.ndarray:
        return self.columns[name]

    def matrix(self, names: tuple[str, ...]) -> np.ndarray:
        return np.column_stack([self.columns[c] for c in names])

    def effects_dataset(self) -> EffectsDataset:
        cols = self.columns
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

    fits: ShotTable
    extraction: ExtractionReport
    filtering: FilterReport
    factor_rejections: dict[str, int]

    @property
    def rows(self) -> ShotTable:
        has_row = self.fits["rejection"] == ""
        return ShotTable({c: self.fits[c][has_row] for c in SHOT_COLUMNS}, int(has_row.sum()))


def fit_season(
    tracking: dict[GameId, GameTracking],
    events: dict[str, np.ndarray],
    roster: dict[PlayerId, float],
    thresholds: FilterThresholds = FilterThresholds(),
) -> SeasonFit:
    """Extract every tagged shot, fit its trajectory, filter the season, compute factors.

    Takes the arrays, event columns and heights that ``load_tracking``,
    ``load_events`` and ``load_roster`` return (or ``sim.season_tracking``).  With
    shot ids unique, as ``load_events`` leaves them, every event ends up in
    exactly one place: an extraction rejection, a filtering rejection, a
    factor rejection, or a row.
    """
    cols, extraction = extract_shot_events(
        tracking, events, roster, min_samples=thresholds.min_samples)
    samples, release = cols.pop("samples"), cols.pop("release_xy")
    n = len(samples)
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
    cols.update(depth_ft=factors[:, 0], lr_ft=factors[:, 1], entry_angle_deg=factors[:, 2],
                rmse_ft=rmse, fitted=fitted, beta=beta, rejection=rejection)
    return SeasonFit(ShotTable(cols, n), extraction, filtering,
                     dict(Counter(rejection[kept & (rejection != "")].tolist())))


def _counts(dicts: Iterable[dict[str, int]]) -> dict[str, int]:
    return dict(sum(map(Counter, dicts), Counter()))


def _summed(reports: list):
    """Reports of one dataclass added field by field, dict fields as counts."""
    return type(reports[0])(*(_counts(values) if isinstance(values[0], dict) else sum(values)
                              for values in zip(*map(dataclasses.astuple, reports))))


def _merged(parts: list[SeasonFit], shot_ids: np.ndarray) -> SeasonFit:
    """One ``SeasonFit`` of the shots of ``parts``, ordered as their ids are in ``shot_ids``."""
    cols = {name: np.concatenate([p.fits[name] for p in parts]) for name in parts[0].fits.columns}
    position = dict(zip(shot_ids.tolist(), range(len(shot_ids))))
    order = np.argsort([position[shot_id] for shot_id in cols["shot_id"].tolist()])
    return SeasonFit(ShotTable({name: column[order] for name, column in cols.items()}, len(order)),
                     _summed([p.extraction for p in parts]), _summed([p.filtering for p in parts]),
                     _counts(p.factor_rejections for p in parts))


def fit_files(tracking_path: str | Path, events_path: str | Path, roster_path: str | Path,
              thresholds: FilterThresholds = FilterThresholds(),
              ) -> tuple[SeasonFit, tuple[LoadReport, LoadReport, LoadReport]]:
    """``fit_season`` on a season's tracking, events and roster files, and their load reports.

    Each game that one worker's byte range alone holds is fitted in that
    worker (``ingest.tracking_ranges``), on its events; this process fits the
    others with every event whose game no range holds.  The events and the
    roster are loaded once the tracking load has passed its checks, so a
    tracking error comes first, then an events error, then a roster error.
    """
    with tracking_ranges(tracking_path, leave_games=True) as (tracking, tracking_load, workers):
        events, events_load = load_events(events_path)
        roster, roster_load = load_roster(roster_path)
        fitter = {game_id: k for k, (_, _, games) in enumerate(workers, 1) for game_id in games}
        by = np.array([fitter.get(game_id, 0) for game_id in events["game_id"].tolist()], dtype=int)
        for k, (conn, _, _) in enumerate(workers, 1):
            conn.send((fit_season, {c: v[by == k] for c, v in events.items()}, roster, thresholds))
        parts = [fit_season(tracking, {c: v[by == 0] for c, v in events.items()}, roster,
                            thresholds)]
        parts += [receive(conn, where) for conn, where, _ in workers]
    return _merged(parts, events["shot_id"]), (tracking_load, events_load, roster_load)


# --- the shots file -------------------------------------------------------------------

_NON_BLANK = re.compile(rb"\S")
_LOADTXT = dict(delimiter=",", quotechar='"', comments=None, skiprows=1, ndmin=1,
                encoding="utf-8")


def write_csv(path: Path, header: Iterable, rows: Iterable[Iterable]) -> Path:
    """Write one table, making its directory.  ``csv`` quotes only a field holding
    ``,``, ``"`` or a line break, and writes a float by ``repr`` and any other
    value by ``str``, so floats read back to the bit; ``write_columns`` hands
    it floats already formatted as their ``repr``."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
    return path


def write_json(path: Path, doc) -> Path:
    """Write one JSON document, indented with sorted keys, making its directory."""
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return path


# rows that write_columns formats at a time: a block's float cells are ~1 MB of str
CSV_BLOCK_ROWS = 2048


def _cells(values: np.ndarray) -> list:
    """One column's block as ``csv`` cells: a float64 array as the ``repr`` of each
    float by ``core.float_reprs``; any other array as its values, for ``csv`` to write."""
    return float_reprs(values) if values.dtype == np.float64 else values.tolist()


def write_columns(path: Path, header: Iterable, columns: list[np.ndarray]) -> Path:
    """``write_csv`` of equal-length array columns, one cell of each per row,
    formatted ``CSV_BLOCK_ROWS`` rows at a time, so the cells held at once do not
    grow with the table."""
    n = len(columns[0])
    blocks = (zip(*(_cells(column[start:start + CSV_BLOCK_ROWS]) for column in columns))
              for start in range(0, n, CSV_BLOCK_ROWS))
    return write_csv(path, header, chain.from_iterable(blocks))


def write_shot_rows(rows: ShotTable | Iterable[ShotRow], path: Path) -> None:
    """The shots file: the ``SHOT_COLUMNS`` of each row, then ``make_prob`` when
    the table has it, by ``write_columns``.  ``ShotRow``s are turned into a
    table first, one array per column (ids as objects), with ``make_prob`` when
    some row has one: an object array, with an empty cell where a row has none."""
    if not isinstance(rows, ShotTable):
        rows = list(rows)
        has_prob = any(r.make_prob is not None for r in rows)
        rows = ShotTable({c: np.array([getattr(r, c) for r in rows],
                                      dtype=object if c in ID_COLUMNS else None)
                          for c in SHOT_COLUMNS + (("make_prob",) if has_prob else ())}, len(rows))
    names = SHOT_COLUMNS + (("make_prob",) if "make_prob" in rows.columns else ())
    write_columns(path, names, [rows[name] for name in names])


def read_shot_rows(path: str | Path, columns: tuple[str, ...] | None = None,
                   finite: tuple[str, ...] = ()) -> ShotTable:
    """Read ``columns`` of a shots file (default: those of ``SHOT_COLUMNS``, and
    ``make_prob`` when present) and the ``finite`` ones into a ``ShotTable``,
    in one pass of numpy's C parser: ids as str objects, every other column as
    float64, ``INTEGER_COLUMNS`` then cast to int64: exactly, as a float64 holds
    every integer below 2**53 and parses any larger one to at least 2**53.

    A ``ShotsFileError`` names the file, and the line, for bytes that are not
    UTF-8 or a carriage return; the file for no shots or a missing column;
    and the row (data rows from 0) and column (from 1), as numpy counts them,
    for a number that does not parse, an empty or missing cell, a non-finite
    value in a ``finite`` column, an ``outcome`` other than 0/1, or an
    ``n_samples`` that is not an integer from 0 to below 2**53.
    """
    path = Path(path)
    data = path.read_bytes()
    try:
        data.decode("utf-8")
        bad, why = data.find(b"\r"), "carriage return"
    except UnicodeDecodeError as exc:
        bad, why = exc.start, "not UTF-8"
    if bad >= 0:
        line = data.count(b"\n", 0, bad) + 1
        raise ShotsFileError(f"{path}:{line}: {why}")
    end = data.find(b"\n")
    if end < 0 or not _NON_BLANK.search(data, end + 1):
        raise ShotsFileError(f"{path}: holds no shots")
    header = next(csv.reader([data[:end].decode()]))
    del data
    if columns is None:
        columns = SHOT_COLUMNS + (("make_prob",) if "make_prob" in header else ())
    names = tuple(dict.fromkeys(columns + finite))
    if missing := [c for c in names if c not in header]:
        raise ShotsFileError(f"{path}: no column {', '.join(missing)}")
    try:
        block = np.loadtxt(path, dtype=[(c, object if c in ID_COLUMNS else float) for c in names],
                           usecols=[header.index(c) for c in names], **_LOADTXT)
    except ValueError as exc:
        raise ShotsFileError(f"{path}: {exc}") from None
    table = {name: block[name].copy() for name in names}
    for name, values in table.items():
        if name in finite:
            bad = ~np.isfinite(values)
        elif name == "outcome":
            bad = (values != 0) & (values != 1)
        elif name == "n_samples":
            bad = (values != np.round(values)) | (values < 0) | (values >= 2.0 ** 53)
        else:
            continue
        if bad.any():
            row = int(np.argmax(bad))
            raise ShotsFileError(f"{path}: {values[row].tolist()!r} is not a valid {name} "
                              f"at row {row}, column {header.index(name) + 1}")
    for name in INTEGER_COLUMNS:
        if name in table:
            table[name] = table[name].astype(np.int64)
    return ShotTable(table, len(block))
