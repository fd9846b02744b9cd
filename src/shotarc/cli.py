"""Command-line pipeline: simulate, fit, train-makeprob, predict, effects, evaluate.

Every subcommand is a pure function of its inputs, flags, and seed: outputs
are byte-identical across reruns.  Each run writes a manifest JSON recording
the resolved configuration, SHA-256 digests of inputs and outputs, and the
tool version (file names only, so runs in different directories compare
equal).  Exit codes: 0 success, 1 runtime failure, 2 usage or config error.

All randomness descends from a single seed via numpy SeedSequence spawning:
the simulator spawns one child sequence per game, the evaluation harness one
per bootstrap/subsample procedure.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import hashlib
import json
import math
import operator
import re
import sys
from collections.abc import Iterable, Iterator
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import __version__
from .core import GameId, PlayerId
from .effects import (
    EffectsDataset,
    EffectsError,
    apply_min_shots_filter,
    fit_effects,
    min_shots_roles,
    rank_players,
)
from .evaluate import (
    EvalError,
    SubsampleSpec,
    binned_profiles,
    make_pct_by_depth_bin,
    split_half_rank_correlation,
    subsample_mse,
    variance_comparison,
)
from .factors import CrossingError, PathError, compute_shot_factors, fit_path_line
from .ingest import (
    EventRecord,
    ExtractionReport,
    GameTracking,
    RosterRecord,
    ShotEvent,
    extract_shot_events,
    load_events,
    load_roster,
    load_tracking,
)
from .makeprob import MakeProbModel, TrainConfig, TrainingError, predict, train
from .sim import PressureModel, SimConfig, simulate_season, write_season
from .trajectory import (
    FilterReport,
    FilterThresholds,
    PriorConfig,
    ShotFitRecord,
    TrajectoryFitError,
    filter_shots,
    fit_trajectory,
)

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_USAGE = 2


class ConfigError(ValueError):
    pass


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with path.open("rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def write_manifest(
    manifest_path: Path,
    command: str,
    config: dict,
    inputs: list[Path],
    outputs: list[Path],
    seed: int | None = None,
) -> None:
    doc = {
        "tool": "shotarc",
        "version": __version__,
        "command": command,
        "config": config,
        "seed": seed,
        "inputs": {p.name: _sha256(p) for p in inputs},
        "outputs": {p.name: _sha256(p) for p in outputs},
    }
    manifest_path.parent.mkdir(parents=True, exist_ok=True)
    manifest_path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def load_json_config(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: top-level JSON value must be an object")
    return doc


def _reject_unknown_keys(doc: dict, known: Iterable[str], what: str) -> None:
    if unknown := set(doc) - set(known):
        raise ConfigError(f"unknown {what} keys: {sorted(unknown)}")


def _number(v) -> bool:
    return type(v) in (int, float) and math.isfinite(v)   # bool is not a number here


def _int_at_least(low: int):
    return lambda v: type(v) is int and v >= low


def _edges(v) -> bool:
    return type(v) is list and len(v) == 3 and all(map(_number, v)) and v[2] > 0


# evaluate spec key -> (test of its value, what the test asks for)
SPEC_VALUES = {
    "open_threshold_ft": (_number, "a finite number"),
    "contested_threshold_ft": (_number, "a finite number"),
    "n_bootstrap": (_int_at_least(1), "an integer of at least 1"),
    "seed": (_int_at_least(0), "an integer of at least 0"),
    "ndd_edges": (_edges, "[start, stop, step], finite numbers with step > 0"),
    "height_edges": (_edges, "[start, stop, step], finite numbers with step > 0"),
    "bin_width_in": (lambda v: _number(v) and v > 0, "a finite number above 0"),
    "min_bin_n": (_int_at_least(1), "an integer of at least 1"),
    # the (0, 1] range of each fraction is SubsampleSpec's to check
    "fractions": (lambda v: type(v) is list and len(v) > 0 and all(map(_number, v)),
                  "a non-empty list of finite numbers"),
    "n_replicates": (_int_at_least(1), "an integer of at least 1"),
    "min_shots": (_int_at_least(1), "an integer of at least 1"),
}


def _reject_bad_spec_values(spec: dict) -> None:
    for key, (valid, wanted) in SPEC_VALUES.items():
        if key in spec and not valid(spec[key]):
            raise ConfigError(f"evaluate spec {key} must be {wanted}, not {spec[key]!r}")


def sim_config_from_dict(doc: dict) -> SimConfig:
    _reject_unknown_keys(doc, [f.name for f in dataclasses.fields(SimConfig)], "simulate config")
    kwargs = dict(doc)
    if "pressure" in kwargs:
        if not isinstance(kwargs["pressure"], dict):
            raise ConfigError("pressure must be an object of pressure-model fields")
        _reject_unknown_keys(kwargs["pressure"],
                             [f.name for f in dataclasses.fields(PressureModel)], "pressure config")
    try:
        if "pressure" in kwargs:
            kwargs["pressure"] = PressureModel(**kwargs["pressure"])
        for tuple_key in ("release_distance_range_ft", "release_azimuth_range_deg", "ndd_range_ft"):
            if tuple_key in kwargs:
                kwargs[tuple_key] = tuple(kwargs[tuple_key])
        return SimConfig(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid simulate config: {exc}") from exc


# --- per-shot pipeline table ------------------------------------------------------

SHOT_COLUMNS = (
    "shot_id", "game_id", "shooter_id", "defender_id", "ndd_ft",
    "defender_height_in", "contest_angle_deg", "outcome",
    "depth_ft", "lr_ft", "entry_angle_deg", "rmse_ft", "n_samples", "flags",
)
ID_COLUMNS = ("shot_id", "game_id", "shooter_id", "defender_id", "flags")
FACTOR_COLUMNS = ("depth_ft", "lr_ft", "entry_angle_deg")
PLAYER_COLUMNS = ("shooter_id", "defender_id", "outcome")
INTEGER_COLUMNS = ("outcome", "n_samples")
_NON_BLANK = re.compile(rb"\S")
_LOADTXT = dict(delimiter=",", quotechar='"', comments=None, skiprows=1, ndmin=2,
                encoding="utf-8")


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


_ROW_VALUES = operator.attrgetter(*SHOT_COLUMNS, "make_prob")


def write_csv(path: Path, header: Iterable, rows: Iterable[Iterable]) -> Path:
    """Write one table, making its directory.  ``csv`` quotes only a field holding
    ``,``, ``"`` or a line break, and writes floats by ``repr``, so they read back to the bit."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
    return path


def write_shot_rows(rows: Iterable[ShotRow], path: Path, with_prob: bool = False) -> None:
    """The shots file: the ``SHOT_COLUMNS`` of each row, then ``make_prob`` if ``with_prob``."""
    width = len(SHOT_COLUMNS) + with_prob
    write_csv(path, (SHOT_COLUMNS + ("make_prob",))[:width], (_ROW_VALUES(r)[:width] for r in rows))


@dataclasses.dataclass
class ShotTable:
    """A shots file as columns by header name: ids as str arrays, ``outcome``
    and ``n_samples`` as int64, every other column float64."""

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
            raise ConfigError("shots file lacks make_prob; run `shotarc predict` first")
        return EffectsDataset(cols["shooter_id"], cols["defender_id"], cols["ndd_ft"],
                              cols["outcome"].astype(float), cols.get("make_prob"),
                              cols.get("game_id"))


def read_shot_rows(path: str | Path, columns: tuple[str, ...] | None = None,
                   finite: tuple[str, ...] = ()) -> ShotTable:
    """Read ``columns`` of a shots file (default: those of ``SHOT_COLUMNS``, and
    ``make_prob`` when present) and the ``finite`` ones into a ``ShotTable``,
    with numpy's C parser: one pass for the numbers, one for the ids.

    A ``ConfigError`` names the file, and the line, for bytes that are not
    UTF-8 or a carriage return; the file for no shots or a missing column;
    and the row (data rows from 0) and column (from 1), as numpy counts them,
    for a number that does not parse, an empty or missing cell, a non-finite
    value in a ``finite`` column, an ``outcome`` other than 0/1, or an
    ``n_samples`` that is not an integer.
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
        raise ConfigError(f"{path}:{line}: {why}")
    end = data.find(b"\n")
    if end < 0 or not _NON_BLANK.search(data, end + 1):
        raise ConfigError(f"{path}: holds no shots")
    header = next(csv.reader([data[:end].decode()]))
    del data
    if columns is None:
        columns = SHOT_COLUMNS + (("make_prob",) if "make_prob" in header else ())
    names = tuple(dict.fromkeys(columns + finite))
    if missing := [c for c in names if c not in header]:
        raise ConfigError(f"{path}: no column {', '.join(missing)}")
    table: dict[str, np.ndarray] = {}
    for group, dtype in (([c for c in names if c not in ID_COLUMNS], float),
                         ([c for c in names if c in ID_COLUMNS], str)):
        if group:
            try:
                block = np.loadtxt(path, dtype=dtype, usecols=[header.index(c) for c in group],
                                   **_LOADTXT)
            except ValueError as exc:
                raise ConfigError(f"{path}: {exc}") from None
            table.update(zip(group, block.T.copy()))
    for name, values in table.items():
        if name in finite:
            bad = ~np.isfinite(values)
        elif name == "outcome":
            bad = (values != 0) & (values != 1)
        elif name == "n_samples":
            bad = values != np.round(values)
        else:
            continue
        if bad.any():
            row = int(np.argmax(bad))
            raise ConfigError(f"{path}: {values[row].tolist()!r} is not a valid {name} "
                              f"at row {row}, column {header.index(name) + 1}")
    for name in INTEGER_COLUMNS:
        if name in table:
            table[name] = table[name].astype(np.int64)
    return ShotTable(table, len(block))


class SeasonFit(NamedTuple):
    """Everything ``fit_season`` makes of one season."""

    rows: list[ShotRow]
    fits: list[tuple[ShotEvent, ShotFitRecord]]
    extraction: ExtractionReport
    filtering: FilterReport
    factor_rejections: dict[str, int]


def fit_season(
    tracking: dict[GameId, GameTracking],
    events: list[EventRecord],
    roster: dict[PlayerId, RosterRecord],
    thresholds: FilterThresholds = FilterThresholds(),
    prior_config: PriorConfig = PriorConfig(),
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
    fits: list[tuple[ShotEvent, ShotFitRecord]] = []
    for ev in shots:
        try:
            fitted = fit_trajectory(
                ev.samples, ev.release_xy, prior_config, min_samples=thresholds.min_samples)
        except TrajectoryFitError:
            fitted = None
        fits.append((ev, ShotFitRecord(
            shot_id=ev.shot_id,
            fitted=fitted,
            n_samples=len(ev.samples),
            max_gap_s=ev.max_gap_s,
        )))

    retained, filtering = filter_shots([rec for _, rec in fits], thresholds)
    retained_ids = {rec.shot_id for rec in retained}

    rows: list[ShotRow] = []
    factor_rejections: dict[str, int] = {}
    for ev, rec in fits:
        if rec.shot_id not in retained_ids:
            continue
        try:
            path = fit_path_line(ev.samples)
            factors = compute_shot_factors(rec.fitted, path)
        except (PathError, CrossingError) as exc:
            reason = getattr(exc, "flag", "path_degenerate")
            factor_rejections[reason] = factor_rejections.get(reason, 0) + 1
            continue
        rows.append(ShotRow(
            shot_id=ev.shot_id,
            game_id=ev.game_id,
            shooter_id=ev.shooter,
            defender_id=ev.defender,
            ndd_ft=ev.ndd_ft,
            defender_height_in=ev.defender_height_in,
            contest_angle_deg=ev.contest_angle_deg,
            outcome=ev.outcome,
            depth_ft=factors.depth_ft,
            lr_ft=factors.left_right_ft,
            entry_angle_deg=factors.entry_angle_deg,
            rmse_ft=rec.fitted.rmse_ft,
            n_samples=rec.n_samples,
            flags=";".join(ev.flags),
        ))
    return SeasonFit(rows, fits, extraction, filtering, factor_rejections)


# --- subcommands -------------------------------------------------------------------

def cmd_simulate(args: argparse.Namespace) -> int:
    file_cfg = load_json_config(args.config)
    if args.seed is not None:
        if "seed" in file_cfg and file_cfg["seed"] != args.seed:
            print(f"warning: config file overrides --seed={args.seed} "
                  f"with {file_cfg['seed']}", file=sys.stderr)
        else:
            file_cfg["seed"] = args.seed
    config = sim_config_from_dict(file_cfg)
    out_dir = Path(args.out_dir)
    season = simulate_season(config)
    paths = write_season(season, out_dir)
    made = sum(r.outcome for r in season.ground_truth)
    n = len(season.ground_truth)
    print(f"simulated {n} shots over {config.n_games} games "
          f"({made / n:.3f} make rate) -> {out_dir}")
    write_manifest(
        Path(args.manifest or out_dir / "manifest.json"),
        "simulate",
        config=json.loads(json.dumps(dataclasses.asdict(config))),
        inputs=[Path(args.config)] if args.config else [],
        outputs=sorted(paths.values()),
        seed=config.seed,
    )
    return EXIT_OK


def cmd_fit(args: argparse.Namespace) -> int:
    try:
        thresholds = FilterThresholds(
            min_samples=args.min_samples,
            max_rmse_ft=args.max_rmse,
            max_gap_s=args.max_gap,
        )
    except ValueError as exc:
        raise ConfigError(f"invalid fit thresholds: {exc}") from exc
    inputs = [Path(args.tracking), Path(args.events), Path(args.roster)]
    tracking, tracking_load = load_tracking(inputs[0])
    events, events_load = load_events(inputs[1])
    roster, roster_load = load_roster(inputs[2])
    fit = fit_season(tracking, events, roster, thresholds)
    del tracking  # the largest allocation of the run; not needed for writing
    rows, report = fit.rows, fit.filtering

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    factors_path = out_dir / "factors.csv"
    write_shot_rows(rows, factors_path)
    traj_csv = write_csv(
        out_dir / "trajectories.csv",
        ["shot_id"] + [f"beta{i}" for i in range(6)] + ["rmse_ft", "n_samples"],
        ([rec.shot_id, *rec.fitted.beta.tolist(), rec.fitted.rmse_ft, rec.n_samples]
         for _, rec in fit.fits if rec.fitted is not None))

    report_path = out_dir / "filter_report.json"
    report_path.write_text(json.dumps({
        "load": {
            "tracking": dataclasses.asdict(tracking_load),
            "events": dataclasses.asdict(events_load),
            "roster": dataclasses.asdict(roster_load),
        },
        "extraction": dataclasses.asdict(fit.extraction),
        "filtering": {**dataclasses.asdict(report), "retention": report.retention},
        "factor_rejections": fit.factor_rejections,
        "n_factor_rows": len(rows),
        "thresholds": dataclasses.asdict(thresholds),
    }, indent=2, sort_keys=True) + "\n", encoding="utf-8")

    print(f"fit {report.n_input} shots: retained {report.n_retained} "
          f"({report.retention:.3f}), factor rows {len(rows)}")
    write_manifest(
        Path(args.manifest or out_dir / "manifest.json"),
        "fit",
        config=dataclasses.asdict(thresholds),
        inputs=inputs,
        outputs=[factors_path, traj_csv, report_path],
    )
    return EXIT_OK


def cmd_train_makeprob(args: argparse.Namespace) -> int:
    table = read_shot_rows(args.factors, ("outcome",), finite=FACTOR_COLUMNS)
    model = train(table.matrix(FACTOR_COLUMNS), table["outcome"].astype(float),
                  TrainConfig(ridge=args.ridge, min_shots=args.min_shots))
    out = Path(args.out_model)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(model.to_json() + "\n", encoding="utf-8")
    print(f"trained on {model.train_n} shots, converged={model.converged}, "
          f"log_likelihood={model.log_likelihood:.2f}")
    write_manifest(
        Path(args.manifest or out.with_name("manifest.json")),
        "train-makeprob",
        config={"ridge": args.ridge, "min_shots": args.min_shots},
        inputs=[Path(args.factors)],
        outputs=[out],
    )
    return EXIT_OK


def cmd_predict(args: argparse.Namespace) -> int:
    table = read_shot_rows(args.factors, finite=FACTOR_COLUMNS)
    model = MakeProbModel.from_json(Path(args.model).read_text(encoding="utf-8"))
    table.columns["make_prob"] = predict(model, table.matrix(FACTOR_COLUMNS))
    out = Path(args.out)
    write_shot_rows(table, out, with_prob=True)
    print(f"predicted {len(table)} shots -> {out}")
    write_manifest(
        Path(args.manifest or out.with_name("manifest.json")),
        "predict",
        config={},
        inputs=[Path(args.factors), Path(args.model)],
        outputs=[out],
    )
    return EXIT_OK


def cmd_effects(args: argparse.Namespace) -> int:
    prob = args.response_kind == "prob"
    data = read_shot_rows(args.factors, PLAYER_COLUMNS, finite=("ndd_ft", "make_prob")
                          if prob else ("ndd_ft",)).effects_dataset(require_prob=prob)
    filtered = apply_min_shots_filter(data, args.min_shots, min_shots_roles(args.model_kind))
    if len(filtered) == 0:
        raise ConfigError("no rows survive the minimum-shots filter")
    estimates = fit_effects(filtered, args.model_kind, args.response_kind,
                            common_slope=not args.literal_ndd)
    direction = "ascending" if args.model_kind == "defender" else "descending"
    table = rank_players(estimates, direction=direction)

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = write_csv(
        out_dir / f"effects_{args.model_kind}_{args.response_kind}.csv",
        ["rank", "player_id", "role", "effect", "effect_per_100", "n_shots", "opp_mean_prob"],
        ([r.rank, r.player_id, estimates.effect_role, r.effect, r.effect_per_100, r.n_shots,
          r.opp_mean_prob] for r in table))

    title = ("Nearest defender impact" if args.model_kind == "defender"
             else "Shooter resilience to contests")
    lines = [f"{title} ({args.response_kind} response, n={estimates.n_rows} shots)",
             f"{'rank':>4}  {'player':<10} {'per 100':>8}  {'opp prob':>8}  {'shots':>6}"]
    for r in table[:10]:
        lines.append(f"{r.rank:>4}  {r.player_id:<10} {r.effect_per_100:>8.2f}"
                     f"  {r.opp_mean_prob:>8.3f}  {r.n_shots:>6}")
    txt_path = out_dir / f"effects_{args.model_kind}_{args.response_kind}.txt"
    txt_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    print("\n".join(lines))

    json_path = out_dir / f"effects_{args.model_kind}_{args.response_kind}.json"
    json_path.write_text(json.dumps({
        "model_kind": estimates.model_kind,
        "response_kind": estimates.response_kind,
        "intercept": estimates.intercept,
        "common_ndd_slope": estimates.common_ndd_slope,
        "n_rows": estimates.n_rows,
        "residual_sse": estimates.residual_sse,
        "ranking": [dataclasses.asdict(r) for r in table],
        "shooter_effects": estimates.shooter_effects,
    }, indent=2, sort_keys=True) + "\n", encoding="utf-8")

    write_manifest(
        Path(args.manifest or out_dir / "manifest.json"),
        "effects",
        config={"model_kind": args.model_kind, "response_kind": args.response_kind,
                "min_shots": args.min_shots, "literal_ndd": args.literal_ndd},
        inputs=[Path(args.factors)],
        outputs=[csv_path, txt_path, json_path],
    )
    return EXIT_OK


def _analysis_fig3(table, spec):
    out = variance_comparison(
        table["depth_ft"],
        table["lr_ft"],
        table["ndd_ft"],
        open_threshold_ft=spec.get("open_threshold_ft", 6.0),
        contested_threshold_ft=spec.get("contested_threshold_ft", 4.0),
        n_bootstrap=spec.get("n_bootstrap", 1000),
        seed=spec.get("seed", 0),
    )
    return ("fig3_variance.csv",
            ("factor", "contested_var", "open_var", "ratio", "ci_low", "ci_high",
             "n_contested", "n_open"),
            [dataclasses.astuple(out[name]) for name in ("depth", "lr")])


def _analysis_fig4(table, spec):
    rows = []
    for bin_by, bvals, edges in (
        ("ndd", table["ndd_ft"], np.arange(*spec.get("ndd_edges", (0.0, 12.01, 2.0)))),
        ("defender_height", table["defender_height_in"],
         np.arange(*spec.get("height_edges", (72.0, 88.01, 2.0)))),
    ):
        for value_name, vals in (("entry_angle", table["entry_angle_deg"]),
                                 ("depth", table["depth_ft"])):
            prof = binned_profiles(bvals, vals, edges, bin_by=bin_by, value=value_name)
            rows += [(bin_by, value_name, *dataclasses.astuple(row), prof.trend)
                     for row in prof.rows]
    return "fig4_profiles.csv", ("bin_by", "value", "bin_center", "mean", "se", "n", "trend"), rows


def _analysis_depth_bins(table, spec):
    bins = make_pct_by_depth_bin(
        table["depth_ft"],
        table["outcome"],
        bin_width_in=spec.get("bin_width_in", 1.0),
        min_bin_n=spec.get("min_bin_n", 50),
    )
    print(f"argmax depth bin: {bins.argmax_center_in:.0f} in")
    return ("depth_bins.csv", ("depth_in", "make_pct", "se", "n"),
            [dataclasses.astuple(row) for row in bins.rows])


def _analysis_fig5(table, spec):
    data = table.effects_dataset(require_prob=True)
    sub = SubsampleSpec(
        fractions=tuple(spec.get("fractions", (0.1, 0.2, 0.3, 0.4, 0.5))),
        n_replicates=spec.get("n_replicates", 20),
        seed=spec.get("seed", 0),
        unit=spec.get("unit", "game"),
    )
    results = subsample_mse(data, sub, model_kind=spec.get("model_kind", "defender"),
                            min_shots=spec.get("min_shots", 100))
    return ("fig5_mse.csv", ("fraction", "response_kind", "mse", "n_replicates_used", "n_dropped"),
            [dataclasses.astuple(r) for r in results])


def _analysis_split_half(table, spec):
    data = table.effects_dataset(require_prob=True)
    model_kind = spec.get("model_kind", "defender")
    min_shots = spec.get("min_shots", 100)
    return ("split_half.csv", ("model_kind", "response_kind", "spearman_rho"),
            [(model_kind, kind, split_half_rank_correlation(
                data, model_kind=model_kind, response_kind=kind, min_shots=min_shots))
             for kind in ("raw", "prob")])


# analysis -> (function returning (file name, header, rows), columns it reads, columns
# it reads that must be finite); fig4 lets a nan defender height fall out of its bins
_EFFECTS_INPUT = (("game_id",) + PLAYER_COLUMNS, ("ndd_ft", "make_prob"))
ANALYSES = {
    "fig3": (_analysis_fig3, (), ("depth_ft", "lr_ft", "ndd_ft")),
    "fig4": (_analysis_fig4, ("defender_height_in",), ("ndd_ft", "depth_ft", "entry_angle_deg")),
    "fig5": (_analysis_fig5, *_EFFECTS_INPUT),
    "depth-bins": (_analysis_depth_bins, ("outcome",), ("depth_ft",)),
    "split-half": (_analysis_split_half, *_EFFECTS_INPUT),
}
# the keys read by fig3, fig4, depth-bins, fig5 and split-half; one spec may serve all five
SPEC_KEYS = frozenset((
    "open_threshold_ft contested_threshold_ft n_bootstrap seed ndd_edges height_edges "
    "bin_width_in min_bin_n fractions n_replicates unit model_kind min_shots").split())


def cmd_evaluate(args: argparse.Namespace) -> int:
    spec = load_json_config(args.spec)
    _reject_unknown_keys(spec, SPEC_KEYS, "evaluate spec")
    _reject_bad_spec_values(spec)
    analysis, columns, finite = ANALYSES[args.analysis]
    name, header, rows = analysis(read_shot_rows(args.shots, columns, finite), spec)
    path = write_csv(Path(args.out_dir) / name, header, rows)
    print(f"analysis {args.analysis} -> {path}")
    write_manifest(
        Path(args.manifest or path.with_name(f"manifest_{args.analysis}.json")),
        f"evaluate:{args.analysis}",
        config=spec,
        inputs=[Path(args.shots)] + ([Path(args.spec)] if args.spec else []),
        outputs=[path],
        seed=spec.get("seed"),
    )
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="shotarc",
        description="Shot-trajectory reconstruction and perimeter-defense metrics.",
    )
    parser.add_argument("--version", action="version", version=f"shotarc {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="generate a synthetic season")
    p.add_argument("--config", help="JSON file of simulator settings")
    p.add_argument("--seed", type=int, help="master seed (config file wins conflicts)")
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("fit", help="fit trajectories and factors from season files")
    p.add_argument("--tracking", required=True)
    p.add_argument("--events", required=True)
    p.add_argument("--roster", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--min-samples", type=int, default=FilterThresholds.min_samples)
    p.add_argument("--max-rmse", type=float, default=FilterThresholds.max_rmse_ft)
    p.add_argument("--max-gap", type=float, default=FilterThresholds.max_gap_s)
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("train-makeprob", help="train the shot-make model")
    p.add_argument("--factors", required=True)
    p.add_argument("--out-model", required=True)
    p.add_argument("--ridge", type=float, default=1e-6)
    p.add_argument("--min-shots", type=int, default=500)
    p.set_defaults(func=cmd_train_makeprob)

    p = sub.add_parser("predict", help="attach make probabilities to a factors file")
    p.add_argument("--model", required=True)
    p.add_argument("--factors", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("effects", help="defender-impact / shooter-resilience models")
    p.add_argument("--factors", required=True, help="shots file (with make_prob for prob kind)")
    p.add_argument("--model-kind", choices=("defender", "resilience"), default="defender")
    p.add_argument("--response-kind", choices=("raw", "prob"), default="raw")
    p.add_argument("--min-shots", type=int, default=100)
    p.add_argument("--literal-ndd", action="store_true",
                   help="resilience: per-shooter uncentered slopes, no common column")
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_effects)

    p = sub.add_parser("evaluate", help="season-level analyses")
    p.add_argument("--analysis", choices=sorted(ANALYSES), required=True)
    p.add_argument("--shots", required=True, help="factors or predictions file")
    p.add_argument("--spec", help="JSON analysis settings")
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_evaluate)

    for p in sub.choices.values():
        p.add_argument("--manifest", help="manifest path (default: beside the outputs)")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, TrainingError, EffectsError, EvalError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:  # runtime failure
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
