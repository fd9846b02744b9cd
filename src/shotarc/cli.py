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
import sys
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
    IllConditionedError,
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
    seed: int | None,
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


def sim_config_from_dict(doc: dict) -> SimConfig:
    known = {f.name for f in dataclasses.fields(SimConfig)}
    unknown = set(doc) - known
    if unknown:
        raise ConfigError(f"unknown simulate config keys: {sorted(unknown)}")
    kwargs = dict(doc)
    if "pressure" in kwargs:
        if not isinstance(kwargs["pressure"], dict):
            raise ConfigError("pressure must be an object of pressure-model fields")
        p_known = {f.name for f in dataclasses.fields(PressureModel)}
        p_unknown = set(kwargs["pressure"]) - p_known
        if p_unknown:
            raise ConfigError(f"unknown pressure config keys: {sorted(p_unknown)}")
        kwargs["pressure"] = PressureModel(**kwargs["pressure"])
    for tuple_key in ("release_distance_range_ft", "release_azimuth_range_deg", "ndd_range_ft"):
        if tuple_key in kwargs:
            kwargs[tuple_key] = tuple(kwargs[tuple_key])
    try:
        return SimConfig(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid simulate config: {exc}") from exc


# --- per-shot pipeline table ------------------------------------------------------

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


def write_shot_rows(rows: list[ShotRow], path: Path, with_prob: bool = False) -> None:
    cols = list(SHOT_COLUMNS) + (["make_prob"] if with_prob else [])
    with path.open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(cols)
        for r in rows:
            vals = [r.shot_id, r.game_id, r.shooter_id, r.defender_id, repr(r.ndd_ft),
                    repr(r.defender_height_in), repr(r.contest_angle_deg), str(r.outcome),
                    repr(r.depth_ft), repr(r.lr_ft), repr(r.entry_angle_deg),
                    repr(r.rmse_ft), str(r.n_samples), r.flags]
            if with_prob:
                vals.append(repr(r.make_prob) if r.make_prob is not None else "")
            writer.writerow(vals)


def read_shot_rows(path: str | Path) -> list[ShotRow]:
    rows: list[ShotRow] = []
    with Path(path).open("r", encoding="utf-8", newline="") as fh:
        for rec in csv.DictReader(fh):
            prob = rec.get("make_prob")
            rows.append(ShotRow(
                shot_id=rec["shot_id"],
                game_id=rec["game_id"],
                shooter_id=rec["shooter_id"],
                defender_id=rec["defender_id"],
                ndd_ft=float(rec["ndd_ft"]),
                defender_height_in=float(rec["defender_height_in"]),
                contest_angle_deg=float(rec["contest_angle_deg"]),
                outcome=int(rec["outcome"]),
                depth_ft=float(rec["depth_ft"]),
                lr_ft=float(rec["lr_ft"]),
                entry_angle_deg=float(rec["entry_angle_deg"]),
                rmse_ft=float(rec["rmse_ft"]),
                n_samples=int(rec["n_samples"]),
                flags=rec.get("flags", ""),
                make_prob=float(prob) if prob else None,
            ))
    return rows


def effects_dataset_from_rows(rows: list[ShotRow], require_prob: bool) -> EffectsDataset:
    if require_prob and any(r.make_prob is None for r in rows):
        raise ConfigError("shots file lacks make_prob; run `shotarc predict` first")
    return EffectsDataset(
        shooters=np.array([r.shooter_id for r in rows]),
        defenders=np.array([r.defender_id for r in rows]),
        ndd_ft=np.array([r.ndd_ft for r in rows]),
        outcomes=np.array([float(r.outcome) for r in rows]),
        probs=(np.array([r.make_prob for r in rows], dtype=float)
               if all(r.make_prob is not None for r in rows) else None),
        game_ids=np.array([r.game_id for r in rows]),
    )


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
        fitted = None
        flags = list(ev.flags)
        try:
            fitted = fit_trajectory(
                ev.samples, ev.release_xy, prior_config,
                min_samples=max(thresholds.min_samples, 2))
        except IllConditionedError:
            flags.append("unfittable")
        except TrajectoryFitError:
            flags.append("insufficient_samples")
        fits.append((ev, ShotFitRecord(
            shot_id=ev.shot_id,
            fitted=fitted,
            n_samples=len(ev.samples),
            max_gap_s=ev.max_gap_s,
            flags=tuple(flags),
        )))

    retained, filtering = filter_shots([rec for _, rec in fits], thresholds)
    retained_ids = {rec.shot_id for rec in retained}

    rows: list[ShotRow] = []
    factor_rejections: dict[str, int] = {}
    for ev, rec in fits:
        if rec.shot_id not in retained_ids or rec.fitted is None:
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
            flags=";".join(rec.flags),
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
        Path(args.manifest) if args.manifest else out_dir / "manifest.json",
        "simulate",
        config=json.loads(json.dumps(dataclasses.asdict(config))),
        inputs=[Path(args.config)] if args.config else [],
        outputs=sorted(paths.values()),
        seed=config.seed,
    )
    return EXIT_OK


def cmd_fit(args: argparse.Namespace) -> int:
    thresholds = FilterThresholds(
        min_samples=args.min_samples,
        max_rmse_ft=args.max_rmse,
        max_gap_s=args.max_gap,
    )
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    inputs = [Path(args.tracking), Path(args.events), Path(args.roster)]
    tracking, tracking_load = load_tracking(inputs[0])
    events, events_load = load_events(inputs[1])
    roster, roster_load = load_roster(inputs[2])
    fit = fit_season(tracking, events, roster, thresholds)
    del tracking  # the largest allocation of the run; not needed for writing
    rows, report = fit.rows, fit.filtering

    factors_path = out_dir / "factors.csv"
    write_shot_rows(rows, factors_path)
    factors_jsonl = out_dir / "factors.jsonl"
    with factors_jsonl.open("w", encoding="utf-8", newline="\n") as fh:
        for r in rows:
            fh.write(json.dumps({
                "shot_id": r.shot_id,
                "depth_ft": r.depth_ft,
                "lr_ft": r.lr_ft,
                "angle_deg": r.entry_angle_deg,
                "flags": r.flags.split(";") if r.flags else [],
            }, sort_keys=True) + "\n")

    traj_csv = out_dir / "trajectories.csv"
    traj_jsonl = out_dir / "trajectories.jsonl"
    with traj_csv.open("w", encoding="utf-8", newline="") as fh_csv, \
            traj_jsonl.open("w", encoding="utf-8", newline="\n") as fh_jsonl:
        writer = csv.writer(fh_csv, lineterminator="\n")
        writer.writerow(["shot_id"] + [f"beta{i}" for i in range(6)] + ["rmse_ft", "n_samples"])
        for _, rec in fit.fits:
            fitted = rec.fitted
            if fitted is None:
                continue
            writer.writerow([rec.shot_id] + [repr(float(b)) for b in fitted.beta]
                            + [repr(fitted.rmse_ft), rec.n_samples])
            fh_jsonl.write(json.dumps({
                "shot_id": rec.shot_id,
                "beta": [float(b) for b in fitted.beta],
                "rmse_ft": fitted.rmse_ft,
                "n_samples": rec.n_samples,
            }, sort_keys=True) + "\n")

    report_path = out_dir / "filter_report.json"
    report_path.write_text(json.dumps({
        "load": {
            "tracking": dataclasses.asdict(tracking_load),
            "events": dataclasses.asdict(events_load),
            "roster": dataclasses.asdict(roster_load),
        },
        "extraction": dataclasses.asdict(fit.extraction),
        "filtering": {
            "n_input": report.n_input,
            "n_retained": report.n_retained,
            "retention": report.retention,
            "rejections": report.rejections,
        },
        "factor_rejections": fit.factor_rejections,
        "n_factor_rows": len(rows),
        "thresholds": dataclasses.asdict(thresholds),
    }, indent=2, sort_keys=True) + "\n", encoding="utf-8")

    print(f"fit {report.n_input} shots: retained {report.n_retained} "
          f"({report.retention:.3f}), factor rows {len(rows)}")
    write_manifest(
        Path(args.manifest) if args.manifest else out_dir / "manifest.json",
        "fit",
        config=dataclasses.asdict(thresholds),
        inputs=inputs,
        outputs=[factors_path, factors_jsonl, traj_csv, traj_jsonl, report_path],
        seed=None,
    )
    return EXIT_OK


def cmd_train_makeprob(args: argparse.Namespace) -> int:
    rows = read_shot_rows(args.factors)
    if not rows:
        raise ConfigError("factors file holds no shots")
    factors = np.array([[r.depth_ft, r.lr_ft, r.entry_angle_deg] for r in rows])
    outcomes = np.array([float(r.outcome) for r in rows])
    model = train(factors, outcomes, TrainConfig(ridge=args.ridge, min_shots=args.min_shots))
    out = Path(args.out_model)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(model.to_json() + "\n", encoding="utf-8")
    print(f"trained on {model.train_n} shots, converged={model.converged}, "
          f"log_likelihood={model.log_likelihood:.2f}")
    write_manifest(
        Path(args.manifest) if args.manifest else out.with_name("manifest.json"),
        "train-makeprob",
        config={"ridge": args.ridge, "min_shots": args.min_shots},
        inputs=[Path(args.factors)],
        outputs=[out],
        seed=None,
    )
    return EXIT_OK


def cmd_predict(args: argparse.Namespace) -> int:
    rows = read_shot_rows(args.factors)
    model = MakeProbModel.from_json(Path(args.model).read_text(encoding="utf-8"))
    factors = np.array([[r.depth_ft, r.lr_ft, r.entry_angle_deg] for r in rows])
    probs = predict(model, factors) if len(rows) else np.array([])
    for r, p in zip(rows, probs):
        r.make_prob = float(p)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    write_shot_rows(rows, out, with_prob=True)
    print(f"predicted {len(rows)} shots -> {out}")
    write_manifest(
        Path(args.manifest) if args.manifest else out.with_name("manifest.json"),
        "predict",
        config={},
        inputs=[Path(args.factors), Path(args.model)],
        outputs=[out],
        seed=None,
    )
    return EXIT_OK


def cmd_effects(args: argparse.Namespace) -> int:
    rows = read_shot_rows(args.factors)
    data = effects_dataset_from_rows(rows, require_prob=args.response_kind == "prob")
    filtered = apply_min_shots_filter(data, args.min_shots, min_shots_roles(args.model_kind))
    if len(filtered) == 0:
        raise ConfigError("no rows survive the minimum-shots filter")
    estimates = fit_effects(filtered, args.model_kind, args.response_kind,
                            common_slope=not args.literal_ndd)
    direction = "ascending" if args.model_kind == "defender" else "descending"
    table = rank_players(estimates, direction=direction)

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / f"effects_{args.model_kind}_{args.response_kind}.csv"
    with csv_path.open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["rank", "player_id", "role", "effect", "effect_per_100", "n_shots",
                         "opp_mean_prob"])
        writer.writerows([r.rank, r.player_id, estimates.effect_role, repr(r.effect),
                          repr(r.effect_per_100), r.n_shots, repr(r.opp_mean_prob)]
                         for r in table)

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
        Path(args.manifest) if args.manifest else out_dir / "manifest.json",
        "effects",
        config={"model_kind": args.model_kind, "response_kind": args.response_kind,
                "min_shots": args.min_shots, "literal_ndd": args.literal_ndd},
        inputs=[Path(args.factors)],
        outputs=[csv_path, txt_path, json_path],
        seed=None,
    )
    return EXIT_OK


def _analysis_fig3(rows, spec, out_dir):
    out = variance_comparison(
        np.array([r.depth_ft for r in rows]),
        np.array([r.lr_ft for r in rows]),
        np.array([r.ndd_ft for r in rows]),
        open_threshold_ft=spec.get("open_threshold_ft", 6.0),
        contested_threshold_ft=spec.get("contested_threshold_ft", 4.0),
        n_bootstrap=spec.get("n_bootstrap", 1000),
        seed=spec.get("seed", 0),
    )
    path = out_dir / "fig3_variance.csv"
    with path.open("w", encoding="utf-8", newline="\n") as fh:
        fh.write("factor,contested_var,open_var,ratio,ci_low,ci_high,n_contested,n_open\n")
        for name in ("depth", "lr"):
            v = out[name]
            fh.write(f"{name},{v.contested_var!r},{v.open_var!r},{v.ratio!r},"
                     f"{v.ci_low!r},{v.ci_high!r},{v.n_contested},{v.n_open}\n")
    return [path]


def _analysis_fig4(rows, spec, out_dir):
    ndd = np.array([r.ndd_ft for r in rows])
    height = np.array([r.defender_height_in for r in rows])
    paths = []
    path = out_dir / "fig4_profiles.csv"
    with path.open("w", encoding="utf-8", newline="\n") as fh:
        fh.write("bin_by,value,bin_center,mean,se,n,trend\n")
        for bin_by, bvals, edges in (
            ("ndd", ndd, np.arange(*spec.get("ndd_edges", (0.0, 12.01, 2.0)))),
            ("defender_height", height, np.arange(*spec.get("height_edges", (72.0, 88.01, 2.0)))),
        ):
            for value_name, vals in (
                ("entry_angle", np.array([r.entry_angle_deg for r in rows])),
                ("depth", np.array([r.depth_ft for r in rows])),
            ):
                prof = binned_profiles(bvals, vals, edges, bin_by=bin_by, value=value_name)
                for row in prof.rows:
                    fh.write(f"{bin_by},{value_name},{row.center!r},{row.mean!r},"
                             f"{row.se!r},{row.n},{prof.trend!r}\n")
    paths.append(path)
    return paths


def _analysis_depth_bins(rows, spec, out_dir):
    table = make_pct_by_depth_bin(
        np.array([r.depth_ft for r in rows]),
        np.array([float(r.outcome) for r in rows]),
        bin_width_in=spec.get("bin_width_in", 1.0),
        min_bin_n=spec.get("min_bin_n", 50),
    )
    path = out_dir / "depth_bins.csv"
    with path.open("w", encoding="utf-8", newline="\n") as fh:
        fh.write("depth_in,make_pct,se,n\n")
        for row in table.rows:
            fh.write(f"{row.center!r},{row.mean!r},{row.se!r},{row.n}\n")
    print(f"argmax depth bin: {table.argmax_center_in:.0f} in")
    return [path]


def _analysis_fig5(rows, spec, out_dir):
    data = effects_dataset_from_rows(rows, require_prob=True)
    sub = SubsampleSpec(
        fractions=tuple(spec.get("fractions", (0.1, 0.2, 0.3, 0.4, 0.5))),
        n_replicates=spec.get("n_replicates", 20),
        seed=spec.get("seed", 0),
        unit=spec.get("unit", "game"),
    )
    results = subsample_mse(data, sub, model_kind=spec.get("model_kind", "defender"),
                            min_shots=spec.get("min_shots", 100))
    path = out_dir / "fig5_mse.csv"
    with path.open("w", encoding="utf-8", newline="\n") as fh:
        fh.write("fraction,response_kind,mse,n_replicates_used,n_dropped\n")
        for r in results:
            fh.write(f"{r.fraction!r},{r.response_kind},{r.mse!r},"
                     f"{r.n_replicates_used},{r.n_dropped}\n")
    return [path]


def _analysis_split_half(rows, spec, out_dir):
    data = effects_dataset_from_rows(rows, require_prob=True)
    model_kind = spec.get("model_kind", "defender")
    min_shots = spec.get("min_shots", 100)
    path = out_dir / "split_half.csv"
    with path.open("w", encoding="utf-8", newline="\n") as fh:
        fh.write("model_kind,response_kind,spearman_rho\n")
        for kind in ("raw", "prob"):
            rho = split_half_rank_correlation(data, model_kind=model_kind,
                                              response_kind=kind, min_shots=min_shots)
            fh.write(f"{model_kind},{kind},{rho!r}\n")
    return [path]


ANALYSES = {
    "fig3": _analysis_fig3,
    "fig4": _analysis_fig4,
    "fig5": _analysis_fig5,
    "depth-bins": _analysis_depth_bins,
    "split-half": _analysis_split_half,
}


def cmd_evaluate(args: argparse.Namespace) -> int:
    spec = load_json_config(args.spec)
    rows = read_shot_rows(args.shots)
    if not rows:
        raise ConfigError("shots file holds no rows")
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    outputs = ANALYSES[args.analysis](rows, spec, out_dir)
    print(f"analysis {args.analysis} -> {', '.join(str(p) for p in outputs)}")
    write_manifest(
        Path(args.manifest) if args.manifest else out_dir / f"manifest_{args.analysis}.json",
        f"evaluate:{args.analysis}",
        config=spec,
        inputs=[Path(args.shots)] + ([Path(args.spec)] if args.spec else []),
        outputs=outputs,
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
    p.add_argument("--manifest", help="manifest path (default <out-dir>/manifest.json)")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("fit", help="fit trajectories and factors from season files")
    p.add_argument("--tracking", required=True)
    p.add_argument("--events", required=True)
    p.add_argument("--roster", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--min-samples", type=int, default=FilterThresholds.min_samples)
    p.add_argument("--max-rmse", type=float, default=FilterThresholds.max_rmse_ft)
    p.add_argument("--max-gap", type=float, default=FilterThresholds.max_gap_s)
    p.add_argument("--manifest")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("train-makeprob", help="train the shot-make model")
    p.add_argument("--factors", required=True)
    p.add_argument("--out-model", required=True)
    p.add_argument("--ridge", type=float, default=1e-6)
    p.add_argument("--min-shots", type=int, default=500)
    p.add_argument("--manifest")
    p.set_defaults(func=cmd_train_makeprob)

    p = sub.add_parser("predict", help="attach make probabilities to a factors file")
    p.add_argument("--model", required=True)
    p.add_argument("--factors", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--manifest")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("effects", help="defender-impact / shooter-resilience models")
    p.add_argument("--factors", required=True, help="shots file (with make_prob for prob kind)")
    p.add_argument("--model-kind", choices=("defender", "resilience"), default="defender")
    p.add_argument("--response-kind", choices=("raw", "prob"), default="raw")
    p.add_argument("--min-shots", type=int, default=100)
    p.add_argument("--literal-ndd", action="store_true",
                   help="resilience: per-shooter uncentered slopes, no common column")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--manifest")
    p.set_defaults(func=cmd_effects)

    p = sub.add_parser("evaluate", help="season-level analyses")
    p.add_argument("--analysis", choices=sorted(ANALYSES), required=True)
    p.add_argument("--shots", required=True, help="factors or predictions file")
    p.add_argument("--spec", help="JSON analysis settings")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--manifest")
    p.set_defaults(func=cmd_evaluate)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, TrainingError, EffectsError, EvalError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:  # runtime failure
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
