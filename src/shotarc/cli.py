"""Command-line pipeline: simulate, fit, train-makeprob, predict, effects, evaluate.

Every subcommand is a pure function of its inputs, flags, and seed: outputs
are byte-identical across reruns.  Each subcommand returns the ``Run`` it
made, and ``main`` writes its manifest JSON: the resolved configuration,
SHA-256 digests of inputs and outputs, and the tool version (file names
only, so runs in different directories compare equal).  Exit codes: 0
success, 1 runtime failure, 2 usage, config or input error.

All randomness descends from a single seed via numpy SeedSequence spawning:
the simulator spawns one child sequence per game, the evaluation harness one
per bootstrap/subsample procedure.  So ``simulate`` may make a large season
in contiguous blocks of games, one per worker process
(``sim.simulate_to_files``), and its files keep the bytes the serial
library writer (``sim.write_season``) gives them.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import sys
from collections.abc import Iterable
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import __version__
from .effects import (
    EffectsError,
    apply_min_shots_filter,
    fit_effects,
    min_shots_roles,
    rank_players,
)
from .evaluate import (
    CONTESTED_NDD_FT,
    OPEN_NDD_FT,
    EvalError,
    SubsampleSpec,
    binned_profiles,
    make_pct_by_depth_bin,
    split_half_rank_correlation,
    subsample_mse,
    variance_comparison,
)
from .ingest import IngestError
from .makeprob import MakeProbModel, TrainConfig, TrainingError, predict, train
# the shots file lives in season; ShotRow and fit_season are re-exported for library callers
from .season import (ShotRow, ShotsFileError, fit_files, fit_season, read_shot_rows, write_columns,
                     write_csv, write_json, write_shot_rows)
from .sim import PressureModel, SimConfig, simulate_to_files
from .trajectory import FilterThresholds

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_USAGE = 2


class ConfigError(ValueError):
    pass


class Run(NamedTuple):
    """What one subcommand ran, in ``write_manifest``'s argument order."""

    command: str
    config: dict
    inputs: list[Path]
    outputs: list[Path]
    seed: int | None = None


def _sha256(path: Path) -> str:
    # one 256 KiB buffer, reused: a larger one hashed no faster
    digest, chunk = hashlib.sha256(), memoryview(bytearray(1 << 18))
    with path.open("rb", buffering=0) as fh:
        while n := fh.readinto(chunk):
            digest.update(chunk[:n])
    return digest.hexdigest()


def write_manifest(
    manifest_path: Path,
    command: str,
    config: dict,
    inputs: list[Path],
    outputs: list[Path],
    seed: int | None = None,
) -> None:
    """Write the manifest, with the SHA-256 of every file in ``inputs`` and ``outputs``
    read from disk: the one place a digest is computed."""
    write_json(manifest_path, {
        "tool": "shotarc",
        "version": __version__,
        "command": command,
        "config": config,
        "seed": seed,
        "inputs": {p.name: _sha256(p) for p in inputs},
        "outputs": {p.name: _sha256(p) for p in outputs},
    })


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
    except RecursionError:
        raise ConfigError(f"{path}: JSON nested too deeply") from None
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


# evaluate spec key -> (default, test of a given value, what the test asks for); the keys
# that fig3, fig4, depth-bins, fig5 and split-half read, so one spec may serve all five.
# model_kind and unit carry only a default: the analyses check them.
SPEC = {
    "open_threshold_ft": (OPEN_NDD_FT, _number, "a finite number"),
    "contested_threshold_ft": (CONTESTED_NDD_FT, _number, "a finite number"),
    "n_bootstrap": (1000, _int_at_least(1), "an integer of at least 1"),
    "seed": (0, _int_at_least(0), "an integer of at least 0"),
    "ndd_edges": ((0.0, 12.01, 2.0), _edges, "[start, stop, step], finite numbers with step > 0"),
    "height_edges": ((72.0, 88.01, 2.0), _edges,
                     "[start, stop, step], finite numbers with step > 0"),
    "bin_width_in": (1.0, lambda v: _number(v) and v > 0, "a finite number above 0"),
    "min_bin_n": (50, _int_at_least(1), "an integer of at least 1"),
    # the (0, 1] range of each fraction is SubsampleSpec's to check
    "fractions": ((0.1, 0.2, 0.3, 0.4, 0.5),
                  lambda v: type(v) is list and len(v) > 0 and all(map(_number, v)),
                  "a non-empty list of finite numbers"),
    "n_replicates": (20, _int_at_least(1), "an integer of at least 1"),
    "min_shots": (100, _int_at_least(1), "an integer of at least 1"),
    "model_kind": ("defender",),
    "unit": ("game",),
}


def spec_with_defaults(spec: dict) -> dict:
    """Every ``SPEC`` key, at its value in ``spec`` if given and passing its test,
    else at its default; a ``ConfigError`` for an unknown key or a failed test."""
    _reject_unknown_keys(spec, SPEC, "evaluate spec")
    for key, (_, *test) in SPEC.items():
        if test and key in spec and not test[0](spec[key]):
            raise ConfigError(f"evaluate spec {key} must be {test[1]}, not {spec[key]!r}")
    return {key: spec.get(key, default) for key, (default, *_) in SPEC.items()}


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


# --- subcommands -------------------------------------------------------------------

FACTOR_COLUMNS = ("depth_ft", "lr_ft", "entry_angle_deg")
PLAYER_COLUMNS = ("shooter_id", "defender_id", "outcome")


def cmd_simulate(args: argparse.Namespace) -> Run:
    file_cfg = load_json_config(args.config)
    if args.seed is not None:
        if "seed" in file_cfg and file_cfg["seed"] != args.seed:
            print(f"warning: config file overrides --seed={args.seed} "
                  f"with {file_cfg['seed']}", file=sys.stderr)
        else:
            file_cfg["seed"] = args.seed
    config = sim_config_from_dict(file_cfg)
    out_dir = Path(args.out_dir)
    paths, made = simulate_to_files(config, out_dir)
    print(f"simulated {config.n_shots} shots over {config.n_games} games "
          f"({made / config.n_shots:.3f} make rate) -> {out_dir}")
    return Run("simulate", json.loads(json.dumps(dataclasses.asdict(config))),
               [Path(args.config)] if args.config else [], sorted(paths.values()), config.seed)


def cmd_fit(args: argparse.Namespace) -> Run:
    try:
        thresholds = FilterThresholds(
            min_samples=args.min_samples,
            max_rmse_ft=args.max_rmse,
            max_gap_s=args.max_gap,
        )
    except ValueError as exc:
        raise ConfigError(f"invalid fit thresholds: {exc}") from exc
    inputs = [Path(args.tracking), Path(args.events), Path(args.roster)]
    fit, loads = fit_files(*inputs, thresholds)
    rows, report = fit.rows, fit.filtering

    out_dir = Path(args.out_dir)
    factors_path = out_dir / "factors.csv"
    write_shot_rows(rows, factors_path)     # makes out_dir
    fits, done = fit.fits, fit.fits["fitted"]
    traj_csv = write_columns(
        out_dir / "trajectories.csv",
        ["shot_id"] + [f"beta{i}" for i in range(6)] + ["rmse_ft", "n_samples"],
        [fits["shot_id"][done], *fits["beta"][done].T, fits["rmse_ft"][done],
         fits["n_samples"][done]])

    report_path = write_json(out_dir / "filter_report.json", {
        "load": {name: dataclasses.asdict(load)
                 for name, load in zip(("tracking", "events", "roster"), loads)},
        "extraction": dataclasses.asdict(fit.extraction),
        "filtering": {**dataclasses.asdict(report), "retention": report.retention},
        "factor_rejections": fit.factor_rejections,
        "n_factor_rows": len(rows),
        "thresholds": dataclasses.asdict(thresholds),
    })

    print(f"fit {report.n_input} shots: retained {report.n_retained} "
          f"({report.retention:.3f}), factor rows {len(rows)}")
    return Run("fit", dataclasses.asdict(thresholds), inputs, [factors_path, traj_csv, report_path])


def cmd_train_makeprob(args: argparse.Namespace) -> Run:
    config = TrainConfig(ridge=args.ridge, min_shots=args.min_shots)
    table = read_shot_rows(args.factors, ("outcome",), finite=FACTOR_COLUMNS)
    model = train(table.matrix(FACTOR_COLUMNS), table["outcome"].astype(float), config)
    out = write_json(Path(args.out_model), model.to_json())
    print(f"trained on {model.train_n} shots, converged={model.converged}, "
          f"log_likelihood={model.log_likelihood:.2f}")
    return Run("train-makeprob", {"ridge": args.ridge, "min_shots": args.min_shots},
               [Path(args.factors)], [out])


def cmd_predict(args: argparse.Namespace) -> Run:
    table = read_shot_rows(args.factors, finite=FACTOR_COLUMNS)
    model = MakeProbModel.from_json(Path(args.model).read_bytes())
    table.columns["make_prob"] = predict(model, table.matrix(FACTOR_COLUMNS))
    out = Path(args.out)
    write_shot_rows(table, out)
    print(f"predicted {len(table)} shots -> {out}")
    return Run("predict", {}, [Path(args.factors), Path(args.model)], [out])


def cmd_effects(args: argparse.Namespace) -> Run:
    _, at_least_1, what = SPEC["min_shots"]
    if not at_least_1(args.min_shots):
        raise ConfigError(f"min_shots must be {what}, not {args.min_shots!r}")
    finite = ("ndd_ft", "make_prob") if args.response_kind == "prob" else ("ndd_ft",)
    data = read_shot_rows(args.factors, PLAYER_COLUMNS, finite).effects_dataset()
    filtered = apply_min_shots_filter(data, args.min_shots, min_shots_roles(args.model_kind))
    if len(filtered) == 0:
        raise ConfigError("no rows survive the minimum-shots filter")
    estimates = fit_effects(filtered, args.model_kind, args.response_kind,
                            common_slope=not args.literal_ndd)
    table = rank_players(estimates)

    stem = Path(args.out_dir) / f"effects_{args.model_kind}_{args.response_kind}"
    csv_path = write_csv(
        stem.with_suffix(".csv"),
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
    txt_path = stem.with_suffix(".txt")
    txt_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    print("\n".join(lines))

    json_path = write_json(stem.with_suffix(".json"), {
        "model_kind": estimates.model_kind,
        "response_kind": estimates.response_kind,
        "intercept": estimates.intercept,
        "common_ndd_slope": estimates.common_ndd_slope,
        "n_rows": estimates.n_rows,
        "residual_sse": estimates.residual_sse,
        "ranking": [dataclasses.asdict(r) for r in table],
        "shooter_effects": estimates.shooter_effects,
    })

    return Run("effects", {"model_kind": args.model_kind, "response_kind": args.response_kind,
                           "min_shots": args.min_shots, "literal_ndd": args.literal_ndd},
               [Path(args.factors)], [csv_path, txt_path, json_path])


def _analysis_fig3(table, spec):
    out = variance_comparison(
        table["depth_ft"],
        table["lr_ft"],
        table["ndd_ft"],
        open_threshold_ft=spec["open_threshold_ft"],
        contested_threshold_ft=spec["contested_threshold_ft"],
        n_bootstrap=spec["n_bootstrap"],
        seed=spec["seed"],
    )
    return ("fig3_variance.csv",
            ("factor", "contested_var", "open_var", "ratio", "ci_low", "ci_high",
             "n_contested", "n_open"),
            [dataclasses.astuple(out[name]) for name in ("depth", "lr")])


def _analysis_fig4(table, spec):
    rows = []
    for bin_by, bvals, edges in (
        ("ndd", table["ndd_ft"], np.arange(*spec["ndd_edges"])),
        ("defender_height", table["defender_height_in"], np.arange(*spec["height_edges"])),
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
        bin_width_in=spec["bin_width_in"],
        min_bin_n=spec["min_bin_n"],
    )
    print(f"argmax depth bin: {bins.argmax_center_in:.0f} in")
    return ("depth_bins.csv", ("depth_in", "make_pct", "se", "n"),
            [dataclasses.astuple(row) for row in bins.rows])


def _analysis_fig5(table, spec):
    data = table.effects_dataset()
    sub = SubsampleSpec(
        fractions=tuple(spec["fractions"]),
        n_replicates=spec["n_replicates"],
        seed=spec["seed"],
        unit=spec["unit"],
    )
    results = subsample_mse(data, sub, model_kind=spec["model_kind"], min_shots=spec["min_shots"])
    return ("fig5_mse.csv", ("fraction", "response_kind", "mse", "n_replicates_used", "n_dropped"),
            [dataclasses.astuple(r) for r in results])


def _analysis_split_half(table, spec):
    data = table.effects_dataset()
    model_kind, min_shots = spec["model_kind"], spec["min_shots"]
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


def cmd_evaluate(args: argparse.Namespace) -> Run:
    spec = load_json_config(args.spec)
    values = spec_with_defaults(spec)
    analysis, columns, finite = ANALYSES[args.analysis]
    name, header, rows = analysis(read_shot_rows(args.shots, columns, finite), values)
    path = write_csv(Path(args.out_dir) / name, header, rows)
    print(f"analysis {args.analysis} -> {path}")
    return Run(f"evaluate:{args.analysis}", spec,
               [Path(args.shots)] + ([Path(args.spec)] if args.spec else []), [path],
               spec.get("seed"))


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
    p.add_argument("--ridge", type=float, default=TrainConfig.ridge)
    p.add_argument("--min-shots", type=int, default=TrainConfig.min_shots)
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
    """Run one subcommand, then write its manifest: at ``--manifest``, else beside
    its first output as ``manifest.json`` (``manifest_<analysis>.json`` for evaluate)."""
    args = build_parser().parse_args(argv)
    try:
        run = args.func(args)
        analysis = run.command.partition(":")[2]
        name = f"manifest_{analysis}.json" if analysis else "manifest.json"
        write_manifest(Path(args.manifest or run.outputs[0].with_name(name)), *run)
        return EXIT_OK
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        usage = (ConfigError, ShotsFileError, IngestError, TrainingError, EffectsError, EvalError,
                 FileNotFoundError)        # bad usage, config or input; anything else is a fault
        return EXIT_USAGE if isinstance(exc, usage) else EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
