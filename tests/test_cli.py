"""CLI: exit codes, manifests, determinism, subcommand composition."""

import csv
import hashlib
import json
import multiprocessing
import os
import subprocess
import sys
import tracemalloc
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import shotarc
from shotarc import core, evaluate, ingest, sim
from shotarc import season as season_module
from shotarc.cli import (
    ShotRow,
    fit_season,
    main,
    read_shot_rows,
    write_shot_rows,
)
from shotarc.core import rim_center_xy
from shotarc.ingest import load_events, load_roster, load_tracking
from shotarc.sim import SimConfig, season_tracking, simulate_season, write_season
from conftest import shot_row_objects


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("cli")


@pytest.fixture(scope="module")
def season_dir(workdir):
    out = workdir / "season"
    cfg = json.dumps({"n_games": 8, "shots_per_game": 40, "seed": 404})
    cfg_path = workdir / "sim.json"
    cfg_path.write_text(cfg)
    assert main(["simulate", "--config", str(cfg_path), "--out-dir", str(out)]) == 0
    return out


@pytest.fixture(scope="module")
def fit_dir(workdir, season_dir):
    out = workdir / "fit"
    assert main(["fit",
                 "--tracking", str(season_dir / "tracking.jsonl"),
                 "--events", str(season_dir / "events.csv"),
                 "--roster", str(season_dir / "roster.csv"),
                 "--out-dir", str(out)]) == 0
    return out


class TestExitCodes:
    def test_malformed_config_exits_2_with_location(self, workdir, capsys):
        bad = workdir / "bad.json"
        bad.write_text('{"n_games": 5,,}')
        code = main(["simulate", "--config", str(bad), "--out-dir", str(workdir / "x")])
        assert code == 2
        err = capsys.readouterr().err
        assert "bad.json:1:" in err

    @pytest.mark.parametrize("command", ["simulate", "evaluate"])
    def test_deeply_nested_config_exits_2_and_writes_nothing(self, tmp_path, capsys, command):
        # json.loads raises RecursionError, not JSONDecodeError, on this
        bad = tmp_path / "deep.json"
        bad.write_text("[" * 3000)
        out = tmp_path / "out"
        argv = (["simulate", "--config", str(bad), "--out-dir", str(out)] if command == "simulate"
                else ["evaluate", "--analysis", "fig3", "--shots", str(bad), "--spec", str(bad),
                      "--out-dir", str(out)])
        assert main(argv) == 2
        assert "deep.json: JSON nested too deeply" in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_config_key_exits_2(self, workdir):
        bad = workdir / "unknown.json"
        bad.write_text('{"n_gmaes": 5}')
        assert main(["simulate", "--config", str(bad), "--out-dir", str(workdir / "x")]) == 2

    def test_missing_input_file_exits_2(self, workdir):
        assert main(["fit", "--tracking", str(workdir / "nope.jsonl"),
                     "--events", str(workdir / "nope.csv"),
                     "--roster", str(workdir / "nope2.csv"),
                     "--out-dir", str(workdir / "y")]) == 2

    @pytest.mark.parametrize("key", ["n_games", "shots_per_game", "n_shooters", "n_defenders"])
    def test_non_positive_season_size_exits_2_and_writes_nothing(self, workdir, key, capsys):
        bad = workdir / f"zero_{key}.json"
        bad.write_text(json.dumps({"n_games": 2, "shots_per_game": 5, key: 0}))
        out = workdir / f"zero_{key}"
        assert main(["simulate", "--config", str(bad), "--out-dir", str(out)]) == 2
        assert f"{key} must be positive" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("doc, message", [
        ('{"ndd_range_ft": [5, 1]}', "ndd_range_ft must be two finite numbers lo <= hi"),
        ('{"ndd_range_ft": [1]}', "ndd_range_ft must be two finite numbers lo <= hi"),
        ('{"ndd_range_ft": 5}', "invalid simulate config"),
        ('{"release_distance_range_ft": [0.1, 0.2]}',
         "release_distance_range_ft must start above 2.995 ft"),
        ('{"tracking_noise_ft": NaN}', "tracking_noise_ft must be finite"),
        ('{"release_height_jitter_ft": NaN}', "release_height_jitter_ft must be finite"),
        ('{"release_height_ft": 30.0}', "release_height_ft must be at most 9.5 ft"),
        ('{"n_games": 2, "shots_per_game": 20, "seed": 3, "release_height_ft": -50.0}',
         "release_height_ft must be at least 3.5 ft"),
        ('{"ndd_gamma_shape": -1}', "ndd_gamma_shape and ndd_gamma_scale must be positive"),
        ('{"contest_angle_sd_deg": -1}', "contest_angle_sd_deg must be non-negative"),
        ('{"n_shooters": 3}', "n_shooters must be at least 5"),
        ('{"n_games": true}', "n_games must be an integer, not True"),
        ('{"pressure": {"ramp_width_ft": -0.2}}', "ramp_width_ft must be positive"),
        ('{"pressure": {"ramp_width_ft": 0}}', "ramp_width_ft must be positive"),
        ('{"pressure": {"depth_var_inflation": 0.5}}', "variance inflation factors must be >= 1"),
        # math.isfinite takes a bool; a JSON boolean is no number here
        ('{"corrupt_fraction": true}', "corrupt_fraction must be finite, not True"),
        ('{"tracking_noise_ft": true}', "tracking_noise_ft must be finite, not True"),
        ('{"pressure": {"depth_shift_ft": false}}', "depth_shift_ft must be finite, not False"),
        ('{"ndd_range_ft": [true, 10]}', "ndd_range_ft must be two finite numbers lo <= hi"),
    ])
    def test_bad_sim_value_exits_2_and_writes_nothing(self, workdir, doc, message, capsys):
        bad = workdir / "bad_value.json"
        bad.write_text(doc)
        out = workdir / "bad_value"
        assert main(["simulate", "--config", str(bad), "--out-dir", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_jittered_release_height_near_rim_simulates(self, workdir):
        # unclipped, this jitter lifts a release so far above the rim that no
        # descending arc reaches its target; clipped below the rim, every shot has one
        config = workdir / "near_rim.json"
        config.write_text(json.dumps({"n_games": 2, "shots_per_game": 20, "seed": 3,
                                      "release_height_ft": 9.0, "release_height_jitter_ft": 6.0}))
        out = workdir / "near_rim"
        assert main(["simulate", "--config", str(config), "--out-dir", str(out)]) == 0
        assert (out / "tracking.jsonl").exists()

    @pytest.mark.parametrize("flag, value", [
        ("--max-rmse", "nan"), ("--max-rmse", "0"), ("--max-rmse", "-1"),
        ("--max-gap", "nan"), ("--max-gap", "0"), ("--min-samples", "1"), ("--min-samples", "-3"),
    ])
    def test_unusable_fit_threshold_exits_2_and_writes_nothing(self, workdir, season_dir, flag,
                                                               value, capsys):
        out = workdir / f"bad_threshold{flag}{value}"
        assert main(["fit", "--tracking", str(season_dir / "tracking.jsonl"),
                     "--events", str(season_dir / "events.csv"),
                     "--roster", str(season_dir / "roster.csv"),
                     "--out-dir", str(out), flag, value]) == 2
        assert "invalid fit thresholds" in capsys.readouterr().err
        assert not out.exists()

    def test_fit_with_missing_roster_exits_2_and_makes_no_out_dir(self, workdir, season_dir,
                                                                  capsys):
        out = workdir / "no_roster"
        assert main(["fit", "--tracking", str(season_dir / "tracking.jsonl"),
                     "--events", str(season_dir / "events.csv"),
                     "--roster", str(workdir / "missing_roster.csv"),
                     "--out-dir", str(out)]) == 2
        assert "error: " in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("analysis, spec, message", [
        ("split-half", {"model_kind": "bogus"}, "unknown model kind 'bogus'"),
        ("fig4", {"ndd_edges": [0, 1, 5]}, "need at least 2 bin edges"),
        ("fig5", {"fractions": [0]}, "fractions must lie in (0, 1]"),
        ("depth-bins", {"min_bin_n": 1000000000}, "no bin reaches min_bin_n=1000000000"),
    ], ids=["split-half", "fig4", "fig5", "depth-bins"])
    def test_failing_analysis_exits_2_and_writes_nothing(self, tmp_path, capsys, analysis, spec,
                                                         message):
        shots = tmp_path / "preds.csv"
        write_shot_rows(_shot_rows(600), shots)
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec))
        out = tmp_path / "ev"
        assert main(["evaluate", "--analysis", analysis, "--shots", str(shots),
                     "--spec", str(spec_path), "--out-dir", str(out)]) == 2
        assert f"error: {message}" in capsys.readouterr().err
        assert not list(out.glob("*"))

    @pytest.mark.parametrize("analysis, spec", [
        ("fig5", {"fractions": 0.5}),
        ("fig5", {"fractions": []}),
        ("fig5", {"fractions": [0.5, "0.2"]}),
        ("fig5", {"fractions": [0.5, True]}),
        ("fig5", {"fractions": [0.5, float("nan")]}),
        ("fig5", {"n_replicates": "2"}),
        ("fig5", {"n_replicates": 0}),
        ("fig5", {"n_replicates": 2.0}),
        ("fig5", {"n_replicates": True}),
        ("split-half", {"min_shots": "10"}),
        ("split-half", {"min_shots": True}),
        ("depth-bins", {"min_bin_n": 0}),
        ("depth-bins", {"min_bin_n": 1.5}),
        ("fig3", {"seed": -1}),
        ("fig3", {"seed": 1.5}),
        ("fig3", {"seed": False}),
        ("fig4", {"ndd_edges": 5}),
        ("fig4", {"ndd_edges": [0, 12]}),
        ("fig4", {"ndd_edges": [0, 12, 0]}),
        ("fig4", {"ndd_edges": [0, float("inf"), 2]}),
        ("fig4", {"height_edges": [72, "88", 2]}),
        ("depth-bins", {"bin_width_in": 0}),
        ("depth-bins", {"bin_width_in": "1"}),
        ("depth-bins", {"bin_width_in": float("nan")}),
    ])
    def test_wrong_spec_value_exits_2_and_writes_nothing(self, tmp_path, capsys, analysis, spec):
        shots = tmp_path / "preds.csv"
        write_shot_rows(_shot_rows(600), shots)
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec))
        out = tmp_path / "ev"
        assert main(["evaluate", "--analysis", analysis, "--shots", str(shots),
                     "--spec", str(spec_path), "--out-dir", str(out)]) == 2
        assert f"error: evaluate spec {next(iter(spec))} must be" in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_spec_key_exits_2_and_writes_nothing(self, tmp_path, capsys):
        shots = tmp_path / "preds.csv"
        write_shot_rows(_shot_rows(600), shots)
        spec = tmp_path / "spec.json"
        out = tmp_path / "ev"
        # a key that only another analysis reads passes; a misspelt one does not
        for doc, code in (({"n_bootstrap": 10, "min_shots": 10, "n_replicates": 2}, 0),
                          ({"n_bootsrap": 10}, 2)):
            spec.write_text(json.dumps(doc))
            assert main(["evaluate", "--analysis", "fig3", "--shots", str(shots),
                         "--spec", str(spec), "--out-dir", str(out / str(code))]) == code
        assert "error: unknown evaluate spec keys: ['n_bootsrap']" in capsys.readouterr().err
        assert not (out / "2").exists()

    def test_usage_error_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["simulate"])  # missing --out-dir
        assert exc.value.code == 2

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert "shotarc" in capsys.readouterr().out


class TestSimulate:
    def test_emits_four_files_plus_manifest(self, season_dir):
        names = {p.name for p in season_dir.iterdir()}
        assert {"tracking.jsonl", "events.csv", "roster.csv",
                "ground_truth.csv", "manifest.json"} <= names

    def test_seeded_reruns_identical_digests(self, workdir):
        cfg = workdir / "cfg2.json"
        cfg.write_text(json.dumps({"n_games": 2, "shots_per_game": 15, "seed": 9}))
        a, b = workdir / "runA", workdir / "runB"
        assert main(["simulate", "--config", str(cfg), "--out-dir", str(a)]) == 0
        assert main(["simulate", "--config", str(cfg), "--out-dir", str(b)]) == 0
        for name in ("tracking.jsonl", "events.csv", "roster.csv",
                     "ground_truth.csv", "manifest.json"):
            ha = hashlib.sha256((a / name).read_bytes()).hexdigest()
            hb = hashlib.sha256((b / name).read_bytes()).hexdigest()
            assert ha == hb, name

    def test_config_file_wins_over_seed_flag(self, workdir, capsys):
        cfg = workdir / "cfg3.json"
        cfg.write_text(json.dumps({"n_games": 1, "shots_per_game": 5, "seed": 77}))
        out = workdir / "winner"
        assert main(["simulate", "--config", str(cfg), "--seed", "123",
                     "--out-dir", str(out)]) == 0
        assert "warning" in capsys.readouterr().err
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["seed"] == 77

    def test_manifest_structure(self, season_dir):
        doc = json.loads((season_dir / "manifest.json").read_text())
        assert doc["tool"] == "shotarc"
        assert doc["command"] == "simulate"
        assert set(doc["outputs"]) == {"tracking.jsonl", "events.csv",
                                       "roster.csv", "ground_truth.csv"}
        for digest in doc["outputs"].values():
            assert len(digest) == 64


SEASON_FILES = ("tracking.jsonl", "events.csv", "roster.csv", "ground_truth.csv")


def _simulate_in_blocks(tmp_path, monkeypatch, doc, cpus, min_block_shots=10):
    """``cli.main(["simulate", ...])`` as a host with ``cpus`` CPUs runs it with
    ``sim.MIN_BLOCK_SHOTS`` at ``min_block_shots``; the exit code, the out-dir
    and the (start, stop) game blocks given to workers."""
    monkeypatch.setattr(sim, "MIN_BLOCK_SHOTS", min_block_shots)
    monkeypatch.setattr(core, "_cpu_count", lambda: cpus)
    blocks = []
    start_workers = sim.worker_processes

    def recording(target, jobs):
        blocks.extend((start, stop) for _, start, stop, _ in jobs)
        return start_workers(target, jobs)

    monkeypatch.setattr(sim, "worker_processes", recording)
    config = tmp_path / "sim.json"
    config.write_text(json.dumps(doc))
    out = tmp_path / "blocks"
    code = main(["simulate", "--config", str(config), "--out-dir", str(out)])
    return code, out, blocks


class TestSimulateBlocks:
    @pytest.mark.parametrize("doc, cpus, blocks", [
        # one CPU: this process makes the whole season and starts no worker
        ({"n_games": 4, "shots_per_game": 10, "seed": 14}, 1, []),
        # 5 games do not divide into 2 blocks
        ({"n_games": 5, "shots_per_game": 12, "seed": 11}, 2, [(2, 5)]),
        # fewer games than CPUs: one game per block
        ({"n_games": 3, "shots_per_game": 10, "seed": 12}, 4, [(1, 2), (2, 3)]),
        # every noise layer on
        ({"n_games": 7, "shots_per_game": 10, "seed": 13, "tracking_noise_ft": 0.2,
          "release_height_jitter_ft": 0.5, "corrupt_fraction": 0.3, "outcome_flip_prob": 0.2},
         4, [(1, 3), (3, 5), (5, 7)]),
    ], ids=["one-block", "uneven", "few-games", "all-noise"])
    def test_same_bytes_as_the_serial_library(self, tmp_path, monkeypatch, doc, cpus, blocks):
        code, out, got_blocks = _simulate_in_blocks(tmp_path, monkeypatch, doc, cpus)
        assert code == 0
        assert got_blocks == blocks
        lib = write_season(simulate_season(SimConfig(**doc)), tmp_path / "library")
        for name in SEASON_FILES:
            assert (out / name).read_bytes() == lib[name.split(".")[0]].read_bytes(), name
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["outputs"] == {
            name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in SEASON_FILES}
        monkeypatch.undo()      # a run with this host's blocks writes the same manifest
        assert main(["simulate", "--config", str(tmp_path / "sim.json"),
                     "--out-dir", str(tmp_path / "serial")]) == 0
        assert (out / "manifest.json").read_bytes() == (
            tmp_path / "serial" / "manifest.json").read_bytes()
        assert sorted(p.name for p in out.iterdir()) == sorted(SEASON_FILES + ("manifest.json",))
        assert multiprocessing.active_children() == []

    def test_failing_worker_stops_the_run_and_leaves_no_part(self, tmp_path, monkeypatch, capsys):
        out = tmp_path / "blocks"
        earlier = tmp_path / "earlier.json"     # a good season already in the out-dir
        earlier.write_text(json.dumps({"n_games": 2, "shots_per_game": 10, "seed": 5}))
        assert main(["simulate", "--config", str(earlier), "--out-dir", str(out)]) == 0
        season = {p.name: p.read_bytes() for p in out.iterdir()}
        (out / ".tracking.part1").mkdir()    # the first worker cannot open its part
        code, out, blocks = _simulate_in_blocks(
            tmp_path, monkeypatch, {"n_games": 3, "shots_per_game": 10, "seed": 12}, 3)
        assert code == 1
        assert blocks == [(1, 2), (2, 3)]
        assert "error: simulate worker for games 1-1: IsADirectoryError" in capsys.readouterr().err
        # the second worker's part and the parent's hidden files are gone too
        assert [p.name for p in out.iterdir() if p.name.startswith(".")] == [".tracking.part1"]
        (out / ".tracking.part1").rmdir()
        assert {p.name: p.read_bytes() for p in out.iterdir()} == season
        assert multiprocessing.active_children() == []

    def test_failing_parent_stops_every_worker_and_leaves_no_part(self, tmp_path, monkeypatch,
                                                                   capsys):
        def fail(fh, game):
            raise OSError("disk full")

        monkeypatch.setattr(sim, "_write_tracking", fail)    # only this process is patched
        code, out, blocks = _simulate_in_blocks(
            tmp_path, monkeypatch, {"n_games": 4, "shots_per_game": 10, "seed": 12}, 4)
        assert code == 1
        assert blocks == [(1, 2), (2, 3), (3, 4)]
        assert "error: disk full" in capsys.readouterr().err
        assert not list(out.iterdir())      # neither a part nor a half-written season file
        assert multiprocessing.active_children() == []


@pytest.mark.parametrize("argv", [
    ["--version"],
    ["simulate", "--config", "{d}/sim.json", "--out-dir", "{d}/out"],
    # a tracking file under 2 x ingest.MIN_RANGE_BYTES is one range, parsed in-process
    ["fit", "--tracking", "{d}/season/tracking.jsonl", "--events", "{d}/season/events.csv",
     "--roster", "{d}/season/roster.csv", "--out-dir", "{d}/fit"],
], ids=["version", "simulate", "fit"])
def test_no_multiprocessing_import_below_the_block_threshold(tmp_path, argv):
    doc = {"n_games": 2, "shots_per_game": 20, "seed": 3}
    (tmp_path / "sim.json").write_text(json.dumps(doc))
    write_season(simulate_season(SimConfig(**doc)), tmp_path / "season")
    argv = [a.format(d=tmp_path) for a in argv]
    proc = subprocess.run([sys.executable, "-X", "importtime", "-m", "shotarc", *argv],
                          capture_output=True, text=True, timeout=120,
                          env=dict(os.environ, PYTHONPATH=str(Path(shotarc.__file__).parents[1])))
    assert proc.returncode == 0, proc.stderr
    imported = [line.rpartition("|")[2].strip() for line in proc.stderr.splitlines()]
    assert "shotarc.cli" in imported
    assert not [name for name in imported if name.startswith("multiprocessing")]


class TestFitAndDownstream:
    def test_fit_outputs(self, fit_dir):
        names = {p.name for p in fit_dir.iterdir()}
        assert names == {"factors.csv", "trajectories.csv", "filter_report.json",
                         "manifest.json"}
        report = json.loads((fit_dir / "filter_report.json").read_text())
        assert report["filtering"]["n_retained"] > 0
        manifest = json.loads((fit_dir / "manifest.json").read_text())
        assert set(manifest["outputs"]) == names - {"manifest.json"}

    def test_fit_manifest_inputs_are_sha256_of_their_bytes(self, fit_dir, season_dir):
        manifest = json.loads((fit_dir / "manifest.json").read_text())
        assert manifest["inputs"] == {
            name: hashlib.sha256((season_dir / name).read_bytes()).hexdigest()
            for name in ("tracking.jsonl", "events.csv", "roster.csv")}

    def test_factors_match_in_memory_pipeline(self, fit_dir):
        season = simulate_season(SimConfig(n_games=8, shots_per_game=40, seed=404))
        expected = fit_season(*season_tracking(season)).rows
        rows = read_shot_rows(fit_dir / "factors.csv")
        assert len(rows) == len(expected) > 0
        # repr shows every field, floats to the last bit and NaN as nan
        assert [repr(r) for r in shot_row_objects(rows)] == [
            repr(e) for e in shot_row_objects(expected)]

    def test_train_predict_effects_evaluate_compose(self, workdir, fit_dir):
        model = workdir / "model.json"
        assert main(["train-makeprob", "--factors", str(fit_dir / "factors.csv"),
                     "--out-model", str(model), "--min-shots", "100"]) == 0
        preds = workdir / "preds.csv"
        assert main(["predict", "--model", str(model),
                     "--factors", str(fit_dir / "factors.csv"), "--out", str(preds)]) == 0
        probs = read_shot_rows(preds)["make_prob"]
        assert len(probs) and ((0 < probs) & (probs < 1)).all()

        eff = workdir / "effects"
        assert main(["effects", "--factors", str(preds), "--model-kind", "defender",
                     "--response-kind", "prob", "--min-shots", "10",
                     "--out-dir", str(eff)]) == 0
        table = json.loads((eff / "effects_defender_prob.json").read_text())
        ranking = table["ranking"]
        assert ranking == sorted(ranking, key=lambda r: (r["effect"], r["player_id"]))
        gammas = [r["effect"] for r in ranking]
        assert abs(sum(gammas)) < 1e-8

        ev = workdir / "eval"
        for analysis, outname in (("fig3", "fig3_variance.csv"),
                                  ("fig4", "fig4_profiles.csv"),
                                  ("depth-bins", "depth_bins.csv")):
            assert main(["evaluate", "--analysis", analysis, "--shots", str(preds),
                         "--out-dir", str(ev)]) == 0
            assert (ev / outname).exists()

    @pytest.mark.parametrize("spec", [
        {"n_bootstrap": 0},
        {"n_bootstrap": 2.5},
        {"n_bootstrap": "10"},
        {"open_threshold_ft": 3.0, "contested_threshold_ft": 4.0},
    ])
    def test_bad_fig3_spec_exits_2_and_writes_nothing(self, workdir, fit_dir, spec, capsys):
        spec_path = workdir / "fig3_spec.json"
        spec_path.write_text(json.dumps(spec))
        out = workdir / "bad_fig3"
        assert main(["evaluate", "--analysis", "fig3", "--shots", str(fit_dir / "factors.csv"),
                     "--spec", str(spec_path), "--out-dir", str(out)]) == 2
        assert "error: " in capsys.readouterr().err
        assert not (out / "fig3_variance.csv").exists()

    def test_resilience_effects_table2_analog(self, workdir, fit_dir):
        model = workdir / "model.json"
        preds = workdir / "preds.csv"
        eff = workdir / "effects_res"
        assert main(["effects", "--factors", str(preds), "--model-kind", "resilience",
                     "--response-kind", "prob", "--min-shots", "10",
                     "--out-dir", str(eff)]) == 0
        doc = json.loads((eff / "effects_resilience_prob.json").read_text())
        assert doc["common_ndd_slope"] is not None
        # most-resilient first
        ranking = doc["ranking"]
        assert ranking[0]["effect"] >= ranking[-1]["effect"]

    def test_fig5_and_split_half(self, workdir, fit_dir):
        preds = workdir / "preds.csv"
        spec = workdir / "spec5.json"
        spec.write_text(json.dumps({
            "fractions": [0.3, 0.5], "n_replicates": 3, "seed": 1, "min_shots": 10}))
        ev = workdir / "eval5"
        assert main(["evaluate", "--analysis", "fig5", "--shots", str(preds),
                     "--spec", str(spec), "--out-dir", str(ev)]) == 0
        lines = (ev / "fig5_mse.csv").read_text().strip().splitlines()
        assert len(lines) == 1 + 2 * 2  # header + fractions x response kinds

        # default fractions: 5 x 2 response kinds
        spec_default = workdir / "spec5d.json"
        spec_default.write_text(json.dumps({"n_replicates": 2, "min_shots": 10}))
        assert main(["evaluate", "--analysis", "fig5", "--shots", str(preds),
                     "--spec", str(spec_default), "--out-dir", str(ev)]) == 0
        lines = (ev / "fig5_mse.csv").read_text().strip().splitlines()
        assert len(lines) == 1 + 5 * 2

        spec2 = workdir / "spec_sh.json"
        spec2.write_text(json.dumps({"min_shots": 10}))
        assert main(["evaluate", "--analysis", "split-half", "--shots", str(preds),
                     "--spec", str(spec2), "--out-dir", str(ev)]) == 0
        assert (ev / "split_half.csv").exists()

    def test_fit_deterministic_bytes(self, workdir, season_dir):
        a, b = workdir / "fitA", workdir / "fitB"
        for out in (a, b):
            assert main(["fit",
                         "--tracking", str(season_dir / "tracking.jsonl"),
                         "--events", str(season_dir / "events.csv"),
                         "--roster", str(season_dir / "roster.csv"),
                         "--out-dir", str(out)]) == 0
        for name in ("factors.csv", "trajectories.csv", "filter_report.json",
                     "manifest.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes(), name


class TestCorruptionRetention:
    def test_ten_percent_corruption_near_ninety_retention(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({
            "n_games": 12, "shots_per_game": 100, "seed": 31, "corrupt_fraction": 0.10}))
        season_out = tmp_path / "s"
        assert main(["simulate", "--config", str(cfg), "--out-dir", str(season_out)]) == 0
        fit_out = tmp_path / "f"
        assert main(["fit",
                     "--tracking", str(season_out / "tracking.jsonl"),
                     "--events", str(season_out / "events.csv"),
                     "--roster", str(season_out / "roster.csv"),
                     "--out-dir", str(fit_out)]) == 0
        report = json.loads((fit_out / "filter_report.json").read_text())
        assert abs(report["filtering"]["retention"] - 0.90) <= 0.02


def _csv_records(path):
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.reader(fh))


def _fit(season, out):
    return main(["fit",
                 "--tracking", str(season / "tracking.jsonl"),
                 "--events", str(season / "events.csv"),
                 "--roster", str(season / "roster.csv"),
                 "--out-dir", str(out)])


class TestShotAccounting:
    def test_every_input_row_accounted_for(self, tmp_path):
        season = tmp_path / "s"
        write_season(simulate_season(SimConfig(n_games=4, shots_per_game=40, seed=12,
                                               corrupt_fraction=0.1)), season)
        events = season / "events.csv"
        records = _csv_records(events)
        records.append(records[7])                                   # duplicate_shot_id
        records.append(["T999999", "G0000", "S000", "frame", "1", "left"])  # unparseable
        with events.open("w", encoding="utf-8", newline="") as fh:
            csv.writer(fh, lineterminator="\n").writerows(records)
        tracking = season / "tracking.jsonl"
        lines = tracking.read_text(encoding="utf-8").splitlines()
        doc = json.loads(lines[-1])
        doc["players"][3]["x"] = float("nan")                         # non_finite
        lines[-1] = json.dumps(doc)
        # defender D030 plays in G0002 and G0003: the number 7 in one G0002 row
        # (unparseable) and the string "7" throughout G0003 must not be one player
        g2_last = max(i for i, line in enumerate(lines) if '"G0002"' in line)
        assert '"D030"' in lines[g2_last] and '"D030"' in lines[-1]
        lines[g2_last] = lines[g2_last].replace('"D030"', "7")
        lines = [line.replace('"D030"', '"7"') if '"G0003"' in line else line for line in lines]
        tracking.write_text("\n".join(lines) + "\n", encoding="utf-8")

        assert _fit(season, tmp_path / "f") == 0
        doc = json.loads((tmp_path / "f" / "filter_report.json").read_text())
        load = doc["load"]
        assert load["events"]["reasons"] == {"duplicate_shot_id": 1, "unparseable": 1}
        assert load["tracking"]["reasons"] == {"non_finite": 1, "unparseable": 1}
        assert load["tracking"]["n_rows"] == len(lines)
        assert len(lines) == load["tracking"]["n_loaded"] + sum(
            load["tracking"]["reasons"].values())
        assert doc["filtering"]["rejections"]   # corruption reaches the filter
        tracking, _ = load_tracking(tracking)
        fit = fit_season(tracking, load_events(events)[0], load_roster(season / "roster.csv")[0])
        n_thin = int(np.count_nonzero(fit.fits["n_samples"] < 5))
        assert n_thin > 0
        assert doc["filtering"]["rejections"]["insufficient_samples"] == n_thin
        assert len(records) - 1 == (sum(load["events"]["reasons"].values())
                                    + sum(doc["extraction"]["rejections"].values())
                                    + sum(doc["filtering"]["rejections"].values())
                                    + sum(doc["factor_rejections"].values())
                                    + doc["n_factor_rows"])
        for section in load.values():
            assert set(section) == {"n_rows", "n_loaded", "n_rejected", "reasons"}
            assert section["n_rejected"] == section["n_rows"] - section["n_loaded"]
        ingest_ids = {pid for game in tracking.values() for pid in game.id_table}
        assert all(type(pid) is str for pid in ingest_ids) and "D030" in ingest_ids
        factor_rows = _csv_records(tmp_path / "f" / "factors.csv")
        header = factor_rows[0]
        ids = {row[header.index(column)] for row in factor_rows[1:]
               for column in ("shooter_id", "defender_id")}
        assert ids <= ingest_ids and "7" in ids

    def test_non_utf8_event_row_counted_unparseable(self, tmp_path):
        season = tmp_path / "s"
        write_season(simulate_season(SimConfig(n_games=4, shots_per_game=40, seed=12)), season)
        events = season / "events.csv"
        n_events = len(_csv_records(events)) - 1
        assert _fit(season, tmp_path / "before") == 0
        with events.open("ab") as fh:
            fh.write(b"\xed\xa0\x80,G0000,S000,5,1,left\n")     # a shot id that is not UTF-8
        assert _fit(season, tmp_path / "f") == 0
        before = json.loads((tmp_path / "before" / "filter_report.json").read_text())
        doc = json.loads((tmp_path / "f" / "filter_report.json").read_text())
        reasons = doc["load"]["events"]["reasons"]
        assert reasons.get("unparseable", 0) == before["load"]["events"]["reasons"].get(
            "unparseable", 0) + 1
        assert doc["load"]["events"]["n_rows"] == n_events + 1
        assert n_events + 1 == (sum(reasons.values())
                                + sum(doc["extraction"]["rejections"].values())
                                + sum(doc["filtering"]["rejections"].values())
                                + sum(doc["factor_rejections"].values())
                                + doc["n_factor_rows"])


    def test_release_frame_beyond_int64_counted_out_of_range(self, tmp_path):
        season = tmp_path / "s"
        write_season(simulate_season(SimConfig(n_games=4, shots_per_game=40, seed=12)), season)
        with (season / "events.csv").open("a", encoding="utf-8") as fh:
            fh.write("huge,G0000,S000,99999999999999999999999,1,left\n"
                     "negative,G0000,S000,-4,1,left\n"
                     "hugely_negative,G0000,S000,-99999999999999999999999,1,left\n")
        assert _fit(season, tmp_path / "f") == 0
        doc = json.loads((tmp_path / "f" / "filter_report.json").read_text())
        assert doc["load"]["events"]["reasons"] == {}
        assert doc["extraction"]["rejections"] == {"release_out_of_range": 3}

    def test_shooter_at_the_rim_center_counted_unfittable(self, tmp_path):
        season = tmp_path / "s"
        write_season(simulate_season(SimConfig(n_games=4, shots_per_game=40, seed=12)), season)
        assert _fit(season, tmp_path / "before") == 0
        retained = _csv_records(tmp_path / "before" / "factors.csv")[1][0]
        event = next(rec for rec in _csv_records(season / "events.csv") if rec[0] == retained)
        _, game_id, shooter_id, release_frame, _, hoop_end = event
        tracking = season / "tracking.jsonl"
        lines = tracking.read_text(encoding="utf-8").splitlines()
        game_rows = [i for i, line in enumerate(lines) if json.loads(line)["game_id"] == game_id]
        doc = json.loads(lines[game_rows[int(release_frame)]])
        shooter = next(p for p in doc["players"] if p["id"] == shooter_id)
        shooter["x"], shooter["y"] = rim_center_xy(hoop_end)
        lines[game_rows[int(release_frame)]] = json.dumps(doc)
        tracking.write_text("\n".join(lines) + "\n", encoding="utf-8")

        assert _fit(season, tmp_path / "f") == 0
        before = json.loads((tmp_path / "before" / "filter_report.json").read_text())
        doc = json.loads((tmp_path / "f" / "filter_report.json").read_text())
        rejections = doc["filtering"]["rejections"]
        assert rejections.get("unfittable", 0) == before["filtering"]["rejections"].get(
            "unfittable", 0) + 1
        assert doc["n_factor_rows"] == before["n_factor_rows"] - 1
        assert doc["load"]["events"]["n_rows"] == (sum(doc["load"]["events"]["reasons"].values())
                                                   + sum(doc["extraction"]["rejections"].values())
                                                   + sum(rejections.values())
                                                   + sum(doc["factor_rejections"].values())
                                                   + doc["n_factor_rows"])


FIT_FILES = ("factors.csv", "trajectories.csv", "filter_report.json", "manifest.json")


def _fit_in_two_ranges(monkeypatch, season, out):
    """``_fit`` with the tracking file cut in two just after its middle, as a host with two
    CPUs cuts a large file: this process parses the first range, a worker the second."""
    monkeypatch.setattr(core, "_cpu_count", lambda: 2)
    monkeypatch.setattr(ingest, "MIN_RANGE_BYTES", 1)
    return _fit(season, out)


def _games_by_side(tracking):
    """The game ids of the rows before and after the two-range cut."""
    (_, cut), _ = ingest._byte_ranges(tracking, 2)
    lines = tracking.read_bytes().splitlines(keepends=True)
    ends = np.cumsum([len(line) for line in lines])
    sides = ({json.loads(line)["game_id"] for line, end in zip(lines, ends) if (end > cut) == after}
             for after in (False, True))
    return tuple(sides)


def _fit_season_failing_in_a_worker(*args):
    """``fit_season``, raising in a worker process."""
    if multiprocessing.parent_process() is not None:
        raise ValueError("no fit in a worker")
    return fit_season(*args)


class TestFitInTwoRanges:
    """``fit`` with games left in the worker that parsed them, against one range."""

    @staticmethod
    def assert_same_fit_files(got, want):
        for name in FIT_FILES:
            assert (got / name).read_bytes() == (want / name).read_bytes(), name

    def test_games_interleaved_across_the_cut_give_the_same_files(self, tmp_path, monkeypatch):
        season = tmp_path / "s"
        write_season(simulate_season(SimConfig(n_games=3, shots_per_game=20, seed=9,
                                               corrupt_fraction=0.1)), season)
        tracking = season / "tracking.jsonl"
        by_game = {}
        for line in tracking.read_text(encoding="utf-8").splitlines(keepends=True):
            by_game.setdefault(json.loads(line)["game_id"], []).append(line)
        # round robin over the games: each game's rows keep their order, and lie on both sides
        rows = [row for turn in zip(*by_game.values()) for row in turn]
        rows += [row for game in by_game.values() for row in game[len(rows) // len(by_game):]]
        tracking.write_text("".join(rows), encoding="utf-8")
        before, after = _games_by_side(tracking)
        assert before == after == set(by_game)
        assert _fit(season, tmp_path / "one") == 0
        assert _fit_in_two_ranges(monkeypatch, season, tmp_path / "two") == 0
        self.assert_same_fit_files(tmp_path / "two", tmp_path / "one")
        assert multiprocessing.active_children() == []

    def test_every_event_accounted_for_with_a_game_left_in_the_worker(self, tmp_path,
                                                                      monkeypatch):
        season = tmp_path / "s"
        write_season(simulate_season(SimConfig(n_games=4, shots_per_game=30, seed=12,
                                               corrupt_fraction=0.1)), season)
        # the events of the worker's games first, so the rows must be put back in event order
        header, *events = (season / "events.csv").read_text(encoding="utf-8").splitlines()
        events = [header, *events[::-1], "T_nowhere,G_nowhere,S000,5,1,left"]  # unknown_game
        (season / "events.csv").write_text("\n".join(events) + "\n", encoding="utf-8")
        # a game whose every row is rejected, at the end: in the worker's range; CI appends
        # the same three rows (a string time, a bool x, a NaN ball beside a numeric id)
        players = [{"id": f"P{k}", "team": "AB"[k // 5], "x": float(k), "y": 1.0}
                   for k in range(10)]
        with (season / "tracking.jsonl").open("a", encoding="utf-8") as fh:
            for t, ball, first in (("0.0", [1.0, 2.0, 3.0], {}),
                                   (0.04, [1.0, 2.0, 3.0], {"x": True}),
                                   (0.08, [1.0, float("nan"), 3.0], {"id": 7})):
                fh.write(json.dumps({"game_id": "appended", "t": t, "ball": ball,
                                     "players": [{**players[0], **first}] + players[1:]}) + "\n")
        before, after = _games_by_side(season / "tracking.jsonl")
        assert after - before - {"appended"}, "no game lies in the worker's range alone"
        assert _fit(season, tmp_path / "one") == 0
        assert _fit_in_two_ranges(monkeypatch, season, tmp_path / "two") == 0
        self.assert_same_fit_files(tmp_path / "two", tmp_path / "one")
        doc = json.loads((tmp_path / "two" / "filter_report.json").read_text())
        assert doc["load"]["tracking"]["reasons"] == {"non_finite": 1, "unparseable": 2}
        assert doc["extraction"]["rejections"]["unknown_game"] == 1
        assert len(_csv_records(season / "events.csv")) - 1 == (
            sum(doc["load"]["events"]["reasons"].values())
            + sum(doc["extraction"]["rejections"].values())
            + sum(doc["filtering"]["rejections"].values())
            + sum(doc["factor_rejections"].values())
            + doc["n_factor_rows"])
        assert multiprocessing.active_children() == []

    def test_worker_failing_in_fit_season_fails_the_run_naming_its_range(
            self, tmp_path, monkeypatch, capsys):
        season = tmp_path / "s"
        write_season(simulate_season(SimConfig(n_games=4, shots_per_game=10, seed=12)), season)
        _, after = _games_by_side(season / "tracking.jsonl")
        # the worker is sent season.fit_season by name, so it runs this one
        monkeypatch.setattr(season_module, "fit_season", _fit_season_failing_in_a_worker)
        assert _fit_in_two_ranges(monkeypatch, season, tmp_path / "f") == 1
        (start, end), = ingest._byte_ranges(season / "tracking.jsonl", 2)[1:]
        assert after and (f"error: tracking worker for bytes {start}-{end}: "
                          "ValueError: no fit in a worker") in capsys.readouterr().err
        assert not (tmp_path / "f").exists()
        assert multiprocessing.active_children() == []

    def test_missing_roster_exits_2_and_stops_the_worker_left_with_games(
            self, tmp_path, monkeypatch, capsys):
        season = tmp_path / "s"
        write_season(simulate_season(SimConfig(n_games=4, shots_per_game=10, seed=12)), season)
        before, after = _games_by_side(season / "tracking.jsonl")
        assert after - before
        (season / "roster.csv").unlink()      # found missing while the worker waits to fit
        assert _fit_in_two_ranges(monkeypatch, season, tmp_path / "f") == 2
        assert "roster.csv" in capsys.readouterr().err
        assert not (tmp_path / "f").exists()
        assert multiprocessing.active_children() == []

    def test_backward_step_in_a_worker_game_exits_2_and_writes_nothing(
            self, tmp_path, monkeypatch, capsys):
        season = tmp_path / "s"
        write_season(simulate_season(SimConfig(n_games=4, shots_per_game=10, seed=12)), season)
        tracking = season / "tracking.jsonl"
        lines = tracking.read_text(encoding="utf-8").splitlines()
        last = json.loads(lines[-1])
        last["t"] -= 5.0                      # back 5 s inside the last game
        tracking.write_text("\n".join(lines[:-1] + [json.dumps(last)]) + "\n", encoding="utf-8")
        before, after = _games_by_side(tracking)
        assert last["game_id"] in after - before
        assert _fit_in_two_ranges(monkeypatch, season, tmp_path / "f") == 2
        assert (f"error: game {last['game_id']}: timestamp {last['t']} after "
                in capsys.readouterr().err)
        assert not (tmp_path / "f").exists()
        assert multiprocessing.active_children() == []


class TestCsvQuoting:
    def test_ids_with_delimiters_survive_fit_and_training(self, tmp_path):
        season = tmp_path / "s"
        write_season(simulate_season(SimConfig(n_games=4, shots_per_game=40, seed=3)), season)
        events = season / "events.csv"
        records = _csv_records(events)
        for rec in records[1:]:
            rec[0] = f'{rec[0]},"x'
        with events.open("w", encoding="utf-8", newline="") as fh:
            csv.writer(fh, lineterminator="\n").writerows(records)

        assert _fit(season, tmp_path / "f") == 0
        factors = tmp_path / "f" / "factors.csv"
        rows = read_shot_rows(factors)
        shot_ids = rows["shot_id"].tolist()
        assert shot_ids and all(shot_id.endswith(',"x') for shot_id in shot_ids)
        assert set(shot_ids) <= {rec[0] for rec in records[1:]}
        traj = _csv_records(tmp_path / "f" / "trajectories.csv")
        assert all(len(rec) == len(traj[0]) for rec in traj)
        assert main(["train-makeprob", "--factors", str(factors),
                     "--out-model", str(tmp_path / "m.json"), "--min-shots", "100"]) == 0

    def test_ids_with_carriage_return_rejected_before_fit_and_training(self, tmp_path):
        season = tmp_path / "s"
        write_season(simulate_season(SimConfig(n_games=4, shots_per_game=40, seed=3)), season)
        events = season / "events.csv"
        records = _csv_records(events)
        records[1][0] += "\ra"       # shot id
        records[2][2] += "\ra"       # shooter id
        with events.open("w", encoding="utf-8", newline="") as fh:
            csv.writer(fh, quoting=csv.QUOTE_ALL).writerows(records)
        tracking = season / "tracking.jsonl"
        lines = tracking.read_text(encoding="utf-8").splitlines()
        doc = json.loads(lines[0])
        doc["players"][7]["id"] += "\r"    # a player id first seen in this frame
        lines[0] = json.dumps(doc)
        tracking.write_text("\n".join(lines) + "\n", encoding="utf-8")

        assert _fit(season, tmp_path / "f") == 0
        report = json.loads((tmp_path / "f" / "filter_report.json").read_text())
        assert report["load"]["events"]["reasons"] == {"unparseable": 2}
        assert report["load"]["tracking"]["reasons"] == {"unparseable": 1}
        factors = tmp_path / "f" / "factors.csv"
        rows = read_shot_rows(factors)
        assert len(rows) == report["n_factor_rows"] > 0
        ids = [rows[c].tolist() for c in ("shot_id", "shooter_id", "defender_id")]
        assert not any("\r" in i for i in sum(ids, []))
        assert main(["train-makeprob", "--factors", str(factors),
                     "--out-model", str(tmp_path / "m.json"), "--min-shots", "100"]) == 0

    def test_effects_table_quotes_player_ids(self, tmp_path):
        rng = np.random.default_rng(4)
        rows = [ShotRow(shot_id=f"T{i}", game_id="G0", shooter_id=f'S,{i % 3}',
                        defender_id=f'D,"{i % 4}', ndd_ft=float(rng.uniform(1, 9)),
                        defender_height_in=78.0, contest_angle_deg=0.0,
                        outcome=int(rng.random() < 0.4), depth_ft=0.7, lr_ft=0.0,
                        entry_angle_deg=45.0, rmse_ft=0.1, n_samples=20)
                for i in range(120)]
        shots = tmp_path / "shots.csv"
        write_shot_rows(rows, shots)
        assert read_shot_rows(shots)["defender_id"].tolist() == [r.defender_id for r in rows]
        assert main(["effects", "--factors", str(shots), "--min-shots", "10",
                     "--out-dir", str(tmp_path / "e")]) == 0
        table = _csv_records(tmp_path / "e" / "effects_defender_raw.csv")
        assert {rec[1] for rec in table[1:]} == {f'D,"{k}' for k in range(4)}


class TestMinShotsRule:
    def test_resilience_effects_and_evaluation_keep_the_same_rows(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(8)
        rows = [ShotRow(shot_id=f"T{i}", game_id=f"G{i % 6}", shooter_id=f"S{i % 4}",
                        defender_id="DX" if i % 50 == 0 else f"D{i % 5}",
                        ndd_ft=float(rng.uniform(1, 9)), defender_height_in=78.0,
                        contest_angle_deg=0.0, outcome=int(rng.random() < 0.4), depth_ft=0.7,
                        lr_ft=0.0, entry_angle_deg=45.0, rmse_ft=0.1, n_samples=20,
                        make_prob=float(rng.uniform(0.2, 0.6)))
                for i in range(400)]                 # defender DX has 8 shots, below 20
        shots = tmp_path / "shots.csv"
        write_shot_rows(rows, shots)
        assert main(["effects", "--factors", str(shots), "--model-kind", "resilience",
                     "--response-kind", "prob", "--min-shots", "20",
                     "--out-dir", str(tmp_path / "e")]) == 0
        n_rows = json.loads((tmp_path / "e" / "effects_resilience_prob.json").read_text())["n_rows"]
        assert n_rows == len(rows)

        fitted = []
        real_fit = evaluate.fit_effects

        def recording_fit(data, *args, **kwargs):
            fitted.append(len(data))
            return real_fit(data, *args, **kwargs)

        monkeypatch.setattr(evaluate, "fit_effects", recording_fit)
        data = read_shot_rows(shots).effects_dataset()
        evaluate.split_half_rank_correlation(data, model_kind="resilience", min_shots=20)
        assert sum(fitted) == n_rows                 # the two halves
        fitted.clear()
        evaluate.subsample_mse(data, evaluate.SubsampleSpec(fractions=(1.0,), n_replicates=1),
                               model_kind="resilience", min_shots=20)
        assert fitted[0] == n_rows                   # the reference fit


def _shot_rows(n, seed=4):
    rng = np.random.default_rng(seed)
    return [ShotRow(shot_id=f"T{i}", game_id=f"G{i % 6}", shooter_id=f"S{i % 4}",
                    defender_id=f"D{i % 5}", ndd_ft=float(rng.uniform(1, 9)),
                    defender_height_in=78.0, contest_angle_deg=float("nan"),
                    outcome=int(rng.random() < 0.4), depth_ft=float(rng.normal(0.9, 0.3)),
                    lr_ft=float(rng.normal(0.0, 0.2)), entry_angle_deg=float(rng.uniform(38, 50)),
                    rmse_ft=0.1, n_samples=20, make_prob=float(rng.uniform(0.2, 0.6)))
            for i in range(n)]


# every evaluate spec key at the default the spec documentation gives it
EVERY_SPEC_DEFAULT = {
    "open_threshold_ft": 6.0, "contested_threshold_ft": 4.0, "n_bootstrap": 1000, "seed": 0,
    "ndd_edges": [0.0, 12.01, 2.0], "height_edges": [72.0, 88.01, 2.0], "bin_width_in": 1.0,
    "min_bin_n": 50, "fractions": [0.1, 0.2, 0.3, 0.4, 0.5], "n_replicates": 20,
    "min_shots": 100, "model_kind": "defender", "unit": "game",
}


@pytest.mark.parametrize("analysis", ["fig3", "fig4", "fig5", "depth-bins", "split-half"])
def test_empty_spec_and_spelt_out_defaults_write_the_same_table(tmp_path, analysis):
    shots = tmp_path / "preds.csv"
    write_shot_rows(_shot_rows(600), shots)
    tables = []
    for name, doc in (("empty", {}), ("defaults", EVERY_SPEC_DEFAULT)):
        spec = tmp_path / f"{name}.json"
        spec.write_text(json.dumps(doc))
        out = tmp_path / name
        assert main(["evaluate", "--analysis", analysis, "--shots", str(shots),
                     "--spec", str(spec), "--out-dir", str(out)]) == 0
        tables.append([p.read_bytes() for p in sorted(out.glob("*.csv"))])
    assert len(tables[0]) == 1 and tables[0] == tables[1]


class TestShotsFileContract:
    def test_nan_ndd_into_resilience_prob_effects_exits_2_and_writes_nothing(self, tmp_path,
                                                                              capsys):
        rows = _shot_rows(400)
        rows[17].ndd_ft = float("nan")
        shots = tmp_path / "preds.csv"
        write_shot_rows(rows, shots)
        out = tmp_path / "e"
        assert main(["effects", "--factors", str(shots), "--model-kind", "resilience",
                     "--response-kind", "prob", "--min-shots", "10", "--out-dir", str(out)]) == 2
        assert f"{shots}: nan is not a valid ndd_ft at row 17, column 5" in capsys.readouterr().err
        assert not out.exists()

    def test_nan_depth_into_depth_bins_exits_2_and_writes_nothing(self, tmp_path, capsys):
        rows = _shot_rows(400)
        rows[5].depth_ft = float("nan")
        shots = tmp_path / "preds.csv"
        write_shot_rows(rows, shots)
        out = tmp_path / "ev"
        assert main(["evaluate", "--analysis", "depth-bins", "--shots", str(shots),
                     "--out-dir", str(out)]) == 2
        assert f"{shots}: nan is not a valid depth_ft at row 5, column 9" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("cell,value,message", [
        ("depth_ft", "x", ": could not convert string 'x' to float64 at row 2, column 9"),
        ("lr_ft", "", ": could not convert string '' to float64 at row 2, column 10"),
        ("entry_angle_deg", "inf", ": inf is not a valid entry_angle_deg at row 2, column 11"),
        ("outcome", "2", ": 2.0 is not a valid outcome at row 2, column 8"),
        ("lr_ft", None, ": no column lr_ft"),
        ("outcome", "<cut>", ": invalid column index"),
        ("shot_id", "T\r3", ":4: carriage return"),
        ("shot_id", b"T\xff3", ":4: not UTF-8"),
        (None, None, ": holds no shots"),
    ])
    def test_bad_factors_file_exits_2_and_writes_nothing(self, tmp_path, capsys,
                                                         cell, value, message):
        shots = tmp_path / "factors.csv"
        write_shot_rows(_shot_rows(600), shots)
        records = _csv_records(shots)
        if cell is None:
            records = records[:1]
        elif value is None:
            k = records[0].index(cell)
            records = [rec[:k] + rec[k + 1:] for rec in records]
        elif value == "<cut>":                        # row 3 ends before the cell
            records[3] = records[3][:records[0].index(cell)]
        else:
            records[3][records[0].index(cell)] = "@"
        text = "".join(",".join(rec) + "\n" for rec in records).encode()
        if value is not None:
            text = text.replace(b"@", value if isinstance(value, bytes) else value.encode())
        shots.write_bytes(text)
        model = tmp_path / "m" / "model.json"
        assert main(["train-makeprob", "--factors", str(shots), "--out-model", str(model),
                     "--min-shots", "100"]) == 2
        assert f"{shots}{message}" in capsys.readouterr().err
        assert not model.parent.exists()

    # from 2**53 on a float64 no longer holds every integer: 2**53 + 1 parses as 2**53
    @pytest.mark.parametrize("value,shown", [("1e300", "1e+300"), ("inf", "inf"), ("-3", "-3.0"),
                                             ("9223372036854775808", "9.223372036854776e+18"),
                                             ("9223372036854775807", "9.223372036854776e+18"),
                                             ("9007199254740993", "9007199254740992.0"),
                                             ("9007199254740992", "9007199254740992.0")])
    def test_n_samples_outside_0_to_2_53_into_predict_exits_2_and_writes_nothing(
            self, tmp_path, capsys, value, shown):
        _, factors = _model_doc(tmp_path)
        records = _csv_records(factors)
        records[3][records[0].index("n_samples")] = value
        factors.write_text("".join(",".join(rec) + "\n" for rec in records))
        preds = tmp_path / "p" / "preds.csv"
        assert main(["predict", "--model", str(tmp_path / "model.json"),
                     "--factors", str(factors), "--out", str(preds)]) == 2
        message = f"{factors}: {shown} is not a valid n_samples at row 2, column 13"
        assert message in capsys.readouterr().err
        assert not preds.parent.exists()

    def test_n_samples_just_below_2_53_reads_and_predicts_exactly(self, tmp_path):
        _, factors = _model_doc(tmp_path)
        records = _csv_records(factors)
        column = records[0].index("n_samples")
        records[3][column] = "9007199254740991"
        factors.write_text("".join(",".join(rec) + "\n" for rec in records))
        assert read_shot_rows(factors)["n_samples"][2] == 2 ** 53 - 1
        preds = tmp_path / "preds.csv"
        assert main(["predict", "--model", str(tmp_path / "model.json"),
                     "--factors", str(factors), "--out", str(preds)]) == 0
        assert _csv_records(preds)[3][column] == "9007199254740991"

    def test_one_long_shot_id_reads_in_bounded_memory_and_predicts(self, tmp_path):
        # a fixed-width str column would hold every id at the longest one's width:
        # 150 x 100,001 x 4 bytes, and several times that while numpy parses the file
        _, factors = _model_doc(tmp_path)
        rows = _shot_rows(150)
        long_id = "T" * 100_000
        rows[0].shot_id = long_id
        shots = tmp_path / "long.csv"
        write_shot_rows(rows, shots)
        tracemalloc.start()
        try:
            table = read_shot_rows(shots)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 << 20
        assert table["shot_id"][0] == long_id
        preds = tmp_path / "preds.csv"
        assert main(["predict", "--model", str(tmp_path / "model.json"),
                     "--factors", str(shots), "--out", str(preds)]) == 0
        assert preds.read_bytes().split(b"\n")[1].startswith(long_id.encode() + b",G0,")

    def test_fig4_bins_around_a_defender_missing_from_the_roster(self, tmp_path, season_dir):
        season = tmp_path / "s"
        season.mkdir()
        for name in ("tracking.jsonl", "events.csv"):
            (season / name).write_bytes((season_dir / name).read_bytes())
        roster = [rec for rec in _csv_records(season_dir / "roster.csv") if rec[0] != "D000"]
        (season / "roster.csv").write_text("".join(",".join(rec) + "\n" for rec in roster))
        assert _fit(season, tmp_path / "f") == 0
        factors = tmp_path / "f" / "factors.csv"
        heights = read_shot_rows(factors)["defender_height_in"]
        assert 0 < np.isnan(heights).sum() < len(heights)
        assert main(["evaluate", "--analysis", "fig4", "--shots", str(factors),
                     "--out-dir", str(tmp_path / "ev")]) == 0
        n_binned = Counter()
        for rec in _csv_records(tmp_path / "ev" / "fig4_profiles.csv")[1:]:
            n_binned[rec[0], rec[1]] += int(rec[5])
        in_range = (heights >= 72.0) & (heights < 88.01)
        assert n_binned["defender_height", "depth"] == in_range.sum()
        assert n_binned["ndd", "depth"] > n_binned["defender_height", "depth"]

    def test_ids_with_delimiters_quotes_newlines_and_hashes_round_trip(self, tmp_path):
        rows = _shot_rows(50)
        for i, r in enumerate(rows):
            r.shot_id = f'T{i},"#x\ny'
            r.defender_id = f" #Dé{i % 5} "
            r.flags = "a;b" if i % 2 else ""
        shots = tmp_path / "shots.csv"
        write_shot_rows(rows, shots)
        back = read_shot_rows(shots)
        assert [repr(r) for r in shot_row_objects(back)] == [repr(r) for r in rows]
        write_shot_rows(back, tmp_path / "again.csv")
        assert (tmp_path / "again.csv").read_bytes() == shots.read_bytes()

    def test_nan_contest_angle_passes_every_stage(self, tmp_path):
        factors = tmp_path / "factors.csv"
        write_shot_rows(_shot_rows(600), factors)
        model, preds = tmp_path / "model.json", tmp_path / "preds.csv"
        assert main(["train-makeprob", "--factors", str(factors), "--out-model", str(model),
                     "--min-shots", "100"]) == 0
        assert main(["predict", "--model", str(model), "--factors", str(factors),
                     "--out", str(preds)]) == 0
        for kind in ("defender", "resilience"):
            assert main(["effects", "--factors", str(preds), "--model-kind", kind,
                         "--response-kind", "prob", "--min-shots", "10",
                         "--out-dir", str(tmp_path / "e")]) == 0
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"min_shots": 10, "n_replicates": 2, "fractions": [0.5],
                                    "min_bin_n": 1, "n_bootstrap": 50}))
        for analysis in ("fig3", "fig4", "fig5", "depth-bins", "split-half"):
            assert main(["evaluate", "--analysis", analysis, "--shots", str(preds),
                         "--spec", str(spec), "--out-dir", str(tmp_path / "ev")]) == 0
        tables = sorted((tmp_path / "ev").glob("*.csv"))
        assert len(tables) == 5
        for table in tables:   # every cell a plain number or word, never a numpy repr
            cells = [cell for rec in _csv_records(table) for cell in rec]
            assert not [cell for cell in cells if cell.startswith("np.")], table.name


def _model_doc(tmp_path):
    """A model trained on ``_shot_rows(600)``, as a dict, and its factors file."""
    factors, model = tmp_path / "factors.csv", tmp_path / "model.json"
    write_shot_rows(_shot_rows(600), factors)
    assert main(["train-makeprob", "--factors", str(factors), "--out-model", str(model),
                 "--min-shots", "100"]) == 0
    return json.loads(model.read_text()), factors


class TestModelFile:
    @pytest.mark.parametrize("edit, message", [
        (lambda d: d["coeffs"].__setitem__(0, float("nan")), "model coeffs must be 10 finite"),
        (lambda d: d["feature_scales"].__setitem__(0, 0.0), "model feature_scales must be above 0"),
        (lambda d: d.update(coeffs=d["coeffs"][:3]), "model coeffs must be 10 finite"),
        (lambda d: d.update(feature_means=[0.0, "1", 2.0]), "model feature_means must be 3 finite"),
        (lambda d: d.pop("feature_means"), "model feature_means must be 3 finite numbers"),
        (lambda d: d.update(train_n="600"), "model train_n, converged and log_likelihood"),
        (lambda d: d.clear() or d.update(version=1), "model coeffs must be 10 finite"),
        (lambda d: d.pop("converged"), "model train_n, converged and log_likelihood"),
        (lambda d: d.update(version=2), "unsupported model version 2"),
        (b"{not json", "model file is not JSON"),
        (b'{"version": 1, "coeffs": "\xff"}', "model file is not JSON"),
        (b"[1]", "unsupported model version None"),
        (b"[" * 3000, "model file is not JSON: nested too deeply"),
    ], ids=["nan-coeff", "zero-scale", "three-coeffs", "string-mean", "missing-means",
            "string-train-n", "version-only", "missing-converged", "version-2", "not-json",
            "not-utf8", "list", "deep-nesting"])
    def test_broken_model_exits_2_and_predict_writes_nothing(self, tmp_path, capsys,
                                                             edit, message):
        doc, factors = _model_doc(tmp_path)
        model = tmp_path / "broken.json"
        if isinstance(edit, bytes):
            model.write_bytes(edit)
        else:
            edit(doc)
            model.write_text(json.dumps(doc))
        out = tmp_path / "p" / "preds.csv"
        assert main(["predict", "--model", str(model), "--factors", str(factors),
                     "--out", str(out)]) == 2
        assert f"error: {message}" in capsys.readouterr().err
        assert not out.parent.exists()


BAD_SETTINGS = [("train-makeprob", setting) for setting in (
    "--ridge=nan", "--ridge=inf", "--ridge=-1", "--min-shots=0", "--min-shots=-5")] + [
    ("effects", "--min-shots=0"), ("effects", "--min-shots=-5")]


@pytest.mark.parametrize("command, setting", BAD_SETTINGS, ids=[
    setting if command == "train-makeprob" else command + setting
    for command, setting in BAD_SETTINGS])
def test_bad_training_setting_exits_2_and_writes_nothing(tmp_path, capsys, command, setting):
    factors, out = tmp_path / "factors.csv", tmp_path / "m"
    write_shot_rows(_shot_rows(600), factors)
    outputs = (["--out-model", str(out / "model.json")] if command == "train-makeprob"
               else ["--out-dir", str(out)])
    assert main([command, "--factors", str(factors), *outputs, setting]) == 2
    name = setting[2:].partition("=")[0].replace("-", "_")
    assert f"error: {name} must be" in capsys.readouterr().err
    assert not out.exists()


def test_backward_timestamp_exits_2_and_fit_writes_nothing(tmp_path, season_dir, capsys):
    season = tmp_path / "s"
    season.mkdir()
    for name in ("events.csv", "roster.csv"):
        (season / name).write_bytes((season_dir / name).read_bytes())
    lines = (season_dir / "tracking.jsonl").read_text().splitlines()
    last = json.loads(lines[-1])
    last["t"] -= 5.0                              # back 5 s inside the season's last game
    (season / "tracking.jsonl").write_text("\n".join(lines[:-1] + [json.dumps(last)]) + "\n")
    assert _fit(season, tmp_path / "f") == 2
    assert f"error: game {last['game_id']}: timestamp {last['t']} after " in capsys.readouterr().err
    assert not (tmp_path / "f").exists()


def test_literal_ndd_drops_the_common_slope(tmp_path):
    shots = tmp_path / "shots.csv"
    write_shot_rows(_shot_rows(600), shots)
    for out, flags in (("common", []), ("literal", ["--literal-ndd"])):
        assert main(["effects", "--factors", str(shots), "--model-kind", "resilience",
                     "--min-shots", "10", "--out-dir", str(tmp_path / out), *flags]) == 0
    for out, literal in (("common", False), ("literal", True)):
        manifest = json.loads((tmp_path / out / "manifest.json").read_text())
        assert manifest["config"]["literal_ndd"] is literal
        slope = json.loads((tmp_path / out / "effects_resilience_raw.json").read_text())[
            "common_ndd_slope"]
        assert slope is None if literal else isinstance(slope, float)
