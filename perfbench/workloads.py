"""The benchmark's workloads: season shapes, timed CLI stages and why each exists.

Every workload drives the ``shotarc`` command line the way a user runs it:
one stage per ``python -m shotarc`` process, one stage at a time.  The set-up
step generates the workload's inputs from the benchmark seed; the timed
stages then read only those files.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from pathlib import Path

DEFAULT_SEED = 424242


@dataclass(frozen=True)
class Shape:
    """Season shape handed to ``SimConfig`` plus the analysis sizes of ``rank``."""

    n_games: int
    shots_per_game: int
    n_shooters: int = 40
    n_defenders: int = 40
    corrupt_fraction: float = 0.0
    outcome_flip_prob: float = 0.0
    min_shots: int = 100          # effects/evaluate minimum shots per player
    fig5_replicates: int = 20

    @property
    def n_shots(self) -> int:
        return self.n_games * self.shots_per_game

    def sim_config(self, seed: int) -> dict:
        """The ``shotarc simulate --config`` document for this shape."""
        return {
            "seed": seed,
            "n_games": self.n_games,
            "shots_per_game": self.shots_per_game,
            "n_shooters": self.n_shooters,
            "n_defenders": self.n_defenders,
            "corrupt_fraction": self.corrupt_fraction,
            "outcome_flip_prob": self.outcome_flip_prob,
        }


@dataclass(frozen=True)
class Stage:
    """One process: ``stage`` names the timer it adds to; ``entry`` is ``cli``
    (``python -m shotarc``) or ``prepare`` (the benchmark's own set-up script)."""

    stage: str
    argv: tuple[str, ...]
    entry: str = "cli"


@dataclass(frozen=True)
class Workload:
    why: str
    stresses: str
    bypasses: str
    shape: Shape
    tiny: Shape          # same code path, seconds-long; used by the smoke test

    def describe(self, shape: Shape) -> dict:
        return {"why": self.why, "stresses": self.stresses, "bypasses": self.bypasses,
                "shape": asdict(shape), "n_shots": shape.n_shots}


SEASON = Shape(n_games=24, shots_per_game=420, corrupt_fraction=0.1)
SEASON_TINY = Shape(n_games=4, shots_per_game=30, n_shooters=10, n_defenders=10,
                    corrupt_fraction=0.1)

WORKLOADS = {
    "simulate": Workload(
        why=("sim does nearly all of the work here and no other workload times it; it writes "
             "the tracking format fit reads, so a change that speeds reads by slowing writes shows."),
        stresses="sim (simulate_season, write_season) and cli manifest hashing of ~200 MB",
        bypasses="ingest, trajectory, factors, makeprob, effects, evaluate",
        shape=SEASON,
        tiny=SEASON_TINY,
    ),
    "fit": Workload(
        why=("ingest does about two thirds of the work and trajectory+factors about a quarter; "
             "10% corruption runs every rejection path (truncated windows, noisy arcs, ascending "
             "crossings)."),
        stresses="ingest.load_tracking, trajectory.fit_trajectory, factors",
        bypasses="makeprob, effects, evaluate (sim runs only in set-up)",
        shape=SEASON,
        tiny=SEASON_TINY,
    ),
    "rank": Workload(
        why=("effects.fit_effects dominates the analysis work (fig5 makes 201 dense lstsq fits); "
             "effects (few full fits) and evaluate (many subsample fits) use that layer in two ways."),
        stresses="effects.fit_effects via the effects and evaluate stages, makeprob, cli CSV re-parsing",
        bypasses="ingest, trajectory, factors (set-up writes factors from sim ground truth)",
        shape=Shape(n_games=60, shots_per_game=420, outcome_flip_prob=0.1, min_shots=50),
        tiny=Shape(n_games=12, shots_per_game=50, n_shooters=10, n_defenders=10,
                   outcome_flip_prob=0.1, min_shots=10, fig5_replicates=3),
    ),
}


def setup_stage(workload: str, shape: Shape, seed: int, work: Path) -> Stage:
    """The process that generates a workload's inputs after its config file is written.

    ``fit`` reads a season written by ``shotarc simulate``; ``rank`` reads a
    factors file that ``prepare.py`` writes from ``sim.simulate_season``'s
    ground truth.  ``simulate`` needs only the config file, so its set-up
    starts the CLI once (``--version``): that proves the checkout runs and
    gives ``setup_s`` a steady floor.
    """
    work.mkdir(parents=True, exist_ok=True)
    config = work / "sim.json"
    config.write_text(json.dumps(shape.sim_config(seed), sort_keys=True) + "\n", encoding="utf-8")
    if workload == "fit":
        return Stage("setup", ("simulate", "--config", str(config), "--out-dir", str(work / "season")))
    if workload == "rank":
        return Stage("setup", ("--config", str(config), "--out", str(work / "factors.csv")),
                     entry="prepare")
    return Stage("setup", ("--version",))


def timed_stages(workload: str, shape: Shape, seed: int, work: Path, out: Path) -> list[Stage]:
    """The timed CLI invocations of one iteration, writing under ``out``."""
    if workload == "simulate":
        return [Stage("simulate", ("simulate", "--config", str(work / "sim.json"),
                                   "--out-dir", str(out)))]
    if workload == "fit":
        season = work / "season"
        return [Stage("fit", ("fit", "--tracking", str(season / "tracking.jsonl"),
                              "--events", str(season / "events.csv"),
                              "--roster", str(season / "roster.csv"), "--out-dir", str(out)))]
    spec = out / "spec.json"
    out.mkdir(parents=True, exist_ok=True)
    spec.write_text(json.dumps({"seed": seed, "min_shots": shape.min_shots,
                                "n_replicates": shape.fig5_replicates}, sort_keys=True) + "\n",
                    encoding="utf-8")
    preds = str(out / "preds.csv")
    stages = [
        Stage("train", ("train-makeprob", "--factors", str(work / "factors.csv"),
                        "--out-model", str(out / "model" / "model.json"))),
        Stage("predict", ("predict", "--model", str(out / "model" / "model.json"),
                          "--factors", str(work / "factors.csv"), "--out", preds,
                          "--manifest", str(out / "manifest_predict.json"))),
    ]
    for kind, response in (("defender", "raw"), ("defender", "prob"), ("resilience", "prob")):
        stages.append(Stage("effects", (
            "effects", "--factors", preds, "--model-kind", kind, "--response-kind", response,
            "--min-shots", str(shape.min_shots), "--out-dir", str(out / "effects"),
            "--manifest", str(out / "effects" / f"manifest_{kind}_{response}.json"))))
    for analysis in ("fig3", "depth-bins", "fig5", "split-half"):
        stages.append(Stage("evaluate", ("evaluate", "--analysis", analysis, "--shots", preds,
                                         "--spec", str(spec), "--out-dir", str(out / "eval"))))
    return stages
