"""Set-up for the ``rank`` workload: a factors-format file from simulated ground truth.

Usage: python perfbench/prepare.py --config sim.json --out factors.csv

The rows carry the simulator's true depth, left-right and entry angle, the
true nearest defender and NDD, so the file is what ``shotarc fit`` would
write for a perfectly reconstructed season, made without ``ingest`` or
``trajectory``.  The simulator does not log a contest angle, so that column
is NaN; no stage of the ``rank`` workload reads it.

Functions are called through their modules (``sim.simulate_season``) so the
traced runner's wrappers see them.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from shotarc import cli, sim


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--config", required=True, help="shotarc simulate config JSON")
    parser.add_argument("--out", required=True, help="factors CSV to write")
    args = parser.parse_args(argv)

    config = cli.sim_config_from_dict(json.loads(Path(args.config).read_text(encoding="utf-8")))
    season = sim.simulate_season(config)
    heights = {d.player_id: d.height_in for d in season.defender_pool}
    n_samples = {shot.shot_id: len(shot.times_s) for game in season.games for shot in game.shots}
    rows = [
        cli.ShotRow(
            shot_id=t.shot_id,
            game_id=t.game_id,
            shooter_id=t.shooter_id,
            defender_id=t.defender_id,
            ndd_ft=t.ndd_ft,
            defender_height_in=heights[t.defender_id],
            contest_angle_deg=float("nan"),
            outcome=t.outcome,
            depth_ft=t.true_depth_ft,
            lr_ft=t.true_lr_ft,
            entry_angle_deg=t.true_angle_deg,
            rmse_ft=0.0,
            n_samples=n_samples[t.shot_id],
        )
        for t in season.ground_truth
    ]
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    cli.write_shot_rows(rows, out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
