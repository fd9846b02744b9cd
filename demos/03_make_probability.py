"""Training the quadratic-logistic shot-make model on a synthetic season.

Simulates a small season, estimates factors for every shot, trains the
make-probability model, and prints the depth profile of the fitted surface:
the best depth bin lands past the geometric rim center (10-11 in), and the
probability is flatter across entry angles than across depth.

Run:  python demos/03_make_probability.py
"""

import numpy as np

from shotarc.cli import fit_season
from shotarc.evaluate import binned_mean_by_depth, make_pct_by_depth_bin
from shotarc.makeprob import TrainConfig, predict, train
from shotarc.sim import SimConfig, season_tracking, simulate_season

cfg = SimConfig(seed=21, n_games=40, shots_per_game=150)
season = simulate_season(cfg)
rows = fit_season(*season_tracking(season)).rows
print(f"{len(rows)} shots retained from {cfg.n_shots} attempts")

factors = rows.matrix(("depth_ft", "lr_ft", "entry_angle_deg"))
outcomes = rows["outcome"].astype(float)
model = train(factors, outcomes, TrainConfig())
probs = predict(model, factors)
print(f"make rate {outcomes.mean():.3f}; model converged={model.converged}; "
      f"mean predicted prob {probs.mean():.3f}")

table = binned_mean_by_depth(factors[:, 0], probs, min_bin_n=len(rows) // 200)
emp = make_pct_by_depth_bin(factors[:, 0], outcomes, min_bin_n=len(rows) // 200)
emp_by = {r.center: r for r in emp.rows}
print("\ndepth bin | model prob | empirical make% | shots")
for r in table.rows:
    if r.n < len(rows) // 200 or not 5 <= r.center <= 14:
        continue
    e = emp_by[r.center]
    marker = "  <-- best" if r.center == table.argmax_center_in else ""
    print(f"  {r.center:4.0f} in | {r.mean:10.3f} | {e.mean:15.3f} | {r.n:5d}{marker}")

angle = factors[:, 2]
abins = np.round(angle).astype(int)
angle_means = [probs[abins == b].mean() for b in range(42, 49) if (abins == b).sum() > 50]
print(f"\nmodel probability across entry angles 42-48 deg: "
      f"range {max(angle_means) - min(angle_means):.3f}")
by_center = {r.center: r.mean for r in table.rows}
depth_means = [by_center[c] for c in (7.0, 8.0, 9.0)]
print(f"model probability across depths 7-9 in:          "
      f"range {max(depth_means) - min(depth_means):.3f}")
