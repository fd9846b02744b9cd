"""Ranking perimeter defenders and resilient shooters.

Fits the sum-to-zero defender-impact model (binary outcomes vs modeled
probabilities as the response) and the shooter-resilience model with a
per-shooter NDD slope, then prints the top/bottom of each table.

Run:  python demos/04_defender_effects.py
"""

from shotarc.cli import fit_season
from shotarc.effects import apply_min_shots_filter, fit_effects, rank_players
from shotarc.makeprob import TrainConfig, predict, train
from shotarc.sim import SimConfig, season_tracking, simulate_season

cfg = SimConfig(seed=33, n_games=60, shots_per_game=200, outcome_flip_prob=0.08)
season = simulate_season(cfg)
rows = fit_season(*season_tracking(season)).rows
factors = rows.matrix(("depth_ft", "lr_ft", "entry_angle_deg"))
outcomes = rows["outcome"].astype(float)
model = train(factors, outcomes, TrainConfig())
rows.columns["make_prob"] = predict(model, factors)
data = rows.effects_dataset()
data = apply_min_shots_filter(data, threshold=100)
print(f"{len(data)} shots after the 100-shot filter")

est = fit_effects(data, "defender", "prob")
table = rank_players(est)
truth = {d.player_id: d.pressure_scale for d in season.defender_pool}
print("\nnearest-defender impact on make probability (per 100 shots):")
print(f"{'rank':>4} {'defender':<8} {'impact':>8} {'opp prob':>9} {'shots':>6} {'planted scale':>14}")
for r in table[:5] + table[-5:]:
    print(f"{r.rank:>4} {r.player_id:<8} {r.effect_per_100:>8.2f} "
          f"{r.opp_mean_prob:>9.3f} {r.n_shots:>6} {truth[r.player_id]:>14.2f}")

res = fit_effects(data, "resilience", "prob")
res_table = rank_players(res)
resilience = {s.player_id: s.resilience for s in season.shooter_pool}
print(f"\nshooter resilience to contests (common NDD slope "
      f"{100 * res.common_ndd_slope:.2f} per 100 shots per ft):")
print(f"{'rank':>4} {'shooter':<8} {'slope dev':>9} {'shots':>6} {'planted sens':>13}")
for r in res_table[:5] + res_table[-5:]:
    print(f"{r.rank:>4} {r.player_id:<8} {100 * r.effect:>9.2f} "
          f"{r.n_shots:>6} {resilience[r.player_id]:>13.2f}")
print("\nnegative impact = opponents shoot worse against that defender;")
print("positive slope deviation = the shooter loses less than average per foot of pressure.")
