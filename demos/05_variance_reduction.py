"""Why probability responses beat make/miss responses for ranking defenders.

Replacing a shot's binary outcome with its modeled make probability keeps
the information relevant to defender impact while discarding most of the
Bernoulli noise.  This demo subsamples seasons at 10-50% of the games and
compares the mean squared error of defender effects against the full-season
raw-response fit, then checks rank stability across season halves.

Run:  python demos/05_variance_reduction.py   (about a minute)
"""

from shotarc.cli import fit_season
from shotarc.evaluate import SubsampleSpec, split_half_rank_correlation, subsample_mse
from shotarc.makeprob import TrainConfig, predict, train
from shotarc.sim import PressureModel, SimConfig, season_tracking, simulate_season

cfg = SimConfig(seed=55, n_games=120, shots_per_game=250, outcome_flip_prob=0.10,
                pressure_scale_sd=0.55, pressure=PressureModel(depth_shift_ft=-0.11))
season = simulate_season(cfg)
rows = fit_season(*season_tracking(season)).rows
factors = rows.matrix(("depth_ft", "lr_ft", "entry_angle_deg"))
outcomes = rows["outcome"].astype(float)
model = train(factors, outcomes, TrainConfig())
rows.columns["make_prob"] = predict(model, factors)
data = rows.effects_dataset()
print(f"{len(data)} shots, {len(set(data.defenders))} defenders")

spec = SubsampleSpec(fractions=(0.1, 0.2, 0.3, 0.4, 0.5), n_replicates=20, seed=5)
results = subsample_mse(data, spec, min_shots=100)
by = {}
for r in results:
    by.setdefault(r.fraction, {})[r.response_kind] = r.mse
print("\ndefender-effect MSE vs full-season raw fit:")
print(f"{'games used':>10} {'raw response':>14} {'prob response':>14} {'ratio':>7}")
for frac in spec.fractions:
    raw, prob = by[frac]["raw"], by[frac]["prob"]
    print(f"{frac:>9.0%} {raw:>14.3e} {prob:>14.3e} {prob / raw:>7.2f}")

rho_raw = split_half_rank_correlation(data, response_kind="raw", min_shots=100)
rho_prob = split_half_rank_correlation(data, response_kind="prob", min_shots=100)
print(f"\nsplit-half rank stability (Spearman): raw {rho_raw:.3f}, prob {rho_prob:.3f}")
print("the probability response needs far fewer games for the same accuracy.")
