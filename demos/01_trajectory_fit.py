"""Fitting one shot's arc with the conjugate quadratic-surface model.

Simulates a one-shot season, reads that shot's noisy 25 Hz ball samples as
``fit`` reads them (``season_tracking``, then ``extract_shot_events``),
fits the Bayesian quadratic surface (flat base prior + 4
pseudo-observations + tracking samples), and shows that the posterior mean
matches the ridge closed form of the normal equations.

Run:  python demos/01_trajectory_fit.py
"""

import numpy as np

from shotarc.ingest import extract_shot_events
from shotarc.sim import SimConfig, season_tracking, simulate_season
from shotarc.trajectory import BASE_EPSILON, fit_trajectory, make_pseudo_data, quadratic_features

season = simulate_season(SimConfig(seed=7, n_games=1, shots_per_game=1, tracking_noise_ft=0.12))
(shot,), _ = extract_shot_events(*season_tracking(season))
print(f"{len(shot.samples)} ball samples from the release at "
      f"({shot.release_xy[0]:.2f}, {shot.release_xy[1]:.2f}) ft to the rim plane")

fit = fit_trajectory(shot.samples, shot.release_xy)
names = ("1", "x", "y", "x^2", "y^2", "x*y")
print("\nposterior-mean surface coefficients:")
for name, b in zip(names, fit.beta):
    print(f"  {name:>4}: {b: .5f}")
print(f"\nrmse on samples: {fit.rmse_ft:.3f} ft   (tracking noise was 0.12 ft)")
print(f"posterior shape/scale: {fit.posterior_shape:.1f} / {fit.posterior_scale:.3f}")

# the posterior mean is the ridge solution (Lambda0 + X'X)^-1 (Lambda0 mu0 + X'z)
# over the pseudo and observed rows; the base prior has mean mu0 = 0.  The
# normal equations square the condition number of the fit's stacked solve,
# so the two agree to within 1e-8 here (5e-9 on this shot), not to the last bit.
xy_p, z_p = make_pseudo_data(shot.release_xy)
X = quadratic_features(np.vstack([xy_p, shot.samples[:, :2]]))
z = np.concatenate([z_p, shot.samples[:, 2]])
ridge = np.linalg.solve(BASE_EPSILON * np.eye(6) + X.T @ X, X.T @ z)
print(f"\none-solve vs ridge closed form posterior mean, max diff: "
      f"{np.max(np.abs(fit.beta - ridge)):.2e}")
