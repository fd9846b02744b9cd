"""Fitting one shot's arc with the conjugate quadratic-surface model.

Generates a single noisy 25 Hz shot, fits the Bayesian quadratic surface
(flat base prior + 4 pseudo-observations + tracking samples), and shows
that the posterior mean matches the ridge closed form of the normal
equations.

Run:  python demos/01_trajectory_fit.py
"""

import numpy as np

from shotarc.sim import ReleaseState, TargetCrossing, sample_trajectory
from shotarc.trajectory import BASE_EPSILON, fit_trajectory, make_pseudo_data, quadratic_features

rng = np.random.default_rng(7)

release = ReleaseState(xy=(24.0, 3.0), height_ft=7.0)
target = TargetCrossing(depth_ft=0.85, lr_ft=0.15, entry_angle_deg=46.0)
traj = sample_trajectory(release, target, rng, noise_sigma_ft=0.12, extra_frames=2)
print(f"sampled {len(traj.points)} frames over {traj.flight_time_s:.2f} s of flight")

fit = fit_trajectory(traj.points, release.xy)
names = ("1", "x", "y", "x^2", "y^2", "x*y")
print("\nposterior-mean surface coefficients:")
for name, b in zip(names, fit.beta):
    print(f"  {name:>4}: {b: .5f}")
print(f"\nrmse on samples: {fit.rmse_ft:.3f} ft   (tracking noise was 0.12 ft)")
print(f"posterior shape/scale: {fit.posterior_shape:.1f} / {fit.posterior_scale:.3f}")

# the posterior mean is the ridge solution (Lambda0 + X'X)^-1 (Lambda0 mu0 + X'z)
# over the pseudo and observed rows; the base prior has mean mu0 = 0.  The
# normal equations square the condition number of the fit's stacked solve,
# so the two agree to about 1e-10 here, not to the last bit.
xy_p, z_p = make_pseudo_data(release.xy)
X = quadratic_features(np.vstack([xy_p, traj.points[:, :2]]))
z = np.concatenate([z_p, traj.points[:, 2]])
ridge = np.linalg.solve(BASE_EPSILON * np.eye(6) + X.T @ X, X.T @ z)
print(f"\none-solve vs ridge closed form posterior mean, max diff: "
      f"{np.max(np.abs(fit.beta - ridge)):.2e}")
