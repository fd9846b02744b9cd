"""From raw ball samples to depth / left-right / entry angle.

Simulates a few shots of one game, reads their ball samples as ``fit``
reads them (``season_tracking``, then ``extract_shot_events``), pushes each
through the fit + factor chain, and prints the recovered factors beside the
crossing the simulator logged for the shot (``true_*`` in
``ground_truth.csv``), at two noise levels.

Run:  python demos/02_shot_factors.py
"""

from shotarc.core import feet_to_inches
from shotarc.factors import compute_shot_factors, fit_path_line
from shotarc.ingest import extract_shot_events
from shotarc.sim import SimConfig, season_tracking, simulate_season
from shotarc.trajectory import fit_trajectory

for sigma in (0.0, 0.12):
    season = simulate_season(SimConfig(seed=11, n_games=1, shots_per_game=4,
                                       tracking_noise_ft=sigma))
    truth = {r.shot_id: r for r in season.ground_truth}
    shots, _ = extract_shot_events(*season_tracking(season))
    print(f"\n=== tracking noise {sigma} ft ===")
    print(f"{'shot':<8} {'depth in (true)':>16} {'lr in (true)':>15} {'angle deg (true)':>17}")
    for shot_id, samples, release in zip(shots["shot_id"].tolist(), shots["samples"],
                                         shots["release_xy"]):
        fit = fit_trajectory(samples, release)
        f = compute_shot_factors(fit, fit_path_line(samples))
        t = truth[shot_id]
        print(f"{shot_id:<8} {f.depth_in:8.2f} ({feet_to_inches(t.true_depth_ft):5.2f})"
              f" {f.left_right_in:8.2f} ({feet_to_inches(t.true_lr_ft):5.2f})"
              f" {f.entry_angle_deg:9.2f} ({t.true_angle_deg:5.1f})")

print("\na path through the rim center always reads 9.0 in of depth;")
print("the front rim sits one rim radius (9 in) before the center on the path.")
