"""The batched season fit against the one-shot chain of ``fit_trajectory``,
the filter's rules, ``fit_path_line`` and ``compute_shot_factors``."""

import numpy as np
import pytest

from shotarc.factors import shot_factors
from shotarc.season import fit_season
from shotarc.sim import SimConfig, season_tracking, simulate_season
from shotarc.trajectory import MAX_PADDED_ROWS, FilterThresholds, filter_shots, fit_trajectories, \
    fit_trajectory, padded_blocks
from conftest import assert_matches_chain, assert_season_matches_chain, one_shot_chain, \
    parabola_shot, season_chain

INF = float("inf")
# sends every fitted shot on to the factors, so their rejections show
LAX = FilterThresholds(max_rmse_ft=INF, max_gap_s=INF)


def mixed_block():
    """Seeded shots of unequal window lengths, and one of each kind that fails.

    Returns (samples, release_xy, max_gap_s).  Besides clean and noisy arcs
    the block holds a thin window, a release at the rim center, samples
    that coincide horizontally, a gapped window, a flat arc below the rim
    (it crosses rim height only rising) and a low hump (it never reaches it).
    """
    rng = np.random.default_rng(16)
    samples, release, gaps = [], [], []
    for i in range(40):
        pts, rel, _ = parabola_shot(
            release_dist=rng.uniform(22.5, 27.0), azimuth_rad=rng.uniform(-0.95, 0.95),
            lr_ft=rng.normal(0.0, 0.2), depth_ft=rng.normal(0.75, 0.25),
            entry_angle_deg=rng.uniform(36.0, 56.0), noise=0.12 if i % 4 else 0.7,
            seed=300 + i, extra=int(rng.integers(0, 12)))
        samples.append(pts)
        release.append(rel)
        gaps.append(0.04)
    base, rel, _ = parabola_shot(seed=1, noise=0.05)
    s = np.linspace(0.0, 24.0, 30)
    path = rel + s[:, None] * (-rel / np.linalg.norm(rel))
    odd = [
        (base[:3], rel, 0.04),                                     # thin window
        (base, np.zeros(2), 0.04),                                 # release at the rim center
        (np.column_stack([np.full((20, 2), [20.0, 3.0]), 8.0 + 0.01 * np.sin(np.arange(20))]),
         np.array([20.0, 3.0]), 0.04),                             # horizontally coincident
        (base, rel, 0.5),                                          # gapped
        (np.column_stack([path, np.full(30, 5.0)]), rel, 0.04),    # ascending crossing only
        (np.column_stack([path, 6.0 + 0.3 * s - 0.015 * s**2]), rel, 0.04),   # no crossing
    ]
    for k, shot in enumerate(odd):   # spread through the block
        for seq, value in zip((samples, release, gaps), shot):
            seq.insert(5 * k + 2, value)
    return samples, np.array(release), np.array(gaps)


@pytest.mark.parametrize("thresholds, reasons", [
    (FilterThresholds(), {"", "insufficient_samples", "unfittable", "gapped", "noisy",
                          "path_degenerate"}),
    (LAX, {"", "insufficient_samples", "unfittable", "path_degenerate", "ascending",
           "short_airball"}),
])
def test_block_matches_one_shot_chain(thresholds, reasons):
    samples, release, gaps = mixed_block()
    chain = one_shot_chain(samples, release, gaps, thresholds)
    assert {c.rejection for c in chain} == reasons      # the block reaches every branch
    assert len({len(s) for s in samples}) > 10          # so the solve pads

    fitted, beta, rmse = fit_trajectories(samples, release, thresholds.min_samples)
    rejection, report = filter_shots([len(s) for s in samples], fitted, gaps, rmse, thresholds)
    kept = np.flatnonzero(rejection == "")
    factors = np.full((len(samples), 3), np.nan)
    factors[kept], rejection[kept] = shot_factors([samples[i] for i in kept], beta[kept])
    assert_matches_chain(rejection, fitted, beta, rmse, factors, chain)
    assert report.n_retained == len(kept)


def test_a_long_window_is_not_padded_beside_short_ones():
    samples, release = [], []
    for i in range(300):
        pts, rel, _ = parabola_shot(seed=400 + i, noise=0.1, extra=i % 9)
        samples.append(pts)
        release.append(rel)
    pts, rel, _ = parabola_shot(seed=9, noise=0.1, frame_rate=2500.0)    # ~2,700 samples
    samples.insert(150, pts)
    release.insert(150, rel)
    n = np.array([len(s) for s in samples])
    blocks = padded_blocks(n, 5)
    assert sorted(np.concatenate(blocks).tolist()) == list(range(len(samples)))
    assert [150] in [b.tolist() for b in blocks]
    for block in blocks:    # 6 base rows and 4 pseudo rows above each window
        assert len(block) == 1 or len(block) * (10 + n[block].max()) <= MAX_PADDED_ROWS

    fitted, beta, rmse = fit_trajectories(samples, np.array(release))
    assert fitted.all()
    for i, (pts, rel) in enumerate(zip(samples, release)):
        want = fit_trajectory(pts, rel)
        np.testing.assert_allclose(beta[i], want.beta, rtol=0, atol=1e-9)
        assert abs(rmse[i] - want.rmse_ft) <= 1e-9


def test_empty_block():
    fitted, beta, rmse = fit_trajectories([], np.empty((0, 2)))
    assert fitted.shape == rmse.shape == (0,) and beta.shape == (0, 6)
    factors, flags = shot_factors([], np.empty((0, 6)))
    assert factors.shape == (0, 3) and flags.shape == (0,)


def test_non_finite_samples_raise_as_the_one_shot_fit_does():
    pts, rel, _ = parabola_shot(seed=3)
    pts[4, 2] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        fit_trajectories([pts], rel[None, :])
    fitted, _, _ = fit_trajectories([pts[:3]], rel[None, :])   # too thin to be fitted at all
    assert not fitted.any()


@pytest.mark.parametrize("shuffle", [False, True])
def test_corrupted_season_matches_one_shot_chain(shuffle):
    tracking, events, roster = season_tracking(simulate_season(SimConfig(
        seed=5, n_games=3, shots_per_game=80, corrupt_fraction=0.4)))
    if shuffle:   # games interleaved: each shot keeps its place in the output
        events = [events[i] for i in np.random.default_rng(0).permutation(len(events))]
    fit = fit_season(tracking, events, roster)
    chain = season_chain(tracking, events, roster)
    assert_season_matches_chain(fit, chain)
    assert sum(fit.filtering.rejections.values()) + sum(fit.factor_rejections.values()) + len(
        fit.rows) == len(chain)
