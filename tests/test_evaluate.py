"""Evaluation harness: spearman, variance ratios, profiles, subsampling."""

import tracemalloc

import numpy as np
import pytest
import scipy.stats

from shotarc.effects import EffectsDataset
from shotarc.evaluate import (
    BOOTSTRAP_BLOCK_ELEMENTS,
    EvalError,
    SubsampleSpec,
    _rank_with_ties,
    binned_mean_by_depth,
    binned_profiles,
    make_pct_by_depth_bin,
    spearman,
    split_half_rank_correlation,
    subsample_mse,
    variance_comparison,
)


class TestSpearman:
    def test_strictly_increasing_pair(self):
        assert spearman([1, 5, 9, 12], [0.1, 0.2, 0.5, 3.0]) == 1.0

    def test_reversed(self):
        assert spearman([1, 2, 3], [3, 2, 1]) == -1.0

    def test_hand_value_half(self):
        # ranks (1,2,3) vs (2,1,3): 1 - 6*2/(3*8) = 0.5
        assert spearman([1, 2, 3], [2, 1, 3]) == pytest.approx(0.5)

    def test_hand_value_point_eight(self):
        # 1 - 6*2/(4*15) = 0.8
        assert spearman([1, 2, 3, 4], [1, 3, 2, 4]) == pytest.approx(0.8)

    def test_ranks_equal_scipy_rankdata_on_tie_heavy_input(self):
        rng = np.random.default_rng(1)
        for n in (1, 2, 3, 10, 100, 1000):
            for x in (rng.integers(0, 3, size=n).astype(float),
                      rng.integers(0, n, size=n).astype(float),
                      np.round(rng.normal(size=n), 1)):
                assert np.array_equal(_rank_with_ties(x), scipy.stats.rankdata(x))

    def test_matches_scipy_with_ties(self):
        rng = np.random.default_rng(0)
        for _ in range(30):
            x = rng.integers(0, 6, size=25).astype(float)
            y = x * 0.5 + rng.integers(0, 4, size=25)
            if len(set(x)) < 2 or len(set(y)) < 2:
                continue
            expect = scipy.stats.spearmanr(x, y).statistic
            assert spearman(x, y) == pytest.approx(expect, abs=1e-12)

    def test_symmetry(self):
        rng = np.random.default_rng(1)
        x, y = rng.normal(size=30), rng.normal(size=30)
        assert spearman(x, y) == pytest.approx(spearman(y, x), abs=1e-15)

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(2)
        x, y = rng.normal(size=30), rng.normal(size=30)
        assert spearman(np.exp(x), y) == pytest.approx(spearman(x, y), abs=1e-12)

    def test_errors(self):
        with pytest.raises(EvalError):
            spearman([1, 2], [1, 2, 3])
        with pytest.raises(EvalError):
            spearman([1, 2, 3], [5, 5, 5])
        with pytest.raises(EvalError):
            spearman([1], [2])


class TestVarianceComparison:
    def test_identical_groups_ratio_one(self):
        rng = np.random.default_rng(3)
        vals = rng.normal(0, 0.2, 400)
        depth = np.concatenate([vals, vals])
        lr = depth.copy()
        ndd = np.concatenate([np.full(400, 2.0), np.full(400, 8.0)])
        out = variance_comparison(depth, lr, ndd, seed=1)
        assert out["depth"].ratio == pytest.approx(1.0, abs=1e-12)
        assert out["lr"].ratio == pytest.approx(1.0, abs=1e-12)

    def test_hand_ratio(self):
        # sample variances 0.04 and 0.025 -> ratio 1.6
        a = np.sqrt(0.04)
        b = np.sqrt(0.025)
        contested = np.array([-a, a] * 20)
        open_ = np.array([-b, b] * 20)
        depth = np.concatenate([contested, open_])
        ndd = np.concatenate([np.full(40, 3.0), np.full(40, 7.0)])
        out = variance_comparison(depth, depth, ndd, n_bootstrap=50, seed=0)
        expect = contested.var(ddof=1) / open_.var(ddof=1)
        assert out["depth"].ratio == pytest.approx(expect)
        assert expect == pytest.approx(1.6, abs=1e-2)

    def test_minimum_group_size(self):
        depth = np.zeros(40)
        ndd = np.concatenate([np.full(10, 2.0), np.full(30, 8.0)])
        with pytest.raises(EvalError):
            variance_comparison(depth, depth, ndd)

    def test_bootstrap_reproducible_and_brackets_truth(self):
        rng = np.random.default_rng(4)
        n = 3000
        contested = rng.normal(0, np.sqrt(1.56) * 0.2, n)
        open_ = rng.normal(0, 0.2, n)
        depth = np.concatenate([contested, open_])
        ndd = np.concatenate([np.full(n, 2.5), np.full(n, 7.5)])
        out1 = variance_comparison(depth, depth, ndd, seed=42)
        out2 = variance_comparison(depth, depth, ndd, seed=42)
        assert out1["depth"].ci_low == out2["depth"].ci_low
        assert out1["depth"].ci_low < 1.56 < out1["depth"].ci_high


def _full_matrix_comparison(depth, lr, ndd, n_bootstrap, seed):
    """The bootstrap as one (n_bootstrap, n_group) draw per group: the oracle
    for the blocked draws (defaults: open > 6 ft, contested < 4 ft)."""
    rng = np.random.default_rng(seed)
    contested, is_open = ndd < 4.0, ndd > 6.0
    out = {}
    for name, values in (("depth", depth), ("lr", lr)):
        vc, vo = values[contested], values[is_open]
        idx_c = rng.integers(0, len(vc), size=(n_bootstrap, len(vc)))
        idx_o = rng.integers(0, len(vo), size=(n_bootstrap, len(vo)))
        boot = vc[idx_c].var(axis=1, ddof=1) / vo[idx_o].var(axis=1, ddof=1)
        lo, hi = np.percentile(boot, [2.5, 97.5])
        out[name] = (float(lo), float(hi))
    return out


def _season_groups(n_contested=10_144, n_open=7_305, seed=11):
    rng = np.random.default_rng(seed)
    ndd = np.concatenate([rng.uniform(0.0, 4.0, n_contested), rng.uniform(4.0, 6.0, 500),
                          rng.uniform(6.01, 12.0, n_open)])
    rng.shuffle(ndd)
    depth = rng.normal(0.7, 0.25, len(ndd))
    lr = rng.normal(0.0, 0.2, len(ndd))
    return depth, lr, ndd


class TestBlockedBootstrap:
    def test_groups_span_several_blocks(self):
        _, _, ndd = _season_groups()
        for n in ((ndd < 4.0).sum(), (ndd > 6.0).sum()):
            assert BOOTSTRAP_BLOCK_ELEMENTS // n < 60

    @pytest.mark.parametrize("n_bootstrap", [
        1,
        # a multiple of both groups' block row counts (12 and 17)
        (BOOTSTRAP_BLOCK_ELEMENTS // 10_144) * (BOOTSTRAP_BLOCK_ELEMENTS // 7_305),
        61,
    ])
    def test_equals_full_matrix_draw(self, n_bootstrap):
        depth, lr, ndd = _season_groups()
        out = variance_comparison(depth, lr, ndd, n_bootstrap=n_bootstrap, seed=424242)
        expect = _full_matrix_comparison(depth, lr, ndd, n_bootstrap, 424242)
        for name in ("depth", "lr"):
            assert (out[name].ci_low, out[name].ci_high) == expect[name]

    def test_memory_bounded_per_block(self):
        depth, lr, ndd = _season_groups()
        tracemalloc.start()
        try:
            variance_comparison(depth, lr, ndd, n_bootstrap=1000, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the full (1000, 10_144) index and value matrices alone take 162 MB
        assert peak < 32e6


class TestVarianceComparisonValidation:
    @staticmethod
    def _data():
        return _season_groups(n_contested=60, n_open=60)

    @pytest.mark.parametrize("n_bootstrap", [0, -5, 2.5, "10", True, None])
    def test_rejects_bad_n_bootstrap(self, n_bootstrap):
        with pytest.raises(EvalError, match="n_bootstrap"):
            variance_comparison(*self._data(), n_bootstrap=n_bootstrap)

    def test_accepts_numpy_integer_n_bootstrap(self):
        out = variance_comparison(*self._data(), n_bootstrap=np.int64(20))
        assert out["depth"].ci_low <= out["depth"].ci_high

    @pytest.mark.parametrize("key", ["open_threshold_ft", "contested_threshold_ft"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf"), "6"])
    def test_rejects_non_finite_threshold(self, key, value):
        with pytest.raises(EvalError, match=key):
            variance_comparison(*self._data(), **{key: value})

    def test_rejects_open_below_contested(self):
        with pytest.raises(EvalError, match="below"):
            variance_comparison(*self._data(), open_threshold_ft=3.0, contested_threshold_ft=4.0)

    def test_equal_thresholds_accepted(self):
        out = variance_comparison(*self._data(), open_threshold_ft=5.0,
                                  contested_threshold_ft=5.0, n_bootstrap=20)
        assert out["depth"].n_contested + out["depth"].n_open == 620

    def test_constant_group_rejected_by_name(self):
        depth, lr, ndd = self._data()
        lr[ndd > 6.0] = 0.25
        with pytest.raises(EvalError, match="lr: the open group has zero sample variance"):
            variance_comparison(depth, lr, ndd)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_value_rejected_by_name(self, bad):
        depth, lr, ndd = self._data()
        depth[np.flatnonzero(ndd < 4.0)[3]] = bad
        with pytest.raises(EvalError, match="depth: the contested group holds non-finite"):
            variance_comparison(depth, lr, ndd)

    def test_zero_variance_open_resample_rejected(self):
        # 29 equal values and one other: ~36% of resamples miss the odd one out
        rng = np.random.default_rng(0)
        depth = np.concatenate([rng.normal(0.0, 1.0, 40), np.zeros(29), [1.0]])
        ndd = np.concatenate([np.full(40, 2.0), np.full(30, 8.0)])
        with pytest.raises(EvalError, match="depth: a bootstrap resample of the open group"):
            variance_comparison(depth, depth, ndd, n_bootstrap=200)

    def test_non_finite_value_outside_both_groups_ignored(self):
        depth, lr, ndd = self._data()
        depth[np.flatnonzero((ndd >= 4.0) & (ndd <= 6.0))[0]] = float("nan")
        out = variance_comparison(depth, lr, ndd, n_bootstrap=20)
        assert np.isfinite(out["depth"].ratio)


class TestBinnedProfiles:
    def test_constant_values_flat(self):
        prof = binned_profiles(np.linspace(0, 10, 100), np.full(100, 45.0),
                               np.arange(0, 12, 2))
        means = [r.mean for r in prof.rows if r.n > 0]
        assert all(m == 45.0 for m in means)

    def test_two_bins_echo_inputs(self):
        bin_vals = np.array([1.0, 1.0, 3.0, 3.0])
        vals = np.array([44.0, 44.0, 46.0, 46.0])
        prof = binned_profiles(bin_vals, vals, np.array([0.0, 2.0, 4.0]))
        assert [r.mean for r in prof.rows] == [44.0, 46.0]
        assert prof.trend == 1.0

    def test_empty_bins_reported_not_fatal(self):
        prof = binned_profiles(np.array([1.0, 5.0]), np.array([2.0, 3.0]),
                               np.array([0.0, 2.0, 4.0, 6.0]))
        assert prof.rows[1].n == 0
        assert np.isnan(prof.rows[1].mean)

    def test_planted_trend_detected(self):
        rng = np.random.default_rng(5)
        ndd = rng.uniform(0, 10, 5000)
        depth = 0.6 + 0.01 * ndd + rng.normal(0, 0.1, 5000)
        prof = binned_profiles(ndd, depth, np.arange(0, 11, 2), value="depth")
        assert prof.trend > 0.9


class TestDepthBins:
    def test_all_makes(self):
        out = make_pct_by_depth_bin(np.array([0.7, 0.75, 0.8]), np.ones(3))
        assert all(r.mean == 1.0 for r in out.rows)

    def test_three_of_five(self):
        depth = np.full(5, 0.75)
        out = make_pct_by_depth_bin(depth, np.array([1, 1, 1, 0, 0], dtype=float))
        assert out.rows[0].mean == pytest.approx(0.6)
        assert out.rows[0].center == 9.0

    def test_bins_centered_on_inches(self):
        depth = np.array([8.6, 9.4, 9.6]) / 12.0
        out = make_pct_by_depth_bin(depth, np.array([1.0, 0.0, 1.0]))
        centers = {r.center: r for r in out.rows}
        assert centers[9.0].n == 2
        assert centers[10.0].n == 1

    def test_requires_binary_outcomes(self):
        with pytest.raises(EvalError):
            make_pct_by_depth_bin(np.array([0.75]), np.array([0.4]))

    def test_binned_mean_accepts_probabilities(self):
        out = binned_mean_by_depth(np.array([0.75, 0.75]), np.array([0.4, 0.6]))
        assert out.rows[0].mean == pytest.approx(0.5)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("column", ["depth", "response"])
    def test_non_finite_input_rejected_not_binned(self, bad, column):
        depth, y = np.array([0.75, 0.8, 0.7]), np.array([0.4, 0.6, 0.5])
        (depth if column == "depth" else y)[1] = bad
        with pytest.raises(EvalError, match="must be finite"):
            binned_mean_by_depth(depth, y)


def synthetic_effects_dataset(n_games=30, shots_per_game=60, n_shooters=8,
                              n_defenders=8, noise="bernoulli", seed=0):
    """Linear-model season: response = base + alpha_j + gamma_k (+ noise)."""
    rng = np.random.default_rng(seed)
    alphas = rng.normal(0, 0.03, n_shooters)
    gammas = rng.normal(0, 0.04, n_defenders)
    gammas -= gammas.mean()
    alphas -= alphas.mean()
    rows = []
    for g in range(n_games):
        for _ in range(shots_per_game):
            j = int(rng.integers(n_shooters))
            k = int(rng.integers(n_defenders))
            p = np.clip(0.38 + alphas[j] + gammas[k], 0.01, 0.99)
            y = float(rng.random() < p)
            rows.append((f"S{j}", f"D{k}", float(rng.uniform(1, 9)), y, p, f"G{g:03d}"))
    return EffectsDataset(
        shooters=np.array([r[0] for r in rows]),
        defenders=np.array([r[1] for r in rows]),
        ndd_ft=np.array([r[2] for r in rows]),
        outcomes=np.array([r[3] for r in rows]),
        probs=np.array([r[4] for r in rows]),
        game_ids=np.array([r[5] for r in rows]),
    ), alphas, gammas


class TestSubsampleMse:
    def test_fraction_one_raw_is_zero(self):
        data, _, _ = synthetic_effects_dataset(seed=1)
        out = subsample_mse(data, SubsampleSpec(fractions=(1.0,), n_replicates=3, seed=0),
                            min_shots=10)
        raw = [r for r in out if r.response_kind == "raw"][0]
        assert raw.mse == pytest.approx(0.0, abs=1e-20)

    def test_fraction_one_prob_is_fixed_gap(self):
        data, _, _ = synthetic_effects_dataset(seed=2)
        out = subsample_mse(data, SubsampleSpec(fractions=(1.0,), n_replicates=4, seed=0),
                            min_shots=10)
        prob = [r for r in out if r.response_kind == "prob"][0]
        assert prob.mse > 0
        # every replicate sees the full season, so the gap is constant
        out2 = subsample_mse(data, SubsampleSpec(fractions=(1.0,), n_replicates=1, seed=9),
                             min_shots=10)
        prob2 = [r for r in out2 if r.response_kind == "prob"][0]
        assert prob.mse == pytest.approx(prob2.mse, rel=1e-12)

    def test_prob_beats_raw_at_small_fractions(self):
        data, _, _ = synthetic_effects_dataset(n_games=40, shots_per_game=80, seed=3)
        out = subsample_mse(data, SubsampleSpec(fractions=(0.1, 0.3), n_replicates=12, seed=5),
                            min_shots=10)
        by = {(r.fraction, r.response_kind): r.mse for r in out}
        assert by[(0.1, "prob")] < by[(0.1, "raw")]
        assert by[(0.3, "prob")] < by[(0.3, "raw")]

    def test_raw_mse_decreases_with_fraction(self):
        data, _, _ = synthetic_effects_dataset(n_games=40, shots_per_game=80, seed=4)
        out = subsample_mse(data, SubsampleSpec(fractions=(0.1, 0.5), n_replicates=12, seed=6),
                            min_shots=10)
        by = {(r.fraction, r.response_kind): r.mse for r in out}
        assert by[(0.5, "raw")] < by[(0.1, "raw")]

    def test_reproducible(self):
        data, _, _ = synthetic_effects_dataset(seed=5)
        spec = SubsampleSpec(fractions=(0.2,), n_replicates=5, seed=11)
        a = subsample_mse(data, spec, min_shots=10)
        b = subsample_mse(data, spec, min_shots=10)
        assert [r.mse for r in a] == [r.mse for r in b]

    def test_dataset_without_probabilities_refused(self):
        # before the check, every prob replicate was dropped and its mse read nan
        data, _, _ = synthetic_effects_dataset(seed=1)
        no_probs = EffectsDataset(data.shooters, data.defenders, data.ndd_ft, data.outcomes,
                                  game_ids=data.game_ids)
        with pytest.raises(EvalError, match="make probabilities"):
            subsample_mse(no_probs, SubsampleSpec(fractions=(0.5,), n_replicates=2),
                          min_shots=10)

    def test_resilience_model_kind_supported(self):
        data, _, _ = synthetic_effects_dataset(n_games=30, shots_per_game=80, seed=6)
        out = subsample_mse(data, SubsampleSpec(fractions=(0.5,), n_replicates=3, seed=2),
                            model_kind="resilience", min_shots=10)
        assert {r.response_kind for r in out} == {"raw", "prob"}
        assert all(np.isfinite(r.mse) for r in out)
        rho = split_half_rank_correlation(data, model_kind="resilience",
                                          response_kind="prob", min_shots=10)
        assert -1.0 <= rho <= 1.0


class TestSplitHalf:
    def test_identical_halves_give_one(self):
        # deterministic response depending only on player identities; it needs
        # main effects, since a pure interaction fits exactly zero effects to rank
        rows = []
        for g in range(4):
            for j in range(4):
                for k in range(4):
                    for _ in range(5):
                        rows.append((f"S{j}", f"D{k}", 5.0, int(j + k >= 3), f"G{g}"))
        data = EffectsDataset(
            shooters=np.array([r[0] for r in rows]),
            defenders=np.array([r[1] for r in rows]),
            ndd_ft=np.array([r[2] for r in rows]),
            outcomes=np.array([float(r[3]) for r in rows]),
            game_ids=np.array([r[4] for r in rows]),
        )
        rho = split_half_rank_correlation(data, min_shots=1)
        assert rho == pytest.approx(1.0)

    def test_prob_more_stable_than_raw(self):
        data, _, _ = synthetic_effects_dataset(n_games=40, shots_per_game=60, seed=7)
        rho_raw = split_half_rank_correlation(data, response_kind="raw", min_shots=10)
        rho_prob = split_half_rank_correlation(data, response_kind="prob", min_shots=10)
        assert rho_prob > rho_raw


@pytest.mark.parametrize("analysis", [
    lambda data, min_shots: subsample_mse(
        data, SubsampleSpec(fractions=(0.5,), n_replicates=2), min_shots=min_shots),
    lambda data, min_shots: split_half_rank_correlation(data, min_shots=min_shots),
], ids=["subsample_mse", "split_half_rank_correlation"])
def test_game_ids_and_surviving_rows_required(analysis):
    data, _, _ = synthetic_effects_dataset(seed=1)
    no_games = EffectsDataset(data.shooters, data.defenders, data.ndd_ft, data.outcomes,
                              probs=data.probs)
    with pytest.raises(EvalError, match="game ids"):
        analysis(no_games, 10)
    with pytest.raises(EvalError, match="no rows survive"):
        analysis(data, len(data) + 1)
