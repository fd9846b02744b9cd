"""Sum-to-zero contrast regressions: coding, exact fixtures, filters, rankings.

``build_design`` below is the dense contrast design, kept here as the oracle
that the library's normal equations and solve are checked against.
"""

from dataclasses import dataclass, replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from shotarc.effects import (
    MODEL_KINDS,
    Coded,
    EffectsDataset,
    EffectsError,
    RankDeficientError,
    _design_blocks,
    _normal_equations,
    apply_min_shots_filter,
    fit_effects,
    rank_players,
)
from shotarc.sim import SimConfig, simulate_season


def _contrast_columns(labels: np.ndarray, levels: np.ndarray) -> np.ndarray:
    """Sum-to-zero coding: one column per level but the last; the last level is -1 everywhere."""
    n_levels = len(levels)
    idx = np.searchsorted(levels, labels)
    cols = np.zeros((len(labels), n_levels - 1))
    in_contrast = idx < n_levels - 1
    cols[np.arange(len(labels))[in_contrast], idx[in_contrast]] = 1.0
    cols[~in_contrast, :] = -1.0
    return cols


@dataclass(frozen=True)
class EffectsDesign:
    matrix: np.ndarray
    column_names: tuple[str, ...]
    shooter_levels: np.ndarray
    defender_levels: np.ndarray | None


def build_design(dataset: EffectsDataset, model_kind: str, common_slope: bool = True) -> EffectsDesign:
    """Full-rank dense n x p contrast-coded design for either model kind."""
    if model_kind not in MODEL_KINDS:
        raise EffectsError(f"unknown model kind {model_kind!r}")
    shooter_levels = np.unique(dataset.shooters)
    if len(shooter_levels) < 2:
        raise EffectsError("need at least 2 shooters after filtering")
    cols = [np.ones((len(dataset), 1))]
    names = ["intercept"]
    s_contrasts = _contrast_columns(dataset.shooters, shooter_levels)
    cols.append(s_contrasts)
    names += [f"shooter[{p}]" for p in shooter_levels[:-1]]

    defender_levels = None
    if model_kind == "defender":
        defender_levels = np.unique(dataset.defenders)
        if len(defender_levels) < 2:
            raise EffectsError("need at least 2 defenders after filtering")
        cols.append(_contrast_columns(dataset.defenders, defender_levels))
        names += [f"defender[{p}]" for p in defender_levels[:-1]]
    else:
        ndd = np.asarray(dataset.ndd_ft, dtype=float)
        if common_slope:
            centered = ndd - ndd.mean()
            cols.append(centered[:, None])
            names.append("ndd")
            cols.append(s_contrasts * centered[:, None])
            names += [f"ndd:shooter[{p}]" for p in shooter_levels[:-1]]
        else:
            idx = np.searchsorted(shooter_levels, dataset.shooters)
            slopes = np.zeros((len(dataset), len(shooter_levels)))
            slopes[np.arange(len(dataset)), idx] = ndd
            cols.append(slopes)
            names += [f"ndd:shooter[{p}]" for p in shooter_levels]
    return EffectsDesign(np.hstack(cols), tuple(names), shooter_levels, defender_levels)


def lstsq_effects(dataset: EffectsDataset, model_kind: str, response_kind: str,
                  common_slope: bool = True) -> tuple[dict[str, float], float]:
    """Every coefficient of the dense oracle by SVD least squares, contrasts
    expanded, and the residual sum of squares."""
    design = build_design(dataset, model_kind, common_slope)
    y = dataset.response(response_kind)
    coefs, _, rank, _ = np.linalg.lstsq(design.matrix, y, rcond=None)
    assert rank == design.matrix.shape[1]
    resid = y - design.matrix @ coefs
    named = dict(zip(design.column_names, coefs))
    out = {"intercept": named["intercept"]}
    for prefix, levels in (("shooter", design.shooter_levels),
                           ("defender", design.defender_levels),
                           ("ndd:shooter", design.shooter_levels)):
        if levels is None or f"{prefix}[{levels[0]}]" not in named:
            continue
        vals = [named.get(f"{prefix}[{p}]") for p in levels]
        if vals[-1] is None:
            vals[-1] = -sum(vals[:-1])
        out.update({f"{prefix}[{p}]": v for p, v in zip(levels, vals)})
    if "ndd" in named:
        out["ndd"] = named["ndd"]
    return out, float(resid @ resid)


def dataset_from_rows(rows, probs=None, games=None):
    shooters = np.array([r[0] for r in rows])
    defenders = np.array([r[1] for r in rows])
    ndd = np.array([float(r[2]) for r in rows])
    y = np.array([float(r[3]) for r in rows])
    return EffectsDataset(
        shooters=shooters,
        defenders=defenders,
        ndd_ft=ndd,
        outcomes=y,
        probs=None if probs is None else np.asarray(probs, dtype=float),
        game_ids=None if games is None else np.asarray(games),
    )


def balanced_2x2(a=0.03, g=0.05, base=0.5):
    rows = []
    for s, sa in (("A", +a), ("B", -a)):
        for d, dg in (("K1", +g), ("K2", -g)):
            rows.append((s, d, 5.0, base + sa + dg))
    return dataset_from_rows(rows)


class TestDesign:
    def test_2x2_dimensions(self):
        design = build_design(balanced_2x2(), "defender")
        assert design.matrix.shape == (4, 3)
        assert design.column_names == ("intercept", "shooter[A]", "defender[K1]")

    def test_contrast_coding_rule(self):
        design = build_design(balanced_2x2(), "defender")
        shooter_col = design.matrix[:, 1]
        # rows 0,1 are shooter A (+1); rows 2,3 shooter B, the implicit level (-1)
        np.testing.assert_array_equal(shooter_col, [1.0, 1.0, -1.0, -1.0])

    def test_resilience_dimensions(self):
        rows = [("A", "K", 4.0, 0.5), ("B", "K", 5.0, 0.4),
                ("C", "K", 6.0, 0.6), ("A", "K", 7.0, 0.5),
                ("B", "K", 3.0, 0.4), ("C", "K", 8.0, 0.6)]
        design = build_design(dataset_from_rows(rows), "resilience")
        # intercept + 2 shooter contrasts + common slope + 2 slope contrasts
        assert design.matrix.shape == (6, 6)
        assert design.column_names[3] == "ndd"

    def test_literal_resilience_variant(self):
        rows = [("A", "K", 4.0, 0.5), ("B", "K", 5.0, 0.4),
                ("A", "K", 6.0, 0.6), ("B", "K", 7.0, 0.5)]
        design = build_design(dataset_from_rows(rows), "resilience", common_slope=False)
        # intercept + 1 shooter contrast + per-shooter slopes
        assert design.matrix.shape == (4, 4)

    def test_too_few_levels(self):
        rows = [("A", "K", 4.0, 0.5), ("A", "K", 5.0, 0.4)]
        with pytest.raises(EffectsError):
            build_design(dataset_from_rows(rows), "defender")


class TestFit:
    def test_constant_response(self):
        data = dataset_from_rows([("A", "K1", 4.0, 0.4), ("A", "K2", 5.0, 0.4),
                                  ("B", "K1", 6.0, 0.4), ("B", "K2", 7.0, 0.4)])
        est = fit_effects(data, "defender", "raw")
        assert est.intercept == pytest.approx(0.4, abs=1e-12)
        assert all(abs(v) < 1e-12 for v in est.shooter_effects.values())
        assert all(abs(v) < 1e-12 for v in est.effects.values())

    def test_balanced_2x2_exact(self):
        est = fit_effects(balanced_2x2(), "defender", "raw")
        assert est.intercept == pytest.approx(0.5, abs=1e-10)
        assert est.shooter_effects["A"] == pytest.approx(0.03, abs=1e-10)
        assert est.shooter_effects["B"] == pytest.approx(-0.03, abs=1e-10)
        assert est.effects["K1"] == pytest.approx(0.05, abs=1e-10)
        assert est.effects["K2"] == pytest.approx(-0.05, abs=1e-10)

    def test_sum_to_zero_on_random_data(self):
        rng = np.random.default_rng(0)
        rows = [(f"S{rng.integers(6)}", f"D{rng.integers(7)}",
                 rng.uniform(1, 9), rng.random()) for _ in range(400)]
        est = fit_effects(dataset_from_rows(rows), "defender", "raw")
        assert abs(sum(est.shooter_effects.values())) < 1e-8
        assert abs(sum(est.effects.values())) < 1e-8

    def test_response_shift_moves_only_intercept(self):
        rng = np.random.default_rng(1)
        rows = [(f"S{rng.integers(4)}", f"D{rng.integers(4)}",
                 rng.uniform(1, 9), rng.random()) for _ in range(300)]
        data = dataset_from_rows(rows)
        shifted = EffectsDataset(
            shooters=data.shooters, defenders=data.defenders, ndd_ft=data.ndd_ft,
            outcomes=data.outcomes, probs=np.clip(data.outcomes * 0.5 + 0.2, 0, 1))
        est_raw = fit_effects(data, "defender", "raw")
        est_aff = fit_effects(shifted, "defender", "prob")
        # positive affine transform of the response preserves effect ranks
        order_raw = [p for p, _ in sorted(est_raw.effects.items(), key=lambda kv: kv[1])]
        order_aff = [p for p, _ in sorted(est_aff.effects.items(), key=lambda kv: kv[1])]
        assert order_raw == order_aff
        # constant shift: intercept absorbs it exactly
        base = fit_effects(data, "defender", "raw")
        plus = EffectsDataset(
            shooters=data.shooters, defenders=data.defenders, ndd_ft=data.ndd_ft,
            outcomes=data.outcomes + 0.25)
        est_plus = fit_effects(plus, "defender", "raw")
        assert est_plus.intercept - base.intercept == pytest.approx(0.25, abs=1e-9)
        for p in base.effects:
            assert est_plus.effects[p] == pytest.approx(base.effects[p], abs=1e-9)

    def test_balanced_alpha_equals_group_mean_deviation(self):
        data = balanced_2x2(a=0.04, g=0.02)
        est = fit_effects(data, "defender", "raw")
        y = data.outcomes
        grand = y.mean()
        mean_a = y[data.shooters == "A"].mean()
        assert est.shooter_effects["A"] == pytest.approx(mean_a - grand, abs=1e-12)

    def test_resilience_slopes_sum_to_zero_with_common_slope(self):
        rng = np.random.default_rng(2)
        rows = []
        slopes = {"A": 0.02, "B": -0.01, "C": -0.01}
        for _ in range(600):
            s = ("A", "B", "C")[rng.integers(3)]
            ndd = rng.uniform(1, 9)
            y = 0.4 + 0.015 * ndd + slopes[s] * ndd + rng.normal(0, 0.02)
            rows.append((s, "K", ndd, min(max(y, 0), 1)))
        est = fit_effects(dataset_from_rows(rows), "resilience", "raw")
        assert abs(sum(est.effects.values())) < 1e-8
        assert est.common_ndd_slope == pytest.approx(0.015, abs=5e-3)
        assert est.effects["A"] == pytest.approx(0.02, abs=5e-3)

    def test_rank_deficiency_reported(self):
        # one shooter only ever faces one defender and vice versa: aliased
        rows = [("A", "K1", 4.0, 0.5), ("A", "K1", 5.0, 0.6),
                ("B", "K2", 6.0, 0.4), ("B", "K2", 7.0, 0.3)]
        with pytest.raises(RankDeficientError):
            fit_effects(dataset_from_rows(rows), "defender", "raw")


def season_dataset(seed=11):
    season = simulate_season(SimConfig(n_games=6, shots_per_game=120, n_shooters=12,
                                       n_defenders=12, seed=seed))
    truth = season.ground_truth
    return EffectsDataset(
        shooters=np.array([t.shooter_id for t in truth]),
        defenders=np.array([t.defender_id for t in truth]),
        ndd_ft=np.array([t.ndd_ft for t in truth]),
        outcomes=np.array([float(t.outcome) for t in truth]),
    )


def null_space_columns(dataset, model_kind, common_slope=True):
    """Oracle for ``aliased``: columns with weight in the dense design's SVD null space."""
    design = build_design(dataset, model_kind, common_slope)
    _, sv, vt = np.linalg.svd(design.matrix)
    null = vt[np.sum(sv > sv[0] * 1e-10):]
    return tuple(name for name, w in zip(design.column_names, np.abs(null).max(axis=0)) if w > 1e-8)


MODELS = [("defender", True), ("resilience", True), ("resilience", False)]


class TestNormalEquations:
    @pytest.mark.parametrize("model_kind,common_slope", MODELS)
    def test_gram_and_rhs_equal_dense_oracle(self, model_kind, common_slope):
        data = season_dataset()
        y = data.response("raw")
        blocks = _design_blocks(data, model_kind, common_slope)
        gram, rhs, _, names, _ = _normal_equations(blocks, y)
        design = build_design(data, model_kind, common_slope)
        X = design.matrix
        assert tuple(names) == design.column_names
        np.testing.assert_allclose(gram, X.T @ X, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(rhs, X.T @ y, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("model_kind,common_slope", MODELS)
    def test_coefficients_match_lstsq_on_dense_oracle(self, model_kind, common_slope):
        data = season_dataset(seed=12)
        est = fit_effects(data, model_kind, "raw", common_slope=common_slope)
        ref, sse = lstsq_effects(data, model_kind, "raw", common_slope)
        got = {"intercept": est.intercept}
        got.update({f"shooter[{p}]": v for p, v in est.shooter_effects.items()})
        prefix = "defender" if model_kind == "defender" else "ndd:shooter"
        got.update({f"{prefix}[{p}]": v for p, v in est.effects.items()})
        if est.common_ndd_slope is not None:
            got["ndd"] = est.common_ndd_slope
        assert got.keys() == ref.keys()
        for name, want in ref.items():
            assert got[name] == pytest.approx(want, abs=1e-10), name
        assert est.residual_sse == pytest.approx(sse, rel=1e-10)

    def test_disconnected_blocks_name_aliased_columns(self):
        rows = [("A", "K1", 4.0, 0.5), ("A", "K1", 5.0, 0.6),
                ("B", "K2", 6.0, 0.4), ("B", "K2", 7.0, 0.3)]
        with pytest.raises(RankDeficientError) as exc:
            fit_effects(dataset_from_rows(rows), "defender", "raw")
        assert exc.value.aliased == ("shooter[A]", "defender[K1]")

        rng = np.random.default_rng(5)
        pairs = [(s, d) for s in "AB" for d in ("K1", "K2")] + \
                [(s, d) for s in "CD" for d in ("K3", "K4")]
        rows = [(s, d, 5.0, rng.random()) for s, d in pairs for _ in range(3)]
        data = dataset_from_rows(rows)
        with pytest.raises(RankDeficientError) as exc:
            fit_effects(data, "defender", "raw")
        assert exc.value.aliased == null_space_columns(data, "defender")
        assert "intercept" not in exc.value.aliased

    def test_constant_ndd_shooter_aliases_its_slope(self):
        rng = np.random.default_rng(6)
        rows = [(s, "K", 5.0 if s == "B" else rng.uniform(1, 9), rng.random())
                for s in "ABC" for _ in range(30)]
        data = dataset_from_rows(rows)
        with pytest.raises(RankDeficientError) as exc:
            fit_effects(data, "resilience", "raw", common_slope=False)
        assert exc.value.aliased == ("intercept", "shooter[A]", "shooter[B]", "ndd:shooter[B]")
        assert exc.value.aliased == null_space_columns(data, "resilience", common_slope=False)
        with pytest.raises(RankDeficientError) as exc:
            fit_effects(data, "resilience", "raw")
        assert "ndd:shooter[B]" in exc.value.aliased
        assert exc.value.aliased == null_space_columns(data, "resilience")


class TestMinShotsFilter:
    def test_identity_when_all_above(self):
        data = balanced_2x2()
        out = apply_min_shots_filter(data, threshold=1)
        assert len(out) == len(data)

    def test_single_player_below_threshold(self):
        rows = [("A", "K1", 4.0, 0.5)] * 100 + [("A", "K2", 5.0, 0.4)] * 99
        out = apply_min_shots_filter(dataset_from_rows(rows), threshold=100, roles=("defender",))
        assert set(np.unique(out.defenders)) == {"K1"}
        assert len(out) == 100

    def test_cascade_reaches_fixed_point(self):
        # dropping defender X pushes shooter Y below threshold; both must go
        rows = []
        rows += [("Y", "X", 4.0, 0.5)] * 60       # Y's only volume is against X
        rows += [("Y", "K", 5.0, 0.5)] * 45
        rows += [("Z", "K", 5.0, 0.5)] * 120
        rows += [("W", "K", 5.0, 0.5)] * 120
        rows += [("Z", "X", 4.0, 0.5)] * 30       # X totals 90 < 100 -> X dropped
        data = dataset_from_rows(rows)
        out = apply_min_shots_filter(data, threshold=100)
        assert "X" not in set(np.unique(out.defenders))
        assert "Y" not in set(np.unique(out.shooters))   # fell to 45 after X left
        # fixed point: re-applying changes nothing
        again = apply_min_shots_filter(out, threshold=100)
        assert len(again) == len(out)
        counts = {p: int((out.shooters == p).sum()) for p in np.unique(out.shooters)}
        assert all(c >= 100 for c in counts.values())


def rebuilt(data):
    """The same rows as a dataset built afresh from string arrays, so coded from scratch."""
    return EffectsDataset(
        shooters=np.array(data.shooters.tolist()), defenders=np.array(data.defenders.tolist()),
        ndd_ft=data.ndd_ft.copy(), outcomes=data.outcomes.copy(),
        probs=None if data.probs is None else data.probs.copy(),
        game_ids=None if data.game_ids is None else np.array(data.game_ids.tolist()))


def min_shots_on_strings(data, threshold, roles):
    """Oracle: the minimum-shots fixed point counted on the string ids themselves."""
    while True:
        keep = np.ones(len(data), dtype=bool)
        for role, players in (("shooter", data.shooters), ("defender", data.defenders)):
            if role in roles:
                ids, counts = np.unique(players, return_counts=True)
                keep &= ~np.isin(players, ids[counts < threshold])
        if keep.all():
            return data
        data = rebuilt(data.subset(keep))


class TestCodedIds:
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), keep=st.floats(0.05, 1.0))
    def test_fit_on_subset_equals_fit_on_rebuilt_dataset(self, seed, keep):
        data = season_dataset()
        mask = np.random.default_rng(seed).random(len(data)) < keep
        sub = data.subset(mask)
        for model_kind, common_slope in MODELS:
            outcomes = []
            for dataset in (sub, rebuilt(sub)):
                try:
                    outcomes.append(fit_effects(dataset, model_kind, "raw", common_slope))
                except EffectsError as exc:
                    outcomes.append((type(exc), str(exc)))
            assert outcomes[0] == outcomes[1]

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), threshold=st.integers(0, 90),
           roles=st.sampled_from([("shooter", "defender"), ("shooter",), ("defender",)]))
    def test_min_shots_filter_matches_string_oracle(self, seed, threshold, roles):
        data = season_dataset()
        sub = data.subset(np.random.default_rng(seed).random(len(data)) < 0.6)
        got = apply_min_shots_filter(sub, threshold, roles)
        want = min_shots_on_strings(sub, threshold, roles)
        for name in ("shooters", "defenders", "ndd_ft", "outcomes"):
            np.testing.assert_array_equal(getattr(got, name), getattr(want, name))
        for role, ids in (("shooter", got.shooters), ("defender", got.defenders)):
            present = getattr(got.coding, role).present()
            np.testing.assert_array_equal(present.levels, Coded.of(ids).levels)
            np.testing.assert_array_equal(present.codes, Coded.of(ids).codes)

    def test_coding_is_made_from_the_ids_not_passed_in(self):
        data = season_dataset()
        with pytest.raises(TypeError):
            EffectsDataset(data.shooters, data.defenders, data.ndd_ft, data.outcomes,
                           coding=data.coding)

    @pytest.mark.parametrize("column", ["ndd_ft", "outcomes", "probs"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_column_rejected(self, column, value):
        cols = {"shooters": np.array(["A", "B"]), "defenders": np.array(["K", "L"]),
                "ndd_ft": np.array([3.0, 4.0]), "outcomes": np.array([0.25, 1.0]),
                "probs": np.array([0.5, 0.5])}
        EffectsDataset(**cols)          # fractional responses stay allowed
        cols[column] = np.array([value, 1.0])
        with pytest.raises(EffectsError, match=f"{column} holds non-finite"):
            EffectsDataset(**cols)


class TestRanking:
    def test_defender_direction_most_negative_first(self):
        est = fit_effects(balanced_2x2(g=0.05), "defender", "raw")
        table = rank_players(est)
        assert table[0].player_id == "K2"
        assert table[0].effect_per_100 == pytest.approx(-5.0, abs=1e-8)
        assert table[0].rank == 1

    def test_ranks_invariant_under_scaling(self):
        rng = np.random.default_rng(4)
        rows = [(f"S{rng.integers(5)}", f"D{rng.integers(5)}",
                 rng.uniform(1, 9), rng.random()) for _ in range(500)]
        data = dataset_from_rows(rows)
        est = fit_effects(data, "defender", "raw")
        table = rank_players(est)
        scaled = EffectsDataset(
            shooters=data.shooters, defenders=data.defenders, ndd_ft=data.ndd_ft,
            outcomes=data.outcomes, probs=np.clip(0.1 + 0.5 * data.outcomes, 0, 1))
        table2 = rank_players(fit_effects(scaled, "defender", "prob"))
        assert [r.player_id for r in table] == [r.player_id for r in table2]

    def test_tie_broken_lexicographically(self):
        data = dataset_from_rows([
            ("A", "K1", 4.0, 0.5), ("A", "K2", 4.0, 0.5),
            ("B", "K1", 4.0, 0.3), ("B", "K2", 4.0, 0.3)])
        est = fit_effects(data, "defender", "raw")
        table = rank_players(est)
        assert [r.player_id for r in table] == ["K1", "K2"]

    def test_resilience_most_positive_slope_first_ties_by_id(self):
        rows = [(s, "K", ndd, 0.5 + slope * (ndd - 5.0))
                for s, slope in (("A", 0.01), ("B", 0.03), ("D", -0.02))
                for ndd in (2.0, 4.0, 6.0, 8.0)]
        est = fit_effects(dataset_from_rows(rows), "resilience", "raw")
        table = rank_players(est)
        assert [r.player_id for r in table] == ["B", "A", "D"]
        assert table[0].effect > 0 > table[-1].effect and table[0].rank == 1
        tied = replace(est, effects={"C": 0.01, "D": -0.02, "B": 0.03, "A": 0.01})
        assert [r.player_id for r in rank_players(tied)] == ["B", "A", "C", "D"]

    def test_opp_mean_prob_column(self):
        est = fit_effects(balanced_2x2(), "defender", "raw")
        table = rank_players(est)
        by_id = {r.player_id: r for r in table}
        assert by_id["K1"].opp_mean_prob == pytest.approx(0.55)
        assert by_id["K1"].n_shots == 2
