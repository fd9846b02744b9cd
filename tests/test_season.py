"""The batched season fit against the one-shot chain of ``lstsq_fit``,
the filter's rules and the scalar factor oracle (``oracle_path_line``,
``oracle_factors``); the shots file against the row-by-row ``csv.writer``
(``oracle_write_shot_rows``)."""

import csv
import tracemalloc

import numpy as np
import pytest

from shotarc.core import part_count
from shotarc.factors import shot_factors
from shotarc.ingest import MIN_RANGE_BYTES, _byte_ranges
from shotarc.season import CSV_BLOCK_ROWS, ID_COLUMNS, INTEGER_COLUMNS, SHOT_COLUMNS, ShotRow, \
    ShotsFileError, ShotTable, fit_files, fit_season, read_shot_rows, write_shot_rows
from shotarc.sim import SimConfig, season_tracking, simulate_season, write_season
from shotarc.trajectory import MAX_PADDED_ROWS, FilterThresholds, filter_shots, fit_trajectories, \
    fit_trajectory, padded_blocks
from conftest import assert_matches_chain, assert_season_matches_chain, lstsq_fit, \
    one_shot_chain, oracle_write_shot_rows, parabola_shot, season_chain

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
        want = lstsq_fit(pts, rel)
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
    with pytest.raises(ValueError, match="non-finite"):
        fit_trajectory(pts, rel)
    fitted, _, _ = fit_trajectories([pts[:3]], rel[None, :])   # too thin to be fitted at all
    assert not fitted.any()


@pytest.mark.parametrize("shuffle", [False, True])
def test_corrupted_season_matches_one_shot_chain(shuffle):
    tracking, events, roster = season_tracking(simulate_season(SimConfig(
        seed=5, n_games=3, shots_per_game=80, corrupt_fraction=0.4)))
    if shuffle:   # games interleaved: each shot keeps its place in the output
        order = np.random.default_rng(0).permutation(len(events["shot_id"]))
        events = {name: column[order] for name, column in events.items()}
    fit = fit_season(tracking, events, roster)
    chain = season_chain(tracking, events, roster)
    assert_season_matches_chain(fit, chain)
    assert sum(fit.filtering.rejections.values()) + sum(fit.factor_rejections.values()) + len(
        fit.rows) == len(chain)


def test_fit_files_peak_does_not_grow_with_the_season(tmp_path):
    """On one byte range, twice the games make about the same ``tracemalloc`` peak: the
    range holds a game's rows at a time, not the season's."""
    peaks = []
    for n_games in (6, 12):
        season = tmp_path / f"s{n_games}"
        write_season(simulate_season(SimConfig(n_games=n_games, shots_per_game=100, seed=4)),
                     season)
        tracking = season / "tracking.jsonl"
        size = tracking.stat().st_size
        assert len(_byte_ranges(tracking, part_count(size // MIN_RANGE_BYTES))) == 1
        tracemalloc.start()
        try:
            fit_files(tracking, season / "events.csv", season / "roster.csv")
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] < 1.25 * peaks[0], peaks


def test_shots_file_header_is_the_shot_row_fields(tmp_path):
    assert SHOT_COLUMNS + ("make_prob",) == tuple(ShotRow.__dataclass_fields__)
    empty = tmp_path / "empty.csv"
    empty.write_text(",".join(SHOT_COLUMNS) + "\n")
    with pytest.raises(ShotsFileError, match="holds no shots"):
        read_shot_rows(empty)


# floats that the bulk formatter leaves to repr, and some it formats itself
ODD_FLOATS = (np.nan, np.inf, -np.inf, 1e-5, 1e16, -0.0, 0.0, 5e-324, -1e16, 1e-4, 0.1, 78.0)
FLOAT_COLUMNS = tuple(c for c in SHOT_COLUMNS + ("make_prob",)
                      if c not in ID_COLUMNS + INTEGER_COLUMNS)


def _odd_rows(n: int, has_prob: bool) -> list[ShotRow]:
    """Rows whose ids need quoting (``,``, ``"``, a line break), with empty and set
    flags, and with ``ODD_FLOATS`` among seeded draws in every float column."""
    rng = np.random.default_rng(12)
    rows = []
    for i in range(n):
        floats = rng.normal(size=len(FLOAT_COLUMNS)) * 10.0 ** rng.integers(-3, 4)
        floats[i % len(FLOAT_COLUMNS)] = ODD_FLOATS[i % len(ODD_FLOATS)]
        values = dict(zip(FLOAT_COLUMNS, floats.tolist()))
        if not has_prob:
            values["make_prob"] = None
        rows.append(ShotRow(shot_id=f'T{i},"x\ny' if i % 3 == 0 else f"T{i}", game_id=f"G{i % 4}",
                            shooter_id=f"S,{i % 5}", defender_id=f'D"{i % 6}', outcome=i % 2,
                            n_samples=10 + i % 30, flags="" if i % 2 else "a;b", **values))
    return rows


def _as_table(rows: list[ShotRow], has_prob: bool) -> ShotTable:
    names = SHOT_COLUMNS + (("make_prob",) if has_prob else ())
    dtypes = {c: object for c in ID_COLUMNS} | {c: np.int64 for c in INTEGER_COLUMNS}
    return ShotTable({c: np.array([getattr(r, c) for r in rows], dtype=dtypes.get(c, float))
                      for c in names}, len(rows))


@pytest.mark.parametrize("as_table", [False, True], ids=["shot-rows", "table"])
# whether the rows have make_prob, and whether the file then has that column
@pytest.mark.parametrize("has_prob, writes_prob", [(True, True), (False, False)])
def test_shots_file_bytes_equal_the_row_by_row_csv_writer(tmp_path, as_table, has_prob,
                                                          writes_prob):
    rows = _odd_rows(CSV_BLOCK_ROWS + 300, has_prob)
    given = _as_table(rows, has_prob) if as_table else rows
    got, want = tmp_path / "got.csv", tmp_path / "want.csv"
    write_shot_rows(given, got)
    oracle_write_shot_rows(given, want)
    assert got.read_bytes() == want.read_bytes()
    back = read_shot_rows(got)
    assert list(back.columns) == list(SHOT_COLUMNS) + ["make_prob"] * writes_prob
    for name, column in back.columns.items():
        values = [getattr(r, name) for r in rows]
        if name in ID_COLUMNS:
            assert column.tolist() == values, name
        elif name in INTEGER_COLUMNS:
            assert column.dtype == np.int64 and column.tolist() == values, name
        else:
            assert column.view(np.int64).tolist() == np.array(values).view(np.int64).tolist(), name


@pytest.mark.parametrize("n", [CSV_BLOCK_ROWS + 300, 0], ids=["some-make-prob", "no-rows"])
def test_shot_rows_with_some_make_prob_or_none_equal_the_row_by_row_csv_writer(tmp_path, n):
    rows = _odd_rows(n, has_prob=True)
    for row in rows[::3]:
        row.make_prob = None
    got, want = tmp_path / "got.csv", tmp_path / "want.csv"
    write_shot_rows(rows, got)
    oracle_write_shot_rows(rows, want)
    assert got.read_bytes() == want.read_bytes()
    with got.open(encoding="utf-8", newline="") as fh:
        records = list(csv.reader(fh))
    assert records[0] == list(SHOT_COLUMNS) + ["make_prob"] * bool(rows)
    assert [rec[-1] == "" for rec in records[1:]] == [i % 3 == 0 for i in range(n)]


def test_writing_a_rank_sized_table_holds_a_bounded_set_of_cells(tmp_path):
    # the rank workload's predictions: 25,200 rows of 9 float cells.  Formatted all at
    # once they are ~16 MB of str; row by row through ShotRow objects the writer peaked
    # at 7.6 MiB, and a block at a time it peaks at 1.8 MiB
    n = 25_200
    rng = np.random.default_rng(5)
    columns = {c: rng.normal(size=n) * 30.0 for c in FLOAT_COLUMNS}
    columns |= {c: np.array([f"{c[:2]}{i % 997}" for i in range(n)], dtype=object)
                for c in ID_COLUMNS}
    columns |= {c: rng.integers(0, 40, n) for c in INTEGER_COLUMNS}
    table = ShotTable(columns, n)
    tracemalloc.start()
    try:
        write_shot_rows(table, tmp_path / "preds.csv")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 << 20


def test_every_shot_table_holds_one_type_per_column(tmp_path):
    # the rows fit_season gives, those rows written and read back, and ShotRow objects
    # written and read back: ids str objects, INTEGER_COLUMNS int64, the rest float64
    fitted = fit_season(*season_tracking(simulate_season(
        SimConfig(n_games=2, shots_per_game=30, seed=5)))).rows
    write_shot_rows(fitted, tmp_path / "fit.csv")
    write_shot_rows(_odd_rows(50, True), tmp_path / "rows.csv")
    tables = [fitted, read_shot_rows(tmp_path / "fit.csv"), read_shot_rows(tmp_path / "rows.csv")]
    for table in tables:
        assert set(SHOT_COLUMNS) <= set(table.columns) and len(table) > 0
        for name, values in table.columns.items():
            if name in ID_COLUMNS:
                assert values.dtype == object, name
                assert {type(v) for v in values.tolist()} == {str}, name
            else:
                assert values.dtype == (np.int64 if name in INTEGER_COLUMNS else np.float64), name


def test_a_shot_row_without_make_prob_beside_rows_with_one_gets_an_empty_cell(tmp_path):
    rows = _odd_rows(6, True)
    rows[4].make_prob = None
    got, want = tmp_path / "got.csv", tmp_path / "want.csv"
    write_shot_rows(rows, got)
    oracle_write_shot_rows(rows, want)
    assert got.read_bytes() == want.read_bytes()
    with pytest.raises(ShotsFileError, match="'' to float64 at row 4, column 15"):
        read_shot_rows(got)
