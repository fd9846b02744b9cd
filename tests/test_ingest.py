"""File loading, defender context, and shot-window extraction."""

import csv
import json
import math
import multiprocessing
import os
import subprocess
import sys
from array import array
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import shotarc
from shotarc import core, ingest
from shotarc.cli import fit_season
from shotarc.ingest import (
    MIN_RANGE_BYTES,
    PLAYERS_PER_FRAME,
    EventRecord,
    GameTracking,
    LoadReport,
    IngestError,
    NoOpponentsError,
    NonMonotoneTimestampsError,
    contest_angle,
    extract_shot_events,
    load_events,
    load_roster,
    load_tracking,
    nearest_defender,
)
from shotarc.sim import SimConfig, season_tracking, simulate_season, write_season
from conftest import json_number, oracle_parse_range


def frame_line(game_id="G0", t=0.0, ball=(10.0, 25.0, 8.0), n_players=10):
    players = [{"id": f"P{k}", "team": "A" if k < 5 else "B",
                "x": float(k), "y": float(k)} for k in range(n_players)]
    return json.dumps({"game_id": game_id, "t": t, "ball": list(ball), "players": players})


def row_players(game, i):
    """(ids, teams, x/y) of row ``i`` of a ``GameTracking``, as shot extraction reads them."""
    ids = [game.id_table[j] for j in game.player_ids[i]]
    return ids, [game.team_of[pid] for pid in ids], game.player_xy[i].tolist()


# --- the row-at-a-time loader, kept as the oracle of load_tracking ------------------

def _oracle_parse_row(line):
    doc = json.loads(line)
    players = doc["players"]
    ball = doc["ball"]
    return (
        doc["game_id"],
        json_number(doc["t"]),
        (json_number(ball[0]), json_number(ball[1]), json_number(ball[2])),
        [p["id"] for p in players],
        [p["team"] for p in players],
        [json_number(v) for p in players for v in (p["x"], p["y"])],
    )


class _GameColumns:
    """Typed append-only buffers for one game's accepted frames."""

    def __init__(self, game_id):
        self.game_id = game_id
        self.times = array("d")
        self.ball = array("d")
        self.player_ids = array("h")
        self.player_xy = array("d")
        self.id_table = []
        self.team_of = {}
        self._index = {}

    def append(self, t, ball, ids, teams, xy):
        for pid, team in zip(ids, teams):
            if pid not in self._index:
                self._index[pid] = len(self.id_table)
                self.id_table.append(pid)
                self.team_of[pid] = team
        self.times.append(t)
        self.ball.extend(ball)
        self.player_ids.extend(self._index[pid] for pid in ids)
        self.player_xy.extend(xy)

    def finish(self):
        n = len(self.times)
        return GameTracking(
            game_id=self.game_id,
            times=np.frombuffer(self.times, dtype=np.float64),
            ball=np.frombuffer(self.ball, dtype=np.float64).reshape(n, 3),
            player_ids=np.frombuffer(self.player_ids, dtype=np.int16).reshape(n, PLAYERS_PER_FRAME),
            player_xy=np.frombuffer(self.player_xy, dtype=np.float64).reshape(
                n, PLAYERS_PER_FRAME, 2),
            id_table=self.id_table,
            team_of=self.team_of,
        )


def oracle_load_tracking(path, monotone_tol=1e-9):
    """One pass, one row at a time: each row is checked against its game's last accepted time."""
    games = {}
    n_rows = 0
    reasons = Counter()
    isfinite = math.isfinite

    def accept(parsed):
        game_id, t, ball, ids, teams, xy = parsed
        if len(ids) != PLAYERS_PER_FRAME:
            reasons["wrong_player_count"] += 1
            return
        if not (isfinite(t) and all(map(isfinite, ball)) and all(map(isfinite, xy))):
            reasons["non_finite"] += 1
            return
        if not all(type(v) is str and not ingest._BAD_ID_CHAR.search(v)
                   for v in (game_id, *ids, *teams)):
            reasons["unparseable"] += 1
            return
        game = games.get(game_id)
        if game is None:
            game = games[game_id] = _GameColumns(game_id)
        else:
            prev = game.times[-1]
            if t < prev - monotone_tol:
                raise NonMonotoneTimestampsError(f"game {game_id}: timestamp {t} after {prev}")
            if t <= prev:
                reasons["duplicate_timestamp"] += 1
                return
        game.append(t, ball, ids, teams, xy)

    with open(path, "r", encoding="utf-8", errors="surrogateescape", newline="") as fh:
        for line in fh:
            if not line.strip():
                continue
            n_rows += 1
            try:
                parsed = _oracle_parse_row(line)
            except (ValueError, KeyError, TypeError, IndexError, OverflowError):
                reasons["unparseable"] += 1
                continue
            accept(parsed)

    loaded = {gid: game.finish() for gid, game in games.items()}
    n_loaded = sum(len(g) for g in loaded.values())
    return loaded, LoadReport(n_rows, n_loaded, n_rows - n_loaded, dict(reasons))


def load_with_cuts(path, cuts):
    """``load_tracking`` with the file cut into ranges at the given byte offsets, in-process."""
    size = path.stat().st_size
    bounds = [0, *cuts, size]
    data = path.read_bytes()
    assert all(data[c - 1:c] == b"\n" for c in cuts), "a cut must follow a newline"
    parsed = [ingest._parse_range(path, a, b) for a, b in zip(bounds, bounds[1:])]
    return ingest._apply_time_rules(parsed)


def assert_same_load(got, want):
    """Same games in the same order, bit-identical arrays, same id tables, teams and report."""
    (games, report), (want_games, want_report) = got, want
    assert list(games) == list(want_games)
    for gid, g in games.items():
        w = want_games[gid]
        assert g.game_id == w.game_id
        for name in ("times", "ball", "player_ids", "player_xy"):
            a, b = getattr(g, name), getattr(w, name)
            assert (a.dtype, a.shape) == (b.dtype, b.shape), name
            assert a.tobytes() == b.tobytes(), name
        assert g.id_table == w.id_table
        assert list(g.team_of.items()) == list(w.team_of.items())
    assert report == want_report
    assert all(type(n) is int for n in report.reasons.values())


def line_starts(lines):
    """Byte offset of the start of each line of ``"\n".join(lines) + "\n"``."""
    offsets, pos = [], 0
    for line in lines:
        offsets.append(pos)
        pos += len(line.encode("utf-8")) + 1
    return offsets


class TestLoadTracking:
    def test_empty_file(self, tmp_path):
        p = tmp_path / "t.jsonl"
        p.write_text("")
        games, report = load_tracking(p)
        assert games == {}
        assert report.n_rows == 0

    def test_three_row_parse_echo(self, tmp_path):
        p = tmp_path / "t.jsonl"
        lines = [frame_line(t=0.00, ball=(1.5, 2.5, 3.5)),
                 frame_line(t=0.04, ball=(1.6, 2.6, 3.6)),
                 frame_line(t=0.08, ball=(1.7, 2.7, 3.7))]
        p.write_text("\n".join(lines) + "\n")
        games, report = load_tracking(p)
        assert report.n_loaded == 3 and report.n_rejected == 0
        g = games["G0"]
        assert len(g) == 3
        np.testing.assert_array_equal(g.ball[1], [1.6, 2.6, 3.6])
        assert g.id_table == [f"P{k}" for k in range(10)]
        assert g.player_ids.dtype == np.int16
        np.testing.assert_array_equal(g.player_ids[0], np.arange(10))
        assert g.team_of["P3"] == "A" and g.team_of["P7"] == "B"
        np.testing.assert_array_equal(g.player_xy[0, 3], [3.0, 3.0])

    def test_one_malformed_among_100(self, tmp_path):
        p = tmp_path / "t.jsonl"
        lines = [frame_line(t=i * 0.04) for i in range(100)]
        lines[40] = '{"game_id": "G0", "t": "broken"'
        p.write_text("\n".join(lines) + "\n")
        games, report = load_tracking(p)
        assert report.n_rows == 100
        assert report.n_loaded == 99
        assert report.reasons == {"unparseable": 1}

    def test_wrong_player_count_rejected(self, tmp_path):
        p = tmp_path / "t.jsonl"
        p.write_text(frame_line(n_players=9) + "\n" + frame_line(t=0.04) + "\n")
        games, report = load_tracking(p)
        assert report.reasons == {"wrong_player_count": 1}
        assert len(games["G0"]) == 1

    def test_non_monotone_raises(self, tmp_path):
        p = tmp_path / "t.jsonl"
        p.write_text(frame_line(t=1.0) + "\n" + frame_line(t=0.5) + "\n")
        with pytest.raises(NonMonotoneTimestampsError):
            load_tracking(p)

    def test_non_finite_player_coordinate_rejected(self, tmp_path):
        # a NaN opponent x used to load and make nearest_defender return NDD = NaN
        bad = json.loads(frame_line(t=0.04))
        bad["players"][6]["x"] = float("nan")
        worse = json.loads(frame_line(t=0.08))
        worse["players"][2]["y"] = float("-inf")
        p = tmp_path / "t.jsonl"
        p.write_text("\n".join([frame_line(t=0.0), json.dumps(bad), json.dumps(worse),
                                frame_line(t=0.12)]) + "\n")
        games, report = load_tracking(p)
        assert report.reasons == {"non_finite": 2}
        g = games["G0"]
        np.testing.assert_array_equal(g.times, [0.0, 0.12])
        assert np.isfinite(g.player_xy).all()
        pid, ndd, s, d = nearest_defender(*row_players(g, 0), "P0")
        assert (pid, ndd) == ("P5", pytest.approx(5.0 * math.sqrt(2.0)))
        assert (s, d) == (0, 5)

    def test_unhashable_player_id_unparseable_and_not_interned(self, tmp_path):
        bad = json.loads(frame_line(game_id="G1", t=0.0))
        bad["players"][4]["id"] = ["P4"]
        p = tmp_path / "t.jsonl"
        p.write_text(json.dumps(bad) + "\n" + frame_line(t=0.0) + "\n")
        games, report = load_tracking(p)
        assert report.reasons == {"unparseable": 1}
        assert list(games) == ["G0"]
        assert games["G0"].id_table == [f"P{k}" for k in range(10)]

    def test_number_fields_must_hold_json_numbers(self, tmp_path):
        # float() took all of these: "0.04", "1_000" and " 8e-2 " as numbers, a bool as 0 or 1
        docs = [json.loads(frame_line(t=0.04 * i)) for i in range(8)]
        docs[1]["t"] = "0.04"
        docs[2]["players"][3]["x"] = "1_000"
        docs[3]["t"] = " 8e-2 "
        docs[4]["ball"][1] = True
        docs[5]["players"][9]["y"] = False
        docs[6]["t"], docs[6]["players"][0]["x"] = 1, 0       # ints stay numbers
        docs[7]["players"][2]["id"] = True                    # an id: unparseable as before
        p = tmp_path / "t.jsonl"
        p.write_text("\n".join(map(json.dumps, docs)) + "\n")
        games, report = load_tracking(p)
        assert report.reasons == {"unparseable": 6}
        np.testing.assert_array_equal(games["G0"].times, [0.0, 1.0])
        assert games["G0"].player_xy[1, 0, 0] == 0.0

    def test_integer_too_large_for_float_unparseable(self, tmp_path):
        p = tmp_path / "t.jsonl"
        big = frame_line(t=0.04).replace('"x": 3.0', '"x": 1' + "0" * 400)
        p.write_text(frame_line(t=0.0) + "\n" + big + "\n")
        games, report = load_tracking(p)
        assert report.reasons == {"unparseable": 1}
        assert len(games["G0"]) == 1


# one frame row's fields, addressed as paths into its JSON document
FRAME_FIELDS = (
    [("game_id",), ("t",), ("ball",), ("players",)]
    + [("ball", k) for k in range(3)]
    + [("players", k) for k in range(PLAYERS_PER_FRAME)]
    + [("players", k, key) for k in range(PLAYERS_PER_FRAME) for key in ("id", "team", "x", "y")]
)
JSON_VALUES = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.integers(min_value=-(10**400), max_value=10**400),
    st.text(max_size=4),
    st.sampled_from(["nan", "inf", "-Infinity", "1e999", "3.5", "P3", "A"]),
    st.none(),
    st.booleans(),
    st.lists(st.integers(), max_size=4),
    st.dictionaries(st.text(max_size=2), st.integers(), max_size=2),
)
DELETE = object()
TRUNCATE = object()


class TestLoadTrackingProperties:
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(field=st.sampled_from(FRAME_FIELDS),
           value=st.one_of(JSON_VALUES, st.just(DELETE)),
           position=st.integers(0, 3))
    def test_mutated_field_counted_or_finite(self, tmp_path, field, value, position):
        docs = [json.loads(frame_line(t=i * 0.04)) for i in range(4)]
        parent = docs[position]
        for key in field[:-1]:
            parent = parent[key]
        if value is DELETE:
            if isinstance(parent, list):
                parent.pop(field[-1])
            else:
                del parent[field[-1]]
        else:
            parent[field[-1]] = value
        p = tmp_path / "t.jsonl"
        p.write_text("\n".join(json.dumps(d) for d in docs) + "\n")
        try:
            games, report = load_tracking(p)
        except NonMonotoneTimestampsError:
            assert field == ("t",)
            return
        assert report.n_rows == 4
        assert report.n_rejected == sum(report.reasons.values()) <= 1
        for g in games.values():
            assert len(g) == len(g.ball) == len(g.player_ids) == len(g.player_xy)
            assert np.isfinite(g.times).all()
            assert np.isfinite(g.ball).all()
            assert np.isfinite(g.player_xy).all()
            assert g.ball.shape[1:] == (3,) and g.player_xy.shape[1:] == (PLAYERS_PER_FRAME, 2)


def frame_doc(game_id="G0", t=0.0, **ids):
    """One frame as a dict; ``P3="Q\r"`` replaces player 3's id, ``team3="X"`` its team."""
    doc = json.loads(frame_line(game_id=game_id, t=t))
    for key, value in ids.items():
        k = int(key.lstrip("Pteam"))
        doc["players"][k]["team" if key.startswith("team") else "id"] = value
    return doc


# (rows, the row that follows the forced seam)
SEAM_CASES = {
    "inside_a_game": ([frame_doc("G0", 0.04 * i) for i in range(5)]
                      + [frame_doc("G1", 0.04 * i) for i in range(3)], 2),
    "on_a_duplicate": ([frame_doc(t=0.0), frame_doc(t=0.04), frame_doc(t=0.04),
                        frame_doc(t=0.08)], 2),
    "within_tol_below": ([frame_doc(t=0.0), frame_doc(t=0.04), frame_doc(t=0.04 - 5e-10),
                          frame_doc(t=0.08)], 2),
    # the bad-id row does not move the last accepted time, so 0.08 is kept
    "bad_id_before_good": ([frame_doc(t=0.0), frame_doc(t=0.04), frame_doc(t=0.12, P3="P\r3"),
                            frame_doc(t=0.08), frame_doc(t=0.12)], 2),
    "unhashable_id_before_good": ([frame_doc(t=0.0), frame_doc(t=0.12, P3=["P3"]),
                                   frame_doc(t=0.04)], 1),
    "new_id_holding_cr": ([frame_doc(t=0.0), frame_doc(t=0.04, P9="Q\r"),
                           frame_doc(t=0.04, P9="Q"), frame_doc(t=0.08, P9="Q\udce9")], 1),
    # G1's first row has a bad id, so G2 is loaded before it
    "interleaved": ([frame_doc("G0", 0.0), frame_doc("G1", 0.0, P0="\r"), frame_doc("G2", 0.0),
                     frame_doc("G0", 0.04), frame_doc("G1", 0.04), frame_doc("G2", 0.04),
                     frame_doc("G0", 0.08), frame_doc("G1", 0.08)], 4),
    # an id's team is the one at its first kept appearance
    "team_of_first_kept": ([frame_doc(t=0.0), frame_doc(t=0.0, P9="Z", team9="X"),
                            frame_doc(t=0.04, P9="Z", team9="Y"),
                            frame_doc(t=0.08, P9="Z", team9="X")], 1),
    # an id or team that is not a JSON string fails its row and never moves the last time;
    # game 1 is not merged into game "1"
    "non_string_ids": ([frame_doc("1", 0.0), frame_doc("1", 0.04, P0=7),
                        frame_doc("1", 0.08, P1=7.0), frame_doc("1", 0.12, P2=True),
                        frame_doc("1", 0.16, P3=None), frame_doc("1", 0.2, team4=1),
                        frame_doc(1, 0.24), frame_doc("1", 0.04), frame_doc(1, 0.28)], 5),
    # a bad-id row is unparseable before it could be a duplicate ...
    "bad_id_on_a_duplicate": ([frame_doc(t=0.0), frame_doc(t=0.04), frame_doc(t=0.04, P3=7),
                               frame_doc(t=0.08)], 2),
    # ... or step back far enough to abort the load
    "bad_id_stepping_back": ([frame_doc(t=0.0), frame_doc(t=0.04), frame_doc(t=0.0, P3=7),
                              frame_doc(t=0.08)], 2),
    "game_split_three_ways": ([frame_doc("G0", 0.04 * i) for i in range(6)], 2),
}


def write_rows(tmp_path, docs):
    lines = [json.dumps(d) for d in docs]
    p = tmp_path / "t.jsonl"
    p.write_text("\n".join(lines) + "\n", encoding="utf-8", errors="surrogateescape")
    return p, line_starts(lines)


class TestByteRangeSeams:
    @pytest.mark.parametrize("case", sorted(SEAM_CASES))
    def test_same_load_for_one_two_and_three_ranges(self, tmp_path, case):
        docs, seam = SEAM_CASES[case]
        p, starts = write_rows(tmp_path, docs)
        want = oracle_load_tracking(p)
        after = starts[seam + 1] if seam + 1 < len(starts) else starts[seam - 1]
        for cuts in ([], [starts[seam]], sorted({starts[seam], after}), starts[1:]):
            assert_same_load(load_with_cuts(p, cuts), want)
        assert_same_load(load_tracking(p), want)

    @pytest.mark.parametrize("case, reasons", [("non_string_ids", {"unparseable": 7}),
                                               ("bad_id_on_a_duplicate", {"unparseable": 1}),
                                               ("bad_id_stepping_back", {"unparseable": 1})])
    def test_bad_id_rows_are_unparseable(self, tmp_path, case, reasons):
        games, report = load_tracking(write_rows(tmp_path, SEAM_CASES[case][0])[0])
        assert report.reasons == reasons
        assert all(type(pid) is str for g in games.values() for pid in (g.game_id, *g.id_table))

    def test_backward_step_across_a_seam_raises_the_same_error(self, tmp_path):
        docs = [frame_doc("G0", 0.0), frame_doc("G1", 5.0), frame_doc("G0", 0.04),
                frame_doc("G1", 4.0), frame_doc("G0", 0.01)]
        p, starts = write_rows(tmp_path, docs)
        with pytest.raises(NonMonotoneTimestampsError) as want:
            oracle_load_tracking(p)
        assert str(want.value) == "game G1: timestamp 4.0 after 5.0"
        for cuts in ([], [starts[3]], [starts[2], starts[4]], starts[1:]):
            with pytest.raises(NonMonotoneTimestampsError) as got:
                load_with_cuts(p, cuts)
            assert str(got.value) == str(want.value)

    def test_cuts_follow_newlines_and_cover_the_file(self, tmp_path):
        p, starts = write_rows(tmp_path, [frame_doc(t=0.04 * i) for i in range(7)])
        size = p.stat().st_size
        for n in range(1, 10):
            ranges = ingest._byte_ranges(p, n)
            assert len(ranges) <= n and ranges[0][0] == 0 and ranges[-1][1] == size
            assert all(a < b == c for (a, b), (c, _) in zip(ranges, ranges[1:]))
            assert all(start in starts for start, _ in ranges)

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(field=st.sampled_from(FRAME_FIELDS),
           value=st.one_of(JSON_VALUES, st.just(DELETE)),
           position=st.integers(0, 5),
           seams=st.sets(st.integers(1, 5)))
    def test_mutated_rows_any_cuts_same_as_oracle(self, tmp_path, field, value, position, seams):
        docs = [frame_doc(f"G{i % 2}", 0.04 * (i // 2)) for i in range(6)]
        parent = docs[position]
        for key in field[:-1]:
            parent = parent[key]
        if value is DELETE:
            if isinstance(parent, list):
                parent.pop(field[-1])
            else:
                del parent[field[-1]]
        else:
            parent[field[-1]] = value
        p, starts = write_rows(tmp_path, docs)
        cuts = [starts[i] for i in sorted(seams)]
        try:
            want = oracle_load_tracking(p)
        except NonMonotoneTimestampsError as exc:
            with pytest.raises(NonMonotoneTimestampsError) as got:
                load_with_cuts(p, cuts)
            assert str(got.value) == str(exc)
            return
        got = load_with_cuts(p, cuts)
        assert_same_load(got, want)
        assert sum(got[1].reasons.values()) == got[1].n_rejected


def nan_ball(doc):
    """The frame with a NaN ball z."""
    doc["ball"][2] = float("nan")
    return doc


def reversed_players(doc):
    doc["players"].reverse()
    return doc


def parse_rows(tmp_path, docs, seam):
    """(each range's ``_parse_range``, ``load_tracking``'s result) for the rows in one
    range (``seam`` 0) or in two, the second starting at row ``seam``."""
    p, starts = write_rows(tmp_path, docs)
    cuts = [starts[seam]] if seam else []
    bounds = [0, *cuts, p.stat().st_size]
    return ([ingest._parse_range(p, a, b) for a, b in zip(bounds, bounds[1:])],
            load_with_cuts(p, cuts))


class TestRowPaths:
    """A row is appended before its finite check, and a row repeating its game's previous
    lineup reuses its codes: the result is still that of checking each row in the stated order."""

    @pytest.mark.parametrize("seam", [0, 2])
    def test_non_finite_row_with_a_bad_id_is_non_finite(self, tmp_path, seam):
        docs = [frame_doc(t=0.0), nan_ball(frame_doc(t=0.04, P3=7)),
                nan_ball(frame_doc(1, 0.08)), nan_ball(frame_doc("G\r", 0.08)),
                nan_ball(frame_doc("G1", 0.0, team4="B\r")), frame_doc("G1", 0.04),
                frame_doc(t=0.12)]
        ranges, (games, report) = parse_rows(tmp_path, docs, seam)
        assert report.reasons == {"non_finite": 4}
        assert list(games) == ["G0", "G1"]
        np.testing.assert_array_equal(games["G0"].times, [0.0, 0.12])

    @pytest.mark.parametrize("seam", [0, 1])
    def test_player_named_only_in_a_non_finite_row_is_not_loaded(self, tmp_path, seam):
        docs = [frame_doc(t=0.0), nan_ball(frame_doc(t=0.04, P0="Z", team0="C")),
                frame_doc(t=0.08)]
        ranges, (games, report) = parse_rows(tmp_path, docs, seam)
        assert report.reasons == {"non_finite": 1}
        assert all(("Z", "C") not in part.pairs for rng in ranges for part in rng.parts.values())
        g = games["G0"]
        assert g.id_table == [f"P{k}" for k in range(10)] and "Z" not in g.team_of
        np.testing.assert_array_equal(g.player_ids, [np.arange(10)] * 2)

    @pytest.mark.parametrize("seam", [0, 1])
    def test_non_finite_first_row_recodes_the_pairs(self, tmp_path, seam):
        docs = [nan_ball(frame_doc(t=0.0, P0="Z")), frame_doc(t=0.04), frame_doc(t=0.08)]
        ranges, (games, report) = parse_rows(tmp_path, docs, seam)
        assert report.reasons == {"non_finite": 1}
        part = ranges[-1].parts["G0"]
        assert part.pairs == [(f"P{k}", "AB"[k // 5]) for k in range(10)]
        np.testing.assert_array_equal(part.codes, [np.arange(10)] * 2)
        assert games["G0"].id_table == [f"P{k}" for k in range(10)]

    @pytest.mark.parametrize("seam", [0, 2])
    def test_game_whose_rows_are_all_non_finite_gives_no_part(self, tmp_path, seam):
        docs = [frame_doc("G0", 0.0), nan_ball(frame_doc("G1", 0.0)),
                nan_ball(frame_doc("G1", 0.04)), frame_doc("G0", 0.04)]
        ranges, (games, report) = parse_rows(tmp_path, docs, seam)
        assert [list(rng.parts) for rng in ranges] == [["G0"]] * len(ranges)
        assert list(games) == ["G0"] and report.reasons == {"non_finite": 2}

    @pytest.mark.parametrize("seam", [0, 2])
    def test_same_players_in_a_new_order_get_their_own_codes(self, tmp_path, seam):
        docs = [frame_doc(t=0.0), reversed_players(frame_doc(t=0.04)), frame_doc(t=0.08),
                reversed_players(frame_doc(t=0.12))]
        ranges, (games, report) = parse_rows(tmp_path, docs, seam)
        assert report.reasons == {}
        forward, backward = np.arange(10), np.arange(10)[::-1]
        np.testing.assert_array_equal(np.concatenate([rng.parts["G0"].codes for rng in ranges]),
                                      [forward, backward] * 2)
        g = games["G0"]
        np.testing.assert_array_equal(g.player_ids, [forward, backward] * 2)
        np.testing.assert_array_equal(g.player_xy[1], g.player_xy[0][::-1])
        ids, teams, _ = row_players(g, 1)
        assert ids == [f"P{k}" for k in range(9, -1, -1)] and teams == list("BBBBBAAAAA")

    @pytest.mark.parametrize("seam", [0, 2])
    def test_refused_lineup_keeps_the_previous_codes(self, tmp_path, seam):
        docs = [frame_doc(t=0.0), frame_doc("G1", 0.0), frame_doc(t=0.04, P3=7),
                reversed_players(frame_doc("G1", 0.04)), frame_doc(t=0.06, P3=7),
                frame_doc(t=0.08), frame_doc(t=0.12, P3="Z")]
        ranges, (games, report) = parse_rows(tmp_path, docs, seam)
        assert report.reasons == {"unparseable": 2}
        forward = np.arange(10)
        np.testing.assert_array_equal(games["G0"].player_ids, [forward, forward, [
            0, 1, 2, 10, 4, 5, 6, 7, 8, 9]])
        np.testing.assert_array_equal(games["G1"].player_ids, [forward, forward[::-1]])
        assert games["G0"].id_table[10] == "Z"


# --- the orjson fast path against the json.loads range parse -------------------------

def perf_line(slots):
    """A tracking row in the compact form ``shotarc simulate`` writes, from its 45 literals:
    game id, t, ball x/y/z, then each player's id, team, x, y."""
    game_id, t, bx, by, bz, *players = slots
    body = ",".join(f'{{"id":{pid},"team":{team},"x":{x},"y":{y}}}'
                    for pid, team, x, y in zip(*[iter(players)] * 4))
    return f'{{"game_id":{game_id},"t":{t},"ball":[{bx},{by},{bz}],"players":[{body}]}}'


def perf_slots(i, coords):
    """Row ``i``'s literals: two games alternating at 25 Hz, ``coords`` the 23 floats."""
    ball, xy = coords[:3], coords[3:]
    players = [lit for k in range(PLAYERS_PER_FRAME)
               for lit in (f'"P{k}"', f'"{"AB"[k // 5]}"', repr(xy[2 * k]), repr(xy[2 * k + 1]))]
    return [f'"G{i % 2}"', repr(0.04 * (i // 2)), *map(repr, ball), *players]


DEEP_LINE = b"[" * 3000
BIG_INTS = st.integers(20, 400).flatmap(
    lambda d: st.integers(10 ** (d - 1), 10 ** d - 1)).map(str)
LITERALS = st.one_of(
    st.sampled_from(["NaN", "Infinity", "-Infinity", "1e400", "-1e400", "true", "false",
                     r'"\ud800"', r'"P\ud800"']),
    st.one_of(BIG_INTS, BIG_INTS.map("-".__add__)),
)
BLANKS = st.sampled_from(["", " ", "\t", "　", " 　\t"]).map(str.encode)


@st.composite
def mutated_tracking(draw):
    """(lines of a tracking file without their \n, whether the last has one)."""
    rows = [perf_slots(i, draw(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                                        min_size=23, max_size=23)))
            for i in range(draw(st.integers(1, 6)))]
    for _ in range(draw(st.integers(0, 3))):      # a literal in a number or id position
        row = draw(st.sampled_from(rows))
        row[draw(st.integers(0, len(row) - 1))] = draw(LITERALS)
    lines = [perf_line(row).encode() for row in rows]
    for _ in range(draw(st.integers(0, 3))):      # byte edits and inserted lines
        i = draw(st.integers(0, len(lines) - 1))
        at = draw(st.integers(0, len(lines[i])))
        edit = draw(st.sampled_from([b"\xff", b"\r", b"\r\n", b"blank"]))
        if edit == b"blank":
            lines.insert(i, draw(BLANKS))
        else:
            lines[i] = lines[i][:at] + edit + lines[i][at:]
    if draw(st.booleans()):
        lines.insert(draw(st.integers(0, len(lines))), DEEP_LINE)
    return lines, draw(st.booleans())


def assert_same_parse(got, want):
    """Same row count and reasons, the same games, same pairs, bit-equal columns."""
    assert (got.n_rows, got.reasons) == (want.n_rows, want.reasons)
    assert got.parts.keys() == want.parts.keys()
    for game_id, part in got.parts.items():
        assert part.pairs == want.parts[game_id].pairs
        for a, b in zip(part[:-1], want.parts[game_id][:-1]):   # the array columns
            assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())


class TestOrjsonFastPath:
    @settings(max_examples=400, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(case=mutated_tracking(), cut=st.integers(1, 12))
    def test_same_parse_as_json_loads(self, tmp_path, case, cut):
        lines, newline_at_end = case
        end = b"\n" if newline_at_end else b""
        got, want = tmp_path / "got.jsonl", tmp_path / "want.jsonl"
        got.write_bytes(b"\n".join(lines) + end)
        # json.loads raises RecursionError on the deep line, so the oracle reads in its
        # place a line of the same length that fails without nesting
        want.write_bytes(b"\n".join(b"[" + b" " * (len(ln) - 1) if ln == DEEP_LINE else ln
                                    for ln in lines) + end)
        size = got.stat().st_size
        newlines = [i + 1 for i, byte in enumerate(got.read_bytes()) if byte == ord("\n")]
        at = newlines[cut - 1] if cut <= len(newlines) else size
        for start, stop in ((0, size), (0, at), (at, size)):
            assert_same_parse(ingest._parse_range(got, start, stop),
                              oracle_parse_range(want, start, stop))

    def test_deep_row_is_unparseable(self, tmp_path):
        p = tmp_path / "t.jsonl"
        p.write_bytes(frame_line(t=0.0).encode() + b"\n" + DEEP_LINE + b"\n"
                      + frame_line(t=0.04).encode() + b"\n")
        with pytest.raises(RecursionError):
            oracle_parse_range(p, 0, p.stat().st_size)
        games, report = load_tracking(p)
        assert report.reasons == {"unparseable": 1}
        assert len(games["G0"]) == 2

    def test_long_balanced_nesting_does_not_reach_orjson(self, tmp_path):
        # orjson 3.8 builds such a document recursively and overflows the C stack
        # (SIGSEGV at 150,000 levels on an 8 MB stack); json.loads raises RecursionError
        p = tmp_path / "t.jsonl"
        depth = 200_000
        p.write_bytes(b"[" * depth + b"]" * depth + b"\n" + frame_line(t=0.0).encode() + b"\n")
        assert 2 * depth > ingest.ORJSON_MAX_LINE
        script = ("import sys; from shotarc.ingest import load_tracking; "
                  "print(load_tracking(sys.argv[1])[1].reasons)")
        env = {**os.environ, "PYTHONPATH": str(Path(shotarc.__file__).parents[1])}
        done = subprocess.run([sys.executable, "-c", script, str(p)], capture_output=True,
                              text=True, env=env)
        assert (done.returncode, done.stdout) == (0, "{'unparseable': 1}\n"), done.stderr


@pytest.fixture(scope="module")
def two_range_season(tmp_path_factory):
    """A simulated season whose tracking file is cut into two worker ranges."""
    out = tmp_path_factory.mktemp("big")
    paths = write_season(simulate_season(
        SimConfig(n_games=3, shots_per_game=600, corrupt_fraction=0.1, seed=3)), out)
    assert paths["tracking"].stat().st_size > 2 * MIN_RANGE_BYTES
    return paths["tracking"]


class TestWorkerPool:
    @pytest.fixture(autouse=True)
    def two_cpus(self, monkeypatch):
        monkeypatch.setattr(core, "_cpu_count", lambda: 2)

    def test_two_ranges_one_worker_same_as_oracle(self, two_range_season, monkeypatch):
        ranges = ingest._byte_ranges(two_range_season, 2)
        assert len(ranges) == 2
        jobs = []
        start_workers = ingest.worker_processes

        def recording(target, worker_jobs):
            jobs.extend(worker_jobs)
            return start_workers(target, worker_jobs)

        monkeypatch.setattr(ingest, "worker_processes", recording)
        assert_same_load(load_tracking(two_range_season), oracle_load_tracking(two_range_season))
        assert jobs == [(str(two_range_season), *ranges[1])]
        assert multiprocessing.active_children() == []

    def test_abort_joins_every_worker(self, tmp_path, two_range_season):
        p = tmp_path / "t.jsonl"
        data = two_range_season.read_bytes()
        last = json.loads(data.splitlines()[-1])
        last["t"] -= 1.0
        p.write_bytes(data + json.dumps(last).encode() + b"\n")
        with pytest.raises(NonMonotoneTimestampsError) as want:
            oracle_load_tracking(p)
        with pytest.raises(NonMonotoneTimestampsError) as got:
            load_tracking(p)
        assert str(got.value) == str(want.value)
        assert multiprocessing.active_children() == []

    def test_range_from_a_worker_equals_the_in_process_parse(self, two_range_season):
        ranges = ingest._byte_ranges(two_range_season, 2)
        jobs = [(str(two_range_season), *bounds) for bounds in ranges]
        with core.worker_processes(ingest._range_worker, jobs) as conns:
            got = [ingest._receive_range(conn, *bounds) for conn, bounds in zip(conns, ranges)]
        assert multiprocessing.active_children() == []
        for parsed, bounds in zip(got, ranges):
            want = ingest._parse_range(two_range_season, *bounds)
            assert_same_parse(parsed, want)
            assert list(parsed.parts) == list(want.parts)
            for part in parsed.parts.values():
                assert part.pairs and all(type(pair) is tuple for pair in part.pairs)

    def test_failed_worker_raises_and_is_joined(self, tmp_path):
        ranges = [(0, 1), (1, 2)]
        jobs = [(str(tmp_path / "missing.jsonl"), *bounds) for bounds in ranges]
        with pytest.raises(RuntimeError, match="FileNotFoundError"):
            with core.worker_processes(ingest._range_worker, jobs) as conns:
                for conn, bounds in zip(conns, ranges):
                    ingest._receive_range(conn, *bounds)
        assert multiprocessing.active_children() == []

    def test_parent_parse_failure_terminates_and_joins_the_worker(self, two_range_season,
                                                                   monkeypatch):
        def fail(path, start, end):
            raise OSError("parent could not read its range")

        monkeypatch.setattr(ingest, "_parse_range", fail)    # only this process is patched
        with pytest.raises(OSError, match="parent could not read its range"):
            load_tracking(two_range_season)
        assert multiprocessing.active_children() == []

    def test_parent_abort_terminates_and_joins_every_worker(self, two_range_season, monkeypatch):
        def abort(conn, start, end):
            raise KeyError("parent gave up")

        monkeypatch.setattr(ingest, "_receive_range", abort)
        with pytest.raises(KeyError, match="parent gave up"):
            load_tracking(two_range_season)
        assert multiprocessing.active_children() == []


EVENT_COLUMNS = ["shot_id", "game_id", "shooter_id", "release_frame", "outcome", "hoop_end"]
EVENT_SEASON = season_tracking(simulate_season(
    SimConfig(n_games=2, shots_per_game=3, seed=8, corrupt_fraction=0.3)))
EVENT_VALUES = st.one_of(
    # csv on Python 3.10 rejects a file holding NUL outright, so NUL is left out;
    # the file is written as UTF-8, which cannot encode a lone surrogate
    st.text(alphabet=st.characters(codec="utf-8", exclude_characters="\x00"), max_size=6),
    st.integers(min_value=-(10**30), max_value=10**30).map(str),
    st.floats().map(repr),
    st.integers(-2, max(len(g) for g in EVENT_SEASON[0].values()) + 1).map(str),
    st.sampled_from(["", " ", "1 ", "1e999", "3.0", "0", "1", "2", "left", "right", "center"]
                    + [e.shot_id for e in EVENT_SEASON[1]] + list(EVENT_SEASON[0])
                    + [pid for g in EVENT_SEASON[0].values() for pid in g.id_table]),
)


class TestLoadEventsProperties:
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(column=st.integers(0, len(EVENT_COLUMNS) - 1),
           value=st.one_of(EVENT_VALUES, st.just(DELETE), st.just(TRUNCATE)),
           position=st.integers(0, len(EVENT_SEASON[1]) - 1))
    def test_mutated_field_counted_or_finite(self, tmp_path, column, value, position):
        tracking, events, roster = EVENT_SEASON
        records = [[e.shot_id, e.game_id, e.shooter_id, str(e.release_frame), str(e.outcome),
                    e.hoop_end] for e in events]
        if value is DELETE:
            del records[position][column]
        elif value is TRUNCATE:   # keep one field: csv skips an empty line
            del records[position][max(column, 1):]
        else:
            records[position][column] = value
        p = tmp_path / "e.csv"
        with p.open("w", encoding="utf-8", newline="") as fh:
            # the default "\r\n" terminator makes the writer quote a bare "\r" too
            csv.writer(fh).writerows([EVENT_COLUMNS] + records)
        loaded, report = load_events(p)
        fit = fit_season(tracking, loaded, roster)
        assert report.n_rows == len(records)
        assert sum(report.reasons.values()) == report.n_rejected
        counted = (sum(report.reasons.values()) + sum(fit.extraction.rejections.values())
                   + sum(fit.filtering.rejections.values()) + sum(fit.factor_rejections.values()))
        assert counted + len(fit.rows) == len(records)
        assert np.isfinite(fit.fits["ndd_ft"]).all()
        for r in fit.rows:
            assert all(map(math.isfinite, (r.ndd_ft, r.depth_ft, r.lr_ft, r.entry_angle_deg,
                                           r.rmse_ft)))


class TestRosterAndEvents:
    def test_roster_height_bounds(self, tmp_path):
        p = tmp_path / "r.csv"
        p.write_text("player_id,height_in,position\nA,75.5,G\nB,300,C\nC,59,G\nD\n")
        roster, report = load_roster(p)
        assert set(roster) == {"A"}
        assert report.reasons == {"height_out_of_range": 2, "unparseable": 1}
        assert sum(report.reasons.values()) == report.n_rejected

    def test_roster_height_takes_no_digit_separator(self, tmp_path):
        p = tmp_path / "r.csv"
        p.write_text("player_id,height_in,position\nA,7_0,G\nB,75.5,C\n")
        roster, report = load_roster(p)
        assert [(r.player_id, r.height_in) for r in roster.values()] == [("B", 75.5)]
        assert report.reasons == {"unparseable": 1}

    def test_events_loaded_and_validated(self, tmp_path):
        p = tmp_path / "e.csv"
        p.write_text("shot_id,game_id,shooter_id,release_frame,outcome,hoop_end\n"
                     "s1,G0,P1,10,1,left\n"
                     "s2,G0,P2,frame,0,left\n"
                     "s3,G0,P3,20,2,right\n"
                     "s4,G0\n")
        events, report = load_events(p)
        assert [e.shot_id for e in events] == ["s1"]
        assert report.reasons == {"unparseable": 3}

    def test_integer_fields_take_no_digit_separator(self, tmp_path):
        p = tmp_path / "e.csv"
        p.write_text("shot_id,game_id,shooter_id,release_frame,outcome,hoop_end\n"
                     "s1,G0,P1,1_0,1,left\n"
                     "s2,G0,P2,10,0_1,left\n"
                     "s3,G0,P3, 7 ,1,left\n")
        events, report = load_events(p)
        assert [(e.shot_id, e.release_frame) for e in events] == [("s3", 7)]
        assert report.reasons == {"unparseable": 2}

    def test_duplicate_shot_id_keeps_first(self, tmp_path):
        p = tmp_path / "e.csv"
        p.write_text("shot_id,game_id,shooter_id,release_frame,outcome,hoop_end\n"
                     "s1,G0,P1,10,1,left\n"
                     "s2,G0,P2,20,0,left\n"
                     "s1,G0,P3,30,0,right\n"
                     "s1,G1,P4,40,1,left\n")
        events, report = load_events(p)
        assert [(e.shot_id, e.shooter_id) for e in events] == [("s1", "P1"), ("s2", "P2")]
        assert report.reasons == {"duplicate_shot_id": 2}
        assert (report.n_rows, report.n_loaded, report.n_rejected) == (4, 2, 2)

    def test_duplicate_player_id_keeps_first(self, tmp_path):
        p = tmp_path / "r.csv"
        p.write_text("player_id,height_in,position\n"
                     "D001,80.0,F\n"
                     "D001,70.0,G\n"
                     "S001,75.0,G\n"
                     "S001,300,C\n")   # a rejected row is not a duplicate
        roster, report = load_roster(p)
        assert [(r.player_id, r.height_in) for r in roster.values()] == [("D001", 80.0),
                                                                         ("S001", 75.0)]
        assert report.reasons == {"duplicate_player_id": 1, "height_out_of_range": 1}
        assert (report.n_rows, report.n_loaded, report.n_rejected) == (4, 2, 2)


def nearest_in_row(players, shooter_id):
    """``nearest_defender`` on one row given as (id, team, x, y) entries."""
    return nearest_defender([p[0] for p in players], [p[1] for p in players],
                            [[p[2], p[3]] for p in players], shooter_id)


class TestNearestDefender:
    def test_three_four_five(self):
        pid, ndd, s, d = nearest_in_row([
            ("S", "A", 0.0, 0.0),
            ("D1", "B", 3.0, 4.0),
            ("D2", "B", 10.0, 0.0),
        ] + [(f"X{k}", "A", 50.0, 50.0) for k in range(7)], "S")
        assert pid == "D1"
        assert ndd == pytest.approx(5.0)
        assert (s, d) == (0, 1)

    def test_co_located_opponent(self):
        assert nearest_in_row([("S", "A", 2.0, 2.0), ("D", "B", 2.0, 2.0)], "S") == ("D", 0.0, 0, 1)

    def test_tie_lexicographic(self):
        pid, ndd, s, d = nearest_in_row([
            ("DB", "B", 6.0, 0.0),
            ("S", "A", 0.0, 0.0),
            ("DA", "B", 0.0, 6.0),
        ], "S")
        assert pid == "DA"
        assert ndd == pytest.approx(6.0)
        assert (s, d) == (1, 2)

    def test_no_opponents(self):
        with pytest.raises(NoOpponentsError):
            nearest_in_row([("S", "A", 0.0, 0.0), ("T", "A", 3.0, 3.0)], "S")

    def test_shooter_not_in_row(self):
        with pytest.raises(IngestError, match="not on court"):
            nearest_in_row([("S", "A", 0.0, 0.0), ("D", "B", 3.0, 3.0)], "X")


class TestContestAngle:
    def test_on_segment_zero(self):
        assert contest_angle((0, 0), (5, 0), (20, 0)) == pytest.approx(0.0)

    def test_perpendicular_right(self):
        # shooter faces +x; their right is -y
        assert contest_angle((0, 0), (0, -1), (20, 0)) == pytest.approx(90.0)

    def test_hand_geometry_minus_45(self):
        assert contest_angle((0, 0), (1, 1), (20, 0)) == pytest.approx(-45.0)

    def test_mirror_negates(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            s = rng.uniform(-10, 10, 2)
            d = rng.uniform(-10, 10, 2)
            r = rng.uniform(-10, 10, 2)
            if np.hypot(*(r - s)) < 1e-6 or np.hypot(*(d - s)) < 1e-6:
                continue
            a = contest_angle(tuple(s), tuple(d), tuple(r))
            b = contest_angle((s[0], -s[1]), (d[0], -d[1]), (r[0], -r[1]))
            if abs(a) == pytest.approx(180.0, abs=1e-9):
                continue
            assert b == pytest.approx(-a, abs=1e-9)

    def test_co_located_defender_flagged(self):
        with pytest.raises(Exception):
            contest_angle((1.0, 1.0), (1.0, 1.0), (20.0, 0.0))


@pytest.fixture(scope="module")
def season_files(tmp_path_factory):
    out = tmp_path_factory.mktemp("season")
    cfg = SimConfig(n_games=5, shots_per_game=25, seed=21)
    season = simulate_season(cfg)
    paths = write_season(season, out)
    return season, paths


class TestExtraction:
    def test_round_trip_matches_ground_truth(self, season_files):
        season, paths = season_files
        tracking, _ = load_tracking(paths["tracking"])
        events, _ = load_events(paths["events"])
        roster, _ = load_roster(paths["roster"])
        shots, report = extract_shot_events(tracking, events, roster)
        assert report.rejections == {}
        truth = {r.shot_id: r for r in season.ground_truth}
        assert len(shots) == len(truth)
        for ev in shots:
            t = truth[ev.shot_id]
            assert ev.shooter == t.shooter_id
            assert ev.defender == t.defender_id
            assert ev.ndd_ft == pytest.approx(t.ndd_ft, abs=1e-9)
            assert ev.outcome == t.outcome

    def test_windows_cut_at_rim_plane(self, season_files):
        season, paths = season_files
        tracking, _ = load_tracking(paths["tracking"])
        events, _ = load_events(paths["events"])
        roster, _ = load_roster(paths["roster"])
        shots, _ = extract_shot_events(tracking, events, roster)
        for ev in shots[:40]:
            z = ev.samples[:, 2]
            apex = int(np.argmax(z))
            if z[apex] > 10.0 and z[-1] <= 10.0:
                # descending arrival frame included, nothing beyond it
                assert np.all(z[apex:-1] > 10.0)

    def test_window_cut_one_past_the_first_arrival_after_the_highest_frame(self):
        z = np.array([8.0, 9.5, 10.0, 11.0, 12.0, 11.0, 10.0, 9.0, 8.0, 12.0, 7.0])
        n = len(z)
        game = GameTracking(
            "G0", 0.04 * np.arange(n), np.column_stack([np.full(n, 10.0), np.full(n, 25.0), z]),
            np.tile(np.arange(10, dtype=np.int16), (n, 1)),
            np.tile(np.stack([np.arange(10.0), np.arange(10.0)], axis=1), (n, 1, 1)),
            [f"P{k}" for k in range(10)], {f"P{k}": "A" if k < 5 else "B" for k in range(10)})
        # release frame -> samples kept: an arrival exactly at rim height ends the window,
        # the first of two equal highest frames is the apex, and a window that never
        # rises above the rim is kept whole
        want = {0: 7, 2: 5, 6: 5, 7: 4, 10: 1}
        events = [EventRecord(f"s{i}", "G0", "P0", i, 1, "left") for i in want]
        shots, _ = extract_shot_events({"G0": game}, events, {}, min_samples=1)
        assert [len(ev.samples) for ev in shots] == list(want.values())
        for (first, cut), ev in zip(want.items(), shots):
            assert ev.samples[:, 2].tolist() == z[first:first + cut].tolist()

    def test_insufficient_samples_flagged_not_dropped(self, tmp_path):
        # 3 in-flight frames only
        lines = []
        for i, z in enumerate((8.0, 9.0, 9.5)):
            players = [{"id": f"P{k}", "team": "A" if k < 5 else "B",
                        "x": 30.0 + k, "y": 25.0} for k in range(10)]
            lines.append(json.dumps({"game_id": "G0", "t": i * 0.04,
                                     "ball": [10.0, 25.0, z], "players": players}))
        p = tmp_path / "t.jsonl"
        p.write_text("\n".join(lines) + "\n")
        games, _ = load_tracking(p)
        events = [EventRecord("s1", "G0", "P0", 0, 1, "left")]
        shots, report = extract_shot_events(games, events, {})
        assert len(shots) == 1
        assert "insufficient_samples" in shots[0].flags
        assert report.n_flagged == 1

    @pytest.mark.parametrize("stream_break_s, max_window_s",
                             [(1.0, 3.0), (0.05, 0.5), (0.04, 0.08), (np.inf, np.inf), (1.0, 0.0),
                              (0.25, 0.5)])
    @pytest.mark.parametrize("steps", [
        [0.04, 0.04, 0.04, 0.02, 0.05, 0.08, 1.5, 1e-12],
        [0.125, 0.125, 0.25, 0.375, 1.5],   # exact in binary: windows end on equality
    ], ids=["decimal", "binary"])
    def test_window_ends_as_a_frame_by_frame_scan(self, stream_break_s, max_window_s, steps):
        times = 7.0 + np.cumsum(np.random.default_rng(5).choice(steps, size=400))
        n = len(times)
        game = GameTracking(
            "G0", times, np.tile([10.0, 25.0, 5.0], (n, 1)),   # under the rim: no cut
            np.tile(np.arange(10, dtype=np.int16), (n, 1)),
            np.tile(np.stack([np.arange(10.0), np.arange(10.0)], axis=1), (n, 1, 1)),
            [f"P{k}" for k in range(10)], {f"P{k}": "A" if k < 5 else "B" for k in range(10)})
        events = [EventRecord(f"s{i}", "G0", "P0", i, 1, "left") for i in range(n)]
        shots, _ = extract_shot_events({"G0": game}, events, {}, min_samples=1,
                                       stream_break_s=stream_break_s, max_window_s=max_window_s)
        for i, ev in enumerate(shots):
            hi = i + 1
            while (hi < n and times[hi] - times[hi - 1] <= stream_break_s
                   and times[hi] - times[i] <= max_window_s):
                hi += 1
            assert len(ev.samples) == hi - i
            gap = float(np.max(np.diff(times[i:hi]))) if hi - i >= 2 else 0.0
            assert ev.max_gap_s == gap

    def test_window_end_where_the_rounded_search_overshoots(self):
        # t0 + 0.1 rounds up onto the third time, which lies more than 0.1 s past t0
        t0 = 1.6527635528529094
        times = np.array([t0, t0 + 0.05, 1.7527635528529095, 1.8])
        assert times[2] <= t0 + 0.1 and times[2] - t0 > 0.1
        game = GameTracking(
            "G0", times, np.tile([10.0, 25.0, 5.0], (4, 1)),
            np.tile(np.arange(10, dtype=np.int16), (4, 1)),
            np.tile(np.stack([np.arange(10.0), np.arange(10.0)], axis=1), (4, 1, 1)),
            [f"P{k}" for k in range(10)], {f"P{k}": "A" if k < 5 else "B" for k in range(10)})
        shots, _ = extract_shot_events({"G0": game}, [EventRecord("s0", "G0", "P0", 0, 1, "left")],
                                       {}, min_samples=1, max_window_s=0.1)
        assert len(shots[0].samples) == 2

    def test_release_out_of_range_rejected(self, tmp_path):
        p = tmp_path / "t.jsonl"
        p.write_text(frame_line() + "\n")
        games, _ = load_tracking(p)
        events = [EventRecord("s1", "G0", "P0", 99, 1, "left")]
        shots, report = extract_shot_events(games, events, {})
        assert shots == []
        assert report.rejections == {"release_out_of_range": 1}

    def test_contest_angle_convention_against_simulator(self, season_files):
        # the simulator plants defenders rotated by a known signed angle
        season, paths = season_files
        tracking, _ = load_tracking(paths["tracking"])
        events, _ = load_events(paths["events"])
        roster, _ = load_roster(paths["roster"])
        shots, _ = extract_shot_events(tracking, events, roster)
        angles = np.array([ev.contest_angle_deg for ev in shots])
        assert np.isfinite(angles).all()
        assert np.abs(angles).max() <= 180.0
        # planted distribution is zero-centered with sd 25
        assert abs(np.mean(angles)) < 10.0
