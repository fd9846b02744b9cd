"""Loading tracking/event/roster files and assembling per-shot samples.

File formats (all UTF-8 text, base-10 numerals):

  tracking.jsonl  one frame per line:
                  {"game_id": ..., "t": seconds, "ball": [x, y, z],
                   "players": [{"id", "team", "x", "y"} x 10]}
  events.csv      shot_id, game_id, shooter_id, release_frame, outcome, hoop_end
  roster.csv      player_id, height_in

Malformed rows are counted under a reason and skipped, never fatal;
structurally broken files (missing, unparseable, non-monotone timestamps)
raise.  Bytes that are not UTF-8 are read as lone surrogates, so they fail
the row they sit in rather than the whole load.

A tracking line ends at LF, CR or CR LF.  ``orjson.loads`` parses a line of
up to ``ORJSON_MAX_LINE`` bytes when it can.  Any other line (orjson
rejects ``NaN``, ``Infinity``, float overflow, lone surrogate escapes and
bytes that are not UTF-8) is decoded and parsed by ``json.loads``.  Where
both parse a line the documents are equal, floats bit for bit; only orjson
reads a line nested about 1,000 levels deep or more.  A tracking row is
rejected as ``unparseable`` (it does not parse, or a time, ball coordinate
or player x/y is not a JSON number), then ``wrong_player_count``, then
``non_finite`` (a NaN or infinite number), then ``unparseable`` (a bad
id), then ``duplicate_timestamp``, so every loaded coordinate is finite.  A
tracking game id, player id or team is bad unless it is a JSON string,
and an id in any file is bad if it holds a carriage return or a
surrogate.  An events row repeating an earlier shot id is rejected as
``duplicate_shot_id``, and a roster row repeating an earlier player id as
``duplicate_player_id``; the first occurrence is kept.

Tracking is read in byte ranges.  The file is cut, just after newlines,
into ``core.part_count`` ranges: one per CPU this process may run on, at
most ``MAX_WORKERS`` and only as many as leave each range
``MIN_RANGE_BYTES``.  This process parses the first range itself and a
worker process each other one, applying the checks needing nothing but the
row itself and filling typed per-game column buffers.  Each range reports
the games it holds.  A game that one worker's range alone holds may stay in
that worker (``tracking_ranges``, which ``fit`` uses); every other game comes
to this process, split games as the parts each range parsed.  Each process
then applies the per-game timestamp rules to the games it holds: the last
accepted time before a row is the running maximum of its game's earlier
rows, which makes the result the same wherever the cuts fall, and this
process raises at the first aborting row in file order.  A game that lies
in one range and loses no row keeps the parsed buffers as its
``GameTracking`` arrays; shot extraction reads the release row and the ball
window straight from those arrays.

Events load as columns, the roster as heights.  The events are grouped by
game once, and each game's shots are extracted as columns at a time from
that game's arrays.  A shot's window runs from its tagged release frame to the
first frame at or below rim height after the apex ("the ball reaches the
rim plane"), or until the 25 Hz stream breaks off, in the rim-local frame
of the attacked hoop.  Defender context (nearest defender, its roster
height, and the signed contest angle) is read from the release frame only,
with ``math.hypot`` and ``math.atan2`` taken element by element.
"""

from __future__ import annotations

import csv
import io
import json
import math
import re
from array import array
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from itertools import chain
from operator import itemgetter
from pathlib import Path
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from .core import (
    HOOP_ENDS,
    RIM_HEIGHT_FT,
    GameId,
    PlayerId,
    elementwise,
    part_count,
    receive,
    rim_center_xy,
    to_local_frame,
    worker_processes,
)

if TYPE_CHECKING:
    from multiprocessing.connection import Connection

PLAYERS_PER_FRAME = 10
# a timestamp stepping back by more than this within its game aborts the load
MONOTONE_TOL_S = 1e-9
# a carriage return (which the CSV writers leave unquoted) or a surrogate
# (a byte that is not UTF-8, decoded with "surrogateescape") makes an id unusable
_BAD_ID_CHAR = re.compile("[\r\ud800-\udfff]")


class IngestError(ValueError):
    pass


class NonMonotoneTimestampsError(IngestError):
    pass


@dataclass
class GameTracking:
    """Column-oriented frames of one game (memory-friendly for long seasons)."""

    game_id: GameId
    times: np.ndarray          # (n,)
    ball: np.ndarray           # (n, 3)
    player_ids: np.ndarray     # (n, 10) indices into id_table
    player_xy: np.ndarray      # (n, 10, 2)
    id_table: list[PlayerId]
    team_of: dict[PlayerId, str]

    def __len__(self) -> int:
        return len(self.times)


@dataclass(frozen=True)
class LoadReport:
    n_rows: int
    n_loaded: int
    n_rejected: int
    reasons: dict[str, int] = field(default_factory=dict)


# A second range pays off only when it takes clearly longer to parse than a worker takes
# to start (spawn to the reply for an empty range, numpy imported: 0.15-0.24 s on 2 vCPUs).
# On 2 vCPUs, two ranges loaded a 19 MB file no faster than one, a 38 MB file 1.16x faster.
MIN_RANGE_BYTES = 16 << 20

# orjson 3.8 builds a document recursively with no depth limit (an array nested 150,000
# deep overflowed an 8 MB stack); a line of n bytes nests at most n / 2 deep, and a
# ten-player row is ~0.7 kB, so a line longer than this goes straight to json.loads
ORJSON_MAX_LINE = 8 << 10


class _GamePart(NamedTuple):
    """One game's rows from one byte range that pass every row-local check."""

    row: np.ndarray        # (n,) int64, increasing in file order across ranges
    times: np.ndarray      # (n,)
    ball: np.ndarray       # (n, 3)
    codes: np.ndarray      # (n, 10) int16 indices into ``pairs``
    xy: np.ndarray         # (n, 10, 2)
    pairs: list            # (player id, team) per code, in order of first appearance


class _RangeParse(NamedTuple):
    n_rows: int
    reasons: dict[str, int]
    parts: dict[GameId, _GamePart]


class _GameBuffers:
    """Typed append-only buffers for one game's rows in one byte range.

    Player codes index (player id, team) pairs, not ids: which appearance
    of an id comes first among the rows finally kept is only known once
    the timestamp rules have run, and that appearance fixes the id's team.
    The codes of the previous row's lineup (its pairs in order) are kept, so
    a row that repeats it looks nothing up.  Rows are appended before their
    numbers are checked for finiteness.
    """

    def __init__(self):
        self.row = array("q")
        self.tball = array("d")    # t, ball x, y, z
        self.codes = array("h")
        self.xy = array("d")
        self.pairs: list[tuple[PlayerId, str]] = []
        self._index: dict[tuple[PlayerId, str], int] = {}
        self._lineup = self._codes = None

    def append(self, row: int, tball: array, lineup: tuple, xy: array) -> bool:
        """Append the row; False, appending nothing, if a player id or team is bad."""
        if lineup != self._lineup:
            try:
                codes = array("h", map(self._index.__getitem__, lineup))
            except (KeyError, TypeError):   # a new pair, or one holding an unhashable id
                codes = self._intern(lineup)
                if codes is None:
                    return False
            self._lineup, self._codes = lineup, codes
        self.row.append(row)
        self.tball.extend(tball)
        self.codes.extend(self._codes)
        self.xy.extend(xy)
        return True

    def _intern(self, lineup: tuple) -> array | None:
        """The lineup's codes; None, interning nothing, if an id or team is bad."""
        if not all(map(_good_id, chain.from_iterable(lineup))):
            return None
        index = self._index
        for pair in lineup:
            if pair not in index:
                index[pair] = len(self.pairs)
                self.pairs.append(pair)
        return array("h", map(index.__getitem__, lineup))

    def part(self, reasons: Counter) -> _GamePart | None:
        """The finite rows, None without one; each other row counts as ``non_finite``.
        When a row is dropped, the pairs are recoded by first appearance in those kept."""
        n = len(self.row)
        row = np.frombuffer(self.row, dtype=np.int64)
        tball = np.frombuffer(self.tball).reshape(n, 4)
        codes = np.frombuffer(self.codes, dtype=np.int16).reshape(n, PLAYERS_PER_FRAME)
        xy = np.frombuffer(self.xy).reshape(n, PLAYERS_PER_FRAME, 2)
        finite = np.isfinite(tball).all(axis=1) & np.isfinite(xy).all(axis=(1, 2))
        pairs = self.pairs
        if not finite.all():
            reasons["non_finite"] += int(n - finite.sum())
            row, tball, codes, xy = row[finite], tball[finite], codes[finite], xy[finite]
            order = _first_appearances(codes)
            lut = np.zeros(len(pairs), dtype=np.int16)
            lut[order] = np.arange(len(order))
            codes, pairs = lut[codes], [pairs[code] for code in order]
        if not len(row):
            return None
        return _GamePart(row, tball[:, 0].copy(), tball[:, 1:].copy(), codes, xy, pairs)


class _ByteRange(io.RawIOBase):
    """Bytes ``[start, end)`` of a file as a raw stream."""

    def __init__(self, path: Path, start: int, end: int):
        self._fh = open(path, "rb", buffering=0)
        self._fh.seek(start)
        self._left = end - start

    def readable(self) -> bool:
        return True

    def readinto(self, buffer) -> int:
        n = self._fh.readinto(memoryview(buffer)[:self._left])
        self._left -= n
        return n

    def close(self) -> None:
        self._fh.close()
        super().close()


_PLAYER_ID_TEAM = itemgetter("id", "team")
_PLAYER_XY = itemgetter("x", "y")
_CR, _U, _F = b"\ruf"  # ints: ``int in line`` is a memchr, several times faster than bytes


def _good_id(value) -> bool:
    """A tracking id or team must be a JSON string free of carriage returns and surrogates."""
    return type(value) is str and not _BAD_ID_CHAR.search(value)


def _bool_number(line: bytes, numbers: tuple) -> bool:
    """Whether the row's time or a ball or player coordinate is a JSON bool, which
    ``array("d")`` takes; no key or number holds "u" or "f", so a line without them has none."""
    return (_U in line or _F in line) and bool in map(type, numbers)


_BLANK = object()


def _json_loads(line: bytes):
    """``json.loads`` of the line decoded with ``surrogateescape``: ``_BLANK`` for a blank
    line, None (a row that fails its field lookup) for one that does not parse."""
    text = line.decode("utf-8", "surrogateescape")
    if not text.strip():
        return _BLANK
    try:
        return json.loads(text)
    except (ValueError, RecursionError):
        return None


def _parse_range(path: Path, start: int, end: int) -> _RangeParse:
    """Apply the row-local checks to the lines in bytes ``[start, end)``.

    ``start`` must be 0 or follow a newline.  A row's key is ``start`` plus its
    line number in the range: a range holds fewer lines than bytes, so keys
    increase in file order across ranges.
    """
    import orjson   # here, not above: only this parse uses it, and the import costs ~6 ms
    games: dict[GameId, _GameBuffers] = {}
    n_rows = 0
    reasons: Counter[str] = Counter()
    loads = orjson.loads
    with io.BufferedReader(_ByteRange(path, start, end), 1 << 16) as fh:
        # the binary reader ends lines at \n only; a line holding \r is split the way
        # a text reader splits universal newlines
        lines = chain.from_iterable(line.splitlines() if _CR in line else (line,) for line in fh)
        for row, line in enumerate(lines, start):
            try:
                doc = loads(line) if len(line) <= ORJSON_MAX_LINE else _json_loads(line)
            except ValueError:      # orjson rejects it: json.loads decides
                doc = _json_loads(line)
            if doc is _BLANK:
                continue
            n_rows += 1
            try:    # array("d") converts the numbers in C and takes no string
                players, ball, game_id = doc["players"], doc["ball"], doc["game_id"]
                numbers = (doc["t"], ball[0], ball[1], ball[2],
                           *chain.from_iterable(map(_PLAYER_XY, players)))
                tball, xy = array("d", numbers[:4]), array("d", numbers[4:])
                lineup = tuple(map(_PLAYER_ID_TEAM, players))
            except (KeyError, TypeError, IndexError, OverflowError):
                lineup = None
            if lineup is None or _bool_number(line, numbers):
                reasons["unparseable"] += 1
                continue
            if len(lineup) != PLAYERS_PER_FRAME:
                reasons["wrong_player_count"] += 1
                continue
            game = games.get(game_id) if type(game_id) is str else None
            if game is None and _good_id(game_id):
                game = games[game_id] = _GameBuffers()
            if game is None or not game.append(row, tball, lineup, xy):
                finite = all(map(math.isfinite, numbers))  # non_finite before a bad id
                reasons["unparseable" if finite else "non_finite"] += 1
    # before the reasons are copied: part() counts the non-finite rows it drops
    parts = {gid: part for gid, game in games.items() if (part := game.part(reasons)) is not None}
    return _RangeParse(n_rows, dict(reasons), parts)


def _range_worker(conn: Connection, path: str, start: int, end: int) -> None:
    """Worker process body, one byte range's side of ``tracking_ranges``.

    Parse the range and send the ids of its games; take the set of them left
    to this worker; send each other game as a ``(game_id, _GamePart)`` pair as
    it is popped, then the ``_RangeParse`` emptied of them.  With games left:
    apply the time rules to them, send the ``_Checked``, then answer one
    message ``(fit, *args)`` with ``fit(games, *args)``.
    """
    parsed = _parse_range(Path(path), start, end)
    conn.send(list(parsed.parts))
    left = conn.recv()
    for game_id in [g for g in parsed.parts if g not in left]:
        conn.send((game_id, parsed.parts.pop(game_id)))
    conn.send(parsed._replace(parts={}))
    if left:
        games, checked = _apply_time_rules([parsed])
        conn.send(checked)
        fit, *args = conn.recv()
        conn.send(fit(games, *args))


def _where(start: int, end: int) -> str:
    return f"tracking worker for bytes {start}-{end}"


def _receive_range(conn: Connection, start: int, end: int) -> _RangeParse:
    """The ``_RangeParse`` that ``_range_worker`` sends, the games it sent put back in."""
    parts = {}
    while not isinstance(message := receive(conn, _where(start, end)), _RangeParse):
        game_id, part = message
        parts[game_id] = part
    return message._replace(parts=parts)


def _byte_ranges(path: Path, n: int) -> list[tuple[int, int]]:
    """At most ``n`` contiguous ranges covering the file, each cut just after a newline."""
    size = path.stat().st_size
    cuts = [0]
    with path.open("rb") as fh:
        for k in range(1, n):
            pos = max(size * k // n - 1, cuts[-1])
            fh.seek(pos)
            while chunk := fh.read(1 << 16):
                newline = chunk.find(b"\n")
                if newline >= 0:
                    pos += newline + 1
                    break
                pos += len(chunk)
            if cuts[-1] < pos < size:
                cuts.append(pos)
    return list(zip(cuts, cuts[1:] + [size]))


def _first_appearances(codes: np.ndarray) -> list[int]:
    """The distinct values of ``codes`` in row-major order of first appearance."""
    values, first = np.unique(codes.ravel(), return_index=True)
    return values[np.argsort(first)].tolist()


def _assemble(game_id: GameId, parts: list[_GamePart], keep: np.ndarray) -> GameTracking:
    """One game's kept rows, with player ids coded by first appearance among them."""
    id_table: list[PlayerId] = []
    team_of: dict[PlayerId, str] = {}
    index: dict[PlayerId, int] = {}
    pieces = []
    for part, kept in zip(parts, np.split(keep, np.cumsum([len(p.times) for p in parts[:-1]]))):
        whole = bool(kept.all())
        codes = part.codes if whole else part.codes[kept]
        # with every row kept, the pairs are already in order of first appearance
        lut = np.zeros(len(part.pairs), dtype=np.intp)
        for code in (range(len(part.pairs)) if whole else _first_appearances(codes)):
            pid, team = part.pairs[code]
            if pid not in index:
                index[pid] = len(id_table)
                id_table.append(pid)
                team_of[pid] = team
            lut[code] = index[pid]
        pieces.append((part, None if whole else kept, codes, lut))
    if len(id_table) > 1 << 15:
        raise OverflowError(f"game {game_id}: more than {1 << 15} player ids")

    part, kept, codes, lut = pieces[0]
    if len(pieces) == 1 and kept is None and np.array_equal(lut, np.arange(len(lut))):
        # a game in one range that lost no row keeps the parsed buffers
        return GameTracking(game_id=game_id, times=part.times, ball=part.ball,
                            player_ids=part.codes, player_xy=part.xy,
                            id_table=id_table, team_of=team_of)

    def column(name: str) -> np.ndarray:
        return np.concatenate([getattr(p, name) if k is None else getattr(p, name)[k]
                               for p, k, _, _ in pieces])
    return GameTracking(
        game_id=game_id,
        times=column("times"),
        ball=column("ball"),
        player_ids=np.concatenate([lut[c] for _, _, c, lut in pieces]).astype(np.int16),
        player_xy=column("xy"),
        id_table=id_table,
        team_of=team_of,
    )


class _Checked(NamedTuple):
    """What the timestamp rules found in the games one process holds."""

    n_loaded: int
    n_duplicate: int
    abort: tuple[int, str] | None   # the first aborting row in file order, and its message


def _apply_time_rules(parsed: list[_RangeParse]) -> tuple[dict[GameId, GameTracking], _Checked]:
    """Join the ranges' game parts, in file order, under the per-game timestamp rules.

    In a game, accepted times strictly increase and a duplicate never
    exceeds the last accepted time, so the last accepted time before row i
    is the running maximum M_i of the game's earlier rows.  Row i aborts the
    load when t < M_i - MONOTONE_TOL_S and is a ``duplicate_timestamp`` when
    t <= M_i.  With an aborting row no game is assembled.  A game's first
    row is always kept, so games come in order of their first rows.
    """
    by_game: dict[GameId, list[_GamePart]] = {}
    for rng in parsed:
        for game_id, part in rng.parts.items():
            by_game.setdefault(game_id, []).append(part)
        rng.parts.clear()   # so a game rebuilt below frees its parts

    kept: list[tuple[int, GameId, np.ndarray]] = []
    abort = None
    n_duplicate = 0
    for game_id, parts in by_game.items():
        times = np.concatenate([p.times for p in parts])
        before = np.empty_like(times)
        before[0] = -np.inf
        np.maximum.accumulate(times[:-1], out=before[1:])
        backward = np.flatnonzero(times < before - MONOTONE_TOL_S)
        rows = np.concatenate([p.row for p in parts])
        if backward.size:
            i = backward[0]
            if abort is None or rows[i] < abort[0]:
                abort = (int(rows[i]), f"game {game_id}: timestamp {float(times[i])} "
                                       f"after {float(before[i])}")
            continue
        keep = times > before
        n_duplicate += int(keep.size - keep.sum())
        kept.append((int(rows[0]), game_id, keep))
    if abort is not None:
        return {}, _Checked(0, n_duplicate, abort)

    games = {game_id: _assemble(game_id, by_game.pop(game_id), keep)
             for _, game_id, keep in sorted(kept, key=itemgetter(0))}
    return games, _Checked(sum(map(len, games.values())), n_duplicate, None)


def _load_report(parsed: list[_RangeParse], checked: list[_Checked]) -> LoadReport:
    """The load's report from every range's parse and every process's time rules;
    ``NonMonotoneTimestampsError`` at the first aborting row in file order."""
    abort = min((c.abort for c in checked if c.abort is not None), default=None)
    if abort is not None:
        raise NonMonotoneTimestampsError(abort[1])
    reasons: Counter[str] = Counter()
    for rng in parsed:
        reasons.update(rng.reasons)
    if n_duplicate := sum(c.n_duplicate for c in checked):
        reasons["duplicate_timestamp"] += n_duplicate
    n_rows = sum(rng.n_rows for rng in parsed)
    n_loaded = sum(c.n_loaded for c in checked)
    return LoadReport(n_rows=n_rows, n_loaded=n_loaded, n_rejected=n_rows - n_loaded,
                      reasons=dict(reasons))


@contextmanager
def tracking_ranges(path: str | Path, leave_games: bool):
    """Load tracking as ``load_tracking`` does, with its workers kept running: yields
    the games this process holds, the load's report, and each worker left holding
    games as ``(conn, where, game_ids)``.

    Without ``leave_games`` every game comes to this process and no worker is
    left.  With it, each game that one worker's range alone holds stays in
    that worker, which applies the time rules to it; the load's report still
    counts every row.  Such a worker then waits for one message ``(fit,
    *args)``, sent with ``conn.send``, and answers it with ``fit(games,
    *args)``, read with ``core.receive(conn, where)``; ``fit`` must be a
    module-level function.  Every worker has been joined when the block exits.
    """
    path = Path(path)
    first, *rest = _byte_ranges(path, part_count(path.stat().st_size // MIN_RANGE_BYTES))
    wheres = [_where(*bounds) for bounds in rest]
    with worker_processes(_range_worker, [(str(path), *bounds) for bounds in rest]) as conns:
        parsed = [_parse_range(path, *first)]
        held = [receive(conn, where) for conn, where in zip(conns, wheres)]
        n_ranges = Counter(chain(parsed[0].parts, *held))
        left = [{g for g in ids if n_ranges[g] == 1} if leave_games else set() for ids in held]
        for conn, games in zip(conns, left):
            conn.send(games)
        parsed += [_receive_range(conn, *bounds) for conn, bounds in zip(conns, rest)]
        checked = [receive(conn, where) for conn, where, games in zip(conns, wheres, left) if games]
        games, mine = _apply_time_rules(parsed)
        report = _load_report(parsed, [mine, *checked])
        yield games, report, [worker for worker in zip(conns, wheres, left) if worker[2]]


def load_tracking(path: str | Path) -> tuple[dict[GameId, GameTracking], LoadReport]:
    """Load JSONL tracking frames grouped by game, preserving within-game time order.

    Each row is checked in this order and, on the first failure, counted
    under the reason named and skipped: it fails to parse, or its time or a
    ball or player coordinate is a string, a bool or too large for a float
    (``unparseable``), it has other than ten players (``wrong_player_count``),
    one of those numbers is NaN or infinite (``non_finite``), its
    ``game_id``, a player ``id`` or a ``team`` is not a JSON string or holds
    a carriage return or a surrogate (``unparseable``), or it repeats its
    game's last accepted timestamp (``duplicate_timestamp``).  A row passing
    the checks before that one, whose timestamp steps backwards by more than
    ``MONOTONE_TOL_S`` within its game, aborts the load.

    The file is cut into ``core.part_count(size // MIN_RANGE_BYTES)`` byte
    ranges.  This process parses the first range itself and a worker
    process each other one, so a file under ``2 * MIN_RANGE_BYTES`` starts
    no process.  Each worker sends back every game of its range, and this
    process applies the time rules to all of them (``tracking_ranges``
    without ``leave_games``); the workers are joined before this returns or
    raises.  They are started by ``multiprocessing``'s spawn method, which
    imports the caller's main module in each worker: a script that calls
    this with a larger file must keep its own work under
    ``if __name__ == "__main__":``.
    """
    with tracking_ranges(path, leave_games=False) as (games, report, _):
        return games, report


def _clean_id(value: str) -> str:
    """The stripped id; ValueError on a carriage return or a surrogate."""
    value = value.strip()
    if _BAD_ID_CHAR.search(value):
        raise ValueError("carriage return or surrogate in id")
    return value


def _load_csv(path: str | Path, parse, key: str) -> tuple[dict, LoadReport]:
    """``parse``'s (key, value) of each row of a CSV file, as a dict: a row that
    ``parse`` raises on is ``unparseable``, one it returns a reason for is counted
    under it, and a row repeating a key kept before is ``duplicate_<key>``."""
    records: dict = {}
    reasons: Counter[str] = Counter()
    n_rows = 0
    with Path(path).open("r", encoding="utf-8", errors="surrogateescape", newline="") as fh:
        for row in csv.DictReader(fh):
            n_rows += 1
            try:
                record = parse(row)
            except (KeyError, ValueError, TypeError, AttributeError):
                reasons["unparseable"] += 1
                continue
            if isinstance(record, str):
                reasons[record] += 1
            elif record[0] in records:
                reasons[f"duplicate_{key}"] += 1
            else:
                records[record[0]] = record[1]
    return records, LoadReport(n_rows, len(records), n_rows - len(records), dict(reasons))


def _roster_height(row: dict) -> tuple[PlayerId, float] | str:
    if "_" in row["height_in"]:     # float() takes digit separators
        raise ValueError("'_' in height_in")
    pid = _clean_id(row["player_id"])
    height = float(row["height_in"])
    if not pid:
        return "empty_id"
    if not 60.0 <= height <= 96.0:
        return "height_out_of_range"
    return pid, height


def load_roster(path: str | Path) -> tuple[dict[PlayerId, float], LoadReport]:
    """Each player's height in inches by player id; heights outside [60, 96] inches are
    rejected, and of the rows left the first of each id is kept (later: ``duplicate_player_id``)."""
    return _load_csv(path, _roster_height, "player_id")


EVENT_COLUMNS = ("shot_id", "game_id", "shooter_id", "release_frame", "outcome", "hoop_end")


def event_columns(rows) -> dict[str, np.ndarray]:
    """Events as ``load_events`` returns them, from one tuple of ``EVENT_COLUMNS`` per event."""
    table = np.array(list(rows), dtype=object).reshape(-1, len(EVENT_COLUMNS)).T
    return {name: column.astype(np.int64) if name in ("release_frame", "outcome") else column
            for name, column in zip(EVENT_COLUMNS, table)}


def _event(row: dict) -> tuple[str, tuple]:
    if "_" in row["release_frame"] + row["outcome"]:    # int() takes digit separators
        raise ValueError("'_' in an integer field")
    outcome = int(row["outcome"])
    if outcome not in (0, 1):
        raise ValueError("outcome must be 0/1")
    frame = int(row["release_frame"])
    shot_id = _clean_id(row["shot_id"])
    # a frame below 0 or beyond int64 is kept as -1, so extraction counts it out of range
    return shot_id, (shot_id, _clean_id(row["game_id"]), _clean_id(row["shooter_id"]),
                     frame if 0 <= frame < 1 << 63 else -1, outcome, row["hoop_end"].strip())


def load_events(path: str | Path) -> tuple[dict[str, np.ndarray], LoadReport]:
    """Shot events as columns keyed by ``EVENT_COLUMNS``, the ``events.csv`` header, in file
    order: ``release_frame`` and ``outcome`` int64, the others object arrays of str (a
    fixed-width str array would widen every row to its longest value).  A shot id seen
    before is ``duplicate_shot_id``; the first parseable row of each shot id is kept."""
    events, report = _load_csv(path, _event, "shot_id")
    return event_columns(events.values()), report


# --- shot extraction -------------------------------------------------------------

@dataclass(frozen=True)
class ExtractionReport:
    n_events: int
    n_extracted: int
    rejections: dict[str, int] = field(default_factory=dict)
    n_flagged: int = 0


# a shot's flags, joined by ";" in this order; _FLAG_SETS[mask] holds those whose bit is set
_FLAGS = ("insufficient_samples", "contest_angle_undefined", "defender_height_missing")
_FLAG_SETS = tuple(";".join(f for j, f in enumerate(_FLAGS) if mask >> j & 1) for mask in range(8))


def _degrees_atan2(y: float, x: float) -> float:
    return math.degrees(math.atan2(y, x))


def _local(points, left: np.ndarray) -> np.ndarray:
    """Court-frame points (3, n) in the frame of the left rim where ``left``, else the right."""
    return np.where(left, to_local_frame(points, "left"), to_local_frame(points, "right"))


_NUMBERS = ("ndd_ft", "defender_height_in", "contest_angle_deg", "n_samples", "flag_set",
            "max_gap_s", "release_x", "release_y")


def _game_shots(game: GameTracking, first: np.ndarray, left: np.ndarray, shooters: np.ndarray,
                roster: dict[PlayerId, float], min_samples: int, stream_break_s: float,
                max_window_s: float):
    """The shots by ``shooters`` released at rows ``first`` toward the left hoop where ``left``:
    each one's rejection reason ("" if extracted), ``_NUMBERS`` (k, 8), defender code and
    ball samples; for a rejected shot all but the reason are meaningless."""
    at = np.arange(len(first))
    codes, xy = game.player_ids[first], game.player_xy[first]
    # the shooter's first slot; the opponents are the players of another team
    code_of = {pid: code for code, pid in enumerate(game.id_table)}
    is_shooter = codes == np.array([code_of.get(pid, -1) for pid in shooters.tolist()])[:, None]
    s = is_shooter.argmax(axis=1)
    team = np.array([game.team_of[pid] for pid in game.id_table], dtype=object)[codes]
    opponent = team != team[at, s][:, None]
    # the nearest opponent: least distance, then the lexicographically smaller id, then slot
    shooter_xy = xy[at, s]
    dist = elementwise(math.hypot, *np.moveaxis(xy - shooter_xy[:, None], 2, 0))
    rank = np.argsort(sorted(range(len(game.id_table)), key=game.id_table.__getitem__))
    slot = np.broadcast_to(np.arange(codes.shape[1]), codes.shape)
    d = np.lexsort((slot, rank[codes], dist, ~opponent))[:, 0]
    reason = np.where(~is_shooter.any(axis=1), "shooter_not_on_court",
                      np.where(opponent[at, d], "", "no_defender"))
    defender = codes[at, d]

    # the signed contest angle, defender to the shooter's right positive, in (-180, 180]
    rim = np.where(left[:, None], rim_center_xy("left"), rim_center_xy("right"))
    (ux, vx), (uy, vy) = np.moveaxis([rim - shooter_xy, xy[at, d] - shooter_xy], 2, 0)
    undefined = (elementwise(math.hypot, (ux, vx), (uy, vy)) < 1e-12).any(axis=0)
    angle = elementwise(_degrees_atan2, -(ux * vy - uy * vx), ux * vx + uy * vy)
    angle[undefined] = np.nan
    height = np.array([roster.get(pid, np.nan) for pid in game.id_table])[defender]

    # window: from the release to a stream break or past max_window_s, whichever is first
    times = game.times
    gaps = np.diff(times)
    breaks = np.append(np.flatnonzero(~(gaps <= stream_break_s)) + 1, len(times))
    end = breaks[np.searchsorted(breaks, first + 1)]
    t0 = times[first]
    hi = np.clip(np.searchsorted(times, t0 + max_window_s, side="right"), first + 1, end)
    # times increase, so times[h] - t0 <= max_window_s holds for a prefix of the rows after
    # the release: the search finds its end up to the rounding of t0 + max_window_s
    while True:
        back = (hi > first + 1) & (times[hi - 1] - t0 > max_window_s)
        ahead = (hi < end) & (times[np.minimum(hi, len(times) - 1)] - t0 <= max_window_s)
        if not (back.any() or ahead.any()):
            break
        hi += ahead.astype(np.intp) - back
    # then cut one past the first frame at or below the rim plane after the highest
    # (the first of equal highest); a window never above the rim plane is kept whole
    n = hi - first
    start = np.cumsum(n) - n
    pos = np.arange(n.sum()) - np.repeat(start, n)
    z = game.ball[np.repeat(first, n) + pos, 2]
    top = np.maximum.reduceat(z, start)
    apex = np.minimum.reduceat(np.where(z == np.repeat(top, n), pos, len(z)), start)
    down = (z <= RIM_HEIGHT_FT) & (pos > np.repeat(apex, n))
    cut = np.where(top > RIM_HEIGHT_FT,
                   np.minimum.reduceat(np.where(down, pos + 1, np.repeat(n, n)), start), n)

    start = np.cumsum(cut) - cut
    rows = np.repeat(first - start, cut) + np.arange(cut.sum())
    step = np.append(gaps, -np.inf)[rows]
    step[start + cut - 1] = -np.inf     # no step after a window's last sample
    max_gap = np.where(cut >= 2, np.maximum.reduceat(step, start), 0.0)
    samples = np.split(_local(game.ball[rows].T, np.repeat(left, cut)).T.copy(), start[1:])
    release = _local((shooter_xy[:, 0], shooter_xy[:, 1], np.zeros(len(at))), left)
    flag_set = (cut < min_samples) + 2 * undefined + 4 * np.isnan(height)
    numbers = np.column_stack([dist[at, d], height, angle, cut, flag_set, max_gap, *release[:2]])
    return reason, numbers, defender, samples


def extract_shot_events(
    tracking: dict[GameId, GameTracking],
    events: dict[str, np.ndarray],
    roster: dict[PlayerId, float],
    min_samples: int = 5,
    stream_break_s: float = 1.0,
    max_window_s: float = 3.0,
) -> tuple[dict, ExtractionReport]:
    """The shots of tagged releases as columns, from the event columns and heights
    that ``load_events`` and ``load_roster`` return, one game's shots at a time.

    A window ends at the first descending rim-plane arrival, at a break in
    the 25 Hz stream (gap > ``stream_break_s``), or after ``max_window_s``.
    Each game's times must increase, as ``load_tracking`` leaves them.
    Shots are rejected when their game, release frame or hoop end is unknown,
    the shooter is off court, or no opponent is on court; thin windows are
    only flagged (``insufficient_samples``) so callers can report them.

    The shots come in event order as a dict of columns: ``shot_id``,
    ``game_id`` and ``shooter_id`` (slices of the event columns),
    ``defender_id``, ``ndd_ft``, ``defender_height_in`` (NaN off the
    roster), ``contest_angle_deg`` (NaN where undefined), ``outcome``,
    ``n_samples`` and ``flags`` (";"-joined); the ids and flags are object
    arrays of str, so one long id widens no other row; ``max_gap_s``, the
    largest step between sample times (0 below two samples); ``samples``, a
    list of each shot's (n, 3) ball samples in the rim-local frame; and
    ``release_xy`` (k, 2), the shooter's rim-local position.
    """
    frame, n = events["release_frame"], len(events["release_frame"])
    names, game_code = np.unique(events["game_id"], return_inverse=True)
    games = [tracking.get(name) for name in names.tolist()]
    n_frames = np.array([-1 if g is None else len(g) for g in games], dtype=np.int64)[game_code]
    reasons = np.select(
        [n_frames < 0, (frame < 0) | (frame >= n_frames), ~np.isin(events["hoop_end"], HOOP_ENDS)],
        ["unknown_game", "release_out_of_range", "unknown_hoop_end"], "")

    numbers, defender, samples = np.empty((n, len(_NUMBERS))), [None] * n, [None] * n
    ok = np.flatnonzero(reasons == "")
    by_game = ok[np.argsort(game_code[ok], kind="stable")]
    for idx in filter(len, np.split(by_game, np.flatnonzero(np.diff(game_code[by_game])) + 1)):
        game = games[game_code[idx[0]]]
        reasons[idx], numbers[idx], codes, windows = _game_shots(
            game, frame[idx], events["hoop_end"][idx] == "left", events["shooter_id"][idx],
            roster, min_samples, stream_break_s, max_window_s)
        for i, code, window in zip(idx.tolist(), codes.tolist(), windows):
            defender[i], samples[i] = game.id_table[code], window

    keep = np.flatnonzero(reasons == "")
    ndd, height, angle, n_samples, flag_set, max_gap, *release = numbers[keep].T.copy()
    shots = {
        **{name: events[name][keep] for name in ("shot_id", "game_id", "shooter_id")},
        "defender_id": np.array([defender[i] for i in keep.tolist()], dtype=object),
        "ndd_ft": ndd,
        "defender_height_in": height,
        "contest_angle_deg": angle,
        "outcome": events["outcome"][keep],
        "n_samples": n_samples.astype(np.int64),
        "flags": np.array([_FLAG_SETS[int(m)] for m in flag_set.tolist()], dtype=object),
        "max_gap_s": max_gap,
        "samples": [samples[i] for i in keep.tolist()],
        "release_xy": np.column_stack(release),
    }
    return shots, ExtractionReport(n, len(keep), dict(Counter(filter(None, reasons.tolist()))),
                                   int(np.count_nonzero(flag_set)))
