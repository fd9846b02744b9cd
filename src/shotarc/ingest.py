"""Loading tracking/event/roster files and assembling per-shot samples.

File formats (all UTF-8 text, base-10 numerals):

  tracking.jsonl  one frame per line:
                  {"game_id": ..., "t": seconds, "ball": [x, y, z],
                   "players": [{"id", "team", "x", "y"} x 10]}
  events.csv      shot_id, game_id, shooter_id, release_frame, outcome, hoop_end
  roster.csv      player_id, height_in, position

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

Tracking is read in two phases.  First the file is cut, just after
newlines, into ``core.part_count`` byte ranges: one per CPU this process
may run on, at most ``MAX_WORKERS`` and only as many as leave each range
``MIN_RANGE_BYTES``.  This process parses the first range itself and a
worker process each other one, applying the checks needing nothing but
the row itself and filling typed per-game column buffers.  Then this
process applies the per-game timestamp rules to all ranges at once: the
last accepted time before a row is the running maximum of its game's
earlier rows, which makes the result the same wherever the cuts fall.  A
game that lies in one range and loses no row keeps the parsed buffers as
its ``GameTracking`` arrays; shot extraction reads the release row and
the ball window straight from those arrays.

Shot windows run from the tagged release frame to the first frame at or
below rim height after the apex ("the ball reaches the rim plane"), or
until the 25 Hz stream breaks off.  Ball samples are converted to the
rim-local frame of the attacked hoop.  Defender context (nearest defender,
its roster height, and the signed contest angle) is evaluated at the
release frame only.
"""

from __future__ import annotations

import csv
import io
import json
import math
import re
from array import array
from collections import Counter
from dataclasses import dataclass, field
from itertools import chain
from operator import itemgetter
from pathlib import Path
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from .core import (
    RIM_HEIGHT_FT,
    GameId,
    PlayerId,
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


class NoOpponentsError(IngestError):
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
    """Worker process body: parse one range and send it back, each game as a
    ``(game_id, _GamePart)`` pair as it is popped, then the emptied ``_RangeParse``."""
    parsed = _parse_range(Path(path), start, end)
    for game_id in list(parsed.parts):
        conn.send((game_id, parsed.parts.pop(game_id)))
    conn.send(parsed)


def _receive_range(conn: Connection, start: int, end: int) -> _RangeParse:
    """The ``_RangeParse`` that ``_range_worker`` sends, its games put back in."""
    where = f"tracking worker for bytes {start}-{end}"
    parts = {}
    while not isinstance(message := receive(conn, where), _RangeParse):
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


def _apply_time_rules(parsed: list[_RangeParse]) -> tuple[dict[GameId, GameTracking], LoadReport]:
    """Join the ranges' game parts, in file order, under the per-game timestamp rules.

    In a game, accepted times strictly increase and a duplicate never
    exceeds the last accepted time, so the last accepted time before row i
    is the running maximum M_i of the game's earlier rows.  Row i aborts the
    load when t < M_i - MONOTONE_TOL_S and is a ``duplicate_timestamp`` when
    t <= M_i.  The load raises at the first aborting row in file order.  A
    game's first row is always kept, so games come in order of their first
    rows.
    """
    reasons: Counter[str] = Counter()
    by_game: dict[GameId, list[_GamePart]] = {}
    for rng in parsed:
        reasons.update(rng.reasons)
        for game_id, part in rng.parts.items():
            by_game.setdefault(game_id, []).append(part)
        rng.parts.clear()   # so a game rebuilt below frees its parts

    kept: list[tuple[int, GameId, np.ndarray]] = []
    abort = None
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
                abort = (rows[i], f"game {game_id}: timestamp {float(times[i])} "
                                  f"after {float(before[i])}")
            continue
        keep = times > before
        if not keep.all():
            reasons["duplicate_timestamp"] += int(keep.size - keep.sum())
        kept.append((int(rows[0]), game_id, keep))
    if abort is not None:
        raise NonMonotoneTimestampsError(abort[1])

    games = {game_id: _assemble(game_id, by_game.pop(game_id), keep)
             for _, game_id, keep in sorted(kept, key=itemgetter(0))}
    n_rows = sum(rng.n_rows for rng in parsed)
    n_loaded = sum(len(g) for g in games.values())
    return games, LoadReport(n_rows=n_rows, n_loaded=n_loaded, n_rejected=n_rows - n_loaded,
                             reasons=dict(reasons))


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
    no process; the workers are joined before this returns or raises.
    They are started by ``multiprocessing``'s spawn method, which imports
    the caller's main module in each worker: a script that calls this with
    a larger file must keep its own work under ``if __name__ == "__main__":``.
    """
    path = Path(path)
    first, *rest = _byte_ranges(path, part_count(path.stat().st_size // MIN_RANGE_BYTES))
    with worker_processes(_range_worker, [(str(path), *bounds) for bounds in rest]) as conns:
        parsed = [_parse_range(path, *first)]
        parsed += [_receive_range(conn, *bounds) for conn, bounds in zip(conns, rest)]
    return _apply_time_rules(parsed)


def _clean_id(value: str) -> str:
    """The stripped id; ValueError on a carriage return or a surrogate."""
    value = value.strip()
    if _BAD_ID_CHAR.search(value):
        raise ValueError("carriage return or surrogate in id")
    return value


@dataclass(frozen=True)
class RosterRecord:
    player_id: PlayerId
    height_in: float
    position: str


def _load_csv(path: str | Path, parse, key: str) -> tuple[dict, LoadReport]:
    """``parse``'s record of each row of a CSV file, by its ``key`` field: a row that
    ``parse`` raises on is ``unparseable``, one it returns a reason for is counted
    under it, and a record repeating a key kept before is ``duplicate_<key>``."""
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
            elif (value := getattr(record, key)) in records:
                reasons[f"duplicate_{key}"] += 1
            else:
                records[value] = record
    return records, LoadReport(n_rows, len(records), n_rows - len(records), dict(reasons))


def _roster_record(row: dict) -> RosterRecord | str:
    if "_" in row["height_in"]:     # float() takes digit separators
        raise ValueError("'_' in height_in")
    pid = _clean_id(row["player_id"])
    height = float(row["height_in"])
    pos = row.get("position", "").strip()
    if not pid:
        return "empty_id"
    if not 60.0 <= height <= 96.0:
        return "height_out_of_range"
    return RosterRecord(player_id=pid, height_in=height, position=pos)


def load_roster(path: str | Path) -> tuple[dict[PlayerId, RosterRecord], LoadReport]:
    """Read roster rows; heights outside [60, 96] inches are rejected, and of the rows
    left the first of each player id is kept (later ones are ``duplicate_player_id``)."""
    return _load_csv(path, _roster_record, "player_id")


@dataclass(frozen=True)
class EventRecord:
    shot_id: str
    game_id: GameId
    shooter_id: PlayerId
    release_frame: int
    outcome: int
    hoop_end: str


def _event_record(row: dict) -> EventRecord:
    if "_" in row["release_frame"] + row["outcome"]:    # int() takes digit separators
        raise ValueError("'_' in an integer field")
    outcome = int(row["outcome"])
    if outcome not in (0, 1):
        raise ValueError("outcome must be 0/1")
    return EventRecord(
        shot_id=_clean_id(row["shot_id"]),
        game_id=_clean_id(row["game_id"]),
        shooter_id=_clean_id(row["shooter_id"]),
        release_frame=int(row["release_frame"]),
        outcome=outcome,
        hoop_end=row["hoop_end"].strip(),
    )


def load_events(path: str | Path) -> tuple[list[EventRecord], LoadReport]:
    """Read shot events; a shot id seen before is counted as ``duplicate_shot_id``.

    The first parseable row of each shot id is kept.
    """
    events, report = _load_csv(path, _event_record, "shot_id")
    return list(events.values()), report


# --- defender context ----------------------------------------------------------

def nearest_defender(
    ids: list[PlayerId],
    teams: list[str],
    xy: list[list[float]],
    shooter_id: PlayerId,
) -> tuple[PlayerId, float, int, int]:
    """Opposing player minimizing planar distance to the shooter in one tracking row.

    ``ids``, ``teams`` and ``xy`` hold the row's players in the same order.
    Returns (defender id, distance, shooter's position in the row,
    defender's position in the row).  Ties break toward the
    lexicographically smaller player id.
    """
    try:
        s = ids.index(shooter_id)
    except ValueError:
        raise IngestError(f"shooter {shooter_id} not on court") from None
    s_team = teams[s]
    sx, sy = xy[s]
    best: tuple[float, PlayerId] | None = None
    for k, (pid, team, (x, y)) in enumerate(zip(ids, teams, xy)):
        if team == s_team:
            continue
        dist = math.hypot(x - sx, y - sy)
        if best is None or (dist, pid) < best:
            best, d = (dist, pid), k
    if best is None:
        raise NoOpponentsError("no opposing player on court at release")
    return best[1], best[0], s, d


def contest_angle(
    shooter_xy: tuple[float, float],
    defender_xy: tuple[float, float],
    rim_xy: tuple[float, float],
) -> float:
    """Signed angle between shooter->rim and shooter->defender rays, degrees.

    Positive means the defender stands on the shooter's right; the value
    lies in (-180, 180].
    """
    ux, uy = rim_xy[0] - shooter_xy[0], rim_xy[1] - shooter_xy[1]
    vx, vy = defender_xy[0] - shooter_xy[0], defender_xy[1] - shooter_xy[1]
    if math.hypot(ux, uy) < 1e-12:
        raise IngestError("shooter co-located with the rim")
    if math.hypot(vx, vy) < 1e-12:
        raise IngestError("defender co-located with the shooter; angle undefined")
    cross = ux * vy - uy * vx
    dot = ux * vx + uy * vy
    return math.degrees(math.atan2(-cross, dot))


# --- shot extraction -------------------------------------------------------------

@dataclass(frozen=True)
class ShotEvent:
    """One extracted three-point attempt with defender context and ball samples."""

    shot_id: str
    game_id: GameId
    shooter: PlayerId
    defender: PlayerId
    ndd_ft: float
    defender_height_in: float
    contest_angle_deg: float
    outcome: int
    samples: np.ndarray          # (n, 3) rim-local frame
    release_xy: tuple[float, float]   # shooter location, rim-local frame
    max_gap_s: float             # largest step between sample times; 0 below two samples
    flags: tuple[str, ...] = ()


@dataclass(frozen=True)
class ExtractionReport:
    n_events: int
    n_extracted: int
    rejections: dict[str, int] = field(default_factory=dict)
    n_flagged: int = 0


def _cut_at_rim_plane(z: np.ndarray) -> int:
    """Index one past the first frame at/below rim height on the way down.

    Arcs that never rise above the rim plane have no descending crossing;
    the whole window is kept.
    """
    if len(z) == 0:
        return 0
    apex = int(np.argmax(z))
    if z[apex] <= RIM_HEIGHT_FT:
        return len(z)
    for i in range(apex + 1, len(z)):
        if z[i] <= RIM_HEIGHT_FT:
            return i + 1
    return len(z)


def extract_shot_events(
    tracking: dict[GameId, GameTracking],
    events: list[EventRecord],
    roster: dict[PlayerId, RosterRecord],
    min_samples: int = 5,
    stream_break_s: float = 1.0,
    max_window_s: float = 3.0,
) -> tuple[list[ShotEvent], ExtractionReport]:
    """Assemble ShotEvents from tagged releases.

    A window ends at the first descending rim-plane arrival, at a break in
    the 25 Hz stream (gap > ``stream_break_s``), or after ``max_window_s``.
    Each game's times must increase, as ``load_tracking`` leaves them.
    Shots are rejected when their game or release frame is unknown, the
    shooter is off court, or no opponent is on court; thin windows are only
    flagged (``insufficient_samples``) so callers can report them.
    """
    out: list[ShotEvent] = []
    reasons: Counter[str] = Counter()
    n_flagged = 0
    steps: dict[GameId, tuple[np.ndarray, np.ndarray]] = {}   # per game: gaps, break indices

    for ev in events:
        game = tracking.get(ev.game_id)
        if game is None:
            reasons["unknown_game"] += 1
            continue
        if not 0 <= ev.release_frame < len(game):
            reasons["release_out_of_range"] += 1
            continue
        try:
            rim_xy = rim_center_xy(ev.hoop_end)
        except ValueError:
            reasons["unknown_hoop_end"] += 1
            continue

        ids = [game.id_table[j] for j in game.player_ids[ev.release_frame].tolist()]
        xy = game.player_xy[ev.release_frame].tolist()
        try:
            defender_id, ndd, s, d = nearest_defender(
                ids, [game.team_of[pid] for pid in ids], xy, ev.shooter_id)
        except NoOpponentsError:
            reasons["no_defender"] += 1
            continue
        except IngestError:
            reasons["shooter_not_on_court"] += 1
            continue

        # window: stop before a stream break or past max_window_s, then cut at the rim plane
        if ev.game_id not in steps:
            gaps = np.diff(game.times)
            steps[ev.game_id] = gaps, np.flatnonzero(~(gaps <= stream_break_s)) + 1
        gaps, breaks = steps[ev.game_id]
        times, first = game.times, ev.release_frame
        t0 = times[first]
        k = np.searchsorted(breaks, first + 1)
        end = breaks[k] if k < len(breaks) else len(times)
        # times increase, so times[h] - t0 <= max_window_s holds for a prefix of h; the
        # search finds its end up to the rounding of t0 + max_window_s, the slice exactly
        bound = min(max(int(np.searchsorted(times, t0 + max_window_s, side="right")),
                        first + 1), end)
        while bound < end and times[bound] - t0 <= max_window_s:
            bound += 1
        hi = first + 1 + int(np.count_nonzero(times[first + 1:bound] - t0 <= max_window_s))
        window = slice(first, hi)
        ball_local = np.column_stack(to_local_frame(game.ball[window].T, ev.hoop_end))
        cut = _cut_at_rim_plane(ball_local[:, 2])
        samples = ball_local[:cut]
        max_gap = float(gaps[first:first + cut - 1].max()) if cut >= 2 else 0.0

        flags: list[str] = []
        if len(samples) < min_samples:
            flags.append("insufficient_samples")

        shooter_xy = xy[s]
        try:
            angle = contest_angle(shooter_xy, xy[d], rim_xy)
        except IngestError:
            angle = float("nan")
            flags.append("contest_angle_undefined")

        height = float("nan")
        rec = roster.get(defender_id)
        if rec is not None:
            height = rec.height_in
        else:
            flags.append("defender_height_missing")

        release_local = to_local_frame((shooter_xy[0], shooter_xy[1], 0.0), ev.hoop_end)
        if flags:
            n_flagged += 1
        out.append(ShotEvent(
            shot_id=ev.shot_id,
            game_id=ev.game_id,
            shooter=ev.shooter_id,
            defender=defender_id,
            ndd_ft=ndd,
            defender_height_in=height,
            contest_angle_deg=angle,
            outcome=ev.outcome,
            samples=samples,
            release_xy=(release_local[0], release_local[1]),
            max_gap_s=max_gap,
            flags=tuple(flags),
        ))

    return out, ExtractionReport(
        n_events=len(events),
        n_extracted=len(out),
        rejections=dict(reasons),
        n_flagged=n_flagged,
    )
