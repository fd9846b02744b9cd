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
the row they sit in rather than the whole load.  A tracking row is
rejected as ``unparseable`` (it does not parse), then
``wrong_player_count``, then ``non_finite`` (a NaN or infinite time, ball
coordinate or player x/y), then ``unparseable`` (a bad id), then
``duplicate_timestamp``, so every loaded coordinate is finite.  A
tracking game id, player id or team is bad unless it is a JSON string,
and an id in any file is bad if it holds a carriage return or a
surrogate.  An events row repeating an earlier shot id is rejected as
``duplicate_shot_id``; the first occurrence is kept.

Tracking is read in two phases.  First the file is cut, just after
newlines, into byte ranges: one per CPU this process may run on, at most
``MAX_WORKERS`` and only as many as leave each range ``MIN_RANGE_BYTES``.
Each range is parsed by a worker process (one range is parsed in-process)
that applies the checks needing nothing but the row itself and fills
typed per-game column buffers.  Then the parent applies the per-game
timestamp rules to all ranges at once: the last accepted time before a
row is the running maximum of its game's earlier rows, which makes the
result the same wherever the cuts fall.  A game that lies in one range
and loses no row keeps the worker's buffers as its ``GameTracking``
arrays; shot extraction reads the release row and the ball window
straight from those arrays.

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
import os
import re
from array import array
from collections import Counter
from dataclasses import dataclass, field
from itertools import chain
from operator import itemgetter
from pathlib import Path
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from .core import RIM_HEIGHT_FT, GameId, PlayerId, rim_center_xy, to_local_frame

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


# A worker pays off only when its range takes clearly longer to parse than the
# worker takes to start (a fresh interpreter importing numpy, ~0.4 s).  On 2 vCPUs,
# two ranges loaded a 19 MB file no faster than one, and a 38 MB file 1.16x faster.
MIN_RANGE_BYTES = 16 << 20
MAX_WORKERS = 4


class _GamePart(NamedTuple):
    """One game's rows from one byte range that pass every row-local check."""

    row: np.ndarray        # (n,) int64, increasing in file order across ranges
    times: np.ndarray      # (n,)
    ball: np.ndarray       # (n, 3)
    codes: np.ndarray      # (n, 10) int16 indices into ``pairs``
    xy: np.ndarray         # (n, 10, 2)
    pairs: list            # (player id, team) per code, in order of first appearance


# dtype and trailing shape of each array column of a _GamePart, in field order
_COLUMNS = ((np.int64, ()), (np.float64, ()), (np.float64, (3,)),
            (np.int16, (PLAYERS_PER_FRAME,)), (np.float64, (PLAYERS_PER_FRAME, 2)))


class _RangeParse(NamedTuple):
    n_rows: int
    reasons: dict[str, int]
    parts: dict[GameId, _GamePart]


class _GameBuffers:
    """Typed append-only buffers for one game's rows in one byte range.

    Player codes index (player id, team) pairs, not ids: which appearance
    of an id comes first among the rows finally kept is only known once
    the timestamp rules have run, and that appearance fixes the id's team.
    Only pairs of two good strings are interned, so a pair found in the
    index needs no further check.
    """

    def __init__(self):
        self.row = array("q")
        self.times = array("d")
        self.ball = array("d")
        self.codes = array("h")
        self.xy = array("d")
        self.pairs: list[tuple[PlayerId, str]] = []
        self._index: dict[tuple[PlayerId, str], int] = {}

    def append(self, row: int, t: float, ball: tuple, pairs: list, xy: list) -> bool:
        """Append the row; False, appending nothing, if a player id or team is bad."""
        try:
            codes = list(map(self._index.__getitem__, pairs))
        except (KeyError, TypeError):
            codes = self._intern(pairs)
            if codes is None:
                return False
        self.row.append(row)
        self.times.append(t)
        self.ball.extend(ball)
        self.codes.extend(codes)
        self.xy.extend(xy)
        return True

    def _intern(self, pairs: list) -> list[int] | None:
        """Codes of the row's pairs, or None, interning nothing, if an id or team is bad."""
        if not all(map(_good_id, chain.from_iterable(pairs))):
            return None
        index = self._index
        for pair in pairs:
            if pair not in index:
                index[pair] = len(self.pairs)
                self.pairs.append(pair)
        return [index[pair] for pair in pairs]

    def part(self) -> _GamePart:
        n = len(self.times)
        return _GamePart(*(
            np.frombuffer(buf, dtype=dtype).reshape(n, *shape)
            for buf, (dtype, shape) in zip(
                (self.row, self.times, self.ball, self.codes, self.xy), _COLUMNS)
        ), pairs=self.pairs)


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


def _good_id(value) -> bool:
    """A tracking id or team must be a JSON string free of carriage returns and surrogates."""
    return type(value) is str and not _BAD_ID_CHAR.search(value)


def _parse_jsonl_row(line: str):
    """(game_id, t, ball, (player id, team) pairs, interleaved player x/y) of one JSON frame."""
    doc = json.loads(line)
    players = doc["players"]
    ball = doc["ball"]
    return (
        doc["game_id"],
        float(doc["t"]),
        (float(ball[0]), float(ball[1]), float(ball[2])),
        list(map(_PLAYER_ID_TEAM, players)),
        list(map(float, chain.from_iterable(map(_PLAYER_XY, players)))),
    )


def _parse_range(path: Path, start: int, end: int) -> _RangeParse:
    """Apply the row-local checks to the lines in bytes ``[start, end)``.

    ``start`` must be 0 or follow a newline.  A row's key is ``start`` plus its
    line number in the range: a range holds fewer lines than bytes, so keys
    increase in file order across ranges.
    """
    games: dict[GameId, _GameBuffers] = {}
    n_rows = 0
    reasons: Counter[str] = Counter()
    isfinite = math.isfinite
    raw = io.BufferedReader(_ByteRange(path, start, end), 1 << 16)
    with io.TextIOWrapper(raw, encoding="utf-8", errors="surrogateescape", newline="") as fh:
        for row, line in enumerate(fh, start):
            if not line.strip():
                continue
            n_rows += 1
            try:
                game_id, t, ball, pairs, xy = _parse_jsonl_row(line)
            except (ValueError, KeyError, TypeError, IndexError, OverflowError):
                reasons["unparseable"] += 1
                continue
            if len(pairs) != PLAYERS_PER_FRAME:
                reasons["wrong_player_count"] += 1
                continue
            if not (isfinite(t) and all(map(isfinite, ball)) and all(map(isfinite, xy))):
                reasons["non_finite"] += 1
                continue
            try:
                game = games[game_id]
            except (KeyError, TypeError):   # a new game id, or one that is not a string
                if not _good_id(game_id):
                    reasons["unparseable"] += 1
                    continue
                game = games[game_id] = _GameBuffers()
            if not game.append(row, t, ball, pairs, xy):
                reasons["unparseable"] += 1
    return _RangeParse(n_rows, dict(reasons),
                       {gid: g.part() for gid, g in games.items() if g.times})


def _range_worker(conn: Connection, path: str, start: int, end: int) -> None:
    """Worker process body: parse one range and send it back one game at a time.

    Each game is a JSON header (game id, row count, pairs) followed by its
    array columns as raw buffers; the range ends with its row count and
    reasons, or with the error that stopped it.
    """
    with conn:
        try:
            parsed = _parse_range(Path(path), start, end)
            for game_id in list(parsed.parts):
                part = parsed.parts.pop(game_id)
                conn.send_bytes(json.dumps(
                    {"game_id": game_id, "n": len(part.times), "pairs": part.pairs}).encode())
                for column in part[:len(_COLUMNS)]:
                    conn.send_bytes(column)
            conn.send_bytes(json.dumps(
                {"n_rows": parsed.n_rows, "reasons": parsed.reasons}).encode())
        except Exception as exc:
            conn.send_bytes(json.dumps({"error": f"{type(exc).__name__}: {exc}"}).encode())


def _receive_range(conn: Connection, start: int, end: int) -> _RangeParse:
    where = f"tracking worker for bytes {start}-{end}"
    parts = {}
    while True:
        try:
            head = json.loads(conn.recv_bytes())
        except EOFError:
            raise RuntimeError(f"{where} exited without a result") from None
        if "error" in head:
            raise RuntimeError(f"{where}: {head['error']}")
        if "n_rows" in head:
            return _RangeParse(head["n_rows"], head["reasons"], parts)
        columns = []
        for dtype, shape in _COLUMNS:
            column = np.empty((head["n"], *shape), dtype=dtype)
            if conn.recv_bytes_into(column.reshape(-1)) != column.nbytes:
                raise RuntimeError(f"{where}: short column")
            columns.append(column)
        parts[head["game_id"]] = _GamePart(*columns, pairs=head["pairs"])


def _parse_in_workers(path: Path, ranges: list[tuple[int, int]]) -> list[_RangeParse]:
    """``_parse_range`` of each range in a worker process of its own.

    Workers are spawned: each is a fresh interpreter that gets only its
    range and one pipe.  Every worker has been joined when this returns
    or raises.
    """
    import multiprocessing   # here, not above: it adds ~1 MB to every process importing ingest

    ctx = multiprocessing.get_context("spawn")
    workers = []
    try:
        for start, end in ranges:
            receiver, sender = ctx.Pipe(duplex=False)
            proc = ctx.Process(target=_range_worker, args=(sender, str(path), start, end),
                               daemon=True)
            workers.append((proc, receiver))
            with sender:
                proc.start()
        return [_receive_range(receiver, *bounds)
                for (_, receiver), bounds in zip(workers, ranges)]
    except BaseException:
        for proc, _ in workers:
            if proc.pid is not None:
                proc.terminate()
        raise
    finally:
        for proc, receiver in workers:
            receiver.close()
            if proc.pid is not None:
                proc.join()
            proc.close()


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


def _cpu_count() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


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
    under the reason named and skipped: it fails to parse or holds a
    number too large for a float (``unparseable``), it carries other than
    ten players (``wrong_player_count``), its time, ball or any player
    coordinate is NaN or infinite (``non_finite``), its ``game_id``, a
    player ``id`` or a ``team`` is not a JSON string or holds a carriage
    return or a surrogate (``unparseable``), or it repeats its game's last
    accepted timestamp (``duplicate_timestamp``).  A row passing the checks
    before that one, whose timestamp steps backwards by more than
    ``MONOTONE_TOL_S`` within its game, aborts the load.

    A file of at least ``2 * MIN_RANGE_BYTES`` is parsed in up to
    ``MAX_WORKERS`` byte ranges, one worker process per range and no more
    than the CPUs this process may run on; the workers are joined before
    this returns or raises.  They are started by ``multiprocessing``'s
    spawn method, which imports the caller's main module in each worker:
    a script that calls this must keep its own work under
    ``if __name__ == "__main__":``.
    """
    path = Path(path)
    n = min(_cpu_count(), MAX_WORKERS, path.stat().st_size // MIN_RANGE_BYTES)
    ranges = _byte_ranges(path, max(n, 1))
    if len(ranges) > 1:
        parsed = _parse_in_workers(path, ranges)
    else:
        parsed = [_parse_range(path, *ranges[0])]
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


def load_roster(path: str | Path) -> tuple[dict[PlayerId, RosterRecord], LoadReport]:
    """Read roster rows; heights outside [60, 96] inches are rejected."""
    path = Path(path)
    records: dict[PlayerId, RosterRecord] = {}
    reasons: Counter[str] = Counter()
    n_rows = 0
    with path.open("r", encoding="utf-8", errors="surrogateescape", newline="") as fh:
        reader = csv.DictReader(fh)
        for row in reader:
            n_rows += 1
            try:
                pid = _clean_id(row["player_id"])
                height = float(row["height_in"])
                pos = row.get("position", "").strip()
            except (KeyError, ValueError, TypeError, AttributeError):
                reasons["unparseable"] += 1
                continue
            if not pid:
                reasons["empty_id"] += 1
                continue
            if not 60.0 <= height <= 96.0:
                reasons["height_out_of_range"] += 1
                continue
            records[pid] = RosterRecord(player_id=pid, height_in=height, position=pos)
    return records, LoadReport(n_rows, len(records), n_rows - len(records), dict(reasons))


@dataclass(frozen=True)
class EventRecord:
    shot_id: str
    game_id: GameId
    shooter_id: PlayerId
    release_frame: int
    outcome: int
    hoop_end: str


def load_events(path: str | Path) -> tuple[list[EventRecord], LoadReport]:
    """Read shot events; a shot id seen before is counted as ``duplicate_shot_id``.

    The first parseable row of each shot id is kept.
    """
    path = Path(path)
    events: list[EventRecord] = []
    seen: set[str] = set()
    reasons: Counter[str] = Counter()
    n_rows = 0
    with path.open("r", encoding="utf-8", errors="surrogateescape", newline="") as fh:
        reader = csv.DictReader(fh)
        for row in reader:
            n_rows += 1
            try:
                outcome = int(row["outcome"])
                if outcome not in (0, 1):
                    raise ValueError("outcome must be 0/1")
                event = EventRecord(
                    shot_id=_clean_id(row["shot_id"]),
                    game_id=_clean_id(row["game_id"]),
                    shooter_id=_clean_id(row["shooter_id"]),
                    release_frame=int(row["release_frame"]),
                    outcome=outcome,
                    hoop_end=row["hoop_end"].strip(),
                )
            except (KeyError, ValueError, TypeError, AttributeError):
                reasons["unparseable"] += 1
                continue
            if event.shot_id in seen:
                reasons["duplicate_shot_id"] += 1
                continue
            seen.add(event.shot_id)
            events.append(event)
    return events, LoadReport(n_rows, len(events), n_rows - len(events), dict(reasons))


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
