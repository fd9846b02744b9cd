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
rejected as ``unparseable``, then ``wrong_player_count``, then
``non_finite`` (a NaN or infinite time, ball coordinate or player x/y),
then ``duplicate_timestamp``, so every loaded coordinate is finite.  A
tracking, events or roster row whose game, player or shot id holds a
carriage return or a surrogate is ``unparseable``.  An events row
repeating an earlier shot id is rejected as ``duplicate_shot_id``; the
first occurrence is kept.

Tracking is read in one pass into typed per-game column buffers that
back the ``GameTracking`` arrays; shot extraction reads the release row
and the ball window straight from those arrays.

Shot windows run from the tagged release frame to the first frame at or
below rim height after the apex ("the ball reaches the rim plane"), or
until the 25 Hz stream breaks off.  Ball samples are converted to the
rim-local frame of the attacked hoop.  Defender context (nearest defender,
its roster height, and the signed contest angle) is evaluated at the
release frame only.
"""

from __future__ import annotations

import csv
import json
import math
import re
from array import array
from collections import Counter
from dataclasses import dataclass, field
from itertools import chain
from operator import itemgetter
from pathlib import Path

import numpy as np

from .core import (
    CourtGeometry,
    DEFAULT_GEOMETRY,
    GameId,
    PlayerId,
    rim_center_xy,
    to_local_frame,
)

PLAYERS_PER_FRAME = 10
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


class _GameColumns:
    """Typed append-only buffers for one game's accepted frames."""

    def __init__(self, game_id: GameId):
        self.game_id = game_id
        self.times = array("d")
        self.ball = array("d")          # x, y, z per frame
        self.player_ids = array("h")    # PLAYERS_PER_FRAME indices per frame
        self.player_xy = array("d")     # x0, y0, x1, y1, ... per frame
        self.id_table: list[PlayerId] = []
        self.team_of: dict[PlayerId, str] = {}
        self._index: dict[PlayerId, int] = {}

    def codes(self, ids: list, teams: list) -> list[int]:
        """Indices of ``ids`` into ``id_table``, interning unseen ids with their team.

        An unhashable id raises TypeError at the first lookup, and an unseen
        id holding a carriage return or a surrogate raises ValueError, before
        anything is interned.
        """
        index = self._index
        codes = [index.get(pid, -1) for pid in ids]
        if -1 in codes:
            if any(_BAD_ID_CHAR.search(str(pid)) for pid, code in zip(ids, codes) if code < 0):
                raise ValueError("carriage return or surrogate in player id")
            for k, (pid, team) in enumerate(zip(ids, teams)):
                if codes[k] < 0:
                    if pid not in index:
                        index[pid] = len(self.id_table)
                        self.id_table.append(pid)
                        self.team_of[pid] = team
                    codes[k] = index[pid]
        return codes

    def finish(self) -> GameTracking:
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


_PLAYER_ID = itemgetter("id")
_PLAYER_TEAM = itemgetter("team")
_PLAYER_XY = itemgetter("x", "y")


def _parse_jsonl_row(line: str):
    """(game_id, t, ball, player ids, teams, interleaved player x/y) of one JSON frame."""
    doc = json.loads(line)
    players = doc["players"]
    ball = doc["ball"]
    return (
        str(doc["game_id"]),
        float(doc["t"]),
        (float(ball[0]), float(ball[1]), float(ball[2])),
        list(map(_PLAYER_ID, players)),
        list(map(_PLAYER_TEAM, players)),
        list(map(float, chain.from_iterable(map(_PLAYER_XY, players)))),
    )


def load_tracking(
    path: str | Path,
    monotone_tol: float = 1e-9,
) -> tuple[dict[GameId, GameTracking], LoadReport]:
    """Load JSONL tracking frames grouped by game, preserving within-game time order.

    Each row is checked in this order and, on the first failure, counted
    under the reason named and skipped: it fails to parse or holds a
    number too large for a float (``unparseable``), it carries other than
    ten players (``wrong_player_count``), its time, ball or any player
    coordinate is NaN or infinite (``non_finite``), or it repeats its
    game's last accepted timestamp (``duplicate_timestamp``).  A row with
    a new game id, an unhashable player id, or a new one holding a carriage
    return or a surrogate, is then counted as ``unparseable``.
    A timestamp stepping backwards by more than ``monotone_tol`` within a
    game aborts the load.
    """
    path = Path(path)
    games: dict[GameId, _GameColumns] = {}
    n_rows = 0
    reasons: Counter[str] = Counter()
    isfinite = math.isfinite

    def accept(parsed) -> None:
        game_id, t, ball, ids, teams, xy = parsed
        if len(ids) != PLAYERS_PER_FRAME:
            reasons["wrong_player_count"] += 1
            return
        if not (isfinite(t) and all(map(isfinite, ball)) and all(map(isfinite, xy))):
            reasons["non_finite"] += 1
            return
        game = games.get(game_id)
        if game is None:
            if _BAD_ID_CHAR.search(game_id):
                reasons["unparseable"] += 1
                return
            game = _GameColumns(game_id)
        else:
            prev = game.times[-1]
            if t < prev - monotone_tol:
                raise NonMonotoneTimestampsError(
                    f"game {game_id}: timestamp {t} after {prev}")
            if t <= prev:
                reasons["duplicate_timestamp"] += 1
                return
        try:
            codes = game.codes(ids, teams)
        except (TypeError, ValueError):
            reasons["unparseable"] += 1
            return
        games[game_id] = game
        game.times.append(t)
        game.ball.extend(ball)
        game.player_ids.extend(codes)
        game.player_xy.extend(xy)

    with path.open("r", encoding="utf-8", errors="surrogateescape", newline="") as fh:
        for line in fh:
            if not line.strip():
                continue
            n_rows += 1
            try:
                parsed = _parse_jsonl_row(line)
            except (ValueError, KeyError, TypeError, IndexError, OverflowError):
                reasons["unparseable"] += 1
                continue
            accept(parsed)

    loaded = {gid: game.finish() for gid, game in games.items()}
    n_loaded = sum(len(g) for g in loaded.values())
    return loaded, LoadReport(
        n_rows=n_rows,
        n_loaded=n_loaded,
        n_rejected=n_rows - n_loaded,
        reasons=dict(reasons),
    )


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
    sample_times: np.ndarray     # (n,)
    release_xy: tuple[float, float]   # shooter location, rim-local frame
    flags: tuple[str, ...] = ()

    @property
    def max_gap_s(self) -> float:
        if len(self.sample_times) < 2:
            return 0.0
        return float(np.max(np.diff(self.sample_times)))


@dataclass(frozen=True)
class ExtractionReport:
    n_events: int
    n_extracted: int
    rejections: dict[str, int] = field(default_factory=dict)
    n_flagged: int = 0


def _cut_at_rim_plane(z: np.ndarray, rim_z: float) -> int:
    """Index one past the first frame at/below rim height on the way down.

    Arcs that never rise above the rim plane have no descending crossing;
    the whole window is kept.
    """
    if len(z) == 0:
        return 0
    apex = int(np.argmax(z))
    if z[apex] <= rim_z:
        return len(z)
    for i in range(apex + 1, len(z)):
        if z[i] <= rim_z:
            return i + 1
    return len(z)


def extract_shot_events(
    tracking: dict[GameId, GameTracking],
    events: list[EventRecord],
    roster: dict[PlayerId, RosterRecord],
    geometry: CourtGeometry = DEFAULT_GEOMETRY,
    min_samples: int = 5,
    stream_break_s: float = 1.0,
    max_window_s: float = 3.0,
) -> tuple[list[ShotEvent], ExtractionReport]:
    """Assemble ShotEvents from tagged releases.

    A window ends at the first descending rim-plane arrival, at a break in
    the 25 Hz stream (gap > ``stream_break_s``), or after ``max_window_s``.
    Shots are rejected when their game or release frame is unknown, the
    shooter is off court, or no opponent is on court; thin windows are only
    flagged (``insufficient_samples``) so callers can report them.
    """
    out: list[ShotEvent] = []
    reasons: Counter[str] = Counter()
    n_flagged = 0
    rim_z = geometry.rim_center[2]

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

        # window: stop at a stream break, then cut at the rim plane
        times, limit = game.times, len(game)
        t0, hi = times[ev.release_frame], ev.release_frame + 1
        while (hi < limit and times[hi] - times[hi - 1] <= stream_break_s
               and times[hi] - t0 <= max_window_s):
            hi += 1
        window = slice(ev.release_frame, hi)
        ball_local = np.column_stack(to_local_frame(game.ball[window].T, ev.hoop_end))
        cut = _cut_at_rim_plane(ball_local[:, 2], rim_z)
        samples = ball_local[:cut]
        sample_times = times[window][:cut]

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
            sample_times=sample_times,
            release_xy=(release_local[0], release_local[1]),
            flags=tuple(flags),
        ))

    return out, ExtractionReport(
        n_events=len(events),
        n_extracted=len(out),
        rejections=dict(reasons),
        n_flagged=n_flagged,
    )
