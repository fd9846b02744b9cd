"""Shared domain types, the fixed court geometry, unit conventions, and the
worker processes that ingest and sim start.

Every stage measures shots against one regulation rim and a men's ball:
the constants ``RIM_HEIGHT_FT``, ``RIM_RADIUS_FT`` and ``BALL_RADIUS_FT``.

Canonical units everywhere in the library: feet for distances, degrees for
angles, seconds for time.  Reporting layers convert depth / left-right to
inches where that matches common shooting-lab conventions.

The canonical local frame puts the rim center at the origin of the
horizontal plane at 10 ft height, with +x pointing from the rim toward the
attacking half (shooters have positive local x).  Tracking coordinates are
treated as ball-center positions throughout.
"""

from __future__ import annotations

import math
import os
from contextlib import contextmanager
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from multiprocessing.connection import Connection

# NBA full court, feet. Origin at a corner, x along the sideline.
COURT_LENGTH_FT = 94.0
COURT_WIDTH_FT = 50.0
# Rim center sits 63 inches from the baseline, on the court's long axis.
RIM_CENTER_FROM_BASELINE_FT = 5.25

RIM_HEIGHT_FT = 10.0
RIM_RADIUS_FT = 0.75          # 18 in diameter
BALL_RADIUS_FT = 0.3938       # 9.45 in diameter (regulation men's ball)
RELEASE_HEIGHT_PRIOR_FT = 7.0

HOOP_ENDS = ("left", "right")

# Court-frame rim centers per end.
_RIM_XY = {
    "left": (RIM_CENTER_FROM_BASELINE_FT, COURT_WIDTH_FT / 2.0),
    "right": (COURT_LENGTH_FT - RIM_CENTER_FROM_BASELINE_FT, COURT_WIDTH_FT / 2.0),
}

# Opaque identifiers; unique within a season dataset.
PlayerId = str
GameId = str


class UnknownHoopEndError(ValueError):
    """Raised when a hoop-end tag is not one of 'left' / 'right'."""


@dataclass(frozen=True)
class ShotFactors:
    """Depth, left-right, and entry angle of one shot at the rim plane.

    depth_ft:       signed distance past the front rim along the shot path at
                    the rim-plane crossing (rim center corresponds to 0.75 ft).
    left_right_ft:  signed perpendicular offset of the path from rim center;
                    positive means the shooter's right.
    entry_angle_deg: angle below horizontal of the descending crossing, (0, 90].
    """

    depth_ft: float
    left_right_ft: float
    entry_angle_deg: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.depth_ft) and math.isfinite(self.left_right_ft)):
            raise ValueError("depth and left_right must be finite")
        if not 0.0 < self.entry_angle_deg <= 90.0:
            raise ValueError(f"entry angle {self.entry_angle_deg} outside (0, 90]")

    @property
    def depth_in(self) -> float:
        return feet_to_inches(self.depth_ft)

    @property
    def left_right_in(self) -> float:
        return feet_to_inches(self.left_right_ft)


def rim_center_xy(hoop_end: str) -> tuple[float, float]:
    """Court-frame (x, y) of the rim center for a hoop end tag."""
    try:
        return _RIM_XY[hoop_end]
    except KeyError:
        raise UnknownHoopEndError(f"unknown hoop_end {hoop_end!r}; expected one of {HOOP_ENDS}") from None


def to_local_frame(point: tuple[float, float, float], hoop_end: str) -> tuple[float, float, float]:
    """Map a court-frame ball point into the canonical rim-local frame.

    The map is a rigid motion (pure translation for the left end, a 180-degree
    rotation about the rim for the right end), so both ends share one
    handedness and the rim center always maps to (0, 0, 10).  ``point`` may
    also be three coordinate arrays (say ``ball.T``), giving three arrays.
    """
    rx, ry = rim_center_xy(hoop_end)
    x, y, z = point
    if hoop_end == "left":
        return (x - rx, y - ry, z)
    return (rx - x, ry - y, z)


def from_local_frame(point: tuple[float, float, float], hoop_end: str) -> tuple[float, float, float]:
    """Inverse of :func:`to_local_frame`."""
    rx, ry = rim_center_xy(hoop_end)
    x, y, z = point
    if hoop_end == "left":
        return (x + rx, y + ry, z)
    return (rx - x, ry - y, z)


def feet_to_inches(x_ft: float) -> float:
    return x_ft * 12.0


def _expit_scalar(x: float) -> float:
    try:
        return 1.0 / (1.0 + math.exp(-x))
    except OverflowError:   # exp(-x) exceeds the float range below x ~ -709.78
        return 0.0


_expit_ufunc = np.frompyfunc(_expit_scalar, 1, 1)


def expit(x):
    """Logistic sigmoid 1 / (1 + exp(-x)), bit-identical to ``scipy.special.expit``.

    The exponential is libm's, taken element by element: numpy's vectorised
    ``np.exp`` differs from it in the last bit on ~2% of inputs, which would
    change simulated seasons and predictions.  A 0-d input gives a float64
    scalar, an n-d input a float64 array of the same shape.
    """
    with np.errstate(over="ignore"):    # libm raises the flag before OverflowError
        out = np.asarray(_expit_ufunc(np.asarray(x, dtype=float)), dtype=float)
    return out if out.ndim else out[()]


# --- worker processes ---------------------------------------------------------------

# at most this many parts per stage: the calling process and up to three workers
MAX_WORKERS = 4


def _cpu_count() -> int:
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def part_count(limit: int) -> int:
    """Parts to cut a stage's work into, one per CPU this process may run on, at most
    ``MAX_WORKERS`` and ``limit``, and at least one: this process works on the first
    part, a worker process on each other."""
    return max(1, min(_cpu_count(), MAX_WORKERS, limit))


def _worker_main(conn: Connection, target, job: tuple) -> None:
    """A worker process's body: ``target(conn, *job)``, or the error that stopped
    it sent as a ``RuntimeError`` naming it, which :func:`receive` raises."""
    with conn:
        try:
            target(conn, *job)
        except Exception as exc:
            conn.send(RuntimeError(f"{type(exc).__name__}: {exc}"))


def receive(conn: Connection, where: str):
    """A worker's next message, the Python object it sent; RuntimeError naming
    ``where`` if the worker failed or exited without sending one."""
    try:
        message = conn.recv()
    except EOFError:
        raise RuntimeError(f"{where} exited without a result") from None
    if isinstance(message, RuntimeError):
        raise RuntimeError(f"{where}: {message}")
    return message


@contextmanager
def worker_processes(target, jobs: list[tuple]):
    """Run ``target(conn, *job)`` for each job in a worker process of its own;
    yields the receiving ends of their pipes, in job order.

    Workers are spawned: each is a fresh interpreter that gets only its job
    and the sending end of one pipe, and ``target`` must be a module-level
    function.  A worker sends Python objects with ``conn.send`` (pickled, so
    each is copied once on each side), and the caller reads each with
    :func:`receive`.  Every worker has been joined when the block exits; a
    block that exits by an exception terminates the workers first.  No jobs
    start no process and import nothing.
    """
    if not jobs:
        yield []
        return
    import multiprocessing   # here, not above: it adds ~1 MB to every process importing core

    ctx = multiprocessing.get_context("spawn")
    workers = []
    try:
        for job in jobs:
            receiver, sender = ctx.Pipe(duplex=False)
            proc = ctx.Process(target=_worker_main, args=(sender, target, job), daemon=True)
            workers.append((proc, receiver))
            with sender:
                proc.start()
        yield [receiver for _, receiver in workers]
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
