"""Benchmark-side tracing of the ``shotarc`` layers, and the traced stage runner.

Usage (one traced stage per process, as ``run.py --trace 1`` launches it):

    python perfbench/tracing.py --spans OUT.json --t0 MONOTONIC [--entry prepare] -- ARGV...

The runner imports ``shotarc.cli``, installs timing wrappers, then calls
``shotarc.cli.main(ARGV)`` (or ``prepare.main`` for the ``rank`` set-up) and
writes its spans to OUT.json when the call returns.  Nothing under ``src/``
is touched: a wrapper replaces every loaded ``shotarc.*`` module attribute
that *is* the original function, matched by identity, so a caller that
imported the function by name is traced too, wherever it lives.

Coarse calls become spans (name, start, end, parent span, stage).  Per-shot
calls are aggregated to a count, a total, error count and the list of
durations, which keeps the tracing overhead small.  All times come from
``time.monotonic``, which on Linux is one system-wide clock, so the parent's
spawn time and the child's spans share a time base.
"""

from __future__ import annotations

import argparse
import inspect
import json
import math
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

# layer.function pairs recorded as spans
SPANNED = (
    "sim.simulate_season", "sim.write_season",
    "ingest.load_tracking", "ingest.load_events", "ingest.load_roster",
    "ingest.extract_shot_events",
    "trajectory.filter_shots",
    "makeprob.train", "makeprob.predict",
    "effects.fit_effects", "effects.apply_min_shots_filter", "effects.rank_players",
    "evaluate.subsample_mse", "evaluate.split_half_rank_correlation",
    "evaluate.variance_comparison", "evaluate.make_pct_by_depth_bin",
    "cli.read_shot_rows", "cli.write_shot_rows", "cli.write_manifest",
)
# per-shot calls: aggregated, never one span per call
AGGREGATED = ("trajectory.fit_trajectory", "factors.fit_path_line", "factors.compute_shot_factors")


def _rows(array) -> int:
    return len(array) if getattr(array, "ndim", 2) == 2 else 1


def _file_bytes(paths) -> int:
    return sum(Path(p).stat().st_size for p in paths)


# Work counts read from a spanned call's bound arguments and result.
COUNTS = {
    "sim.write_season": lambda a, r: {
        "sim.frames_written": sum(g.n_frames for g in a["season"].games),
        "sim.bytes_written": _file_bytes(r.values())},
    "ingest.load_tracking": lambda a, r: {
        "ingest.rows": r[1].n_rows, "ingest.rows_rejected": r[1].n_rejected},
    "ingest.extract_shot_events": lambda a, r: {
        "ingest.shots_extracted": r[1].n_extracted,
        "ingest.shots_rejected": sum(r[1].rejections.values())},
    "trajectory.filter_shots": lambda a, r: {
        "trajectory.retained": r[1].n_retained, "trajectory.filter_input": r[1].n_input},
    "makeprob.train": lambda a, r: {"makeprob.rows": _rows(a["factors"])},
    "makeprob.predict": lambda a, r: {"makeprob.rows": _rows(a["factors"])},
    "effects.fit_effects": lambda a, r: {"effects.rows_fitted": len(a["dataset"])},
    "evaluate.subsample_mse": lambda a, r: {
        "evaluate.replicates_used": sum(x.n_replicates_used for x in r),
        "evaluate.replicates_dropped": sum(x.n_dropped for x in r)},
    "cli.write_manifest": lambda a, r: {
        "cli.bytes_hashed": _file_bytes(list(a["inputs"]) + list(a["outputs"]))},
}


class Tracer:
    """Holds one process's spans, aggregates and counters in memory."""

    def __init__(self, stage: str):
        self.stage = stage
        self.spans: list[dict] = []
        self.stack: list[int] = [-1]
        self.durations: dict[str, list[float]] = defaultdict(list)
        self.errors: Counter[str] = Counter()
        self.aggregated_under: Counter[int] = Counter()
        self.counters: Counter[str] = Counter()

    def span(self, name: str, fn, *args, **kwargs):
        parent = self.stack[-1]
        sid = len(self.spans)
        record = {"id": sid, "parent": parent, "name": name, "stage": self.stage,
                  "start": time.monotonic(), "end": None, "error": None}
        self.spans.append(record)
        self.stack.append(sid)
        try:
            return fn(*args, **kwargs)
        except BaseException as exc:
            record["error"] = type(exc).__name__
            raise
        finally:
            record["end"] = time.monotonic()
            self.stack.pop()

    def wrap(self, name: str, fn):
        if name in AGGREGATED:
            durations, errors, under, stack = (
                self.durations[name], self.errors, self.aggregated_under, self.stack)

            def aggregated(*args, **kwargs):
                t0 = time.monotonic()
                try:
                    return fn(*args, **kwargs)
                except BaseException:
                    errors[name] += 1
                    raise
                finally:
                    dt = time.monotonic() - t0
                    durations.append(dt)
                    under[stack[-1]] += dt
            return aggregated

        count = COUNTS.get(name)
        signature = inspect.signature(fn)

        def spanned(*args, **kwargs):
            result = self.span(name, fn, *args, **kwargs)
            if count is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                self.counters.update(count(bound.arguments, result))
            return result
        return spanned

    def install(self) -> int:
        """Wrap every traced function wherever a loaded shotarc module holds it."""
        originals = {}
        for qualified in SPANNED + AGGREGATED:
            layer, func = qualified.split(".")
            fn = getattr(sys.modules[f"shotarc.{layer}"], func)
            originals[id(fn)] = (qualified, fn)
        wrappers = {key: self.wrap(name, fn) for key, (name, fn) in originals.items()}
        replaced = 0
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "shotarc" or mod_name.startswith("shotarc.")):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None and originals[id(value)][1] is value:
                    setattr(module, attr, wrapper)
                    replaced += 1
        return replaced

    def to_json(self) -> dict:
        """Spans with self times, plus per-shot aggregates and counters."""
        children: dict[int, list[tuple[float, float]]] = defaultdict(list)
        for s in self.spans:
            children[s["parent"]].append((s["start"], s["end"]))
        for s in self.spans:
            s["self"] = self_time(s["start"], s["end"], children[s["id"]],
                                  self.aggregated_under[s["id"]])
        return {
            "stage": self.stage,
            "spans": self.spans,
            "aggregates": {name: {"calls": len(d), "total": math.fsum(d),
                                  "errors": self.errors[name], "durations": d}
                           for name, d in self.durations.items()},
            "counters": dict(self.counters),
        }


# --- arithmetic shared with the report -------------------------------------------------

def union_length(intervals) -> float:
    """Total length covered by a set of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_time(start: float, end: float, children, aggregated: float = 0.0) -> float:
    """A span's duration minus the part of it that its child spans cover.

    ``aggregated`` is the summed duration of per-shot calls made directly
    under the span; they run one after another and never overlap a sibling
    span, so their sum is the time they cover.
    """
    clipped = [(max(s, start), min(e, end)) for s, e in children if min(e, end) > max(s, start)]
    return (end - start) - union_length(clipped) - aggregated


PERCENTILE_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def tail_percentile(n: int, highest: float = 99.9) -> float | None:
    """The highest percentile (up to ``highest``) with at least ten samples beyond it.

    Samples beyond the p-th percentile are those ranked above its nearest
    rank ceil(p * n / 100).  None when even the median lacks ten.
    """
    for p in PERCENTILE_LADDER:
        if p <= highest and n - math.ceil(p * n / 100.0) >= 10:
            return p
    return None


def percentile(values, p: float) -> float:
    """Nearest-rank percentile of a non-empty sample."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(p * len(ordered) / 100.0)) - 1]


def capped_percentile(values, p: float) -> tuple[float, float]:
    """(effective percentile, value): ``p`` lowered by the ten-beyond rule.

    The median is always reported; an empty sample reads 0.
    """
    if not values:
        return p, 0.0
    effective = 50.0 if p == 50.0 else (tail_percentile(len(values), p) or 50.0)
    return effective, percentile(values, effective)


# --- the traced runner ------------------------------------------------------------------

def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="run one shotarc stage under tracing")
    parser.add_argument("--spans", required=True)
    parser.add_argument("--t0", type=float, required=True, help="parent's monotonic spawn time")
    parser.add_argument("--stage", required=True)
    parser.add_argument("--entry", choices=("cli", "prepare"), default="cli")
    parser.add_argument("argv", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    stage_argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv

    import shotarc.cli
    if args.entry == "prepare":
        import prepare
        entry, root = prepare.main, "prepare.main"
    else:
        entry, root = shotarc.cli.main, "cli.main"
    imported = time.monotonic()

    tracer = Tracer(args.stage)
    replaced = tracer.install()
    installed = time.monotonic()
    try:
        code = tracer.span(root, entry, stage_argv)
    finally:
        doc = tracer.to_json()
        doc.update(entry=args.entry, startup_s=imported - args.t0,
                   install_s=installed - imported, wrappers=replaced)
        Path(args.spans).write_text(json.dumps(doc) + "\n", encoding="utf-8")
    return code


if __name__ == "__main__":
    sys.exit(main())
