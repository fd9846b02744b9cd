"""Run every workload of the benchmark and report medians, spreads and checks.

Usage:
    python3 perfbench/suite.py [--runs N] [--seed S] [--seconds T] [--trace] [--out FILE]
    python3 perfbench/suite.py --record-golden

Each workload runs ``--runs`` times through ``run.py``, with seeds S, S+1, ...
One after another, never two at once.  For every end-to-end metric (and the
per-stage times and ``error_rate``) the report gives the median, the
interquartile spread as a share of the median, and the sample count.  With
``--trace`` one traced run per workload (seed S) adds the per-layer table;
its span file path is printed and kept under the output directory.

``--record-golden`` runs ``fit`` and ``rank`` once at the default seed and
writes the values the checks compare against to ``golden.json``.  Do that only on a
commit whose outputs are known good.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import run as bench  # noqa: E402
import tracing  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402


def invoke(workload: str, seed: int, seconds: float, trace: bool, out_dir: Path):
    """One full-shape ``run.py`` process; returns (detail, result)."""
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", repr(seconds), "--trace", str(int(trace)), "--out-dir", str(out_dir)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2 or not lines[-2].startswith("perfbench-detail "):
        raise RuntimeError(f"{' '.join(cmd)} failed ({proc.returncode}):\n{proc.stderr}")
    return json.loads(lines[-2][len("perfbench-detail "):]), json.loads(lines[-1])


def summarize(values: list[float]) -> dict:
    """Median, quartiles and (q3 - q1) / median, as ``statistics.quantiles(n=4)`` gives them."""
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = med
    tail = tracing.tail_percentile(len(values))
    return {"median": med, "q1": q1, "q3": q3, "n": len(values),
            "spread": (q3 - q1) / med if med else 0.0,
            "tail_percentile": tail,
            "tail_value": tracing.percentile(values, tail) if tail else None,
            "values": values}


def run_workload(name: str, args, out_dir: Path) -> dict:
    runs = []
    for i in range(args.runs):
        detail, result = invoke(name, args.seed + i, args.seconds, False, out_dir)
        runs.append({"seed": args.seed + i, "detail": detail, "result": result})
        print(f"  {name} seed={args.seed + i}: correct={result['correct']} "
              f"shots/s={result['metrics']['shots_per_s']['value']:.6g}", flush=True)
    metrics: dict[str, dict] = {}
    units = dict(bench.END_TO_END)
    for r in runs:
        values = {k: m["value"] for k, m in r["result"]["metrics"].items()}
        values.update(r["detail"]["stages"])
        values["error_rate"] = r["detail"]["error_rate"]
        for k, v in values.items():
            metrics.setdefault(k, []).append(v)
    for k in metrics:
        units.setdefault(k, "ratio" if k == "error_rate" else "s")
    out = {
        "notes": runs[0]["detail"]["workload_notes"],
        "metrics": {k: dict(summarize(v), unit=units[k]) for k, v in metrics.items()},
        "checks_failed": sorted({c["name"] for r in runs for c in r["detail"]["checks"]
                                 if not c["ok"]}),
        "checks_run": sum(len(r["detail"]["checks"]) for r in runs),
        "correct_runs": sum(r["result"]["correct"] for r in runs),
        "runs": [{"seed": r["seed"], "result": r["result"], "stages": r["detail"]["stages"],
                  "iterations": r["detail"]["iterations"]} for r in runs],
    }
    if args.trace:
        detail, result = invoke(name, args.seed, args.seconds, True, out_dir)
        out["trace"] = {
            "seed": args.seed,
            "correct": result["correct"],
            "per_layer": result["metrics"],
            "layer_split_s": detail["layer_split"],
            "untraced_wall_s": detail["untraced_wall_s"],
            "traced_wall_s": detail["traced_wall_s"],
            "untraced_stages": detail["stages"],
            "span_file": detail["span_file"],
        }
    return out


def print_report(report: dict) -> None:
    env = report["environment"]
    print(f"\nenvironment: nproc={env['nproc']} cpu={env['cpu_model']!r} python={env['python']} "
          f"numpy={env['numpy']} scipy={env['scipy']} blas={env['blas'].get('config')} "
          f"threads={env['blas'].get('threads')} commit={env['git_commit']}")
    for name, wl in report["workloads"].items():
        shape = wl["notes"]["shape"]
        print(f"\n== {name}: {wl['notes']['n_shots']} shots "
              f"({shape['n_games']} games x {shape['shots_per_game']}, "
              f"{shape['n_shooters']}/{shape['n_defenders']} players)")
        print(f"   why: {wl['notes']['why']}")
        print(f"   {'metric':<22} {'unit':<6} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8}  n")
        for k, m in wl["metrics"].items():
            print(f"   {k:<22} {m['unit']:<6} {m['median']:>12.6g} {m['q1']:>12.6g} "
                  f"{m['q3']:>12.6g} {m['spread']:>8.2%}  {m['n']}")
        failed = wl["checks_failed"]
        print(f"   checks: {wl['checks_run']} run, {len(failed)} distinct failing"
              + (f": {', '.join(failed)}" if failed else "")
              + f"; correct runs {wl['correct_runs']}/{len(wl['runs'])}")
        trace = wl.get("trace")
        if trace:
            wall = trace["traced_wall_s"]
            print(f"   traced run (seed {trace['seed']}): traced wall {wall:.3f} s, "
                  f"untraced {trace['untraced_wall_s']:.3f} s; spans in {trace['span_file']}")
            print("   layer self time (set-up + traced iteration):")
            for layer, secs in trace["layer_split_s"].items():
                print(f"     {layer:<14} {secs:>10.3f} s")
            print("   per-layer metrics:")
            for k, m in trace["per_layer"].items():
                if m["value"]:
                    print(f"     {k:<40} {m['value']:>14.6g} {m['unit']}")


def record_golden(out_dir: Path) -> None:
    golden = {}
    for name in checks.GOLDEN_SUMMARIES:
        detail, result = invoke(name, DEFAULT_SEED, 0.0, False, out_dir)
        if detail["golden_summary"] is None:
            raise RuntimeError(f"{name}: no outputs to record")
        golden[name] = detail["golden_summary"]
        print(f"recorded {name} (run correct={result['correct']})")
    (BENCH / "golden.json").write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n",
                                       encoding="utf-8")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="run every workload of the shotarc benchmark")
    parser.add_argument("--runs", type=int, default=5)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", action="store_true", help="add one traced run per workload")
    parser.add_argument("--out-dir", default=str(ROOT / ".perfbench_out"))
    parser.add_argument("--out", help="report JSON (default <out-dir>/suite.json)")
    parser.add_argument("--record-golden", action="store_true")
    args = parser.parse_args(argv)
    out_dir = Path(args.out_dir).resolve()
    if args.record_golden:
        record_golden(out_dir)
        return 0
    report = {"environment": bench.environment(args.seed),
              "settings": {"runs": args.runs, "seed": args.seed, "seconds": args.seconds,
                           "setup_repeats": bench.SETUP_REPEATS},
              "workloads": {}}
    for name in WORKLOADS:
        print(f"running {name} x{args.runs}", flush=True)
        report["workloads"][name] = run_workload(name, args, out_dir)
    print_report(report)
    out = Path(args.out) if args.out else out_dir / "suite.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"\nreport: {out}")
    ok = all(wl["correct_runs"] == len(wl["runs"]) for wl in report["workloads"].values())
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
