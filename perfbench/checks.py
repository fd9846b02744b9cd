"""Output checks for the benchmark's stages.  Every check reads only output files.

Three kinds of check feed ``error_rate``:

* invariants every run must satisfy (shot accounting in ``filter_report.json``,
  sum-to-zero effects, row counts, probabilities in (0, 1));
* byte-identical reruns: the output digests in ``manifest*.json`` must match
  across iterations of one run and across runs with the same seed;
* for the default seed and shape, values of the ``fit`` and ``rank`` outputs
  recorded at the seed commit in ``golden.json``, at tolerances no looser than
  the ROADMAP's.  ``simulate`` has none: its files may change format as long
  as ``fit`` reads the same season from them.

Rejection *reason labels* are never compared: a correct fix may rename them.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

SUM_TO_ZERO_TOL = 1e-8
FACTOR_MEAN_TOL = 1e-9
EFFECT_TOL = 1e-10
MSE_TOL = 1e-10


class Report:
    """Named pass/fail results of one stage's checks."""

    def __init__(self):
        self.results: list[dict] = []

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        self.results.append({"name": name, "ok": bool(ok), "detail": detail})
        return bool(ok)

    @property
    def ok(self) -> bool:
        return all(r["ok"] for r in self.results)

    def failures(self) -> list[dict]:
        return [r for r in self.results if not r["ok"]]


def sha256_file(path: Path) -> str:
    digest = hashlib.sha256()
    with path.open("rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _csv_rows(path: Path) -> list[dict]:
    with path.open("r", encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def manifest_digests(out: Path) -> dict[str, dict]:
    """Input and output digests of every manifest under ``out``, keyed by its relative path."""
    found = {}
    for path in sorted(out.rglob("manifest*.json")):
        doc = json.loads(path.read_text(encoding="utf-8"))
        found[str(path.relative_to(out))] = {"inputs": doc["inputs"], "outputs": doc["outputs"]}
    return found


# --- invariants -------------------------------------------------------------------------

def check_simulate(out: Path, shape, report: Report) -> None:
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    expected = {"events.csv", "roster.csv", "tracking.jsonl", "ground_truth.csv"}
    report.check("simulate.manifest_outputs", set(manifest["outputs"]) == expected,
                 f"outputs {sorted(manifest['outputs'])}")
    n_events = len(_csv_rows(out / "events.csv"))
    report.check("simulate.events_rows", n_events == shape.n_shots,
                 f"{n_events} events for {shape.n_shots} shots")
    n_roster = len(_csv_rows(out / "roster.csv"))
    report.check("simulate.roster_rows", n_roster == shape.n_shooters + shape.n_defenders,
                 f"{n_roster} roster rows")


def check_fit(out: Path, shape, report: Report) -> None:
    doc = json.loads((out / "filter_report.json").read_text(encoding="utf-8"))
    extraction = sum(doc["extraction"]["rejections"].values())
    filtering = sum(doc["filtering"]["rejections"].values())
    factor = sum(doc["factor_rejections"].values())
    rows = doc["n_factor_rows"]
    events = doc["extraction"]["n_events"]
    report.check("fit.shot_accounting", events == extraction + filtering + factor + rows,
                 f"{events} = {extraction} + {filtering} + {factor} + {rows}")
    report.check("fit.events_in", events == shape.n_shots, f"{events} events")
    factors = _csv_rows(out / "factors.csv")
    report.check("fit.factor_rows", len(factors) == rows, f"{len(factors)} rows, report {rows}")
    finite = all(math.isfinite(float(r[c])) for r in factors
                 for c in ("depth_ft", "lr_ft", "entry_angle_deg"))
    report.check("fit.factors_finite", finite)


def check_rank(out: Path, shape, report: Report) -> None:
    preds = _csv_rows(out / "preds.csv")
    report.check("rank.prediction_rows", len(preds) == shape.n_shots, f"{len(preds)} rows")
    report.check("rank.prob_range", all(0.0 < float(r["make_prob"]) < 1.0 for r in preds))
    for path in sorted((out / "effects").glob("effects_*.json")):
        doc = json.loads(path.read_text(encoding="utf-8"))
        headline = math.fsum(r["effect"] for r in doc["ranking"])
        shooters = math.fsum(doc["shooter_effects"].values())
        report.check(f"rank.sum_to_zero.{path.stem}",
                     abs(headline) <= SUM_TO_ZERO_TOL and abs(shooters) <= SUM_TO_ZERO_TOL,
                     f"sums {headline:.3g}, {shooters:.3g}")
    fig5 = _csv_rows(out / "eval" / "fig5_mse.csv")
    report.check("rank.fig5_rows", len(fig5) == 10, f"{len(fig5)} rows")
    rhos = [float(r["spearman_rho"]) for r in _csv_rows(out / "eval" / "split_half.csv")]
    report.check("rank.split_half_rho", len(rhos) == 2 and all(-1.0 <= r <= 1.0 for r in rhos),
                 f"rho {rhos}")


INVARIANTS = {"simulate": check_simulate, "fit": check_fit, "rank": check_rank}


# --- values recorded at the seed commit ----------------------------------------------------

def _fit_summary(out: Path) -> dict:
    doc = json.loads((out / "filter_report.json").read_text(encoding="utf-8"))
    factors = _csv_rows(out / "factors.csv")
    # the outputs list no retained shot ids, only the factor rows made from them
    ids = "\n".join(r["shot_id"] for r in factors).encode()
    return {
        "n_retained": doc["filtering"]["n_retained"],
        "n_factor_rows": doc["n_factor_rows"],
        "factor_row_ids_sha256": hashlib.sha256(ids).hexdigest(),
        "factor_means": {c: math.fsum(float(r[c]) for r in factors) / len(factors)
                         for c in ("depth_ft", "lr_ft", "entry_angle_deg")},
    }


def _rank_summary(out: Path) -> dict:
    effects = {}
    for path in sorted((out / "effects").glob("effects_*.json")):
        doc = json.loads(path.read_text(encoding="utf-8"))
        effects[path.stem] = {r["player_id"]: r["effect"] for r in doc["ranking"]}
    fig5 = {f"{r['fraction']}/{r['response_kind']}": float(r["mse"])
            for r in _csv_rows(out / "eval" / "fig5_mse.csv")}
    return {"effects": effects, "fig5_mse": fig5}


# workload -> the values of one iteration's outputs that ``golden.json`` records
GOLDEN_SUMMARIES = {"fit": _fit_summary, "rank": _rank_summary}


def _close(a, b, tol: float) -> bool:
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(_close(a[k], b[k], tol) for k in a)
    if a is None or b is None:
        return a is b
    if isinstance(a, float) or isinstance(b, float):
        return (math.isnan(a) and math.isnan(b)) or abs(a - b) <= tol
    return a == b


def check_golden(workload: str, got: dict, golden: dict, report: Report) -> None:
    """Compare a summary from ``GOLDEN_SUMMARIES`` with the recorded one, key by key."""
    for key, want in golden.items():
        tol = {"factor_means": FACTOR_MEAN_TOL, "effects": EFFECT_TOL,
               "fig5_mse": MSE_TOL}.get(key, 0.0)
        report.check(f"{workload}.golden.{key}", _close(got.get(key), want, tol),
                     f"tolerance {tol:g}")
