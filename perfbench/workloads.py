"""The benchmark's workloads: one timed operation each, and its checks.

Every workload runs the shipped 20-layer GaN/AlN config.  The checks
compare each operation's output files with the ones recorded in
``reference/`` at the commit that defined the benchmark.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from spdc1d import runner

REFERENCE = Path(__file__).resolve().parent / "reference"
REL_TOL = 1e-12
SCAN_GEOMETRY = ("ridge", "lost_flag", "l1_nm", "l2_nm")


def _close(value, ref):
    return abs(value - ref) <= REL_TOL * abs(ref)


def _check_summary(out_dir, result):
    """summary.json pair counts and R within REL_TOL of the reference."""
    ref = json.loads((REFERENCE / "simulate-k64-summary.json").read_text())
    got = json.loads((Path(out_dir) / "summary.json").read_text())
    got_n, ref_n = got["pairs_per_pulse"], ref["pairs_per_pulse"]
    errors = [
        f"pairs_per_pulse.{w} = {got_n[w]!r}, reference {ref_n[w]!r}"
        for w in ("V", "S", "I", "SV") if not _close(got_n[w], ref_n[w])
    ]
    r, r_ref = got["ratio_surface_volume"], ref["ratio_surface_volume"]
    if r is None or not _close(r, r_ref):
        errors.append(f"ratio_surface_volume = {r!r}, reference {r_ref!r}")
    if got["config_hash"] != ref["config_hash"]:
        errors.append("config_hash differs: the seeded config is not the "
                      "shipped one")
    return errors


def _read_csv(path):
    with open(path, newline="", encoding="ascii") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def _check_ridge_scan(out_dir, result):
    """Identical ridge/cell geometry; values within REL_TOL."""
    ref_head, ref_rows = _read_csv(REFERENCE / "scan-ridges-ridge_scan.csv")
    head, rows = _read_csv(Path(out_dir) / "ridge_scan.csv")
    if head != ref_head:
        return [f"ridge_scan.csv header {head}, reference {ref_head}"]
    if len(rows) != len(ref_rows):
        return [f"ridge_scan.csv has {len(rows)} cells, "
                f"reference {len(ref_rows)}"]
    errors = []
    for n, (row, ref) in enumerate(zip(rows, ref_rows)):
        for col, a, b in zip(head, row, ref):
            same = a == b if col in SCAN_GEOMETRY else _close(float(a),
                                                               float(b))
            if not same:
                errors.append(f"ridge_scan.csv row {n} {col} = {a}, "
                              f"reference {b}")
    return errors


def _check_verify(out_dir, result):
    report, ok = result
    if ok:
        return []
    bad = [n for n, c in report["checks"].items()
           if c["error"] > max(c["tol"], 0.0)]
    return [f"verify failed checks {bad}"]


def _verify_health(result):
    report, _ = result
    return {"verify_errors": {n: c["error"]
                              for n, c in report["checks"].items()}}


@dataclass(frozen=True)
class Workload:
    name: str
    op: Callable  # (cfg, out_dir) -> result
    check: Callable  # (out_dir, result) -> list of failure messages
    health: Callable = lambda result: {}


WORKLOADS = {
    w.name: w for w in (
        Workload("simulate-k64",
                 lambda cfg, out: runner.simulate(cfg, out, bins=64),
                 _check_summary),
        Workload("scan-ridges",
                 lambda cfg, out: runner.scan(cfg, out, workers=1),
                 _check_ridge_scan),
        Workload("verify-k12",
                 lambda cfg, out: runner.verify(cfg, bins=12),
                 _check_verify, _verify_health),
    )
}


def warm_up(cfg):
    """First calls into numpy, BLAS and every core module, at a size whose
    memory stays far below any workload's peak."""
    runner.verify(cfg, bins=4)
