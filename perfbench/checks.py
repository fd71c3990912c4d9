"""Output checks for the benchmark's requests.

A request fails if it raises, exits non-zero, prints no record, or prints a
record with ``pass: false``.  For the default seed it also fails if a
record's numeric results differ from the golden records stored with the
benchmark by more than ``TOL_POINT`` (pointwise errors) or ``TOL_INT``
(integrals).  ``wall_ms`` is ignored everywhere.
"""
from __future__ import annotations

import json
import math

# the acceptance tolerances of the lab, fixed here so that a change to the
# program cannot loosen the benchmark's check
TOL_POINT = 1e-8
TOL_INT = 1e-6

# result keys that are integrals (quadratures, first variations, routes);
# every other numeric result is a pointwise quantity
INTEGRAL_KEYS = frozenset({
    "analytic_first_variation", "stokes_value", "defect_integral",
    "fd_first_variation", "cayley_condition", "um_dw_route", "kept_first_variation",
    "divergence_route", "analytic_vs_divergence", "fd_vs_divergence",
    "k_energy", "k_volume", "calibration_integral", "worst_gap", "error",
    "first_variation", "energy_route", "volume_route", "gap",
})

# checks whose margin is reported: (result key, tolerance, applies to record)
MARGIN_CHECKS = (
    ("identity_max_err", TOL_POINT, lambda r: r.get("calibrated")),
    ("chain_consistency", TOL_POINT, lambda r: True),
    ("trace_discrepancy_err", TOL_POINT, lambda r: True),
    ("fd_vs_divergence", TOL_INT, lambda r: True),
    ("analytic_vs_divergence", TOL_INT, lambda r: True),
)


def parse_records(text: str) -> list[dict]:
    return [json.loads(line) for line in text.splitlines() if line.strip()]


def canonical(records: list[dict]) -> str:
    """The records as text, without the wall-clock field."""
    return json.dumps([{k: v for k, v in r.items() if k != "wall_ms"} for r in records],
                      sort_keys=True)


def request_errors(rc, error: str | None, records: list[dict]) -> list[str]:
    if error is not None:
        return [f"raised {error}"]
    errors = []
    if rc != 0:
        errors.append(f"exit code {rc}")
    if not records:
        errors.append("no record")
    errors += [f"{r.get('id')}: pass false" for r in records if r.get("pass") is not True]
    return errors


def golden_errors(records: list[dict], golden: list[dict]) -> list[str]:
    if len(records) != len(golden):
        return [f"{len(records)} records, golden has {len(golden)}"]
    errors = []
    for got, want in zip(records, golden):
        if got.get("id") != want["id"]:
            errors.append(f"record id {got.get('id')} != golden {want['id']}")
            continue
        results = got.get("results", {})
        for key, ref in want["results"].items():
            if key not in results:
                errors.append(f"{want['id']}: result {key} missing")
            elif not _close(results[key], ref, TOL_INT if key in INTEGRAL_KEYS else TOL_POINT):
                errors.append(f"{want['id']}: {key} = {results[key]!r}, golden {ref!r}")
    return errors


def _close(got, ref, tol: float) -> bool:
    if isinstance(ref, bool) or not isinstance(ref, (int, float)):
        return got == ref
    if isinstance(got, bool) or not isinstance(got, (int, float)):
        return False
    if math.isnan(ref):
        return math.isnan(got)
    return abs(got - ref) <= tol


def margins(records: list[dict]):
    """(share of tolerance used, description) for every reported check."""
    out = []
    for rec in records:
        res = rec.get("results", {})
        if "um_dw_route" in res and "analytic_first_variation" in res:
            gap = abs(res["um_dw_route"] - res["analytic_first_variation"])
            out.append((gap / TOL_INT, f"{rec['id']} |fv - um_dw_route| = {gap:.3g}"
                        f" (TOL_INT {TOL_INT:g})"))
        for key, tol, applies in MARGIN_CHECKS:
            val = res.get(key)
            if isinstance(val, (int, float)) and applies(res):
                out.append((abs(val) / tol, f"{rec['id']} {key} = {abs(val):.3g} (tol {tol:g})"))
    return out
