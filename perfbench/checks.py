"""Reference checks of cslab outputs, run outside the timed region.

Each check reads the files a scenario wrote and compares them with an
independent reference (a closed form or another scenario's output) at the
tolerances of ``tests/test_acceptance.py``.  Every JSON report is first
parsed strictly: a NaN or infinity in a report is a failure.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path


class CheckFailed(Exception):
    """A scenario's outputs miss their reference."""


def _reject_constant(token: str):
    raise CheckFailed(f"non-finite number {token} in a JSON report")


def load_json(path: Path) -> dict:
    try:
        return json.loads(path.read_text(encoding="utf-8"), parse_constant=_reject_constant)
    except (OSError, ValueError) as exc:
        raise CheckFailed(f"{path.name}: {exc}") from exc


def reports_finite(out: Path) -> None:
    """Every JSON file of a scenario parses with finite numbers only."""
    paths = sorted(out.glob("*.json"))
    if not paths:
        raise CheckFailed("no JSON report written")
    for path in paths:
        load_json(path)


def read_csv(path: Path) -> dict[str, list[float]]:
    """Columns of a cslab CSV (provenance comment lines skipped)."""
    try:
        with path.open(encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(line for line in fh if not line.startswith("#")))
    except OSError as exc:
        raise CheckFailed(f"{path.name}: {exc}") from exc
    header, body = rows[0], rows[1:]
    columns = {name: [float(row[i]) for row in body] for i, name in enumerate(header)}
    if not body or not all(math.isfinite(v) for col in columns.values() for v in col):
        raise CheckFailed(f"{path.name}: empty or non-finite")
    return columns


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def centering_passed(name: str):
    def check(work: Path) -> None:
        report = load_json(work / name / "centering.json")
        _require(report["passed"] is True, f"{name}: labels do not read back")

    return check


def _samples(work: Path, name: str) -> list[dict]:
    return load_json(work / name / "symbol.json")["samples"]


def symbol_positive(name: str):
    """X^3 D^6 X^3 is B^+ B, so its symbol is real and positive."""

    def check(work: Path) -> None:
        for s in _samples(work, name):
            _require(s["value"] > 0, f"{name}: symbol {s['value']} <= 0")

    return check


def symbol_matches(name: str, closed_form):
    def check(work: Path) -> None:
        for s in _samples(work, name):
            ref = closed_form(s["p"], s["q"])
            _require(
                abs(s["value"] - ref) <= 1e-10 * (1 + abs(ref)),
                f"{name}: H({s['p']}, {s['q']}) = {s['value']} vs {ref}",
            )

    return check


def affine_metric(name: str, beta: float):
    """Poincare half-plane diag(q^2/beta, beta/q^2) within 1e-5."""

    def check(work: Path) -> None:
        for g in load_json(work / name / "metric.json")["points"]:
            q = g["q"]
            err = max(abs(g["g_pp"] - q * q / beta), abs(g["g_qq"] - beta / (q * q)),
                      abs(g["g_pq"]))
            _require(err <= 1e-5, f"{name}: metric error {err:.2e} at q={q}")

    return check


def canonical_metric(name: str, omega: float):
    """Flat diag(1/omega, omega): diagonal within 1e-6, off-diagonal 1e-8."""

    def check(work: Path) -> None:
        for g in load_json(work / name / "metric.json")["points"]:
            diag = max(abs(g["g_pp"] - 1 / omega), abs(g["g_qq"] - omega))
            _require(diag <= 1e-6 and abs(g["g_pq"]) <= 1e-8,
                     f"{name}: metric {g} is not diag(1/omega, omega)")

    return check


def curvature(name: str, expected: float):
    """Scalar curvature -2/beta (affine) or 0 (canonical) within 1e-3."""

    def check(work: Path) -> None:
        for row in load_json(work / name / "curvature.json")["points"]:
            err = abs(row["curvature"] - expected)
            _require(err <= 1e-3, f"{name}: curvature error {err:.2e} at q={row['q']}")

    return check


def finite_csv(name: str, filename: str):
    def check(work: Path) -> None:
        read_csv(work / name / filename)

    return check


def restricted_vs_full(quantum: str, classical: str):
    """Harmonic <x>, <p> follow the restricted flow within 1e-4."""

    def check(work: Path) -> None:
        full = read_csv(work / quantum / "evolve_quantum.csv")
        flow = read_csv(work / classical / "evolve_classical.csv")
        dt = flow["t"][1] - flow["t"][0]
        err = 0.0
        for t, x, p in zip(full["t"], full["q"], full["p"]):
            i = round(t / dt)
            _require(abs(flow["t"][i] - t) <= 1e-9, f"{quantum}: no restricted sample at t={t}")
            err = max(err, abs(x - flow["q"][i]), abs(p - flow["p"][i]))
        _require(err <= 1e-4, f"{quantum}: <x>,<p> vs restricted flow err {err:.2e}")

    return check


def model_one(name: str):
    """q stays above the floor C/E (rel. 1e-3); the C = 0 flow is singular."""

    def check(work: Path) -> None:
        r = load_json(work / name / "model_one.json")
        floor = r["q_floor_predicted"]
        _require(r["q_min_observed"] >= floor * (1 - 1e-3),
                 f"{name}: q_min {r['q_min_observed']} below floor {floor}")
        _require(r["enhanced_singular"] is False, f"{name}: enhanced flow flagged singular")
        _require(r["classical_singular"] is True, f"{name}: C = 0 flow not flagged singular")
        read_csv(work / name / "model_one.csv")

    return check


def model_two(name: str):
    def check(work: Path) -> None:
        r = load_json(work / name / "model_two.json")
        bound = 1e-12 * (1 + abs(r["H1"]))
        _require(r["agreement"] <= bound,
                 f"{name}: ladder vs closed form {r['agreement']:.2e} > {bound:.2e}")

    return check


def charfn(name: str):
    """Descent error falls monotonically in N for every p_r."""

    def check(work: Path) -> None:
        r = load_json(work / name / "charfn.json")
        _require(all(r["descent_error_monotone"].values()),
                 f"{name}: descent error not monotone in N")

    return check
