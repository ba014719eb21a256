"""Batch scenario runner.

Every computation in the package is exposed as a subcommand driven by a
flat key/value scenario file, overridable by command-line flags.  Outputs
are CSV (trajectories, snapshots), JSON (scalar reports) and optional SVG
line plots; every file carries a provenance header (tool version and the
scenario hash) and reruns with identical scenario + seed are byte-identical.

Exit codes: 0 success, 2 configuration error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import __version__
from .dynamics import Trajectory, integrate, model_one_flow, step_count
from .errors import ConfigError, CslabError, DomainError, NumericError
from .geometry import fs_metric, scalar_curvature
from .grids import WaveFunction
from .modeltwo import (
    ReducibleRep,
    _require_scale,
    characteristic_exact_gaussian,
    characteristic_radial,
    gaussian_radial_density,
    h1_closed_form,
    measure_superposition,
    scenario_record,
)
from .schrodinger import EvolutionSetup, evolution_window, evolve, evolve_hermite
from .states import (
    AFFINE_DOMAIN,
    CANONICAL_DOMAIN,
    SHEETS,
    CoherentFamily,
    PhasePoint,
    affine_fiducial,
    gaussian_fiducial,
    state_labels,
    verify_centering,
)
from .svgplot import write_line_plot
from .symbols import compute_C, parse_operator, weak_symbol


@dataclass(frozen=True)
class Param:
    kind: str  # float | int | str | floats | ints
    default: object = None
    required: bool = False
    help: str = ""
    choices: tuple | None = None


# the coherent sheet of a run: its family and the fiducial's parameters
SHEET: dict[str, Param] = {
    "family": Param("str", CANONICAL_DOMAIN, help="coherent family", choices=SHEETS),
    "omega": Param("float", 1.0, help="Gaussian fiducial frequency"),
    "beta": Param("float", 1.0, help="affine fiducial rate"),
    "hbar": Param("float", 1.0),
}


def _parse_value(key: str, param: Param, raw: str, where: str):
    raw = raw.strip()
    try:
        if param.kind == "float":
            return float(raw)
        if param.kind == "int":
            return int(raw)
        if param.kind == "floats":
            return tuple(float(tok) for tok in raw.split(",") if tok.strip())
        if param.kind == "ints":
            return tuple(int(tok) for tok in raw.split(",") if tok.strip())
        return raw
    except ValueError as exc:
        raise ConfigError(f"{where}: cannot parse {key} = {raw!r} as {param.kind}") from exc


def load_scenario(path: Path, schema: dict[str, Param]) -> dict:
    """Flat 'key = value' file; unknown keys are rejected with their line."""
    values: dict = {}
    try:
        lines = path.read_text(encoding="utf-8").splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read scenario {path}: {exc}") from exc
    for lineno, line in enumerate(lines, start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        key, _, raw = stripped.partition("=")
        key = key.strip()
        if key not in schema:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        values[key] = _parse_value(key, schema[key], raw, f"{path}:{lineno}")
    return values


def resolve_params(subcommand: str, args: argparse.Namespace) -> dict:
    schema = SUBCOMMANDS[subcommand].params
    values: dict = {}
    if args.scenario:
        values.update(load_scenario(Path(args.scenario), schema))
    for key, param in schema.items():
        cli_val = getattr(args, key, None)
        if cli_val is not None:
            values[key] = _parse_value(key, param, cli_val, "command line")
    for key, param in schema.items():
        if key not in values:
            if param.required:
                raise ConfigError(f"missing required parameter {key!r}")
            values[key] = param.default
        if param.choices and values[key] not in param.choices:
            raise ConfigError(
                f"{key} must be one of {param.choices}, got {values[key]!r}"
            )
    return values


def scenario_hash(subcommand: str, params: dict, seed: int) -> str:
    canonical = json.dumps(
        {"subcommand": subcommand, "params": params, "seed": seed},
        sort_keys=True,
        default=list,
    )
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# output helpers


class Outputs:
    def __init__(self, out_dir: Path, name: str, fmt: str, tag: str, quiet: bool):
        self.dir = out_dir
        self.name = name.replace("-", "_")
        self.fmt = fmt
        self.tag = tag
        self.quiet = quiet

    def _path(self, suffix: str, extension: str) -> Path:
        # the directory is made at the first write, so a run that stops
        # before writing leaves no trace
        try:
            self.dir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"cannot make output directory {self.dir}: {exc}") from exc
        return self.dir / f"{self.name}{suffix}.{extension}"

    def _announce(self, path: Path):
        if not self.quiet:
            print(f"wrote {path}")

    def provenance(self) -> dict:
        return {"tool_version": __version__, "scenario_hash": self.tag}

    def json(self, payload: dict) -> Path:
        payload = {"provenance": self.provenance(), **payload}
        try:
            text = json.dumps(payload, sort_keys=True, indent=2, allow_nan=False)
        except ValueError as exc:
            raise NumericError(f"non-finite value in the {self.name} report") from exc
        path = self._path("", "json")
        path.write_text(text + "\n")
        self._announce(path)
        return path

    def _csv(self, suffix: str, header: str, columns: tuple[np.ndarray, ...]) -> Path | None:
        """The two provenance lines, ``header``, then one row of ``columns`` per index,
        each value at 17 significant digits (a float reads back exactly)."""
        if self.fmt == "json":
            return None
        row = ",".join(["%.17g"] * len(columns)) + "\n"
        path = self._path(suffix, "csv")
        with path.open("w", encoding="utf-8", newline="\n") as fh:
            fh.write(f"# tool: cslab {__version__}\n# scenario: {self.tag}\n{header}\n")
            fh.writelines(row % values for values in zip(*(c.tolist() for c in columns)))
        self._announce(path)
        return path

    def csv_trajectory(self, traj: Trajectory) -> Path | None:
        return self._csv("", "t,p,q,H", (traj.times, traj.p, traj.q, traj.energy))

    def csv_snapshot(self, state: WaveFunction) -> Path | None:
        psi = state.values
        return self._csv("_final_state", "x,Re(psi),Im(psi)",
                         (state.grid.nodes, psi.real, psi.imag))

    def svg(self, x, series, title, x_label, y_label) -> Path | None:
        if self.fmt != "svg":
            return None
        path = self._path("", "svg")
        with path.open("w", encoding="utf-8", newline="\n") as fh:
            write_line_plot(
                fh,
                x,
                series,
                title=title,
                x_label=x_label,
                y_label=y_label,
                comment=f"tool: cslab {__version__}; scenario: {self.tag}",
            )
        self._announce(path)
        return path


def _fiducial(params: dict):
    if params["family"] == AFFINE_DOMAIN:
        return affine_fiducial(params["beta"], params["hbar"])
    return gaussian_fiducial(params["omega"], params["hbar"])


# rows of one trajectory run; model-one's default window writes 20001
MAX_RECORDS = 10**6
# Crank-Nicolson steps times unknowns of one half-line evolve-quantum run:
# about 3 min at 18-22 ns per node-step (4095 unknowns, 2-core host), 8 min
# at 47-60 ns once the vectors outgrow the cache (131071 unknowns); the flow
# benchmark runs 1.2e7
MAX_NODE_STEPS = 10**10


def _step_counts(dt: float, **spans: float) -> list[int]:
    """Steps of dt over each span; a non-zero span that rounds to no step, or over
    MAX_RECORDS rows in all, is refused before allocating."""
    steps = [step_count(span, dt, name) for name, span in spans.items()]
    for (name, span), count in zip(spans.items(), steps):
        if span and not count:
            raise ConfigError(f"{name} = {span!r} rounds to no step of dt = {dt!r}")
    if (n := sum(steps) + 1) > MAX_RECORDS:
        raise ConfigError(f"dt = {dt!r} gives {n:.12g} records, over the cap of {MAX_RECORDS}")
    return steps


def _start(params: dict, domain: str) -> PhasePoint:
    """The run's start (p0, q0); a start off the sheet is a configuration error."""
    try:
        return PhasePoint(params["p0"], params["q0"], domain=domain)
    except DomainError as exc:
        raise ConfigError(
            f"q0 = {params['q0']!r} is not a start on the {domain} sheet: {exc}"
        ) from exc


# ---------------------------------------------------------------------------
# subcommand runners


def run_centering(params: dict, rng: np.random.Generator, out: Outputs) -> None:
    if params["n_points"] < 0:
        raise ConfigError(f"n_points = {params['n_points']} is negative")
    f = _fiducial(params)
    tol = params["tolerance"]
    p_range = (-params["p_scale"], params["p_scale"])
    if f.kind == AFFINE_DOMAIN:
        q_range = (0.3, 0.3 + params["q_scale"])
    else:
        q_range = (-params["q_scale"], params["q_scale"])
    for key, (low, high) in (("p_scale", p_range), ("q_scale", q_range)):
        if not 0 <= high - low < math.inf:
            raise ConfigError(
                f"{key} = {params[key]!r} gives no finite, non-negative sampling range"
            )
    points = []
    max_err = 0.0
    for _ in range(params["n_points"]):
        p = float(rng.uniform(*p_range))
        q = float(rng.uniform(*q_range))
        pt = PhasePoint(p, q, domain=f.kind)
        p_read, q_read = state_labels(f, pt)
        err = max(abs(p_read - p), abs(q_read - q))
        max_err = max(max_err, err)
        points.append(
            {"p": p, "q": q, "p_read": p_read, "q_read": q_read, "error": err}
        )
    report = verify_centering(f, tol)
    out.json({
        "family": params["family"],
        "fiducial_centering": {
            "x_moment": report.x_moment,
            "conjugate_moment": report.conjugate_moment,
            "passed": report.passed,
        },
        "points": points,
        "max_error": max_err,
        "tolerance": tol,
        "passed": bool(max_err <= tol and report.passed),
    })


def run_symbol(params: dict, rng: np.random.Generator, out: Outputs) -> None:
    op = parse_operator(params["operator"])
    f = _fiducial(params)
    symbol = weak_symbol(op, f)
    samples = []
    for p in params["p_list"]:
        for q in params["q_list"]:
            dp, dq = symbol.grad(p, q)
            samples.append(
                {"p": p, "q": q, "value": symbol(p, q), "d_dp": dp, "d_dq": dq}
            )
    out.json({
        "operator": params["operator"],
        "hermitian": op.is_hermitian(),
        "closed_form": symbol.closed_form,
        "samples": samples,
    })
    qs = sorted(set(params["q_list"]))
    if len(qs) >= 2:
        p0 = params["p_list"][0]
        out.svg(
            qs,
            [("H(p0, q)", [symbol(p0, q) for q in qs])],
            title=f"symbol of {params['operator']}",
            x_label="q",
            y_label="H",
        )


def run_metric(params: dict, rng: np.random.Generator, out: Outputs) -> None:
    rows = []
    family = CoherentFamily(_fiducial(params))  # no grid: closed-form moments
    for q in params["q_list"]:
        for p in params["p_list"]:
            g = fs_metric(family, PhasePoint(p, q, domain=family.domain))
            rows.append({"p": p, "q": q, "g_pp": g.g_pp, "g_pq": g.g_pq, "g_qq": g.g_qq})
    out.json({"family": params["family"], "points": rows})


def run_curvature(params: dict, rng: np.random.Generator, out: Outputs) -> None:
    rows = []
    family = CoherentFamily(_fiducial(params))
    for q in params["q_list"]:
        value = scalar_curvature(family, PhasePoint(params["p"], q, domain=family.domain))
        rows.append({"p": params["p"], "q": q, "curvature": value})
    payload = {"family": params["family"], "points": rows}
    if family.domain == AFFINE_DOMAIN:
        payload["constant_negative_curvature"] = -2.0 / params["beta"]
    out.json(payload)


def run_evolve_classical(params: dict, rng: np.random.Generator, out: Outputs) -> None:
    start = _start(params, params["family"])
    _step_counts(params["dt"], t_final=params["t_final"])
    op = parse_operator(params["operator"])
    f = _fiducial(params)
    symbol = weak_symbol(op, f)
    traj = integrate(symbol, start, params["t_final"], params["dt"])
    out.json({
        "operator": params["operator"],
        "energy_initial": float(traj.energy[0]),
        "energy_drift": traj.energy_drift(),
        "singular": traj.singular,
        "singular_reason": traj.singular_reason,
        "final": {"t": float(traj.times[-1]), "p": float(traj.p[-1]), "q": float(traj.q[-1])},
    })
    out.csv_trajectory(traj)
    out.svg(
        traj.times.tolist(),
        [("p", traj.p.tolist()), ("q", traj.q.tolist())],
        title="restricted classical flow",
        x_label="t",
        y_label="p, q",
    )


def run_evolve_quantum(params: dict, rng: np.random.Generator, out: Outputs) -> None:
    if params["snapshot_every"] < 0:
        raise ConfigError(f"snapshot_every = {params['snapshot_every']} is negative")
    start = _start(params, params["family"])
    op = parse_operator(params["operator"])
    f = _fiducial(params)
    dt, steps, stride = params["dt"], params["steps"], params["snapshot_every"] or None
    # the work the argv asks for, bounded before any grid is built: the rows of
    # the final-state CSV, the records (a given stride records step 0, every
    # stride-th step and the last) and the half line's node-steps
    n_nodes = params["n_nodes"]
    if n_nodes > MAX_RECORDS:
        raise ConfigError(f"n_nodes = {n_nodes} is over the cap of {MAX_RECORDS} rows")
    if stride and (records := steps // stride + 1 + (steps % stride != 0)) > MAX_RECORDS:
        raise ConfigError(f"steps = {steps} at snapshot_every = {stride} gives {records} "
                          f"records, over the cap of {MAX_RECORDS}")
    if f.kind == AFFINE_DOMAIN and (work := steps * max(n_nodes - 1, 0)) > MAX_NODE_STEPS:
        raise ConfigError(f"steps = {steps} over {n_nodes - 1} unknowns gives {work} "
                          f"node-steps, over the cap of {MAX_NODE_STEPS}")
    grid = evolution_window(f, params["p0"], params["q0"], n_nodes)
    if f.kind == AFFINE_DOMAIN:
        psi0 = CoherentFamily(f, grid)(start.p, start.q).normalized()
        result = evolve(psi0, EvolutionSetup(op, grid, dt, steps, f.hbar), snapshot_every=stride)
        basis = {}
    else:
        result = evolve_hermite(op, f, start, grid, dt, steps, snapshot_every=stride)
        basis = {"basis_size": result.basis_size, "tail_weight": result.tail_weight}
    traj = result.trajectory
    out.json({
        "operator": params["operator"],
        "nodes": grid.n,
        "snapshots": len(traj.times),
        "energy_initial": float(traj.energy[0]),
        "energy_drift": traj.energy_drift(),
        "x_final": float(traj.q[-1]),
        "p_final": float(traj.p[-1]),
        **basis,
    })
    out.csv_trajectory(traj)
    out.csv_snapshot(result.final)
    out.svg(
        traj.times.tolist(),
        [("<x>", traj.q.tolist()), ("<p>", traj.p.tolist())],
        title="quantum expectation flow",
        x_label="t",
        y_label="<x>, <p>",
    )


def run_model_one(params: dict, rng: np.random.Generator, out: Outputs) -> None:
    t_min, t_max, dt = params["t_min"], params["t_max"], params["dt"]
    if not t_min <= 0 <= t_max:  # a NaN fails too
        raise ConfigError(f"t_min = {t_min!r} and t_max = {t_max!r} must bracket t = 0")
    p0, q0 = params["p0"], params["q0"]
    _start(params, AFFINE_DOMAIN)
    c = compute_C(affine_fiducial(params["beta"], params["hbar"]))  # the fiducial checks both
    n_back, n_fwd = _step_counts(dt, t_min=t_min, t_max=t_max)
    # records every dt back to t_min and forward to t_max, t = 0 included
    times = np.concatenate([np.arange(n_back, 0, -1) * -dt, np.arange(n_fwd + 1) * dt])
    energy, traj = model_one_flow(p0, q0, c, times)
    floor = c / energy
    if not floor > 0:  # C = hbar beta / 2 or C/E underflowed
        raise NumericError(f"the floor C/E = {c!r}/{energy!r} underflows to 0")
    # the C = 0 flow q0 (1 + p0 t)^2 collapses at t = -1/p0 if the window reaches it
    collapses = bool(p0 and times[0] <= -1 / p0 <= times[-1])
    end = float(times[0] if p0 > 0 else times[-1])
    out.json({
        "C": c,
        "energy": energy,
        "q_floor_predicted": floor,
        "q_min_observed": traj.min_q(),
        "floor_ratio": traj.min_q() / floor,
        "enhanced_singular": False,  # C > 0 keeps q at or above C/E > 0
        "classical_singular": collapses,
        "classical_q_min": 0.0 if collapses else q0 * (1 + p0 * end) ** 2,
        "classical_stop_time": -1 / p0 if collapses else end,
    })
    out.csv_trajectory(traj)
    out.svg(
        traj.times.tolist(),
        [("q", traj.q.tolist())],
        title="regularized collapse: q(t) stays above C/E",
        x_label="t",
        y_label="q",
    )


def run_model_two(params: dict, rng: np.random.Generator, out: Outputs) -> None:
    rep = ReducibleRep(params["N"], params["m"], params["zeta"])
    p = np.asarray(params["p"], dtype=float)
    q = np.asarray(params["q"], dtype=float)
    if p.size != rep.N or q.size != rep.N:
        raise ConfigError(f"p and q must have N = {rep.N} entries")
    record = scenario_record(rep, params["nu"], p, q)
    closed = h1_closed_form(rep, params["nu"], p, q)
    record["closed_form"] = closed
    record["agreement"] = abs(record["H1"] - closed)
    out.json(record)


def run_charfn(params: dict, rng: np.random.Generator, out: Outputs) -> None:
    hbar, m_prime = params["hbar"], params["m_prime"]
    _require_scale(m_prime, "m_prime")  # checked here: an empty n_list builds no density
    _require_scale(hbar, "hbar")
    table = []
    monotone = {}
    for p_r in params["p_r_list"]:
        errors = []
        for n in params["n_list"]:
            density = gaussian_radial_density(n, m_prime, hbar)
            res = characteristic_radial(density, p_r, hbar)
            errors.append(res.difference)
            table.append(
                {
                    "N": n,
                    "p_r": p_r,
                    "exact": res.exact,
                    "descent": res.descent,
                    "difference": res.difference,
                    "gaussian_closed_form": characteristic_exact_gaussian(p_r, m_prime, hbar),
                }
            )
        monotone[str(p_r)] = bool(
            all(errors[i + 1] < errors[i] for i in range(len(errors) - 1))
        )
    payload = {"table": table, "descent_error_monotone": monotone}
    if params["atoms"]:
        atoms = []
        for chunk in params["atoms"].split(","):
            b_text, _, mu_text = chunk.partition(":")
            try:
                atoms.append((float(b_text), float(mu_text)))
            except ValueError as exc:
                raise ConfigError(f"bad atom spec {chunk!r}") from exc
        payload["measure"] = [
            {"p_r": p_r, "value": measure_superposition(atoms, p_r, hbar)}
            for p_r in params["p_r_list"]
        ]
    out.json(payload)


class Subcommand(NamedTuple):
    run: Callable[[dict, np.random.Generator, Outputs], None]
    description: str
    params: dict[str, Param]


# every subcommand in the order the usage line lists them
SUBCOMMANDS: dict[str, Subcommand] = {
    "centering": Subcommand(
        run_centering, "verify that coherent states read back their (p, q) labels",
        {
            **SHEET,
            "n_points": Param("int", 20, help="random phase points to check"),
            "p_scale": Param("float", 2.0),
            "q_scale": Param("float", 2.0),
            "tolerance": Param("float", 1e-7),
        },
    ),
    "symbol": Subcommand(
        run_symbol, "evaluate an operator's classical symbol H(p, q) and gradient",
        {
            "operator": Param("str", required=True, help="e.g. '1.0 * D X D'"),
            **SHEET,
            "p_list": Param("floats", (0.0, 1.0)),
            "q_list": Param("floats", (0.5, 1.0, 2.0)),
        },
    ),
    "metric": Subcommand(
        run_metric, "Fubini-Study metric of a coherent-state sheet",
        {**SHEET, "p_list": Param("floats", (0.0,)), "q_list": Param("floats", (1.0,))},
    ),
    "curvature": Subcommand(
        run_curvature, "scalar curvature of a coherent-state sheet",
        {**SHEET, "p": Param("float", 0.0), "q_list": Param("floats", (0.5, 1.0, 4.0))},
    ),
    "evolve-classical": Subcommand(
        run_evolve_classical, "integrate Hamilton's equations for a symbol",
        {
            "operator": Param("str", required=True),
            **SHEET,
            "p0": Param("float", required=True),
            "q0": Param("float", required=True),
            "t_final": Param("float", 1.0),
            "dt": Param("float", 1e-3, help="spacing of the records"),
        },
    ),
    "evolve-quantum": Subcommand(
        run_evolve_quantum, "full quantum flow with expectation tracking",
        {
            "operator": Param("str", required=True),
            **SHEET,
            "p0": Param("float", required=True),
            "q0": Param("float", required=True),
            "dt": Param("float", 1e-4),
            "steps": Param("int", 1000),
            "n_nodes": Param("int", 2048),
            "snapshot_every": Param("int", 0, help="0 = automatic stride"),
        },
    ),
    "model-one": Subcommand(
        run_model_one, "singular vs. regularized flow of H = q p^2 + C/q",
        {
            "beta": Param("float", 1.0),
            "hbar": Param("float", 1.0),
            "p0": Param("float", 1.0),
            "q0": Param("float", 1.0),
            "t_min": Param("float", -10.0),
            "t_max": Param("float", 10.0),
            "dt": Param("float", 1e-3, help="spacing of the records"),
        },
    ),
    "model-two": Subcommand(
        run_model_two, "reducible-representation quartic-oscillator expectations",
        {
            "N": Param("int", required=True),
            "m": Param("float", 1.0),
            "zeta": Param("float", required=True),
            "nu": Param("float", 0.0),
            "p": Param("floats", required=True),
            "q": Param("floats", required=True),
        },
    ),
    "charfn": Subcommand(
        run_charfn, "rotationally symmetric characteristic functions",
        {
            "m_prime": Param("float", 1.0),
            "hbar": Param("float", 1.0),
            "p_r_list": Param("floats", (0.5, 1.0, 2.0)),
            "n_list": Param("ints", (4, 8, 16, 32, 64)),
            "atoms": Param("str", "", help="measure atoms 'b:mu,b:mu' (optional)"),
        },
    ),
}


def build_parser(names: tuple[str, ...] = tuple(SUBCOMMANDS)) -> argparse.ArgumentParser:
    """The ``cslab`` parser with a subparser for each of ``names`` (all by default).

    A subparser's ``prog`` is ``cslab <name>`` whichever names are built, and
    the usage line always lists every subcommand, so the help and the error
    messages of a parse that names a built subcommand do not depend on ``names``.
    """
    parser = argparse.ArgumentParser(
        prog="cslab",
        description="coherent-state laboratory: batch scenario runner",
    )
    # the full tree keeps argparse's own metavar: it names the positional
    # "subcommand" in the message for a missing one
    metavar = None if set(names) == set(SUBCOMMANDS) else "{" + ",".join(SUBCOMMANDS) + "}"
    sub = parser.add_subparsers(dest="subcommand", required=True, metavar=metavar)
    for name in names:
        command = SUBCOMMANDS[name]
        p = sub.add_parser(name, help=command.description, description=command.description)
        p.add_argument("--scenario", help="flat key/value scenario file")
        p.add_argument("--out", default="out", help="output directory")
        p.add_argument("--seed", type=int, default=0, help="RNG seed")
        p.add_argument(
            "--format",
            default="csv",
            choices=("csv", "json", "svg"),
            help="csv: data + JSON report; json: report only; svg: also plots",
        )
        p.add_argument("--quiet", action="store_true")
        for key, param in command.params.items():
            p.add_argument(f"--{key}", help=param.help or key)
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # build only the named subcommand; anything else (no argument, -h, a
    # typo) gets the full tree, whose usage lists every choice
    names = (argv[0],) if argv and argv[0] in SUBCOMMANDS else tuple(SUBCOMMANDS)
    args = build_parser(names).parse_args(argv)
    try:
        params = resolve_params(args.subcommand, args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    tag = scenario_hash(args.subcommand, params, args.seed)
    rng = np.random.default_rng(args.seed)
    out = Outputs(Path(args.out), args.subcommand, args.format, tag, args.quiet)
    try:
        SUBCOMMANDS[args.subcommand].run(params, rng, out)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except CslabError as exc:
        print(f"numerical failure in {args.subcommand}: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # a defect, or a dependency that failed to import
        message = f"{type(exc).__name__}: {exc}"
        print(f"internal error in {args.subcommand}: {message}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
