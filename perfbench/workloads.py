"""Scenario mixes for the cslab benchmark.

A workload is a fixed list of scenarios, each one ``cslab.cli.main(argv)``
call that writes its outputs to its own directory.  Every number in the
argv is drawn from the benchmark seed; cslab itself only sees the argv.
The amount of work in a mix does not depend on the seed: only values that
leave grid sizes, step counts and loop lengths unchanged are drawn.

Why each workload was chosen:

* ``sheet``: coherent-state construction, Fubini-Study metrics and
  curvature stencils (``geometry``/``states``/``grids``) do almost all the
  work, on affine grids both larger (beta = 1) and smaller (beta = 4) than
  L2, while ``dynamics``/``schrodinger``/``modeltwo`` do none.
* ``flow``: the paper's restricted-vs-full comparison, where RK4 steps
  (``dynamics`` driving ``SymbolFn.grad``) and Crank-Nicolson steps
  (``schrodinger``) do almost all the work and ``geometry``/``modeltwo`` do
  none; ``--format svg`` times the CSV and SVG writers.
* ``quartic``: the reducible quartic model, where the O(N^2) ladder loop
  and the 800 x 800 characteristic-function kernel (``modeltwo``) do almost
  all the work and every other computational layer does none.

Known defects are declared in the mixes beside the scenarios they belong
to, but they are not part of the timed loop (see ``Scenario``).
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import checks

HARMONIC = "0.5 * D D + 0.5 * X X"
DXD = "1.0 * D X D"
# X^3 D^6 X^3 = B^+ B with B = D^3 X^3, so its symbol is positive; its
# degrees exceed the closed-form caps of the symbol module
HIGH_DEGREE = "1.0 * X^3 D D D D D D X^3"
CHARFN_P_R = (0.5, 1.0, 2.0)  # the charfn subcommand's default p_r_list


@dataclass(frozen=True)
class Scenario:
    """One cslab invocation and the reference check of its outputs.

    ``check`` receives the sweep's work directory (scenario outputs live in
    ``work / name``) and raises ``checks.CheckFailed``.  ``known_defect``
    names a failure that exists at the commit the benchmark was defined
    on.  Such a scenario is a probe: every run executes it once, before
    the timed loop, and reports whether it still fails, but it is neither
    timed nor counted in ``attempted``/``failed``, so that the timed
    workload is one on which no operation fails.
    """

    name: str
    argv: tuple[str, ...]
    check: Callable[[Path], None] | None = None
    known_defect: str | None = None

    @property
    def subcommand(self) -> str:
        return self.argv[0]


def _floats(values) -> str:
    return ",".join(repr(float(v)) for v in values)


def _argv(subcommand: str, **params) -> tuple[str, ...]:
    """``--key=value`` form, so values such as ``-0.5,1.2`` are not read as flags."""
    return (subcommand,) + tuple(f"--{key}={value}" for key, value in params.items())


def sheet(rng: np.random.Generator) -> list[Scenario]:
    def q_draw(n):
        return _floats(rng.uniform(0.5, 4.0, n))

    def p_draw(n):
        return _floats(rng.uniform(-1.0, 1.0, n))

    out: list[Scenario] = []
    for beta in (1.0, 4.0):
        name = f"centering-affine-b{beta:g}"
        out.append(Scenario(name, _argv("centering", family="affine", beta=beta),
                            checks.centering_passed(name)))

    grid = {"p_list": p_draw(2), "q_list": q_draw(2)}
    out += [
        Scenario(
            "symbol-affine-highdeg",
            _argv("symbol", family="affine", beta=1.0, operator=HIGH_DEGREE, **grid),
            checks.symbol_positive("symbol-affine-highdeg"),
        ),
        Scenario(
            "symbol-canonical-highdeg",
            _argv("symbol", family="canonical", operator=HIGH_DEGREE, **grid),
            checks.symbol_positive("symbol-canonical-highdeg"),
            known_defect="degree caps send canonical X^3 D^6 X^3 to a "
            "finite-difference quadrature that exits 3 (ROADMAP item 2)",
        ),
        Scenario(
            "symbol-canonical-harmonic",
            _argv("symbol", family="canonical", operator=HARMONIC, **grid),
            checks.symbol_matches(
                "symbol-canonical-harmonic", lambda p, q: 0.5 * (p * p + q * q) + 0.5
            ),
        ),
        Scenario(
            "symbol-affine-dxd",
            _argv("symbol", family="affine", beta=4.0, operator=DXD, **grid),
            # <xi| (p + D/q) q x (p + D/q) |xi> = q p^2 + (hbar beta / 2) / q
            checks.symbol_matches("symbol-affine-dxd", lambda p, q: q * p * p + 2.0 / q),
        ),
    ]

    for beta in (1.0, 4.0):
        name = f"metric-affine-b{beta:g}"
        out.append(Scenario(
            name,
            _argv("metric", family="affine", beta=beta, p_list=p_draw(1), q_list=q_draw(2)),
            checks.affine_metric(name, beta),
        ))
    out.append(Scenario(
        "metric-canonical",
        _argv("metric", family="canonical", omega=1.0, p_list=p_draw(2), q_list=q_draw(2)),
        checks.canonical_metric("metric-canonical", omega=1.0),
    ))

    for beta, n_q in ((1.0, 1), (4.0, 2)):
        name = f"curvature-affine-b{beta:g}"
        out.append(Scenario(
            name,
            _argv("curvature", family="affine", beta=beta, p=p_draw(1), q_list=q_draw(n_q)),
            checks.curvature(name, -2.0 / beta),
        ))
    out.append(Scenario(
        "curvature-canonical",
        _argv("curvature", family="canonical", omega=1.0, p=p_draw(1), q_list=q_draw(1)),
        checks.curvature("curvature-canonical", 0.0),
    ))
    return out


def flow(rng: np.random.Generator) -> list[Scenario]:
    timing = {"dt": 1e-3, "t_final": 3.0}
    quantum = {"dt": 1e-3, "steps": 3000, "n_nodes": 4096}
    harmonic = {"operator": HARMONIC, "p0": rng.uniform(-1.0, 1.0),
                "q0": rng.uniform(-1.0, 1.0), "format": "svg"}
    dxd = {"operator": DXD, "family": "affine", "p0": rng.uniform(-0.5, 0.5),
           "q0": rng.uniform(0.5, 2.0), "format": "svg"}
    # |p0| = 1 fixes the C = 0 collapse time at 1 / |p0|, so every seed
    # integrates the same number of steps
    model_one = {"beta": 1.0, "p0": 1.0 if rng.random() < 0.5 else -1.0,
                 "q0": rng.uniform(0.5, 2.0), "format": "svg"}
    return [
        Scenario("harmonic-classical", _argv("evolve-classical", **harmonic, **timing),
                 checks.finite_csv("harmonic-classical", "evolve_classical.csv")),
        Scenario("harmonic-quantum", _argv("evolve-quantum", **harmonic, **quantum),
                 checks.restricted_vs_full("harmonic-quantum", "harmonic-classical")),
        Scenario("dxd-classical", _argv("evolve-classical", **dxd, **timing),
                 checks.finite_csv("dxd-classical", "evolve_classical.csv")),
        Scenario("dxd-quantum", _argv("evolve-quantum", **dxd, **quantum),
                 checks.finite_csv("dxd-quantum", "evolve_quantum.csv")),
        Scenario("model-one", _argv("model-one", **model_one), checks.model_one("model-one")),
    ]


def quartic(rng: np.random.Generator) -> list[Scenario]:
    out: list[Scenario] = []
    for n in (30, 100, 300):
        name = f"model-two-N{n}"
        out.append(Scenario(
            name,
            _argv("model-two", N=n, m=rng.uniform(0.5, 2.0), zeta=rng.uniform(0.1, 0.9),
                  nu=rng.uniform(0.0, 2.0), p=_floats(rng.normal(0.0, 1.0, n)),
                  q=_floats(rng.normal(0.0, 1.0, n))),
            checks.model_two(name),
        ))
    # one kernel costs the same for every p_r, so one value of the default
    # list per seed keeps the sweep short and its work seed-independent
    p_r = CHARFN_P_R[int(rng.integers(len(CHARFN_P_R)))]
    out += [
        Scenario(
            "charfn-small-N",
            _argv("charfn", p_r_list=p_r, n_list="4,8,16,32,64,128"),
            checks.charfn("charfn-small-N"),
        ),
        Scenario(
            "charfn-N256",
            _argv("charfn", p_r_list=p_r, n_list=256),
            checks.charfn("charfn-N256"),
            known_defect="radial weight r^(N-1) overflows and NaN reaches "
            "charfn.json (ROADMAP item 3)",
        ),
        Scenario(
            "charfn-N400",
            _argv("charfn", p_r_list=p_r, n_list=400),
            checks.charfn("charfn-N400"),
            known_defect="math.gamma overflows in solid_angle and the "
            "OverflowError escapes main (ROADMAP item 3)",
        ),
    ]
    return out


def smoke(rng: np.random.Generator) -> list[Scenario]:
    """A tiny mix touching most layers, for the harness's own test."""
    start = {"operator": HARMONIC, "p0": 0.5, "q0": -0.3}
    return [
        Scenario("metric-canonical",
                 _argv("metric", q_list=_floats(rng.uniform(-4.0, 4.0, 1))),
                 checks.canonical_metric("metric-canonical", omega=1.0)),
        Scenario("harmonic-classical",
                 _argv("evolve-classical", t_final=0.2, dt=1e-3, format="svg", **start),
                 checks.finite_csv("harmonic-classical", "evolve_classical.csv")),
        Scenario("harmonic-quantum",
                 _argv("evolve-quantum", n_nodes=1024, dt=1e-3, steps=200, **start),
                 checks.finite_csv("harmonic-quantum", "evolve_quantum.csv")),
        Scenario("model-two-N5",
                 _argv("model-two", N=5, zeta=0.5, nu=0.3, p=_floats(rng.normal(0.0, 1.0, 5)),
                       q=_floats(rng.normal(0.0, 1.0, 5))),
                 checks.model_two("model-two-N5")),
        Scenario("symbol-canonical-highdeg", _argv("symbol", operator=HIGH_DEGREE),
                 checks.symbol_positive("symbol-canonical-highdeg"),
                 known_defect="degree caps (ROADMAP item 2)"),
    ]


WORKLOADS: dict[str, Callable[[np.random.Generator], list[Scenario]]] = {
    "sheet": sheet,
    "flow": flow,
    "quartic": quartic,
    "smoke": smoke,
}
