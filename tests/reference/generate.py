"""Regenerate the reference outputs that ``tests/test_reference.py`` checks.

Run from the root of the repository:

    PYTHONPATH=src python tests/reference/generate.py

Each argv in ``RUNS`` is one in-process ``cslab.cli.main`` call; its JSON
and CSV outputs are stored under ``tests/reference/<name>/``.  Each argv in
``FAILURES`` is stored in ``failures.json`` as its exit code and the first
line of its stderr.  A change that regenerates these files names every
value that moved in CHANGES.md, as a defect fix or as roundoff.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
from pathlib import Path
from unittest import mock

from cslab.cli import main as cslab_main

REFERENCE = Path(__file__).resolve().parent

HARMONIC = "0.5 * D D + 0.5 * X X"
DXD = "1.0 * D X D"
HIGH_DEGREE = "1.0 * X^3 D D D D D D X^3"
MIXED = "0.5 * D D + 0.5 * X X + 0.1 * X^4 + 0.3 * D X D"
N30_P = ",".join(f"{0.1 * ((7 * i) % 11 - 5):.1f}" for i in range(30))
N30_Q = ",".join(f"{0.05 * ((5 * i) % 13 - 6):.2f}" for i in range(30))
N300_P = ",".join(f"{0.1 * ((7 * i) % 11 - 5):.1f}" for i in range(300))
N300_Q = ",".join(f"{0.05 * ((5 * i) % 13 - 6):.2f}" for i in range(300))

# the C = 0 flow collapses at t = -1/p0: inside this window for |p0| >= 0.5
MODEL_ONE = ["model-one", "--q0", "1.2", "--t_min", "-2", "--t_max", "2", "--dt", "0.01"]

# each subcommand on each sheet it supports
RUNS: dict[str, list[str]] = {
    "centering-canonical": ["centering", "--n_points", "5"],
    "centering-affine": ["centering", "--family", "affine", "--beta", "2", "--n_points", "5"],
    "symbol-canonical": ["symbol", "--operator", MIXED, "--omega", "1.5", "--hbar", "0.5"],
    "symbol-canonical-highdeg": ["symbol", "--operator", HIGH_DEGREE],
    "symbol-affine": ["symbol", "--family", "affine", "--beta", "2",
                      "--operator", DXD + " + 0.5 * X^2 + 0.25 * D D"],
    "symbol-affine-highdeg": ["symbol", "--family", "affine", "--operator", HIGH_DEGREE],
    "metric-canonical": ["metric", "--omega", "2", "--p_list=0,1", "--q_list=-1,2"],
    "metric-affine": ["metric", "--family", "affine", "--beta", "3", "--q_list", "0.5,1,4"],
    "curvature-canonical": ["curvature"],
    "curvature-affine": ["curvature", "--family", "affine", "--beta", "2", "--hbar", "0.5"],
    "evolve-classical-canonical": ["evolve-classical", "--operator", MIXED, "--p0", "0.5",
                                   "--q0", "0.3", "--t_final", "1", "--dt", "0.01"],
    "evolve-classical-affine": ["evolve-classical", "--family", "affine", "--operator", DXD,
                                "--p0", "0.4", "--q0", "1.5", "--t_final", "-1",
                                "--dt", "0.01"],
    # the flow turns back from the floor C/E = 5.6e-4 on a time scale of 7.9e-4
    "evolve-classical-affine-bounce": ["evolve-classical", "--family", "affine",
                                       "--operator", DXD, "--p0", "30", "--q0", "1",
                                       "--t_final", "-3", "--dt", "0.01"],
    # the start is the turning point q = C/E = 1e-7, left on a time scale of 1.4e-7
    "evolve-classical-turn-at-the-start": ["evolve-classical", "--family", "affine",
                                           "--operator", DXD, "--p0", "0", "--q0", "1e-7"],
    "evolve-quantum-canonical": ["evolve-quantum", "--operator", HARMONIC, "--p0", "0.5",
                                 "--q0", "-0.3", "--n_nodes", "1024", "--dt", "1e-3",
                                 "--steps", "200"],
    "evolve-quantum-affine": ["evolve-quantum", "--family", "affine", "--operator", DXD,
                              "--p0", "0.2", "--q0", "1", "--n_nodes", "1024",
                              "--dt", "1e-3", "--steps", "200"],
    "model-one": [*MODEL_ONE, "--p0", "0.8"],
    "model-one-forward-collapse": [*MODEL_ONE, "--p0", "-0.8"],
    "model-one-at-rest": [*MODEL_ONE, "--p0", "0"],
    "model-one-collapse-outside": [*MODEL_ONE, "--p0", "0.3"],
    "model-two-N30": ["model-two", "--N", "30", "--m", "1.3", "--zeta", "0.4", "--nu", "0.7",
                      f"--p={N30_P}", f"--q={N30_Q}"],
    "model-two-N300": ["model-two", "--N", "300", "--m", "1.3", "--zeta", "0.4", "--nu", "0.7",
                       f"--p={N300_P}", f"--q={N300_Q}"],
    "charfn-atoms": ["charfn", "--n_list", "4,16,64", "--atoms", "0.25:0.5,0.5:0.5"],
    "charfn-large-momentum": ["charfn", "--p_r_list", "8", "--n_list", "4"],
    "charfn-any-n": ["charfn", "--n_list", "1,2,100000"],
}

QUANTUM = ["evolve-quantum", "--operator", HARMONIC, "--p0", "0.1", "--q0", "0.2",
           "--steps", "3", "--n_nodes", "64"]

# the exit-2 and exit-3 argvs that README and CHANGES.md name
FAILURES: dict[str, list[str]] = {
    "metric-n-nodes": ["metric", "--n_nodes", "64"],
    "curvature-n-nodes": ["curvature", "--n_nodes", "64"],
    "model-one-beta-below-hbar": ["model-one", "--beta", "0.5"],
    "model-one-beta-nan": ["model-one", "--beta", "nan"],
    "symbol-affine-beta-below-hbar": ["symbol", "--family", "affine", "--beta", "0.5",
                                      "--operator", DXD],
    "symbol-x-power-0": ["symbol", "--operator", "1.0 * X^0"],
    "symbol-x-power-negative": ["symbol", "--operator", "1.0 * X^-1"],
    "evolve-classical-off-half-line": ["evolve-classical", "--family", "affine",
                                       "--operator", DXD, "--p0", "0", "--q0", "0"],
    "evolve-quantum-off-half-line": ["evolve-quantum", "--family", "affine",
                                     "--operator", DXD, "--p0", "0", "--q0", "nan"],
    "model-one-off-half-line": ["model-one", "--q0", "-1"],
    "evolve-quantum-p0-20": ["evolve-quantum", "--operator", HARMONIC, "--p0", "20",
                             "--q0", "0"],
    "evolve-quantum-q0-1000": [*QUANTUM, "--p0", "0", "--q0", "1000", "--n_nodes", "2048"],
    "evolve-quantum-negative-stride": [*QUANTUM, "--snapshot_every=-1"],
    "evolve-quantum-dt-0": [*QUANTUM, "--dt", "0"],
    "evolve-classical-dt-nan": ["evolve-classical", "--operator", HARMONIC, "--p0", "0.5",
                                "--q0", "0.5", "--dt", "nan"],
    "centering-p-scale-inf": ["centering", "--p_scale", "inf"],
    "charfn-n-negative": ["charfn", "--n_list", "-3"],
    "charfn-hbar-0": ["charfn", "--hbar", "0"],
    "model-one-window-without-t0": ["model-one", "--t_min", "5", "--t_max", "1", "--dt", "0.5"],
    "model-two-q-overflow": ["model-two", "--N", "2", "--zeta", "0.5", "--p", "1,2",
                             "--q", "1,1e200"],
    "model-two-p-nan": ["model-two", "--N", "1", "--zeta", "0.5", "--p", "nan", "--q", "1"],
    "model-two-nu-inf": ["model-two", "--N", "1", "--zeta", "0.5", "--p", "1", "--q", "1",
                         "--nu", "inf"],
    "evolve-quantum-affine-n-nodes-0": ["evolve-quantum", "--family", "affine", "--operator",
                                        DXD, "--p0", "0", "--q0", "1", "--n_nodes", "0"],
    "evolve-quantum-q0-1e308": ["evolve-quantum", "--operator", "0.5 * D D", "--p0", "0",
                                "--q0", "1e308"],
    "evolve-quantum-p0-1e308": ["evolve-quantum", "--operator", "0.5 * D D", "--p0", "1e308",
                                "--q0", "0"],
    "model-one-record-cap": ["model-one", "--dt", "1e-9"],
    "evolve-classical-record-cap": ["evolve-classical", "--operator", HARMONIC, "--p0", "0",
                                    "--q0", "0", "--t_final", "10", "--dt", "1e-6"],
    "model-one-p0-1e200": ["model-one", "--p0", "1e200"],
    "model-one-floor-underflow": ["model-one", "--hbar", "1e-200", "--beta", "1e-200",
                                  "--t_min", "0", "--t_max", "0.5"],
    "charfn-atoms-hbar-0": ["charfn", "--n_list=", "--hbar", "0", "--atoms", "0.25:1"],
    "charfn-atoms-hbar-negative": ["charfn", "--p_r_list=", "--hbar", "-1", "--atoms", "0.25:1"],
    "charfn-m-prime-negative": ["charfn", "--n_list=", "--m_prime", "-1"],
    "evolve-quantum-affine-q0-1e308": ["evolve-quantum", "--family", "affine", "--operator",
                                       DXD, "--p0", "0", "--q0", "1e308"],
    "evolve-classical-span-under-half-step": ["evolve-classical", "--operator", HARMONIC,
                                              "--p0", "0.1", "--q0", "0.2", "--t_final", "1",
                                              "--dt", "2"],
    "model-one-t-min-under-half-step": ["model-one", "--t_min", "-0.4", "--dt", "1"],
    "centering-n-points-negative": ["centering", "--n_points", "-1"],
    # the flow's period at q0 = 1e3 is about 3e-9: some 1e10 steps to t_final
    "evolve-classical-step-cap": ["evolve-classical", "--operator", "0.5 * D D + 1.0 * X^8",
                                  "--p0", "0", "--q0", "1e3", "--t_final", "1"],
    "evolve-quantum-not-hermitian": [*QUANTUM, "--operator", "1.0 * X D + 0.5 * D D"],
    "evolve-quantum-unbounded-below": [*QUANTUM, "--operator", "0.5 * D D + -0.25 * X^4",
                                       "--dt", "0.01", "--steps", "300"],
    "evolve-quantum-n-nodes-cap": [*QUANTUM, "--n_nodes", "1000001"],
    "evolve-quantum-record-cap": [*QUANTUM, "--snapshot_every", "1", "--steps", "1000000000"],
    "evolve-quantum-node-step-cap": ["evolve-quantum", "--family", "affine", "--operator", DXD,
                                     "--p0", "0", "--q0", "1", "--n_nodes", "1002",
                                     "--steps", "10000000"],
    # the start's spread q0 sqrt(hbar / 2 beta) is 6.6 spacings of the 2048-node
    # window; it used to exit 0 with energy_initial 927286 against the symbol's 5e6
    "evolve-quantum-affine-beta-1e7": ["evolve-quantum", "--family", "affine", "--operator", DXD,
                                       "--p0", "0", "--q0", "1", "--beta", "1e7",
                                       "--steps", "5"],
    # <D^40> = 39!! (hbar omega / 2)^20 is about 3e417: the closed form's
    # coefficients overflow; it used to exit 0 with H(1, q) = 2.45e153
    "symbol-moment-overflow": ["symbol", "--omega", "1e20",
                               "--operator", "1.0 * " + " ".join(["D"] * 40)],
    "symbol-affine-q-nan": ["symbol", "--family", "affine", "--operator", DXD,
                            "--q_list", "nan,1"],
}


def run_cli(argv: list[str], out: Path) -> tuple[int, str]:
    """Exit code and first stderr line of ``main(argv)`` writing to ``out``.

    argparse wraps its usage line at the terminal width, so the width is
    pinned while the call runs.
    """
    err = io.StringIO()
    try:
        with mock.patch.dict(os.environ, COLUMNS="200"), contextlib.redirect_stderr(err):
            code = cslab_main([*argv, "--out", str(out), "--quiet"])
    except SystemExit as exc:  # argparse rejects its argv by exiting
        code = exc.code
    lines = err.getvalue().splitlines()
    return code, lines[0] if lines else ""


def main() -> None:
    for name, argv in RUNS.items():
        out = REFERENCE / name
        shutil.rmtree(out, ignore_errors=True)
        code, first = run_cli(argv, out)
        if code != 0:
            raise SystemExit(f"{name} exited {code}: {first}")
    failures = {}
    for name, argv in FAILURES.items():
        code, first = run_cli(argv, REFERENCE / "unwritten")
        if code == 0 or (REFERENCE / "unwritten").exists():
            raise SystemExit(f"{name} was expected to fail without writing")
        failures[name] = {"exit": code, "stderr": first}
    text = json.dumps(failures, indent=2, sort_keys=True, ensure_ascii=False)
    (REFERENCE / "failures.json").write_text(text + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
