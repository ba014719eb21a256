"""Scenario runner: schemas, exit codes, determinism, provenance."""

import argparse
import ast
import importlib
import json
import math
import os
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import cslab
import cslab.cli
import cslab.grids
import cslab.symbols
from cslab.cli import MAX_NODE_STEPS, MAX_RECORDS, SUBCOMMANDS, Outputs, build_parser, main
from cslab.dynamics import Trajectory
from cslab.grids import WaveFunction, uniform_grid

SRC = Path(__file__).resolve().parent.parent / "src"


# a small harmonic evolve-quantum run; later flags override these
QUANTUM = ["evolve-quantum", "--operator", "0.5 * D D + 0.5 * X X", "--p0", "0.1",
           "--q0", "0.2", "--steps", "3", "--n_nodes", "64"]


# inputs that used to escape as an internal error (a step count that is not
# finite) or to pass unchecked into model-one (beta or hbar not positive)
UNCHECKED = [
    ["evolve-classical", "--operator", "0.5 * D D + 0.5 * X X", "--p0", "0", "--q0", "0",
     "--t_final", "nan"],
    ["evolve-classical", "--operator", "0.5 * D D + 0.5 * X X", "--p0", "0", "--q0", "0",
     "--t_final", "inf"],
    ["evolve-classical", "--operator", "0.5 * D D + 0.5 * X X", "--p0", "0", "--q0", "0",
     "--t_final", "1e300", "--dt", "1e-300"],
    ["model-one", "--t_max", "inf"],
    ["model-one", "--hbar", "-1"],
    ["model-one", "--beta", "-1"],
    ["model-one", "--hbar", "0"],
    ["model-one", "--beta", "0"],
]


def run(args):
    return main([a for a in args if a is not None])


def read_json(path):
    return json.loads(path.read_text())


class TestExitCodes:
    def test_unknown_scenario_key_exits_2(self, tmp_path, capsys):
        scenario = tmp_path / "bad.scn"
        scenario.write_text("family = canonical\nbogus_key = 3\n")
        code = run(["centering", "--scenario", str(scenario), "--out", str(tmp_path)])
        assert code == 2
        assert "bad.scn:2" in capsys.readouterr().err

    def test_bad_value_exits_2(self, tmp_path, capsys):
        scenario = tmp_path / "bad.scn"
        scenario.write_text("omega = not-a-number\n")
        code = run(["centering", "--scenario", str(scenario), "--out", str(tmp_path)])
        assert code == 2

    @pytest.mark.parametrize("case", ["non-utf8-scenario", "out-is-a-file"])
    def test_unusable_input_path_exits_2(self, tmp_path, capsys, case):
        # a UnicodeDecodeError traceback, and exit 3 as an internal error
        argv = ["centering", "--n_points", "1", "--quiet"]
        if case == "non-utf8-scenario":
            (tmp_path / "bad.scn").write_bytes(b"omega = 1\xff\n")
            argv += ["--scenario", str(tmp_path / "bad.scn"), "--out", str(tmp_path / "out")]
        else:
            (tmp_path / "taken").write_text("")
            argv += ["--out", str(tmp_path / "taken")]
        assert run(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: cannot ")
        assert str(tmp_path) in err

    @pytest.mark.parametrize(
        "argv,taken",
        [
            (["centering", "--n_points", "1"], "centering.json"),
            (["evolve-classical", "--operator", "0.5 * D D + 0.5 * X X", "--p0", "0.5",
              "--q0", "0.5", "--t_final", "0.01"], "evolve_classical.csv"),
            (["symbol", "--operator", "0.5 * D D + 0.5 * X X", "--format", "svg"], "symbol.svg"),
        ],
        ids=["json", "csv", "svg"],
    )
    def test_unwritable_output_file_exits_2(self, tmp_path, capsys, argv, taken):
        # each writer exited 3 as "internal error in ...: IsADirectoryError"
        (tmp_path / taken).mkdir()
        assert run(argv + ["--out", str(tmp_path), "--quiet"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"configuration error: cannot write {tmp_path / taken}: ")
        assert "Traceback" not in err

    @pytest.mark.parametrize("seed", ["-1", "-12345678901234567890"])
    def test_negative_seed_exits_2_before_any_output(self, tmp_path, capsys, seed):
        # numpy's default_rng raised an uncaught ValueError: exit 1 with a traceback
        assert run(["metric", "--seed", seed, "--out", str(tmp_path / "out")]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"configuration error: seed = {seed} is negative\n"
        assert captured.out == ""
        assert not (tmp_path / "out").exists()

    def test_missing_required_exits_2(self, tmp_path):
        assert run(["symbol", "--out", str(tmp_path)]) == 2

    def test_bad_family_choice_exits_2(self, tmp_path):
        code = run(["centering", "--family", "spherical", "--out", str(tmp_path)])
        assert code == 2

    def test_numeric_domain_failure_exits_3(self, tmp_path, capsys):
        # the bare kinetic map diverges at beta/hbar = 1
        code = run(
            [
                "symbol",
                "--operator",
                "1.0 * D D",
                "--family",
                "affine",
                "--beta",
                "1.0",
                "--out",
                str(tmp_path),
            ]
        )
        assert code == 3
        assert "numerical failure" in capsys.readouterr().err

    def test_vector_length_mismatch_exits_2(self, tmp_path):
        code = run(
            ["model-two", "--N", "3", "--zeta", "0.5", "--p", "1,0", "--q", "0,1",
             "--out", str(tmp_path)]
        )
        assert code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["centering", "--p_scale", "1e308"],
            ["centering", "--p_scale", "nan"],
            ["centering", "--q_scale", "1e308"],
            ["centering", "--hbar", "nan"],
            ["metric", "--omega", "nan"],
            ["metric", "--family", "affine", "--beta", "nan"],
            ["evolve-classical", "--operator", "0.5 * D D + 0.5 * X X",
             "--p0", "0.5", "--q0", "0.5", "--dt", "nan"],
            ["model-one", "--dt", "nan"],
            ["evolve-quantum", "--operator", "0.5 * D D + 0.5 * X X",
             "--p0", "0.5", "--q0", "0.5", "--dt", "nan"],
            ["symbol", "--operator", "1.0 * X", "--omega", "nan"],
            QUANTUM + ["--n_nodes", "2"],
            QUANTUM + ["--p0", "1e300"],
            QUANTUM + ["--q0", "1e300"],
            QUANTUM + ["--omega", "1e-300"],
            # 128 nodes: the half line needs h <= 0.5 q0 sqrt(hbar / 2 beta),
            # which 64 nodes miss at beta = hbar
            QUANTUM + ["--family", "affine", "--operator", "1.0 * D X D", "--q0", "1e300",
                       "--n_nodes", "128"],
            QUANTUM + ["--operator", "1.0 * X^400 + -1.0 * X^400 + 0.5 * D D"],
            # hbar^2 overflows the grid's stencil; the canonical sheet's Hermite
            # route has no stencil and computes this flow (test_large_hbar_is_exact)
            QUANTUM + ["--family", "affine", "--operator", "1.0 * D X D", "--q0", "1",
                       "--beta", "1e200", "--hbar", "1e200", "--n_nodes", "128"],
            ["metric", "--family", "affine", "--q_list", "1e200"],
            ["curvature", "--family", "affine", "--q_list", "1e200"],
            ["symbol", "--operator", "1.0 * X^1100"],
            ["symbol", "--operator", "1.0 * X^400", "--omega", "1e-10"],
            QUANTUM + ["--omega", "1e300"],
            ["symbol", "--operator", "1.0 * X^300", "--q_list=1e200"],
            ["symbol", "--operator", "1.0 * X^50 D X^50", "--q_list=1e200"],
            ["symbol", "--family", "affine", "--operator", "1.0 * X^50 D X^50",
             "--q_list=1e200"],
            ["symbol", "--operator", "1.0 * " + " ".join(["D"] * 20), "--p_list=1e200"],
            # <D^40> = 39!! (hbar omega / 2)^20 ~ 3e417: NaN coefficients were
            # dropped, and both exited 0 with H(0, q) = 0
            ["symbol", "--operator", "1.0 * " + " ".join(["D"] * 40), "--omega", "1e20"],
            ["evolve-classical", "--operator", "1.0 * " + " ".join(["D"] * 70),
             "--omega", "1e10", "--p0", "0", "--q0", "0"],
            QUANTUM + ["--snapshot_every=-1"],
            ["curvature", "--q_list", "nan"],
            ["curvature", "--p", "nan"],
            ["curvature", "--family", "affine", "--q_list", "nan"],
            *UNCHECKED,
            # half_line_grid divided by n before checking it: ZeroDivisionError
            QUANTUM + ["--family", "affine", "--operator", "1.0 * D X D", "--q0", "1",
                       "--n_nodes", "0"],
        ],
    )
    def test_non_finite_input_fails_closed(self, tmp_path, capsys, argv):
        code = run(argv + ["--out", str(tmp_path), "--quiet"])
        assert code in (2, 3)
        assert "internal error" not in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv", UNCHECKED + [["model-one", "--beta", "0.5"]])
    def test_unchecked_input_is_a_numerical_failure(self, tmp_path, capsys, argv):
        # model-one checks beta and hbar through the affine fiducial, which
        # also requires beta/hbar >= 1
        code = run(argv + ["--out", str(tmp_path), "--quiet"])
        assert code == 3
        assert "numerical failure" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "argv",
        [
            ["--p0", "20"],
            ["--p0", "200"],
            ["--family", "affine", "--operator", "1.0 * D X D", "--q0", "1", "--p0", "20"],
        ],
    )
    def test_unresolved_momentum_stops_before_stepping(self, tmp_path, capsys, argv):
        # |p0| h / hbar is 0.53, 40.5 and 0.24 on 2048 nodes; the first two
        # used to exit 0 with energy_initial 195.85 and 47.2 against the
        # exact 200.5 and 20000.5
        code = run(
            ["evolve-quantum", "--operator", "0.5 * D D + 0.5 * X X", "--q0", "0",
             "--n_nodes", "2048", *argv, "--out", str(tmp_path), "--quiet"]
        )
        assert code == 3
        assert "resolution limit" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_unresolved_fiducial_width_stops_before_stepping(self, tmp_path, capsys):
        # q0 = 1000 spreads 2048 nodes at h = 1.39 sigma; it used to exit 0
        # with energy_initial 500000.692 against the exact 500000.5
        code = run(
            ["evolve-quantum", "--operator", "0.5 * D D + 0.5 * X X", "--p0", "0",
             "--q0", "1000", "--n_nodes", "2048", "--steps", "3",
             "--out", str(tmp_path), "--quiet"]
        )
        assert code == 3
        err = capsys.readouterr().err
        assert "does not resolve the fiducial width" in err
        assert "resolution limit" in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv, named", [
        pytest.param(["--operator", "0.5 * D D", "--p0", "0", "--q0", "1e308"],
                     "p0 = 0.0, q0 = 1e+308", id="full-line-q0"),
        pytest.param(["--operator", "0.5 * D D", "--p0", "1e308", "--q0", "0"],
                     "p0 = 1e+308, q0 = 0.0", id="full-line-p0"),
        pytest.param(["--family", "affine", "--operator", "1.0 * D X D", "--p0", "0",
                      "--q0", "1e308"], "lower q0", id="half-line"),
    ])
    def test_far_start_names_the_start(self, tmp_path, capsys, argv, named):
        # these used to name grid internals: "grid nodes must be strictly
        # increasing" and "upper must exceed lower"
        code = run(["evolve-quantum", *argv, "--out", str(tmp_path), "--quiet"])
        assert code == 3
        err = capsys.readouterr().err
        assert "non-finite width" in err and named in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv, code", [
        pytest.param(QUANTUM + ["--snapshot_every=-1"], 2, id="exit-2"),
        pytest.param(QUANTUM + ["--p0", "0", "--q0", "1000", "--n_nodes", "2048"], 3, id="exit-3"),
    ])
    def test_failed_run_leaves_no_output_directory(self, tmp_path, argv, code):
        # both stop inside the runner, after the output directory is known
        out = tmp_path / "never-written"
        assert run(argv + ["--out", str(out), "--quiet"]) == code
        assert not out.exists()

    @pytest.mark.parametrize("q0", ["-1", "0", "nan"])
    def test_evolve_quantum_start_off_the_half_line_exits_2(self, tmp_path, capsys, q0):
        # it used to exit 3 naming half_line_window's upper end, not q0
        self._assert_off_half_line(
            tmp_path, capsys, q0,
            ["evolve-quantum", "--family", "affine", "--operator", "1.0 * D X D", "--p0", "0",
             "--n_nodes", "64", "--steps", "3"],
        )

    @pytest.mark.parametrize("q0", ["-1", "0", "nan"])
    def test_evolve_classical_start_off_the_half_line_exits_2(self, tmp_path, capsys, q0):
        self._assert_off_half_line(
            tmp_path, capsys, q0,
            ["evolve-classical", "--family", "affine", "--operator", "1.0 * D X D", "--p0", "0"],
        )

    @pytest.mark.parametrize("q0", ["-1", "0", "nan"])
    def test_model_one_start_off_the_half_line_exits_2(self, tmp_path, capsys, q0):
        self._assert_off_half_line(tmp_path, capsys, q0, ["model-one"])

    @staticmethod
    def _assert_off_half_line(tmp_path, capsys, q0, argv):
        out = tmp_path / "out"
        assert run(argv + ["--q0", q0, "--out", str(out), "--quiet"]) == 2
        err = capsys.readouterr().err
        assert f"configuration error: q0 = {float(q0)!r} is not a start on the affine sheet" in err
        assert not out.exists()

    @pytest.mark.parametrize("flag,value", [("--q_list", "1e308"), ("--omega", "1e300")])
    def test_extreme_flat_sheet_has_zero_curvature(self, tmp_path, flag, value):
        # the canonical metric is finite and constant there, so the sheet is flat
        code = run(["curvature", flag, value, "--out", str(tmp_path), "--quiet"])
        assert code == 0
        points = read_json(tmp_path / "curvature.json")["points"]
        assert [point["curvature"] for point in points] == [0.0] * len(points)

    @pytest.mark.parametrize("family", ["canonical", "affine"])
    @pytest.mark.parametrize("scale", ["--p_scale=-1", "--q_scale=-1"])
    def test_negative_centering_scale_exits_2(self, tmp_path, capsys, family, scale):
        code = run(["centering", "--family", family, scale, "--out", str(tmp_path), "--quiet"])
        assert code == 2
        assert "non-negative" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_overflowing_potential_stops_without_a_warning(self, tmp_path, capsys):
        # X^400 overflows on the half line's grid; the spectral-radius guard
        # stops the run and numpy prints nothing of it
        argv = QUANTUM + ["--family", "affine", "--q0", "1", "--n_nodes", "128",
                          "--operator", "1.0 * X^400 + -1.0 * X^400 + 0.5 * D D",
                          "--out", str(tmp_path)]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = run(argv)
        assert code == 3
        assert caught == []
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("numerical failure in evolve-quantum: dt * spectral radius")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv, message", [
        # degree 400 asks for more Hermite states than the cap before any is built
        (["--operator", "1.0 * X^400 + -1.0 * X^400 + 0.5 * D D"], "over MAX_BASIS = 1024"),
        # at s = sqrt(hbar / 2 omega) = 7071, X^60 overflows in its 489-state basis
        (["--operator", "1.0 * X^60 + 0.5 * D D", "--omega", "1e-8", "--p0", "0"],
         "operator term X^60 has non-finite elements in the 489-state Hermite basis"),
    ])
    def test_overflowing_operator_stops_in_the_hermite_basis(self, tmp_path, capsys,
                                                              argv, message):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = run(QUANTUM + [*argv, "--out", str(tmp_path)])
        assert code == 3
        assert caught == []
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and message in err[0]
        assert list(tmp_path.iterdir()) == []

    def test_large_hbar_is_exact(self, tmp_path):
        # hbar = 1e200 overflowed the grid's hbar^2 / h^2 and exited 3; in the
        # Hermite basis it is the oscillator's exact flow, E = hbar (|z|^2 + 1/2)
        assert run(QUANTUM + ["--hbar", "1e200", "--out", str(tmp_path), "--quiet"]) == 0
        payload = read_json(tmp_path / "evolve_quantum.json")
        t = 3e-4
        assert payload["x_final"] == pytest.approx(0.2 * math.cos(t) + 0.1 * math.sin(t),
                                                   abs=1e-12)
        assert payload["p_final"] == pytest.approx(0.1 * math.cos(t) - 0.2 * math.sin(t),
                                                   abs=1e-12)
        assert payload["energy_initial"] == pytest.approx(5e199, rel=1e-12)

    def test_negative_snapshot_stride_exits_2(self, tmp_path, capsys):
        code = run(QUANTUM + ["--snapshot_every=-1", "--out", str(tmp_path), "--quiet"])
        assert code == 2
        assert "snapshot_every = -1 is negative" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []
        # 0 still picks the automatic stride: every one of the 3 steps here
        assert run(QUANTUM + ["--snapshot_every=0", "--out", str(tmp_path), "--quiet"]) == 0
        assert read_json(tmp_path / "evolve_quantum.json")["snapshots"] == 4

    def test_negative_point_count_exits_2(self, tmp_path, capsys):
        # it used to exit 0 with an empty points list and passed: true
        out = tmp_path / "never-written"
        assert run(["centering", "--n_points", "-1", "--out", str(out), "--quiet"]) == 2
        assert "n_points = -1 is negative" in capsys.readouterr().err
        assert not out.exists()
        assert run(["centering", "--n_points", "0", "--out", str(out), "--quiet"]) == 0
        assert read_json(out / "centering.json")["points"] == []

    @pytest.mark.parametrize("p_scale", ["1e6", "1e300"])
    def test_large_momentum_reads_back_on_envelope_window(self, tmp_path, p_scale):
        code = run(
            ["centering", "--p_scale", p_scale, "--n_points", "3",
             "--out", str(tmp_path), "--quiet"]
        )
        assert code == 0
        for point in read_json(tmp_path / "centering.json")["points"]:
            assert abs(point["p_read"] - point["p"]) <= 1e-12 * abs(point["p"])
            assert abs(point["q_read"] - point["q"]) <= 1e-9


class TestInternalErrors:
    @pytest.mark.parametrize(
        "exc", [ZeroDivisionError("float division by zero"), ImportError("no module named scipy")]
    )
    def test_runner_exception_exits_3_without_traceback(self, tmp_path, capsys, monkeypatch, exc):
        def broken(params, rng, out):
            raise exc

        monkeypatch.setitem(SUBCOMMANDS, "metric", SUBCOMMANDS["metric"]._replace(run=broken))
        assert run(["metric", "--out", str(tmp_path), "--quiet"]) == 3
        err = capsys.readouterr().err
        assert f"internal error in metric: {type(exc).__name__}: {exc}" in err
        assert "Traceback" not in err
        assert list(tmp_path.iterdir()) == []


# one fresh interpreter: numpy and the cslab modules loaded by a bare
# ``import cslab``, then the scipy modules loaded after importing the CLI,
# after a run of every subcommand (evolve-quantum on the canonical sheet),
# and after one half-line evolve-quantum run; every list stays empty
COLD_START = """
import json, sys
import cslab

bare = {"version": cslab.__version__,
        "loaded": sorted(m for m in sys.modules if m == "numpy" or m.startswith("cslab."))}
from cslab.cli import main

def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

out, free, quantum = sys.argv[1], json.loads(sys.argv[2]), json.loads(sys.argv[3])
loaded = {"bare": bare, "import": scipy_modules()}
codes = [main(argv + ["--out", out, "--quiet"]) for argv in free]
loaded["free"] = scipy_modules()
codes.append(main(quantum + ["--out", out, "--quiet"]))
loaded["quantum"] = scipy_modules()
print(json.dumps({"codes": codes, "loaded": loaded}))
"""

COLD_ARGVS = [
    ["centering", "--n_points", "2"],
    ["symbol", "--operator", "0.5 * D D + 0.5 * X X"],
    ["metric"],
    ["curvature"],
    ["evolve-classical", "--operator", "0.5 * D D + 0.5 * X X", "--p0", "0.5", "--q0", "0.5"],
    ["model-one", "--t_min", "-1", "--t_max", "1"],
    ["model-two", "--N", "2", "--zeta", "0.5", "--p", "1,0", "--q", "0,1"],
    ["charfn", "--n_list", "4", "--p_r_list", "1.0"],
]


class TestColdStart:
    def test_no_route_loads_scipy(self, tmp_path):
        assert {argv[0] for argv in COLD_ARGVS} == set(SUBCOMMANDS) - {"evolve-quantum"}
        # the canonical sheet's Hermite route and the half line's
        # Crank-Nicolson sweeps use numpy only
        free = COLD_ARGVS + [QUANTUM + ["--steps", "10"]]
        quantum = QUANTUM + ["--steps", "10", "--family", "affine", "--operator", "1.0 * D X D",
                             "--q0", "1", "--n_nodes", "128"]
        child = subprocess.run(
            [sys.executable, "-c", COLD_START, str(tmp_path), json.dumps(free),
             json.dumps(quantum)],
            env={**os.environ, "PYTHONPATH": str(SRC)},
            capture_output=True,
            text=True,
            timeout=60,
            check=True,
        )
        result = json.loads(child.stdout)
        assert result["codes"] == [0] * 10
        # the package exports only its version: importing it loads no module
        assert result["loaded"]["bare"] == {"version": cslab.__version__, "loaded": []}
        assert result["loaded"]["import"] == []
        assert result["loaded"]["free"] == []
        assert result["loaded"]["quantum"] == []


def subparsers(parser):
    (action,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return action.choices


class TestParserBuild:
    """main builds only the subparser its argv names, once per process; help and
    errors do not change."""

    def test_default_builds_every_subcommand(self):
        assert list(subparsers(build_parser())) == list(SUBCOMMANDS)

    def test_build_parser_returns_a_new_parser_on_each_call(self):
        assert build_parser() is not build_parser()
        assert build_parser(("metric",)) is not build_parser(("metric",))

    @pytest.mark.parametrize("name", list(SUBCOMMANDS))
    def test_one_subparser_has_the_full_tree_help(self, name):
        alone = subparsers(build_parser((name,)))
        assert list(alone) == [name]
        assert alone[name].format_help() == subparsers(build_parser())[name].format_help()

    @pytest.mark.parametrize("argv", COLD_ARGVS + [QUANTUM], ids=lambda argv: argv[0])
    def test_main_adds_one_subparser(self, tmp_path, monkeypatch, argv):
        calls = []
        add_parser = argparse._SubParsersAction.add_parser

        def counted(self, name, **kwargs):
            calls.append(name)
            return add_parser(self, name, **kwargs)

        monkeypatch.setattr(argparse._SubParsersAction, "add_parser", counted)
        cslab.cli._parser.cache_clear()
        assert run(argv + ["--out", str(tmp_path), "--quiet"]) == 0
        assert calls == [argv[0]]
        assert run(argv + ["--out", str(tmp_path), "--quiet"]) == 0
        assert calls == [argv[0]]

    @pytest.mark.parametrize("argv", COLD_ARGVS + [QUANTUM], ids=lambda argv: argv[0])
    def test_warm_run_matches_the_cold_run(self, tmp_path, capsys, argv):
        def once():
            shutil.rmtree(tmp_path / "out", ignore_errors=True)
            code = run(argv + ["--out", str(tmp_path / "out")])
            files = {p.name: p.read_bytes() for p in (tmp_path / "out").iterdir()}
            return code, capsys.readouterr(), files

        cslab.cli._parser.cache_clear()
        cold = once()
        assert cold[0] == 0 and cold[2]
        assert once() == cold

    @pytest.mark.parametrize(
        "argv",
        [["-h"], ["metric", "-h"], ["metric", "--bogus", "1"], ["metric", "--format", "xml"],
         ["metric", "stray"], ["bogus"]],
        ids=["help", "metric-help", "unknown-flag", "bad-format", "stray-positional",
             "bogus-subcommand"],
    )
    def test_help_and_errors_match_cold_and_warm_at_any_width(self, capsys, monkeypatch, argv):
        def once(columns):
            monkeypatch.setenv("COLUMNS", columns)
            with pytest.raises(SystemExit) as stop:
                main(argv)
            captured = capsys.readouterr()
            return stop.value.code, captured.out, captured.err

        cold = {}
        for columns in ("80", "200"):
            cslab.cli._parser.cache_clear()
            cold[columns] = once(columns)
            assert once(columns) == cold[columns]
        # the parser built at 200 columns wraps at 80 when the width shrinks
        assert once("80") == cold["80"]
        assert cold["80"] != cold["200"]

    @pytest.mark.parametrize(
        "argv,code,message",
        [
            ([], 2, "the following arguments are required: subcommand"),
            (["bogus"], 2, "invalid choice: 'bogus'"),
            (["-h"], 0, "positional arguments"),
        ],
    )
    def test_usage_still_lists_every_subcommand(self, capsys, argv, code, message):
        with pytest.raises(SystemExit) as stop:
            main(argv)
        assert stop.value.code == code
        captured = capsys.readouterr()
        text = captured.out + captured.err
        assert "{" + ",".join(SUBCOMMANDS) + "}" in text
        assert message in text

    def test_unrecognized_argument_error_matches_the_full_tree(self, capsys):
        argv = ["metric", "--bogus", "1"]
        with pytest.raises(SystemExit) as stop:
            main(argv)
        assert stop.value.code == 2
        err = capsys.readouterr().err
        with pytest.raises(SystemExit):
            build_parser().parse_args(argv)
        assert capsys.readouterr().err == err

    def test_none_reads_sys_argv(self, tmp_path, monkeypatch):
        monkeypatch.setattr(sys, "argv", ["cslab", "metric", "--out", str(tmp_path), "--quiet"])
        assert main(None) == 0
        assert (tmp_path / "metric.json").exists()


class TestCenteringCommand:
    def test_runs_and_passes(self, tmp_path):
        code = run(
            ["centering", "--family", "canonical", "--n_points", "5",
             "--out", str(tmp_path), "--quiet"]
        )
        assert code == 0
        payload = read_json(tmp_path / "centering.json")
        assert payload["passed"] is True
        assert payload["max_error"] <= payload["tolerance"]
        assert payload["provenance"]["tool_version"]

    def test_scenario_file_with_overrides(self, tmp_path):
        scenario = tmp_path / "c.scn"
        scenario.write_text("# affine centering\nfamily = affine\nbeta = 2.0\nn_points = 4\n")
        code = run(
            ["centering", "--scenario", str(scenario), "--n_points", "3",
             "--out", str(tmp_path), "--quiet"]
        )
        assert code == 0
        payload = read_json(tmp_path / "centering.json")
        assert payload["family"] == "affine"
        assert len(payload["points"]) == 3  # flag overrides the file

    @pytest.mark.parametrize("family", ["canonical", "affine"])
    def test_fiducial_check_uses_the_tolerance(self, tmp_path, monkeypatch, family):
        seen = []

        def spy(f, tol):
            seen.append(tol)
            return verify_centering(f, tol)

        verify_centering = cslab.cli.verify_centering
        monkeypatch.setattr(cslab.cli, "verify_centering", spy)
        code = run(["centering", "--family", family, "--n_points", "2", "--tolerance", "3e-5",
                    "--out", str(tmp_path), "--quiet"])
        assert code == 0
        assert seen == [3e-5]


class TestDeterminism:
    def test_byte_identical_reruns(self, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        for out in (out_a, out_b):
            code = run(
                ["model-one", "--p0", "1.0", "--q0", "1.0", "--t_min", "-2",
                 "--t_max", "2", "--seed", "7", "--out", str(out), "--quiet"]
            )
            assert code == 0
        for name in ("model_one.json", "model_one.csv"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_seed_changes_sampled_output(self, tmp_path):
        outs = []
        for seed in ("1", "2"):
            out = tmp_path / seed
            run(["centering", "--n_points", "3", "--seed", seed, "--out", str(out), "--quiet"])
            outs.append(read_json(out / "centering.json")["points"])
        assert outs[0] != outs[1]


class TestModelOneCommand:
    @pytest.mark.parametrize("t_min, t_max", [("5", "1"), ("-2", "-1"), ("nan", "1"),
                                              ("-1", "nan")])
    def test_window_without_t0_exits_2(self, tmp_path, capsys, t_min, t_max):
        # t_min = 5, t_max = 1 used to exit 0 with a t column of 5, 4.5, ..., 0, 0.5, 1
        out = tmp_path / "never-written"
        code = run(["model-one", "--t_min", t_min, "--t_max", t_max, "--dt", "0.5",
                    "--out", str(out), "--quiet"])
        assert code == 2
        err = capsys.readouterr().err
        assert f"t_min = {float(t_min)!r} and t_max = {float(t_max)!r}" in err
        assert not out.exists()

    def test_floor_and_classical_collapse(self, tmp_path):
        code = run(
            ["model-one", "--beta", "1.0", "--p0", "1.0", "--q0", "1.0",
             "--out", str(tmp_path), "--quiet"]
        )
        assert code == 0
        payload = read_json(tmp_path / "model_one.json")
        assert payload["C"] == pytest.approx(0.5)
        assert payload["floor_ratio"] >= 0.999
        assert payload["enhanced_singular"] is False
        assert payload["classical_singular"] is True
        assert payload["classical_q_min"] < 1e-3
        lines = (tmp_path / "model_one.csv").read_text().splitlines()
        assert lines[0].startswith("# tool: cslab")
        assert lines[2] == "t,p,q,H"


class TestModelOneClosedForm:
    @pytest.mark.parametrize("p0, singular, stop, q_min", [
        (0.8, True, -1.25, 0.0),  # collapses backward, inside the window
        (-0.8, True, 1.25, 0.0),  # collapses forward
        (0.0, False, 2.0, 1.2),  # at rest
        (0.3, False, -2.0, 1.2 * (1 - 0.6) ** 2),  # collapses at t = -10/3, outside
    ])
    def test_classical_keys_are_exact(self, tmp_path, p0, singular, stop, q_min):
        code = run(["model-one", "--p0", str(p0), "--q0", "1.2", "--t_min", "-2",
                    "--t_max", "2", "--dt", "0.01", "--out", str(tmp_path), "--quiet"])
        assert code == 0
        payload = read_json(tmp_path / "model_one.json")
        assert payload["classical_singular"] is singular
        assert payload["classical_stop_time"] == stop
        assert payload["classical_q_min"] == q_min
        assert payload["enhanced_singular"] is False
        assert payload["floor_ratio"] >= 1

    def test_large_momentum_is_not_a_collapse(self, tmp_path):
        # RK4 read the gradient overflow at p0 = 1e150 as a collapse of the
        # enhanced flow and stopped the C = 0 run at t = 0
        code = run(["model-one", "--p0", "1e150", "--t_min", "-1", "--t_max", "1",
                    "--dt", "0.01", "--out", str(tmp_path), "--quiet"])
        assert code == 0
        payload = read_json(tmp_path / "model_one.json")
        assert payload["enhanced_singular"] is False
        assert payload["classical_stop_time"] == -1e-150
        assert payload["floor_ratio"] >= 1

    @pytest.mark.parametrize("argv, message", [
        (["--p0", "1e200"], "E = inf at p0 = 1e+200, q0 = 1.0 is not finite and positive"),
        (["--hbar", "1e-200", "--beta", "1e-200", "--t_max", "0.5"],
         "the floor C/E = 0.0/1.0 underflows to 0"),
    ])
    def test_overflow_and_underflow_exit_3(self, tmp_path, capsys, argv, message):
        out = tmp_path / "never-written"
        code = run(["model-one", *argv, "--t_min", "0", "--out", str(out), "--quiet"])
        assert code == 3
        assert capsys.readouterr().err == f"numerical failure in model-one: {message}\n"
        assert not out.exists()

    def test_include_classical_is_gone(self, tmp_path):
        scenario = tmp_path / "classical.scn"
        scenario.write_text("include_classical = false\n")
        assert run(["model-one", "--scenario", str(scenario), "--out", str(tmp_path)]) == 2


class TestRecordCap:
    @pytest.mark.parametrize("argv, records", [
        (["model-one", "--dt", "1e-9"], 20000000001),
        (["model-one", "--t_min", "-1", "--t_max", "1", "--dt", "2e-6"], MAX_RECORDS + 1),
        (["evolve-classical", "--operator", "1.0 * D D", "--p0", "0", "--q0", "0",
          "--t_final", "-1", "--dt", "1e-6"], MAX_RECORDS + 1),
    ])
    def test_over_the_cap_exits_2_before_allocating(self, tmp_path, capsys, argv, records):
        # model-one --dt 1e-9 asked RK4 for 2e10 steps
        out = tmp_path / "never-written"
        assert run(argv + ["--out", str(out), "--quiet"]) == 2
        err = capsys.readouterr().err
        assert f"gives {records} records, over the cap of {MAX_RECORDS}" in err
        assert not out.exists()


class TestQuantumWorkCap:
    """evolve-quantum refuses the work an argv asks for before any window is built."""

    HALF_LINE = ["evolve-quantum", "--family", "affine", "--operator", "1.0 * D X D",
                 "--p0", "0", "--q0", "1"]

    @staticmethod
    def _run_unbuilt(monkeypatch, tmp_path, argv):
        """Exit code of argv with evolution_window replaced by a failure, so that a
        missing guard fails at once instead of allocating."""
        def unreachable(*args):
            raise AssertionError("evolution_window reached")

        monkeypatch.setattr(cslab.cli, "evolution_window", unreachable)
        out = tmp_path / "never-written"
        code = run(argv + ["--out", str(out), "--quiet"])
        assert not out.exists()
        return code

    @pytest.mark.parametrize("argv, message", [
        ([*QUANTUM, "--n_nodes", str(MAX_RECORDS + 1)],
         f"n_nodes = {MAX_RECORDS + 1} is over the cap of {MAX_RECORDS} rows"),
        ([*QUANTUM, "--snapshot_every", "1", "--steps", "1000000000"],
         f"steps = 1000000000 at snapshot_every = 1 gives 1000000001 records, "
         f"over the cap of {MAX_RECORDS}"),
        # the last step is off-stride, so it is one record more
        ([*QUANTUM, "--snapshot_every", "3", "--steps", "2999998"],
         f"gives {MAX_RECORDS + 1} records, over the cap of {MAX_RECORDS}"),
        ([*HALF_LINE, "--n_nodes", "1002", "--steps", "10000000"],
         f"steps = 10000000 over 1001 unknowns gives 10010000000 node-steps, "
         f"over the cap of {MAX_NODE_STEPS}"),
    ], ids=["n-nodes", "records", "records-off-stride", "node-steps"])
    def test_over_a_cap_exits_2_before_any_window(self, tmp_path, capsys, monkeypatch,
                                                   argv, message):
        assert self._run_unbuilt(monkeypatch, tmp_path, argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: ") and message in err

    @pytest.mark.parametrize("argv", [
        [*QUANTUM, "--n_nodes", str(MAX_RECORDS)],
        [*QUANTUM, "--snapshot_every", "1", "--steps", str(MAX_RECORDS - 1)],
        [*QUANTUM, "--snapshot_every", "3", "--steps", "2999997"],
        [*HALF_LINE, "--n_nodes", "1001", "--steps", "10000000"],
        # the node-step cap is the half line's: the canonical route takes no step
        [*QUANTUM, "--n_nodes", "1002", "--steps", "10000000"],
    ], ids=["n-nodes", "records", "records-on-stride", "node-steps", "canonical"])
    def test_at_a_cap_reaches_the_window(self, tmp_path, capsys, monkeypatch, argv):
        assert self._run_unbuilt(monkeypatch, tmp_path, argv) == 3
        assert "evolution_window reached" in capsys.readouterr().err


class TestStepCount:
    CLASSICAL = ["evolve-classical", "--operator", "0.5 * D D + 0.5 * X X", "--p0", "0.1",
                 "--q0", "0.2"]

    @pytest.mark.parametrize("argv, message", [
        # one CSV row at t = 0 and final.t = 0 for a run asked to reach t = 1
        ([*CLASSICAL, "--t_final", "1", "--dt", "2"],
         "t_final = 1.0 rounds to no step of dt = 2.0"),
        # the whole backward window dropped
        (["model-one", "--t_min", "-0.4", "--dt", "1"],
         "t_min = -0.4 rounds to no step of dt = 1.0"),
    ])
    def test_span_under_half_a_step_exits_2(self, tmp_path, capsys, argv, message):
        out = tmp_path / "never-written"
        assert run(argv + ["--out", str(out), "--quiet"]) == 2
        assert capsys.readouterr().err == f"configuration error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("argv, rows", [
        ([*CLASSICAL, "--t_final", "0", "--dt", "2"], 1),
        (["model-one", "--t_min", "0", "--t_max", "3", "--dt", "1"], 4),
    ])
    def test_zero_span_still_runs(self, tmp_path, argv, rows):
        assert run(argv + ["--out", str(tmp_path), "--quiet"]) == 0
        (csv,) = tmp_path.glob("*.csv")
        assert len(csv.read_text().splitlines()) == 3 + rows


class TestCsvWriter:
    """Outputs writes every CSV: provenance, header, then each value at 17 digits."""

    VALUES = [-0.0, 5e-324, 0.1, 1 / 3, 1e308]

    @staticmethod
    def _expected(header, columns):
        rows = [",".join(f"{v:.17g}" for v in row) for row in zip(*columns)]
        return [f"# tool: cslab {cslab.__version__}", "# scenario: tag", header, *rows]

    def test_trajectory_rows(self, tmp_path):
        v = np.array(self.VALUES)
        traj = Trajectory(v, v[::-1], np.roll(v, 1), np.roll(v, 2))
        path = Outputs(tmp_path, "run", "csv", "tag", quiet=True).csv_trajectory(traj)
        columns = [v, v[::-1], np.roll(v, 1), np.roll(v, 2)]
        assert path.read_text().splitlines() == self._expected("t,p,q,H", columns)

    def test_snapshot_rows_split_re_and_im(self, tmp_path):
        v = np.array(self.VALUES)
        grid = uniform_grid(-2.0, 2.0, 5)
        psi = v.astype(complex)  # v + 1j * v[::-1] would turn Re -0.0 into 0.0
        psi.imag = v[::-1]
        state = WaveFunction(grid, psi)
        path = Outputs(tmp_path, "run", "csv", "tag", quiet=True).csv_snapshot(state)
        assert path.name == "run_final_state.csv"
        expected = self._expected("x,Re(psi),Im(psi)", [grid.nodes, v, v[::-1]])
        assert path.read_text().splitlines() == expected


class TestGeometryCommands:
    def test_metric_affine(self, tmp_path):
        code = run(
            ["metric", "--family", "affine", "--beta", "1.0", "--q_list", "2.0",
             "--out", str(tmp_path), "--quiet"]
        )
        assert code == 0
        point = read_json(tmp_path / "metric.json")["points"][0]
        assert point["g_pp"] == pytest.approx(4.0, abs=1e-5)
        assert point["g_qq"] == pytest.approx(0.25, abs=1e-5)

    @pytest.mark.parametrize("subcommand", ["metric", "curvature"])
    def test_n_nodes_is_rejected(self, tmp_path, subcommand):
        # the closed-form metric builds no grid, so a node count would be ignored
        with pytest.raises(SystemExit) as exc:
            run([subcommand, "--n_nodes", "150000", "--out", str(tmp_path), "--quiet"])
        assert exc.value.code == 2
        scenario = tmp_path / "nodes.scn"
        scenario.write_text("n_nodes = 150000\n")
        assert run([subcommand, "--scenario", str(scenario), "--out", str(tmp_path)]) == 2
        assert list(tmp_path.iterdir()) == [scenario]

    @pytest.mark.parametrize("family", ["canonical", "affine"])
    @pytest.mark.parametrize("subcommand", ["metric", "curvature", "centering"])
    def test_analytic_sheet_builds_no_grid(self, tmp_path, monkeypatch, family, subcommand):
        def no_grid(*args, **kwargs):
            raise AssertionError("the analytic sheet built a grid")

        for name in ("uniform_grid", "half_line_grid"):
            original = getattr(cslab.grids, name)
            for module_name, module in list(sys.modules.items()):
                if module_name.startswith("cslab") and getattr(module, name, None) is original:
                    monkeypatch.setattr(module, name, no_grid)
        code = run([subcommand, "--family", family, "--out", str(tmp_path), "--quiet"])
        assert code == 0

    def test_curvature_affine(self, tmp_path):
        code = run(
            ["curvature", "--family", "affine", "--beta", "4.0", "--q_list", "1.0",
             "--out", str(tmp_path), "--quiet"]
        )
        assert code == 0
        payload = read_json(tmp_path / "curvature.json")
        assert payload["points"][0]["curvature"] == -0.5
        assert payload["constant_negative_curvature"] == -0.5


class TestSymbolCommand:
    def test_high_degree_canonical_symbol_exits_0(self, tmp_path):
        # X^3 D^6 X^3 = B^+ B with B = D^3 X^3, so its symbol is positive
        code = run(
            ["symbol", "--operator", "1.0 * X^3 D D D D D D X^3", "--family", "canonical",
             "--p_list=0,0.7", "--q_list=-1,0.5", "--out", str(tmp_path), "--quiet"]
        )
        assert code == 0
        payload = read_json(tmp_path / "symbol.json")
        assert payload["closed_form"] is True
        assert all(s["value"] > 0 for s in payload["samples"])


class TestEvolveCommands:
    def test_classical_with_svg(self, tmp_path):
        code = run(
            ["evolve-classical", "--operator", "0.5 * D D + 0.5 * X X",
             "--p0", "1.0", "--q0", "0.0", "--t_final", "3.0",
             "--format", "svg", "--out", str(tmp_path), "--quiet"]
        )
        assert code == 0
        assert (tmp_path / "evolve_classical.csv").exists()
        svg = (tmp_path / "evolve_classical.svg").read_text()
        assert svg.startswith("<?xml") and "polyline" in svg
        payload = read_json(tmp_path / "evolve_classical.json")
        assert payload["energy_drift"] <= 1e-7

    def test_classical_turn_far_below_a_large_start(self, tmp_path):
        # the enhanced flow turns at q = 5e-3 near t = -10, resolved by dt;
        # a floor scaled to q0 = 1e4 stopped it there as singular
        code = run(
            ["evolve-classical", "--family", "affine", "--operator", "1.0 * D X D",
             "--p0", "0.1", "--q0", "1e4", "--t_final", "-12",
             "--format", "json", "--out", str(tmp_path), "--quiet"]
        )
        assert code == 0
        payload = read_json(tmp_path / "evolve_classical.json")
        assert payload["singular"] is False
        assert payload["final"]["t"] == -12.0

    def test_quantum_small_run(self, tmp_path):
        code = run(
            ["evolve-quantum", "--operator", "0.5 * D D + 0.5 * X X",
             "--p0", "0.5", "--q0", "0.3", "--dt", "1e-3", "--steps", "200",
             "--n_nodes", "512", "--out", str(tmp_path), "--quiet"]
        )
        assert code == 0
        payload = read_json(tmp_path / "evolve_quantum.json")
        assert payload["energy_drift"] <= 1e-8
        lines = (tmp_path / "evolve_quantum.csv").read_text().splitlines()
        assert lines[2] == "t,p,q,H"
        assert (tmp_path / "evolve_quantum_final_state.csv").read_text().splitlines()[2] == "x,Re(psi),Im(psi)"

    def test_quantum_half_line(self, tmp_path):
        code = run(
            ["evolve-quantum", "--operator", "1.0 * D X D", "--family", "affine",
             "--beta", "4.0", "--p0", "1.0", "--q0", "1.0", "--dt", "2e-4",
             "--steps", "500", "--n_nodes", "1024", "--out", str(tmp_path), "--quiet"]
        )
        assert code == 0
        payload = read_json(tmp_path / "evolve_quantum.json")
        # <H> should sit near the affine symbol value q p^2 + C/q = 3
        assert payload["energy_initial"] == pytest.approx(3.0, abs=1e-3)
        assert payload["energy_drift"] <= 1e-6

    def test_json_format_suppresses_csv(self, tmp_path):
        code = run(
            ["evolve-classical", "--operator", "0.5 * D D + 0.5 * X X",
             "--p0", "1.0", "--q0", "0.0", "--t_final", "1.0",
             "--format", "json", "--out", str(tmp_path), "--quiet"]
        )
        assert code == 0
        assert (tmp_path / "evolve_classical.json").exists()
        assert not (tmp_path / "evolve_classical.csv").exists()

    def test_symbol_svg(self, tmp_path):
        code = run(
            ["symbol", "--operator", "1.0 * D X D", "--family", "affine",
             "--beta", "1.0", "--format", "svg", "--out", str(tmp_path), "--quiet"]
        )
        assert code == 0
        assert "<svg" in (tmp_path / "symbol.svg").read_text()

    def test_bad_atom_spec_exits_2(self, tmp_path):
        code = run(
            ["charfn", "--n_list", "4", "--p_r_list", "1.0",
             "--atoms", "nonsense", "--out", str(tmp_path), "--quiet"]
        )
        assert code == 2


class TestModelTwoCommand:
    def test_record_matches_closed_form(self, tmp_path):
        code = run(
            ["model-two", "--N", "2", "--m", "1.0", "--zeta", "0.5", "--nu", "1.0",
             "--p", "1,0", "--q", "0,1", "--out", str(tmp_path), "--quiet"]
        )
        assert code == 0
        payload = read_json(tmp_path / "model_two.json")
        assert payload["H1"] == pytest.approx(1.1875, abs=1e-14)
        assert payload["agreement"] <= 1e-12

    def test_overflow_never_reaches_the_report(self, tmp_path, capsys):
        # |p|^2 overflows, so the closed form is inf and the agreement NaN
        code = run(
            ["model-two", "--N", "2", "--zeta", "0.5", "--p", "1e154,1e154",
             "--q", "0,0", "--out", str(tmp_path), "--quiet"]
        )
        assert code == 3
        assert "non-finite" in capsys.readouterr().err
        assert not (tmp_path / "model_two.json").exists()


    @pytest.mark.parametrize("argv", [
        pytest.param(["--N", "2", "--p", "1,2", "--q", "1,1e200"], id="q-overflows"),
        pytest.param(["--N", "1", "--p", "nan", "--q", "1"], id="p-nan"),
        pytest.param(["--N", "1", "--p", "1", "--q", "1", "--nu", "inf"], id="nu-inf"),
        # m q overflows in numpy, whose warning preceded the message
        pytest.param(["--N", "1", "--m", "2", "--p", "1", "--q", "1e308"], id="m-q-overflows"),
    ])
    def test_non_finite_h1_is_reported_as_non_finite(self, tmp_path, capsys, argv):
        # the first three used to be reported as the imaginary residue nan of a
        # Hermitian polynomial
        code = run(["model-two", "--zeta", "0.5", *argv, "--out", str(tmp_path), "--quiet"])
        assert code == 3
        err = capsys.readouterr().err
        assert "finite" in err and "residue" not in err and "Warning" not in err
        assert list(tmp_path.iterdir()) == []

    def test_float_power_overflow_exits_3(self, tmp_path, capsys):
        # m**4 overflows a Python float; it used to escape as OverflowError
        code = run(
            ["model-two", "--N", "1", "--zeta", "0.5", "--m", "1e100", "--nu", "1",
             "--p", "1", "--q", "1", "--out", str(tmp_path), "--quiet"]
        )
        assert code == 3
        assert "overflows" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


class TestCharfnCommand:
    def test_monotone_and_single_atom(self, tmp_path):
        code = run(
            ["charfn", "--p_r_list", "0.5,1.0", "--n_list", "4,8,16",
             "--atoms", "0.25:1.0", "--out", str(tmp_path), "--quiet"]
        )
        assert code == 0
        payload = read_json(tmp_path / "charfn.json")
        assert all(payload["descent_error_monotone"].values())
        import math

        for entry in payload["measure"]:
            assert entry["value"] == pytest.approx(
                math.exp(-0.25 * entry["p_r"] ** 2), rel=1e-12
            )

    @pytest.mark.parametrize("n", [256, 400, 700, 1024, 4096])
    def test_large_n_writes_finite_json(self, tmp_path, n):
        code = run(
            ["charfn", "--p_r_list", "1.0", "--n_list", str(n),
             "--out", str(tmp_path), "--quiet"]
        )
        assert code == 0
        # json calls parse_constant only for NaN, Infinity and -Infinity
        payload = json.loads(
            (tmp_path / "charfn.json").read_text(), parse_constant=pytest.fail
        )
        (row,) = payload["table"]
        assert row["exact"] == pytest.approx(row["gaussian_closed_form"], abs=5e-14)

    def test_momentum_power_overflow_exits_3(self, tmp_path, capsys):
        code = run(
            ["charfn", "--n_list", "4", "--p_r_list", "1e300", "--out", str(tmp_path), "--quiet"]
        )
        assert code == 3
        assert "overflows" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_non_finite_atom_exits_3(self, tmp_path, capsys):
        code = run(
            ["charfn", "--n_list", "4", "--p_r_list", "0", "--atoms", "inf:1",
             "--out", str(tmp_path), "--quiet"]
        )
        assert code == 3
        assert "b=inf" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_large_momentum_computes(self, tmp_path):
        # it exited 3 while the exact value was an alternating 0F1 series,
        # which may lose O(1) to cancellation at p_r = 12
        code = run(
            ["charfn", "--n_list", "4", "--p_r_list", "12", "--out", str(tmp_path), "--quiet"]
        )
        assert code == 0
        (row,) = read_json(tmp_path / "charfn.json")["table"]
        assert row["exact"] == row["gaussian_closed_form"]

    @pytest.mark.parametrize("n_list", ["1,2", "100000"])
    def test_any_n_computes(self, tmp_path, n_list):
        # N < 3 and N = 100000 exited 3 while a radial rule was summed
        code = run(["charfn", "--n_list", n_list, "--out", str(tmp_path), "--quiet"])
        assert code == 0
        for row in read_json(tmp_path / "charfn.json")["table"]:
            assert row["exact"] == row["gaussian_closed_form"]
            assert 0 < row["exact"] < row["descent"] < 1

    @pytest.mark.parametrize("argv, message", [
        (["--n_list", "-3"], "N = -3 must be at least 1"),
        (["--hbar", "0"], "hbar = 0.0 must be finite and positive"),
        (["--hbar", "-1"], "hbar = -1.0 must be finite and positive"),
        (["--m_prime", "inf"], "m_prime = inf must be finite and positive"),
        # with no density to build, hbar and m_prime went unchecked
        (["--n_list=", "--hbar", "0", "--atoms", "0.25:1"],
         "hbar = 0.0 must be finite and positive"),
        (["--p_r_list=", "--hbar", "-1", "--atoms", "0.25:1"],
         "hbar = -1.0 must be finite and positive"),
        (["--n_list=", "--m_prime", "-1"], "m_prime = -1.0 must be finite and positive"),
    ])
    def test_density_out_of_domain_exits_3(self, tmp_path, capsys, argv, message):
        # these ended in a ValueError, a ZeroDivisionError or numpy warnings
        out = tmp_path / "never-written"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run(["charfn", *argv, "--out", str(out), "--quiet"])
        assert code == 3
        assert capsys.readouterr().err.splitlines() == [f"numerical failure in charfn: {message}"]
        assert not out.exists()


class TestTracerContract:
    """perfbench/tracer.py wraps cslab entry points by name; dropping one fails here."""

    @staticmethod
    def _callables():
        """Every callable a cslab module, SymbolFn or Outputs holds, by identity."""
        owners = [mod for name, mod in sys.modules.items()
                  if name == "cslab" or name.startswith("cslab.")]
        owners += [cslab.symbols.SymbolFn, cslab.cli.Outputs]
        return {(id(owner), key): value for owner in owners
                for key, value in list(vars(owner).items()) if callable(value)}

    def test_curvature_evaluates_one_metric_per_point(self, tmp_path, monkeypatch):
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
        tracer = importlib.import_module("tracer").Tracer()
        before = self._callables()
        tracer.install()
        try:
            curvature = run(["curvature", "--family", "affine", "--q_list", "0.5,1,4",
                             "--out", str(tmp_path), "--quiet"])
            metric = run(["metric", "--out", str(tmp_path), "--quiet"])
        finally:
            tracer.uninstall()
        assert (curvature, metric) == (0, 0)
        summary = tracer.summary()
        assert summary["geometry.curvature_calls"] == 3
        # one metric per curvature point and the one point of the metric call
        assert summary["geometry.metric_calls"] == 3 + 1
        after = self._callables()
        assert after.keys() == before.keys()
        assert all(after[key] is before[key] for key in before)

    def test_flow_steps_are_traced(self, tmp_path, monkeypatch):
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
        tracer = importlib.import_module("tracer").Tracer()
        before = self._callables()
        point = ["--operator", "0.5 * D D + 0.5 * X X", "--p0", "0.3", "--q0", "0.2",
                 "--out", str(tmp_path), "--quiet"]
        # Crank-Nicolson steps are the half line's; the canonical sheet takes none
        half_line = ["--family", "affine", "--operator", "1.0 * D X D", "--p0", "0.3",
                     "--q0", "1", "--out", str(tmp_path), "--quiet"]
        tracer.install()
        try:
            quantum = run(["evolve-quantum", *point, "--n_nodes", "256", "--steps", "50"])
            half = run(["evolve-quantum", *half_line, "--n_nodes", "256", "--steps", "50"])
            classical = run(["evolve-classical", *point, "--t_final", "0.05", "--dt", "1e-3"])
        finally:
            tracer.uninstall()
        assert (quantum, half, classical) == (0, 0, 0)
        summary = tracer.summary()
        assert summary["schrodinger.cn_steps"] == 50
        assert summary["schrodinger.track_s"] > 0  # track_expectations is still wrapped
        assert summary["grids.derivative_calls"] == 0
        assert summary["dynamics.rk4_steps"] == 50
        after = self._callables()
        assert after.keys() == before.keys()
        assert all(after[key] is before[key] for key in before)

    def test_model_two_and_charfn_calls_are_traced(self, tmp_path, monkeypatch):
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
        tracer = importlib.import_module("tracer").Tracer()
        tracer.install()
        try:
            model_two = run(["model-two", "--N", "3", "--zeta", "0.5", "--p", "1,0,0",
                             "--q", "0,1,0", "--out", str(tmp_path), "--quiet"])
            charfn = run(["charfn", "--n_list", "4", "--p_r_list", "1.0",
                          "--out", str(tmp_path), "--quiet"])
        finally:
            tracer.uninstall()
        assert (model_two, charfn) == (0, 0)
        summary = tracer.summary()
        assert summary["modeltwo.h1_calls"] == 1
        assert summary["modeltwo.charfn_calls"] == 1


def _defined(stmt) -> set[str]:
    """Names a top-level statement binds: a def, a class or a plain assignment."""
    if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
        return {stmt.name}
    if isinstance(stmt, ast.Assign):
        return {t.id for t in stmt.targets if isinstance(t, ast.Name)}
    if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
        return {stmt.target.id}
    return set()


def _statements(stmt) -> list[tuple[set[str], set[str]]]:
    """(names bound, names used) of a top-level statement; a class gives one
    pair for each method, which binds Class.method, and one for the rest."""
    if not isinstance(stmt, ast.ClassDef):
        return [(_defined(stmt), _used(stmt))]
    methods = [node for node in stmt.body if isinstance(node, ast.FunctionDef)]
    rest = [*stmt.bases, *stmt.decorator_list, *(n for n in stmt.body if n not in methods)]
    return [({stmt.name}, set().union(*map(_used, rest)))] + [
        ({stmt.name, f"{stmt.name}.{node.name}"}, _used(node)) for node in methods]


def _used(stmt) -> set[str]:
    """Every name, attribute and imported name a statement mentions."""
    used = set()
    for node in ast.walk(stmt):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.alias):
            used.add(node.name)
    return used


class TestReachability:
    """src/cslab holds what a CLI route reaches, what perfbench/tracer.py wraps
    by name and what the acceptance criteria import; nothing else.  A public
    method counts as used where src/ names it outside its own body."""

    def test_every_public_name_is_used_in_src(self, monkeypatch):
        root = Path(__file__).resolve().parent.parent
        monkeypatch.syspath_prepend(str(root / "perfbench"))
        tracer = importlib.import_module("tracer")
        exempt = {name for _, _, name, _ in tracer._targets(cslab)}
        acceptance = ast.parse((root / "tests" / "test_acceptance.py").read_text())
        exempt |= {f"{node.module.removeprefix('cslab.')}.{alias.name}"
                   for node in ast.walk(acceptance)
                   if isinstance(node, ast.ImportFrom) and node.module.startswith("cslab.")
                   for alias in node.names}
        public, statements = {}, []
        for path in sorted((root / "src" / "cslab").glob("*.py")):
            if path.name == "__init__.py":
                continue
            for stmt in ast.parse(path.read_text()).body:
                for defined, used in _statements(stmt):
                    public.update({f"{path.stem}.{name}": name for name in defined
                                   if not name.rpartition(".")[2].startswith("_")})
                    statements.append((defined, used))
        orphans = sorted(qualified for qualified, name in public.items()
                         if qualified not in exempt
                         and not any(name.rpartition(".")[2] in used and name not in defined
                                     for defined, used in statements))
        assert orphans == []
