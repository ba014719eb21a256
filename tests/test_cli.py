"""Scenario runner: schemas, exit codes, determinism, provenance."""

import json
import sys

import pytest

import cslab.grids
from cslab.cli import main


# a small harmonic evolve-quantum run; later flags override these
QUANTUM = ["evolve-quantum", "--operator", "0.5 * D D + 0.5 * X X", "--p0", "0.1",
           "--q0", "0.2", "--steps", "3", "--n_nodes", "64"]


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
            ["curvature", "--q_list", "1e308"],
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
            QUANTUM + ["--family", "affine", "--operator", "1.0 * D X D", "--q0", "1e300"],
            QUANTUM + ["--operator", "1.0 * X^400 + -1.0 * X^400 + 0.5 * D D"],
            QUANTUM + ["--hbar", "1e200"],
            ["metric", "--family", "affine", "--q_list", "1e200"],
            ["curvature", "--family", "affine", "--q_list", "1e200"],
            ["symbol", "--operator", "1.0 * X^1100"],
            ["symbol", "--operator", "1.0 * X^400", "--omega", "1e-10"],
            ["curvature", "--omega", "1e300"],
            QUANTUM + ["--omega", "1e300"],
            ["symbol", "--operator", "1.0 * X^300", "--q_list=1e200"],
            ["symbol", "--operator", "1.0 * X^50 D X^50", "--q_list=1e200"],
            ["symbol", "--family", "affine", "--operator", "1.0 * X^50 D X^50",
             "--q_list=1e200"],
            ["symbol", "--operator", "1.0 * " + " ".join(["D"] * 20), "--p_list=1e200"],
        ],
    )
    def test_non_finite_input_fails_closed(self, tmp_path, argv):
        code = run(argv + ["--out", str(tmp_path), "--quiet"])
        assert code in (2, 3)
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("family", ["canonical", "affine"])
    @pytest.mark.parametrize("scale", ["--p_scale=-1", "--q_scale=-1"])
    def test_negative_centering_scale_exits_2(self, tmp_path, capsys, family, scale):
        code = run(["centering", "--family", family, scale, "--out", str(tmp_path), "--quiet"])
        assert code == 2
        assert "non-negative" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

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
        assert payload["points"][0]["curvature"] == pytest.approx(-0.5, abs=1e-3)
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

    def test_series_cancellation_exits_3(self, tmp_path, capsys):
        # the alternating 0F1 series at p_r = 12 may lose O(1) to cancellation
        code = run(
            ["charfn", "--n_list", "4", "--p_r_list", "12", "--out", str(tmp_path), "--quiet"]
        )
        assert code == 3
        assert "cancellation" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []
