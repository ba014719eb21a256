"""Fast smoke test of the benchmark harness on the tiny ``smoke`` mix.

    python3 -m pytest -q perfbench/test_smoke.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

from tracer import EXACT

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "smoke", "--seed", "3", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_end_to_end_metrics_match_the_spec():
    res = result_of(bench("--seconds", "1", "--trace", "0"))
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True
    # the smoke mix's known defect is probed outside the counted scenarios
    assert res["attempted"] >= 4 and res["failed"] == 0
    spec = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == spec
    assert all(v["value"] > 0 for v in res["metrics"].values())


def test_traced_metrics_match_the_spec_and_counts_repeat():
    first = result_of(bench("--seconds", "1", "--trace", "1"))
    second = result_of(bench("--seconds", "1", "--trace", "1"))
    spec = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    for res in (first, second):
        assert res["correct"] is True
        assert {k: v["unit"] for k, v in res["metrics"].items()} == spec
    for key in EXACT:
        assert first["metrics"][key] == second["metrics"][key], key
    assert first["metrics"]["geometry.states_per_metric"]["value"] == 15
    assert first["metrics"]["modeltwo.ladder_terms"]["value"] == 5 + 5 + 25
    assert first["metrics"]["known_defects_failing"]["value"] == 1


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
