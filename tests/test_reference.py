"""Committed reference outputs: a refactor moves no value beyond roundoff.

``tests/reference/generate.py`` wrote the files this module compares
against.  Integers, strings, booleans and nulls must match exactly; floats,
in JSON and in CSV, to 1e-12 relative.
"""

import json

import pytest

from reference.generate import FAILURES, REFERENCE, RUNS, run_cli

RTOL = 1e-12


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= RTOL * max(1.0, abs(a), abs(b))


def _json_diffs(got, want, where="$"):
    """Paths at which two parsed JSON documents differ."""
    if isinstance(got, float) and isinstance(want, float):
        return [] if _close(got, want) else [f"{where}: {got!r} != {want!r}"]
    if isinstance(got, dict) and isinstance(want, dict):
        if got.keys() != want.keys():
            return [f"{where}: keys {sorted(got)} != {sorted(want)}"]
        return [d for key in want for d in _json_diffs(got[key], want[key], f"{where}.{key}")]
    if isinstance(got, list) and isinstance(want, list):
        if len(got) != len(want):
            return [f"{where}: length {len(got)} != {len(want)}"]
        pairs = enumerate(zip(got, want))
        return [d for i, (g, w) in pairs for d in _json_diffs(g, w, f"{where}[{i}]")]
    if type(got) is not type(want) or got != want:
        return [f"{where}: {got!r} != {want!r}"]
    return []


def _cell_matches(got: str, want: str) -> bool:
    try:
        return _close(float(got), float(want))
    except ValueError:
        return got == want


def _csv_diffs(got: str, want: str, name: str):
    """Rows at which two CSV texts differ; comment lines match exactly."""
    got_lines, want_lines = got.splitlines(), want.splitlines()
    if len(got_lines) != len(want_lines):
        return [f"{name}: {len(got_lines)} lines != {len(want_lines)}"]
    diffs = []
    for row, (g, w) in enumerate(zip(got_lines, want_lines), start=1):
        if g.startswith("#") or w.startswith("#"):
            if g != w:
                diffs.append(f"{name}:{row}: {g!r} != {w!r}")
            continue
        g_cells, w_cells = g.split(","), w.split(",")
        if len(g_cells) != len(w_cells) or not all(map(_cell_matches, g_cells, w_cells)):
            diffs.append(f"{name}:{row}: {g!r} != {w!r}")
    return diffs


@pytest.mark.parametrize("name", RUNS)
def test_outputs_match_reference(name, tmp_path):
    code, first = run_cli(RUNS[name], tmp_path)
    assert code == 0, first
    want_dir = REFERENCE / name
    got_files = sorted(p.name for p in tmp_path.iterdir())
    assert got_files == sorted(p.name for p in want_dir.iterdir())
    diffs = []
    for file in got_files:
        got, want = (tmp_path / file).read_text(), (want_dir / file).read_text()
        if file.endswith(".json"):
            diffs += _json_diffs(json.loads(got), json.loads(want), file)
        else:
            diffs += _csv_diffs(got, want, file)
    assert not diffs, "\n".join(diffs[:10])


def test_failures_match_reference(tmp_path):
    want = json.loads((REFERENCE / "failures.json").read_text(encoding="utf-8"))
    assert want.keys() == FAILURES.keys()
    for name, argv in FAILURES.items():
        code, first = run_cli(argv, tmp_path / name)
        assert {"exit": code, "stderr": first} == want[name], name
        assert not (tmp_path / name).exists(), name
