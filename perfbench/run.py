"""Benchmark of the cslab command-line runner.

    python3 perfbench/run.py --workload sheet --seed 1 --seconds 40 --trace 0

Run from the root of a cslab checkout; the package is imported from its
``src/`` directory.  One process, one thread of work, closed loop: the
workload's scenarios (see ``workloads.py``) run one after another as
in-process ``cslab.cli.main(argv)`` calls, and the next call starts only
after the previous one returns.  A sweep is one pass over the mix.  Each
call is timed from outside; its outputs are checked afterwards, outside the
timed region (see ``checks.py``).  ``sweep_s`` and the per-subcommand times
are sums of per-scenario medians, so a partial last sweep still counts.
Scenarios marked as known defects are probes: each runs once at the start,
inside the ``--seconds`` budget but outside the timed loop and the
``attempted``/``failed`` counts, and whether it still fails is reported.

``--trace 0`` runs the scenarios round-robin until the next one would
overrun ``--seconds``, with fresh-interpreter set-up samples spread over
the run, and prints the end-to-end metrics.  ``--trace 1`` alternates whole
untraced sweeps with whole sweeps traced by ``tracer.py`` and prints the
per-layer metrics, the per-subcommand times of the untraced sweeps and the
tracing overhead.  Every metric is printed by name with its unit; the last
line of standard output is the JSON result.  Details (environment, quartiles,
per-scenario failures and, when traced, the spans of the last traced sweep)
go to ``.perfbench_results/``.
"""

from __future__ import annotations

import os

# pinned before numpy is imported, so BLAS and OpenMP start one thread each
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from collections import defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

import checks  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"  # scenario outputs, removed at the end of a run
RESULTS = ROOT / ".perfbench_results"

SETUP_EVERY = 5.0  # seconds of an untraced run per set-up sample
SETUP_CODE = "import cslab.cli as cli; cli.build_parser()"
SUBCOMMANDS = ("centering", "symbol", "metric", "curvature", "evolve-classical",
               "evolve-quantum", "model-one", "model-two", "charfn")

# ROADMAP item 1 layer baselines, printed beside the traced numbers as
# information only; nothing is checked against them
ROADMAP_BASELINES = {
    "dynamics.step_us": "RK4 ~21 us/step (Model One, 10k steps)",
    "schrodinger.step_us": "CN ~285 us/step at 4094 unknowns",
    "modeltwo.h1_s": "h1_expectation ~2.4 s at N=300 (232 ms at N=100)",
    "modeltwo.charfn_s": "characteristic_radial ~850 ms per call",
}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def declared_units() -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


# ---------------------------------------------------------------------------
# measurement


def measure_setup() -> float:
    """Wall time of one fresh interpreter that imports cslab.cli and builds its parser."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    start = perf_counter()
    subprocess.run([sys.executable, "-c", SETUP_CODE], env=env, check=True,
                   stdout=subprocess.DEVNULL, timeout=120, cwd=ROOT)
    return perf_counter() - start


def run_scenario(cli, scenario, out: Path, seed: int) -> tuple[float, str | None]:
    """One timed cslab call; returns its wall time and an error or None."""
    argv = list(scenario.argv) + ["--out", str(out), "--seed", str(seed), "--quiet"]
    stderr = io.StringIO()
    start = perf_counter()
    try:
        with contextlib.redirect_stderr(stderr):
            code = cli.main(argv)
    except SystemExit as exc:  # argparse rejects its argv by exiting
        code = exc.code
    except Exception as exc:  # an uncaught exception is a scenario failure
        elapsed = perf_counter() - start
        return elapsed, f"uncaught {type(exc).__name__}: {exc}"
    elapsed = perf_counter() - start
    if code != 0:
        return elapsed, f"exit {code}: {stderr.getvalue().strip()}"
    return elapsed, None


def run_checked(cli, scenario, work: Path, seed: int) -> tuple[float, str | None]:
    """One timed scenario, then the check of its outputs outside the timed region."""
    out = work / scenario.name
    shutil.rmtree(out, ignore_errors=True)
    elapsed, error = run_scenario(cli, scenario, out, seed)
    if error is None:
        try:
            checks.reports_finite(out)
            if scenario.check is not None:
                scenario.check(work)
        except checks.CheckFailed as exc:
            error = f"check: {exc}"
        except (KeyError, IndexError, TypeError, ValueError) as exc:
            error = f"check: malformed output ({type(exc).__name__}: {exc})"
    return elapsed, error


def sum_of_medians(times: dict[str, list[float]], names) -> float:
    """Per-sweep cost of ``names``: the sum of each scenario's median time."""
    return sum(statistics.median(times[name]) for name in names)


def summarize(values: list[float]) -> dict:
    """Median, quartiles and the highest percentile with >= 10 samples beyond it."""
    n = len(values)
    q1, q2, q3 = statistics.quantiles(values, n=4) if n > 1 else (values[0],) * 3
    tail = None
    for pct in (99.9, 99, 95, 90, 75, 50):
        if n * (1 - pct / 100) >= 10:
            tail = {"percentile": pct,
                    "value": statistics.quantiles(values, n=1000)[round(pct * 10) - 1]}
            break
    return {"n": n, "median": statistics.median(values), "q1": q1, "q3": q3, "tail": tail}


# ---------------------------------------------------------------------------
# environment


def _getconf(name: str) -> int | None:
    try:
        out = subprocess.run(["getconf", name], capture_output=True, text=True, timeout=10)
        return int(out.stdout.strip())
    except (OSError, ValueError, subprocess.SubprocessError):
        return None


def _commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def _digest(directory: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(directory.rglob("*.py")):
        digest.update(path.relative_to(directory).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def environment(args) -> dict:
    import numpy
    import scipy

    return {
        "commit": _commit(),
        "src_sha256": _digest(SRC),
        "perfbench_sha256": _digest(Path(__file__).resolve().parent),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "l2_bytes": _getconf("LEVEL2_CACHE_SIZE"),
        "l3_bytes": _getconf("LEVEL3_CACHE_SIZE"),
        "thread_pinning": {var: os.environ[var] for var in THREAD_VARS},
        "seed": args.seed,
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "load": "closed loop, 1 process, 1 thread of work",
    }


# ---------------------------------------------------------------------------
# main


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "cslab" / "__init__.py").is_file():
        print(f"no cslab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import cslab.cli as cli

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    deadline = perf_counter() + args.seconds
    mix = workloads.WORKLOADS[args.workload](np.random.default_rng(args.seed))
    scenarios = [sc for sc in mix if sc.known_defect is None]
    defects = probe_known_defects(cli, [sc for sc in mix if sc.known_defect], args.seed)
    report(args, scenarios, defects, measure(args, cli, scenarios, deadline))
    return 0


def probe_known_defects(cli, probes, seed: int) -> dict[str, dict]:
    """Runs each known-defect scenario once and records whether it still fails."""
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="probes-", dir=WORK))
    outcomes = {}
    try:
        for sc in probes:
            _, error = run_checked(cli, sc, work, seed)
            outcomes[sc.name] = {"known_defect": sc.known_defect,
                                 "still_fails": error is not None, "error": error}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return outcomes


def measure(args, cli, scenarios, deadline: float) -> dict:
    """Runs the mix until the next scenario or sweep would pass the deadline."""
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    result = {
        "setup": [],
        "plain": {sc.name: [] for sc in scenarios},  # untraced times per scenario
        "traced": {sc.name: [] for sc in scenarios},
        "failures": defaultdict(list),
        "attempted": 0,
        "layers": [],
        "spans": [],
    }

    def run(sc) -> float:
        elapsed, error = run_checked(cli, sc, work, args.seed)
        result["attempted"] += 1
        if error is not None:
            result["failures"][sc.name].append(error)
        return elapsed

    try:
        if args.trace:
            measure_traced(scenarios, run, result, deadline)
        else:
            measure_untraced(scenarios, run, result, deadline)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return result


def measure_untraced(scenarios, run, result, deadline) -> None:
    """Scenarios round-robin, the last sweep possibly partial.

    One set-up sample is owed per SETUP_EVERY seconds of the run, and owed
    samples are taken between two scenarios, so that they are spread over
    the run and see the same machine load as the scenarios; a scenario
    longer than SETUP_EVERY is followed by several.
    """
    setup, times = result["setup"], result["plain"]
    start = perf_counter()
    for i in itertools.count():
        sc = scenarios[i % len(scenarios)]
        owed = int((perf_counter() - start) // SETUP_EVERY) + 1 - len(setup)
        if i >= len(scenarios):
            cost = max(times[sc.name]) + max(owed, 0) * statistics.median(setup)
            if perf_counter() + cost > deadline:
                break
        for _ in range(owed):
            setup.append(measure_setup())
        times[sc.name].append(run(sc))


def measure_traced(scenarios, run, result, deadline) -> None:
    """Untraced and traced sweeps alternate; only whole sweeps run, so every
    traced sweep makes the same calls and its exact counts can be compared."""
    longest = 0.0
    while True:
        sweeps = len(result["layers"]) + len(next(iter(result["plain"].values())))
        if sweeps >= 2 and perf_counter() + longest > deadline:
            break
        tr = tracer.Tracer() if sweeps % 2 else None
        began = perf_counter()
        if tr is not None:
            tr.install()
        try:
            times = {sc.name: run(sc) for sc in scenarios}
        finally:
            if tr is not None:
                tr.uninstall()
        longest = max(longest, perf_counter() - began)
        kind = "plain" if tr is None else "traced"
        for name, elapsed in times.items():
            result[kind][name].append(elapsed)
        if tr is not None:
            result["layers"].append(tr.summary())
            result["spans"] = tr.spans


def counts_repeat(args, env: dict, runs: list[dict]) -> list[str]:
    """Exact counts must agree between traced sweeps and with earlier runs of this seed."""
    problems = [f"count {key} differs between traced sweeps: {[r[key] for r in runs]}"
                for key in tracer.EXACT if len({r[key] for r in runs}) != 1]
    counts = {key: runs[0][key] for key in tracer.EXACT}
    path = RESULTS / (f"counts-{args.workload}-seed{args.seed}-{env['src_sha256']}"
                      f"-{env['perfbench_sha256']}.json")
    if path.is_file():
        earlier = json.loads(path.read_text())
        problems += [f"count {key} is {counts[key]}, an earlier run of this seed had "
                     f"{earlier.get(key)}" for key in counts if earlier.get(key) != counts[key]]
    else:
        path.write_text(json.dumps(counts, indent=1) + "\n")
    return problems


def report(args, scenarios, defects, result) -> None:
    """Print every metric by name and unit, then the JSON result line."""
    RESULTS.mkdir(exist_ok=True)
    plain = result["plain"]
    attempted = result["attempted"]
    failed = sum(len(errs) for errs in result["failures"].values())
    problems = [f"failure of {name}: {errs[0]}" for name, errs in result["failures"].items()]

    by_sub: dict[str, list[str]] = defaultdict(list)
    for sc in scenarios:
        by_sub[sc.subcommand].append(sc.name)
    sweep_s = sum_of_medians(plain, plain)
    sub_s = {f"{sub.replace('-', '_')}_s": sum_of_medians(plain, by_sub[sub])
             for sub in SUBCOMMANDS if sub in by_sub}
    whole = min(len(v) for v in plain.values())
    env = environment(args)
    details = {
        "environment": env,
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted,
        "failures": {name: {"count": len(errs), "first": errs[0]}
                     for name, errs in result["failures"].items()},
        "known_defects": defects,
        "sweep_s": sweep_s,
        "whole_sweeps": summarize([sum(v[k] for v in plain.values()) for k in range(whole)]),
        "subcommands": sub_s,
        "scenarios": {name: summarize(v) for name, v in plain.items()},
    }

    if args.trace == 0:
        details["setup_s"] = summarize(result["setup"])
        metrics = {
            "setup_s": details["setup_s"]["median"],
            "sweep_s": sweep_s,
            "peak_rss_mb": result["peak_rss_mb"],
        }
    else:
        runs = result["layers"]
        problems += counts_repeat(args, env, runs)
        metrics = {key: statistics.median(r[key] for r in runs) for key in runs[0]}
        traced = result["traced"]
        metrics["trace.overhead_frac"] = sum_of_medians(traced, traced) / sweep_s - 1
        for sub in SUBCOMMANDS:
            key = f"{sub.replace('-', '_')}_s"
            metrics[key] = sub_s.get(key, 0.0)
        metrics["failed_frac"] = failed / attempted
        metrics["known_defects_failing"] = sum(d["still_fails"] for d in defects.values())
        details["traced_sweeps"] = len(runs)
        details["roadmap_baselines"] = ROADMAP_BASELINES
        details["spans_of_last_traced_sweep"] = [
            {"name": name, "start": start, "end": end, "parent": parent}
            for name, start, end, parent in result["spans"]
        ]
    details["problems"] = problems

    path = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(details, indent=1) + "\n")
    units = declared_units()
    print_human(args, details, metrics, units, path)
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))


def print_human(args, details, metrics, units, path) -> None:
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"scenarios attempted {details['attempted']}  failed {details['failed']} "
          f"(failed_frac {details['failed_frac']:.4f})")
    print("environment " + json.dumps(details["environment"]))
    for name, fail in details["failures"].items():
        print(f"  failure {name} x{fail['count']}: {fail['first'][:160]}")
    for name, probe in details["known_defects"].items():
        state = f"still fails: {probe['error']}" if probe["still_fails"] else "passes now"
        print(f"  known defect {name} ({probe['known_defect']}), probed once, "
              f"untimed and uncounted: {state[:160]}")
    for problem in details["problems"]:
        print(f"  problem: {problem}")
    print(f"  sweep_s {details['sweep_s']:.4g} s is the sum of the per-scenario medians; "
          f"per-subcommand sums: " + ", ".join(f"{k} {v:.4g}"
                                               for k, v in details["subcommands"].items()))
    for key, st in [("whole sweeps", details["whole_sweeps"]), *details["scenarios"].items()]:
        tail = st["tail"]
        tail = (f"p{tail['percentile']:g} {tail['value']:.4g}" if tail
                else "no percentile has >= 10 samples beyond it")
        print(f"  {key:<28} median {st['median']:.4g} s, quartiles {st['q1']:.4g} / "
              f"{st['q3']:.4g}, untraced n={st['n']}, {tail}")
    for key, value in metrics.items():
        note = ROADMAP_BASELINES.get(key)
        note = f"   [ROADMAP baseline, information only: {note}]" if note else ""
        print(f"{key:<30} {value:>16.6g} {units[key]}{note}")
    print(f"details written to {path.relative_to(ROOT)}")


if __name__ == "__main__":
    sys.exit(main())
