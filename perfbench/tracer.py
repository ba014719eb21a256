"""In-memory tracing of cslab's layers, installed from outside the package.

``Tracer.install`` replaces the public entry points of each cslab module
with wrappers, everywhere a cslab module holds a reference to them (so the
``from .geometry import fs_metric`` copy inside ``cslab.cli`` is wrapped
too), and ``uninstall`` puts the originals back.  No file under ``src/``
changes.

A wrapped call records a span ``(name, start, end, parent)``; a module's
self time is its spans' durations minus the part covered by child spans.
Calls that take only microseconds (symbol evaluations inside RK4) are
counted instead of spanned, and one call in ``SAMPLE_EVERY`` is timed to
estimate their total, so tracing does not swamp the work it measures.
"""

from __future__ import annotations

import inspect
import sys
from collections import Counter
from time import perf_counter

SAMPLE_EVERY = 16

# per-step traffic of the Crank-Nicolson loop in length-m complex vectors:
# B @ u (read u, write b), solve (read b, write u), A @ u (read u, write
# r), r - b (read 2, write 1), norm (read 1)
CN_VECTORS_PER_STEP = 10
COMPLEX_BYTES = 16

STATE_CONSTRUCTORS = ("states.affine_coherent", "states.canonical_coherent",
                  "states.fiducial_wavefunction")
SYMBOL_CONSTRUCTORS = ("symbols.weak_symbol", "symbols.polynomial_symbol")
QUADRATURES = ("symbols.symbol_quadrature_affine", "symbols.symbol_quadrature_canonical")
WRITERS = ("cli.Outputs.json", "cli.Outputs.csv_trajectory", "cli.Outputs.csv_snapshot",
           "cli.Outputs.svg")
MODULES = ("cli", "geometry", "states", "grids", "symbols", "dynamics", "schrodinger",
           "modeltwo", "svgplot")


def _bind(fn, args, kwargs):
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _on_state(tr, fn, args, kwargs, result):
    tr.counts["states.nodes_built"] += result.grid.n


def _on_integrate(tr, fn, args, kwargs, result):
    a = _bind(fn, args, kwargs)
    tr.counts["dynamics.rk4_steps"] += result.n - 1
    tr.counts["dynamics.steps_requested"] += int(round(abs(a["t_final"]) / a["dt"]))


def _on_evolve(tr, fn, args, kwargs, result):
    setup = result.setup
    sl = setup.unknown_slice()
    m = len(range(*sl.indices(setup.grid.n)))
    tr.counts["schrodinger.cn_steps"] += setup.steps
    tr.counts["schrodinger.unknowns"] += m
    tr.counts["schrodinger.vector_bytes"] += (
        setup.steps * m * CN_VECTORS_PER_STEP * COMPLEX_BYTES
    )


def _on_h1_operator(tr, fn, args, kwargs, result):
    tr.counts["modeltwo.ladder_terms"] += len(result.terms)


def _on_charfn(tr, fn, args, kwargs, result):
    a = _bind(fn, args, kwargs)
    tr.counts["modeltwo.kernel_elems"] += a["n_r"] * a["n_theta"]


def _on_write(tr, fn, args, kwargs, result):
    if result is not None:
        tr.counts["cli.bytes_written"] += result.stat().st_size


def _on_plot(tr, fn, args, kwargs, result):
    a = _bind(fn, args, kwargs)
    tr.counts["svgplot.points"] += len(a["x"]) * len(a["series"])


def _targets(cslab):
    """(owner, attribute, span name, result hook) for every wrapped entry point."""
    m = {name: getattr(cslab, name) for name in MODULES}
    funcs = {
        "cli": ["main", "resolve_params"],
        "geometry": ["fs_metric", "scalar_curvature"],
        "states": ["affine_coherent", "canonical_coherent", "fiducial_wavefunction",
                   "default_affine_grid", "default_canonical_grid", "verify_centering",
                   "state_labels"],
        "grids": ["inner_product", "derivative", "uniform_grid", "position_moment",
                  "momentum_expectation", "dilation_expectation"],
        "symbols": ["parse_operator", "weak_symbol", "polynomial_symbol",
                    "symbol_quadrature_affine", "symbol_quadrature_canonical"],
        "dynamics": ["integrate"],
        "schrodinger": ["evolve", "track_expectations", "hamiltonian_tridiagonal"],
        "modeltwo": ["h1_expectation", "h1_operator", "h1_closed_form",
                     "characteristic_radial", "gaussian_radial_density"],
        "svgplot": ["write_line_plot"],
    }
    hooks = {
        "states.affine_coherent": _on_state,
        "states.canonical_coherent": _on_state,
        "states.fiducial_wavefunction": _on_state,
        "dynamics.integrate": _on_integrate,
        "schrodinger.evolve": _on_evolve,
        "modeltwo.h1_operator": _on_h1_operator,
        "modeltwo.characteristic_radial": _on_charfn,
        "svgplot.write_line_plot": _on_plot,
    }
    out = []
    for mod, names in funcs.items():
        for attr in names:
            out.append((m[mod], attr, f"{mod}.{attr}", hooks.get(f"{mod}.{attr}")))
    outputs = m["cli"].Outputs
    for attr in ("json", "csv_trajectory", "csv_snapshot", "svg"):
        out.append((outputs, attr, f"cli.Outputs.{attr}", _on_write))
    return out


class Tracer:
    """Spans and counters of one traced sweep; install, run, uninstall, summarize."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int] | None] = []
        self.counts: Counter = Counter()
        self.fast_time: dict[int, float] = {}  # span index -> estimated fast-call time
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- wrappers ----------------------------------------------------------

    def _span_wrapper(self, name, fn, hook):
        spans, stack, tracer = self.spans, self._stack, self

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, parent)
            if hook is not None:
                hook(tracer, fn, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _symbol_wrapper(self, name, fn):
        """SymbolFn.__call__/grad: span quadrature-backed symbols, count closed forms."""
        spanned = self._span_wrapper(name, fn, None)
        counts, stack, fast_time = self.counts, self._stack, self.fast_time
        key = f"{name}.fast_calls"

        def wrapper(symbol, *args):
            if not symbol.closed_form:
                return spanned(symbol, *args)
            n = counts[key] = counts[key] + 1
            if n % SAMPLE_EVERY:
                return fn(symbol, *args)
            start = perf_counter()
            result = fn(symbol, *args)
            elapsed = (perf_counter() - start) * SAMPLE_EVERY
            owner = stack[-1] if stack else -1
            fast_time[owner] = fast_time.get(owner, 0.0) + elapsed
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- install / uninstall ----------------------------------------------

    def install(self) -> None:
        import cslab
        import cslab.cli  # noqa: F401  (also loads cslab.svgplot)

        modules = [mod for key, mod in sys.modules.items()
                   if key == "cslab" or key.startswith("cslab.")]
        targets = _targets(cslab)
        symbol_cls = cslab.symbols.SymbolFn
        for attr in ("__call__", "grad"):
            targets.append((symbol_cls, attr, f"symbols.SymbolFn.{attr}", "symbol"))
        for owner, attr, name, hook in targets:
            original = owner.__dict__[attr]
            if hook == "symbol":
                wrapper = self._symbol_wrapper(name, original)
            else:
                wrapper = self._span_wrapper(name, original, hook)
            if isinstance(owner, type):
                self._patch(owner, attr, original, wrapper)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, original, wrapper)

    def _patch(self, owner, attr, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- summary -------------------------------------------------------------

    def summary(self) -> dict[str, float]:
        """Per-layer metrics of everything recorded since construction."""
        spans = self.spans  # all closed: summary runs after the sweep
        n = len(spans)
        child = [0.0] * n
        for name, start, end, parent in spans:
            if parent >= 0:
                child[parent] += end - start
        under_metric = [False] * n
        for i, (name, _, _, parent) in enumerate(spans):
            if parent >= 0:
                under_metric[i] = under_metric[parent] or spans[parent][0] == "geometry.fs_metric"

        total = Counter()
        calls = Counter()
        self_time = Counter()
        states_in_metrics = 0
        for i, (name, start, end, parent) in enumerate(spans):
            dur = end - start
            total[name] += dur
            calls[name] += 1
            fast = self.fast_time.get(i, 0.0)
            self_time[name.split(".")[0]] += dur - child[i] - fast
            self_time["symbols"] += fast
            if name in STATE_CONSTRUCTORS and under_metric[i]:
                states_in_metrics += 1
        self_time["symbols"] += self.fast_time.get(-1, 0.0)

        c = self.counts

        def ratio(a, b):
            return a / b if b else 0.0

        def sum_of(names, table):
            return sum(table[k] for k in names)

        sym_calls = sum(c[f"symbols.SymbolFn.{a}.fast_calls"] + calls[f"symbols.SymbolFn.{a}"]
                        for a in ("__call__", "grad"))
        sym_time = (sum(total[f"symbols.SymbolFn.{a}"] for a in ("__call__", "grad"))
                    + sum(self.fast_time.values()))
        out = {
            "geometry.metric_calls": calls["geometry.fs_metric"],
            "geometry.metric_s": total["geometry.fs_metric"],
            "geometry.states_per_metric": ratio(states_in_metrics, calls["geometry.fs_metric"]),
            "geometry.curvature_calls": calls["geometry.scalar_curvature"],
            "geometry.curvature_s": total["geometry.scalar_curvature"],
            "states.states_built": sum_of(STATE_CONSTRUCTORS, calls),
            "states.build_s": sum_of(STATE_CONSTRUCTORS, total),
            "states.nodes_built": c["states.nodes_built"],
            "states.bytes_built": c["states.nodes_built"] * COMPLEX_BYTES,
            "grids.inner_product_calls": calls["grids.inner_product"],
            "grids.inner_product_s": total["grids.inner_product"],
            "grids.derivative_calls": calls["grids.derivative"],
            "grids.derivative_s": total["grids.derivative"],
            "symbols.build_calls": sum_of(SYMBOL_CONSTRUCTORS, calls),
            "symbols.build_s": sum_of(SYMBOL_CONSTRUCTORS, total),
            "symbols.eval_calls": sym_calls,
            "symbols.eval_s": sym_time,
            "symbols.quadrature_calls": sum_of(QUADRATURES, calls),
            "dynamics.rk4_steps": c["dynamics.rk4_steps"],
            "dynamics.integrate_s": total["dynamics.integrate"],
            "dynamics.step_us": 1e6 * ratio(total["dynamics.integrate"], c["dynamics.rk4_steps"]),
            "dynamics.steps_done_frac": ratio(c["dynamics.rk4_steps"],
                                              c["dynamics.steps_requested"]),
            "schrodinger.cn_steps": c["schrodinger.cn_steps"],
            "schrodinger.unknowns": c["schrodinger.unknowns"],
            "schrodinger.evolve_s": total["schrodinger.evolve"],
            "schrodinger.step_us": 1e6 * ratio(total["schrodinger.evolve"],
                                               c["schrodinger.cn_steps"]),
            "schrodinger.bytes_per_step": ratio(c["schrodinger.vector_bytes"],
                                                c["schrodinger.cn_steps"]),
            "schrodinger.track_s": total["schrodinger.track_expectations"],
            "modeltwo.h1_calls": calls["modeltwo.h1_expectation"],
            "modeltwo.h1_s": total["modeltwo.h1_expectation"],
            "modeltwo.ladder_terms": c["modeltwo.ladder_terms"],
            "modeltwo.charfn_calls": calls["modeltwo.characteristic_radial"],
            "modeltwo.charfn_s": total["modeltwo.characteristic_radial"],
            "modeltwo.kernel_elems": c["modeltwo.kernel_elems"],
            "cli.resolve_s": total["cli.resolve_params"],
            "cli.write_s": sum_of(WRITERS, total),
            "cli.bytes_written": c["cli.bytes_written"],
            "svgplot.write_s": total["svgplot.write_line_plot"],
            "svgplot.points": c["svgplot.points"],
        }
        for mod in MODULES:
            out[f"{mod}.self_s"] = self_time[mod]
        return out


# metrics of a traced sweep that are exact counts and must repeat exactly
EXACT = (
    "geometry.metric_calls", "geometry.states_per_metric", "geometry.curvature_calls",
    "states.states_built", "states.nodes_built", "states.bytes_built",
    "grids.inner_product_calls", "grids.derivative_calls",
    "symbols.build_calls", "symbols.eval_calls", "symbols.quadrature_calls",
    "dynamics.rk4_steps", "dynamics.steps_done_frac",
    "schrodinger.cn_steps", "schrodinger.unknowns", "schrodinger.bytes_per_step",
    "modeltwo.h1_calls", "modeltwo.ladder_terms", "modeltwo.charfn_calls",
    "modeltwo.kernel_elems", "cli.bytes_written", "svgplot.points",
)
