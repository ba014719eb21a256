"""cslab: a computational laboratory for coherent-state restricted dynamics.

Builds canonical and affine coherent-state families, maps operator
Hamiltonians to their classical symbols on those sheets, measures the
sheet geometry (Fubini-Study metric, curvature), integrates the resulting
classical flow, benchmarks it against full Crank-Nicolson quantum
evolution, and evaluates the reducible-representation quartic oscillator
exactly at the ladder eigenvalues of its displaced coherent states.

The package exports only ``__version__``: callers import from its modules
(``cslab.cli``, ``cslab.states``, ...), so ``import cslab`` loads nothing else.
"""

__version__ = "0.1.0"
