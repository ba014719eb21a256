"""cslab: a computational laboratory for coherent-state restricted dynamics.

Builds canonical and affine coherent-state families, maps operator
Hamiltonians to their classical symbols on those sheets, measures the
sheet geometry (Fubini-Study metric, curvature), integrates the resulting
classical flow, benchmarks it against full Crank-Nicolson quantum
evolution, and evaluates the reducible-representation quartic oscillator
exactly at the ladder eigenvalues of its displaced coherent states.
"""

__version__ = "0.1.0"

from .grids import (
    FULL_LINE,
    HALF_LINE,
    Grid,
    WaveFunction,
    derivative,
    half_line_grid,
    inner_product,
    uniform_grid,
)
from .states import (
    CoherentFamily,
    Fiducial,
    PhasePoint,
    affine_coherent,
    affine_fiducial,
    canonical_coherent,
    gaussian_fiducial,
    verify_centering,
)
from .symbols import (
    D,
    OperatorExpr,
    SymbolFn,
    X,
    compute_C,
    parse_operator,
    polynomial_symbol,
    weak_symbol,
)
from .geometry import MetricTensor, fs_metric, ray_distance, scalar_curvature
from .dynamics import (
    Trajectory,
    integrate,
    model_one_floor,
    restricted_action,
)
# track_expectations(u, hu, x_weights, setup) -> (<p>, <x>, <H>) on the unknown vector u
from .schrodinger import EvolutionSetup, evolve, track_expectations
from .modeltwo import (
    ReducibleRep,
    characteristic_exact_gaussian,
    characteristic_radial,
    gaussian_radial_density,
    h1_expectation,
    h1_matrix_element,
    match_target,
    measure_superposition,
    overlap_reducible,
)
