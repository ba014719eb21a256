"""Independent brute-force oracles shared by the unit and acceptance tests.

Everything here deliberately bypasses the library's algebra: expectations
and overlaps are computed by direct 2-D Gauss-Legendre quadrature over the
explicit displaced wave functions, sheet metrics and labels by weighted
sums over the coherent densities on a grid or by central differences of
the states, curvature by the Brioschi formula on a stencil of metrics, the
constant C by adaptive quadrature, the Model One flow from energy
conservation, characteristic functions by a 2-D radial-angular rule, and
SVG polylines point by point.
The four paper quantities no CLI route computes (the ray distance, the
restricted action, off-diagonal H1 elements and target matching) are kept
here as the library wrote them: they use its algebra, and each is the
reference of another check.
"""

import cmath
import functools
import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.integrate import quad
from scipy.linalg import solve_banded
from scipy.sparse import csc_matrix, diags
from scipy.sparse.linalg import splu

from cslab.dynamics import Trajectory
from cslab.errors import DomainError, NumericError
from cslab.geometry import MetricTensor
from cslab.grids import WaveFunction, inner_product
from cslab.modeltwo import (
    ReducibleRep,
    _h1_value,
    _power,
    _require_finite,
    overlap_reducible,
)
from cslab.states import (
    AFFINE_DOMAIN,
    CANONICAL_DOMAIN,
    PhasePoint,
    _require_coverage,
    affine_log_norm,
    affine_values,
    default_affine_grid,
    default_canonical_grid,
    gaussian_values,
)
from cslab.symbols import SymbolFn


def gl_grid(n=400, half_width=14.0):
    x, w = leggauss(n)
    return x * half_width, w * half_width


def psi_and_partials(m, zeta, hbar, p, q, X, Y):
    """Displaced correlated ground state and its analytic partials."""
    norm_sq = m * math.sqrt(1 - zeta**2) / (math.pi * hbar)
    xs = X - q
    psi = (
        math.sqrt(norm_sq)
        * np.exp(1j * p * xs / hbar)
        * np.exp(-m * (xs**2 + 2 * zeta * xs * Y + Y**2) / (2 * hbar))
    )
    dx = psi * (1j * p / hbar - m * (xs + zeta * Y) / hbar)
    dy = psi * (-m * (Y + zeta * xs) / hbar)
    return psi, dx, dy


def quadrature_expectations(m, zeta, hbar, p, q):
    """<H_p>, <H_r> and <B+B+BB> at N = 1 by direct double integrals."""
    xs, w = gl_grid()
    X, Y = np.meshgrid(xs, xs, indexing="ij")
    W = np.outer(w, w)
    psi, dx, dy = psi_and_partials(m, zeta, hbar, p, q, X, Y)
    a_psi = -1j * hbar * dx - 1j * m * (X + zeta * Y) * psi
    b_psi = -1j * hbar * dy - 1j * m * (Y + zeta * X) * psi
    h_p = 0.5 * float(np.sum(np.conj(a_psi) * a_psi * W).real)
    h_r = 0.5 * float(np.sum(np.conj(b_psi) * b_psi * W).real)
    # B(b_psi) with b_psi written as g * psi; g comes from the analytic
    # log-derivative (dividing b_psi by psi would underflow in the corners)
    # and is differentiated numerically so the oracle does not assume the
    # displaced state is a B eigenstate
    g = 1j * m * (Y + zeta * (X - q)) - 1j * m * (Y + zeta * X)
    dg_dy = np.gradient(g, xs, axis=1)
    b2_psi = -1j * hbar * (dg_dy * psi + g * dy) - 1j * m * (Y + zeta * X) * g * psi
    quartic = float(np.sum(np.conj(b2_psi) * b2_psi * W).real)
    return h_p, h_r, quartic


def quadrature_overlap(m, zeta, hbar, pl, ql, pr, qr):
    """N = 1 coherent overlap by direct double integration."""
    xs, w = gl_grid()
    X, Y = np.meshgrid(xs, xs, indexing="ij")
    W = np.outer(w, w)
    left, _, _ = psi_and_partials(m, zeta, hbar, pl, ql, X, Y)
    right, _, _ = psi_and_partials(m, zeta, hbar, pr, qr, X, Y)
    return complex(np.sum(np.conj(left) * right * W))


# ---------------------------------------------------------------------------
# ladder polynomials, term by term
#
# A term is (coeff, adag, bdag, a, b); each index lists (site, power) pairs
# in any order, repeats allowed.  These loops, which neither normalize the
# indices nor share code with cslab.modeltwo, are the references the terms
# of its h1_operator and its pair-sum route to H1 are tested against.


def ladder_evaluate(terms, left_alpha, left_beta, right_alpha, right_beta):
    """(sum of the terms, sum of their moduli) at the given eigenvalues."""
    values = (np.conj(left_alpha), np.conj(left_beta), right_alpha, right_beta)
    total = 0.0 + 0.0j
    size = 0.0
    for coeff, *indices in terms:
        term = complex(coeff)
        for index, v in zip(indices, values):
            for site, power in index:
                term *= v[site] ** power
        total += term
        size += abs(term)
    return total, size


def _monomial(index):
    merged = {}
    for site, power in index:
        if power:
            merged[site] = merged.get(site, 0) + power
    return tuple(sorted(merged.items()))


def _ladder_dict(terms):
    out = {}
    for coeff, *indices in terms:
        key = tuple(_monomial(index) for index in indices)
        out[key] = out.get(key, 0.0 + 0.0j) + complex(coeff)
    return {k: v for k, v in out.items() if abs(v) > 1e-300}


def ladder_dagger(terms):
    return [(np.conj(c), a, b, adag, bdag) for c, adag, bdag, a, b in terms]


def ladder_hermitian(terms, rtol=1e-12):
    mine = _ladder_dict(terms)
    theirs = _ladder_dict(ladder_dagger(terms))
    if mine.keys() != theirs.keys():
        return False
    scale = max((abs(v) for v in mine.values()), default=1.0)
    return all(abs(mine[k] - theirs[k]) <= rtol * scale for k in mine)


def h1_terms(n, nu):
    """H_p + H_r + 4 nu :H_r^2: as an explicit term list."""
    terms = [(0.5, [(k, 1)], [], [(k, 1)], []) for k in range(n)]
    terms += [(0.5, [], [(k, 1)], [], [(k, 1)]) for k in range(n)]
    terms += [
        (nu, [], [(k, 1), (l, 1)], [], [(k, 1), (l, 1)]) for k in range(n) for l in range(n)
    ]
    return terms


# ---------------------------------------------------------------------------
# off-diagonal H1 elements and target matching
#
# cslab.modeltwo evaluates H1 only on the diagonal.  These are its pair sums
# off the diagonal, checked against the term lists above, and the (m, nu)
# that reproduce a quartic target, checked through h1_expectation.


def h1_matrix_element(
    rep: ReducibleRep, nu: float, p_left, q_left, p_right, q_right
) -> complex:
    """<p',q'| H1 |p,q> from the two pair sums, as in ``h1_expectation``."""
    points = (p_left, q_left, p_right, q_right)
    value = _h1_value(rep, nu, *points) * overlap_reducible(rep, *points)
    return _require_finite(value, "H1 matrix element")


def match_target(m0_sq: float, lambda0: float, zeta: float) -> tuple[float, float]:
    """Solve (m, nu) so that the quartic model reproduces (m0^2, lambda0)."""
    if not 0 < zeta < 1:
        raise DomainError("target matching needs zeta in (0, 1)")
    if not (m0_sq > 0 and lambda0 > 0):
        raise DomainError("target parameters must be positive")
    m_sq = m0_sq / (1 + zeta**2)
    nu = lambda0 / (zeta**4 * _power(m_sq, 2))
    return math.sqrt(m_sq), nu


# ---------------------------------------------------------------------------
# Crank-Nicolson by general sparse matrices
#
# A = 1 + i lam H and B = 1 - i lam H are assembled as sparse matrices, A is
# factored by a general sparse LU with its own pivoting, and each step solves
# A u' = B u: the reference for cslab.schrodinger, which instead steps
# u' = 2 A^-1 u - u on a pivot-free L D L^T of A.


def crank_nicolson_sparse(diag, off, lam, u, steps):
    """u after `steps` solves of A u' = B u for the tridiagonal H = (diag, off)."""
    a_mat = csc_matrix(
        diags([1j * lam * off, 1 + 1j * lam * diag, 1j * lam * off], offsets=[-1, 0, 1])
    )
    b_mat = csc_matrix(
        diags([-1j * lam * off, 1 - 1j * lam * diag, -1j * lam * off], offsets=[-1, 0, 1])
    )
    solver = splu(a_mat)
    for _ in range(steps):
        u = solver.solve(b_mat @ u)
    return u


def ldlt_banded_solve(multipliers, pivots, b):
    """(L D L^T)^-1 b by LAPACK's banded solver, one triangular factor at a
    time, for unit lower-bidiagonal L with ``multipliers`` below its diagonal."""
    m = pivots.size
    lower = np.zeros((2, m), dtype=complex)
    lower[0] = 1
    lower[1, :-1] = multipliers
    upper = np.zeros((2, m), dtype=complex)
    upper[0, 1:] = multipliers
    upper[1] = 1
    y = solve_banded((1, 0), lower, b)
    return solve_banded((0, 1), upper, y / pivots)


# ---------------------------------------------------------------------------
# the ray distance in closed form
#
# The finite distance whose small-step limit is the quadratic form of
# cslab.geometry.fs_metric.


@dataclass(frozen=True)
class RayDistance:
    """Squared ray distance and the aligning phase."""

    d_squared: float
    alpha: float
    overlap_abs: float

    def __float__(self):
        return self.d_squared


def ray_distance(psi1: WaveFunction, psi2: WaveFunction) -> RayDistance:
    """2 hbar min_alpha ||psi1 - e^{i alpha} psi2||^2 via the closed form, in psi1's hbar.

    ``alpha`` is the minimizing phase: e^{i alpha} psi2 aligned with psi1.
    """
    psi1.require_normalized(1e-8)
    psi2.require_normalized(1e-8)
    overlap = inner_product(psi1, psi2)
    d2 = 4.0 * psi1.hbar * (1.0 - abs(overlap))
    alpha = -cmath.phase(overlap) if overlap != 0 else 0.0
    return RayDistance(max(d2, 0.0), alpha, abs(overlap))


# ---------------------------------------------------------------------------
# sheet geometry by quadrature over the coherent density
#
# The grid route the closed-form moments in cslab.states and cslab.geometry
# replaced: the metric and the labels as weighted sums over |psi_{p,q}|^2 at
# the grid nodes, guarded by the quadrature norm.

# relative accuracy the quadrature norm, and the two Richardson extrapolants
# of the difference metric, must reach
METRIC_RTOL = 1e-5

# bounds on closed-form vs oracle differences on 150k-node grids, about 5x
# the largest measured (all at affine beta = 1): labels 2.2e-11 absolute,
# metric 1.4e-7 relative, curvature 1.8e-7 absolute
ORACLE_LABEL_ATOL = 1e-10
ORACLE_METRIC_RTOL = 1e-6
ORACLE_CURVATURE_ATOL = 1e-6


def coherent_density(f, pt, grid):
    """|psi_{p,q}|^2 at the grid nodes for a Gaussian or affine-Beta fiducial.

    The phase exp(i p (x - q) / hbar) has modulus one, so no complex value
    is formed; the grid checks are those of the state constructors.
    """
    x = grid.nodes
    if f.kind != pt.domain:
        raise DomainError(f"a {f.kind} fiducial has no density on the {pt.domain} sheet")
    if f.kind == CANONICAL_DOMAIN:
        _require_coverage(f, pt, grid)
        return gaussian_values(f.omega, f.hbar, x - pt.q) ** 2
    return affine_values(f.beta, f.hbar, x / pt.q) ** 2 / pt.q


def tangent_multipliers(f, pt, x):
    """Exact tangents of a transported analytic fiducial as real multipliers:

        d psi/dp = i u psi,    d psi/dq = (v - i p / hbar) psi,

    with u = (x - q) / hbar on both sheets and

        v = omega u                        (Gaussian canonical),
        v = -1/(2q) - a/q + b x/q^2        (affine; b = beta/hbar, a = b - 1/2)
          = beta u / q^2.
    """
    u = (x - pt.q) / f.hbar
    if f.kind == CANONICAL_DOMAIN:
        return u, f.omega * u
    return u, (f.beta / pt.q**2) * u


def exact_metric(family, pt):
    """2 hbar [<dpsi|dpsi> - |<psi|dpsi>|^2] as weighted sums over |psi|^2.

    With d_p psi = i u psi and d_q psi = (v - i c) psi, c = p / hbar, the
    diagonal entries are variances of u and v.  The terms in c come from the
    phase factor and vanish for a state of norm 1; they are kept so that the
    result is the formula above evaluated on the family's grid.
    """
    f, grid = family.fiducial, family.grid
    hbar = f.hbar
    pt = PhasePoint(pt.p, pt.q, domain=family.domain)
    rho = grid.spacing * coherent_density(f, pt, grid)
    norm = float(rho.sum())
    if not abs(norm - 1.0) <= METRIC_RTOL:
        raise NumericError(
            f"state norm {norm!r} on the metric grid is off by more than {METRIC_RTOL:g}"
        )
    u, v = tangent_multipliers(f, pt, grid.nodes)
    c = pt.p / hbar
    mean_u = float(np.dot(rho, u))
    mean_v = float(np.dot(rho, v))
    return MetricTensor(
        2 * hbar * (float(np.dot(rho, u * u)) - mean_u**2),
        2 * hbar * c * mean_u * (norm - 1.0),
        2 * hbar * (float(np.dot(rho, v * v)) - mean_v**2 + c**2 * norm * (1.0 - norm)),
    )


def exact_metric_field(family):
    """(p, q) -> exact_metric of the family on its own sheet, for the curvature stencil."""
    return lambda p, q: exact_metric(family, PhasePoint(p, q, domain=family.domain))


# ---------------------------------------------------------------------------
# sheet metric by central differences of the states
#
# Needs only a (p, q) -> state callable on one fixed grid, so it checks the
# exact tangents of the quadrature route above without sharing them.


def _tangent(family, p, q, dp, dq, step):
    plus = family(p + dp * step, q + dq * step)
    minus = family(p - dp * step, q - dq * step)
    values = (plus.values - minus.values) / (2 * step)
    return WaveFunction(plus.grid, values, plus.hbar)


def _metric_at_step(family, p, q, step_p, step_q):
    psi = family(p, q)
    hbar = psi.hbar
    tp = _tangent(family, p, q, 1, 0, step_p)
    tq = _tangent(family, p, q, 0, 1, step_q)
    a = inner_product(psi, tp)
    b = inner_product(psi, tq)
    g_pp = 2 * hbar * (inner_product(tp, tp).real - abs(a) ** 2)
    g_qq = 2 * hbar * (inner_product(tq, tq).real - abs(b) ** 2)
    g_pq = 2 * hbar * (inner_product(tp, tq).real - (np.conj(a) * b).real)
    return MetricTensor(g_pp, g_pq, g_qq)


def difference_metric(family, pt, step=None):
    """Fubini-Study metric of any (p, q) -> state callable on one fixed grid.

    Central differences of the states with one Richardson extrapolation,
    whose two consecutive extrapolants must agree to ``METRIC_RTOL``; hbar
    is that of the states the family builds.
    """
    p, q = pt.p, pt.q
    if step is None:
        step = 1e-4 * (1 + abs(p) + abs(q))
    # keep the q-direction step inside the affine domain; the ratio stays
    # fixed across halvings so Richardson extrapolation remains valid
    q_ratio = min(1.0, q / (8 * step)) if pt.domain == AFFINE_DOMAIN else 1.0

    def levels(h):
        return _metric_at_step(family, p, q, h, h * q_ratio)

    g1, g2, g4 = levels(step), levels(step / 2), levels(step / 4)

    def richardson(coarse, fine):
        return MetricTensor(
            (4 * fine.g_pp - coarse.g_pp) / 3,
            (4 * fine.g_pq - coarse.g_pq) / 3,
            (4 * fine.g_qq - coarse.g_qq) / 3,
        )

    r1 = richardson(g1, g2)
    r2 = richardson(g2, g4)
    scale = max(abs(r2.g_pp), abs(r2.g_qq), 1e-30)
    dev = max(
        abs(r1.g_pp - r2.g_pp), abs(r1.g_pq - r2.g_pq), abs(r1.g_qq - r2.g_qq)
    )
    if not dev <= METRIC_RTOL * scale:  # a NaN deviation fails too
        raise NumericError(
            f"metric extrapolation not converged (dev {dev:.2e} vs scale {scale:.2e})"
        )
    r2.require_positive_definite()
    return r2


# ---------------------------------------------------------------------------
# scalar curvature by the Brioschi formula
#
# A metric field sampled on a 5x5 stencil and differentiated numerically:
# the reference the closed form of cslab.geometry.scalar_curvature is
# tested against.

_FIVE_POINT_FIRST = np.array([1.0, -8.0, 0.0, 8.0, -1.0]) / 12.0
_FIVE_POINT_SECOND = np.array([-1.0, 16.0, -30.0, 16.0, -1.0]) / 12.0
# largest relative rounding of a stencil step by the coordinate it is added to
STENCIL_RTOL = 1e-8


def brioschi_curvature(field, pt, step=1e-2):
    """Scalar curvature (twice the Gauss curvature) of a (p, q) -> MetricTensor field.

    The field is sampled on a 5x5 stencil around ``pt`` with steps scaled
    by the local metric, and differentiated with fourth-order central
    stencils.
    """
    center = field(pt.p, pt.q)
    center.require_positive_definite()
    h_p = step / math.sqrt(center.g_pp)
    h_q = step / math.sqrt(center.g_qq)
    if pt.domain == AFFINE_DOMAIN and pt.q - 2 * h_q <= 0:
        raise DomainError("curvature stencil leaves the affine domain q > 0")
    # a step below the float spacing of the point, or zero from an infinite
    # metric entry, would leave the stencil differencing one metric with itself
    for x, h in ((pt.p, h_p), (pt.q, h_q)):
        if not abs((x + h) - x - h) < STENCIL_RTOL * h:
            raise NumericError(f"stencil step {h:.3g} is not resolved at {x:.17g}")

    offsets = (-2, -1, 0, 1, 2)
    E = np.empty((5, 5))
    F = np.empty((5, 5))
    G = np.empty((5, 5))
    for i, di in enumerate(offsets):
        for j, dj in enumerate(offsets):
            if di == dj == 0:
                g = center
            else:
                g = field(pt.p + di * h_p, pt.q + dj * h_q)
            E[i, j], F[i, j], G[i, j] = g.g_pp, g.g_pq, g.g_qq

    def d_u(values):  # derivative in p at the stencil center column
        return float(_FIVE_POINT_FIRST @ values[:, 2]) / h_p

    def d_v(values):
        return float(_FIVE_POINT_FIRST @ values[2, :]) / h_q

    def d_uu(values):
        return float(_FIVE_POINT_SECOND @ values[:, 2]) / h_p**2

    def d_vv(values):
        return float(_FIVE_POINT_SECOND @ values[2, :]) / h_q**2

    def d_uv(values):
        rows = values @ _FIVE_POINT_FIRST / h_q  # v-derivative at each u-offset
        return float(_FIVE_POINT_FIRST @ rows) / h_p

    e, f, g = E[2, 2], F[2, 2], G[2, 2]
    e_u, e_v, e_vv = d_u(E), d_v(E), d_vv(E)
    f_u, f_v, f_uv = d_u(F), d_v(F), d_uv(F)
    g_u, g_v, g_uu = d_u(G), d_v(G), d_uu(G)

    m1 = np.array(
        [
            [-0.5 * e_vv + f_uv - 0.5 * g_uu, 0.5 * e_u, f_u - 0.5 * e_v],
            [f_v - 0.5 * g_u, e, f],
            [0.5 * g_v, f, g],
        ]
    )
    m2 = np.array(
        [
            [0.0, 0.5 * e_v, 0.5 * g_u],
            [0.5 * e_v, e, f],
            [0.5 * g_u, f, g],
        ]
    )
    det_g = e * g - f**2
    gauss = (np.linalg.det(m1) - np.linalg.det(m2)) / det_g**2
    return 2.0 * gauss


# ---------------------------------------------------------------------------
# the kinetic-dilation constant C by adaptive quadrature


def kinetic_dilation_quadrature(f):
    """C = hbar^2 integral x |xi'(x)|^2 dx with xi'(x) = xi(x) ((b - 1/2)/x - b)."""
    b = f.beta / f.hbar
    a = b - 0.5
    nu = 2.0 * b
    log_m2 = 2 * affine_log_norm(f.beta, f.hbar)

    def integrand(x):
        return x * math.exp(log_m2 + (nu - 1) * math.log(x) - nu * x) * (a / x - b) ** 2

    val, _ = quad(integrand, 0, np.inf, limit=400)
    return f.hbar**2 * val


def density_labels(f, pt, n=None):
    """(p, q) read back as weighted sums over the density on the state's window.

    With N = sum h |psi|^2 and X = sum h x |psi|^2 on the window the state
    constructors pick for ``pt`` (``n`` nodes if given), the labels are
    (p N, X) on the canonical sheet and (p, X) on the affine one.
    """
    if f.kind == AFFINE_DOMAIN:
        grid = default_affine_grid(f, q=pt.q, n=n)
    else:
        grid = default_canonical_grid(f, q=pt.q, n=n)
    rho = grid.spacing * coherent_density(f, pt, grid)
    x_mom = float(np.dot(rho, grid.nodes))
    if pt.domain == AFFINE_DOMAIN:
        return pt.p, x_mom
    return pt.p * float(rho.sum()), x_mom


# ---------------------------------------------------------------------------
# the Model One flow in closed form


def model_one_reference(p0, q0, c):
    """Closed-form flow t -> (p, q) of H = q p^2 + c / q (c >= 0, q0 > 0).

    Energy conservation gives q(t) = [c + (|p0| q0 + s E t)^2] / E with
    s = sign(p0), which reduces to q0 (1 + p0 t)^2 at c = 0.
    """
    if q0 <= 0:
        raise DomainError("Model One requires q0 > 0")
    energy = q0 * p0**2 + (c / q0 if c else 0.0)
    if energy <= 0:
        raise DomainError("reference solution assumes positive energy")
    u0 = abs(p0) * q0  # sqrt(E q0 - c)
    s = 1.0 if p0 >= 0 else -1.0

    def at(t):
        w = u0 + s * energy * t
        q = (c + w * w) / energy
        return s * w / q, q

    return at


# ---------------------------------------------------------------------------
# the restricted action along a sampled path
#
# Stationary under fixed-endpoint variations of a path that solves Hamilton's
# equations: the check on the paths cslab.dynamics.integrate returns.


def restricted_action(path: Trajectory, symbol: SymbolFn) -> float:
    """Trapezoid value of  integral [p dq - H dt]  along the sampled path.

    Along a solution of Hamilton's equations this is stationary under
    fixed-endpoint variations.
    """
    if path.n < 100:
        raise DomainError("restricted_action needs >= 100 samples")
    p, q, t = path.p, path.q, path.times
    pdq = float(np.sum(0.5 * (p[1:] + p[:-1]) * np.diff(q)))
    h_vals = np.array([symbol(pi, qi) for pi, qi in zip(p, q)])
    h_int = float(np.trapezoid(h_vals, t))
    return pdq - h_int


# ---------------------------------------------------------------------------
# characteristic functions by a 2-D radial-angular rule
#
# The exp(i lambda cos theta) kernel on an n_r x n_theta Gauss-Legendre
# product rule over the ground state of N free oscillators: the reference
# the closed forms of cslab.modeltwo.characteristic_radial are tested against.


@functools.cache
def _legendre(n):
    """The n-point Gauss-Legendre rule on [-1, 1]; numpy builds it by an eigen-solve."""
    return leggauss(n)


def gaussian_radial_rule(N, m_prime, hbar=1.0, n_r=800):
    """Nodes r and weights w, sum(w f(r)) ~ int f(|x|) rho(x) d^N x, for
    rho = (m'/pi hbar)^(N/2) exp(-m' |x|^2 / hbar) on R^N."""
    r_max = 2.5 * math.sqrt((N + 10 * math.sqrt(N) + 10) * hbar / (2 * m_prime))
    x, w = _legendre(n_r)
    r = (x + 1) / 2 * r_max
    # rho, r^(N-1) and the sphere's area |S^(N-1)| each over- or underflow at
    # large N, so the weight is formed from the sum of their logs
    log_rho = N / 2 * math.log(m_prime / (math.pi * hbar)) - m_prime * r**2 / hbar
    log_sphere = math.log(2) + N / 2 * math.log(math.pi) - math.lgamma(N / 2)
    return r, np.exp(log_rho + (N - 1) * np.log(r) + log_sphere) * w / 2 * r_max


def characteristic_kernel(N, m_prime, p_r, hbar=1.0, n_r=800, n_theta=800):
    """Complex characteristic function of the N-oscillator ground state by the
    2-D kernel; the angular measure sin^(N-2) theta dtheta on [0, pi] is
    normalized on its own rule.  N >= 2."""
    r, w = gaussian_radial_rule(N, m_prime, hbar, n_r)
    xt, wt = _legendre(n_theta)
    theta = (xt + 1) / 2 * math.pi
    angular = np.sin(theta) ** (N - 2) * wt
    kernel = np.exp(1j * np.outer(p_r * r / hbar, np.cos(theta)))
    return complex(w @ kernel @ angular / np.sum(angular))


# ---------------------------------------------------------------------------
# SVG line plots point by point
#
# cslab.svgplot.write_line_plot as it was written before it scaled and
# formatted its polylines with numpy: each point scaled and formatted on its
# own.  The reference for that writer's bytes.

_SVG_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e")
_SVG_W, _SVG_H = 720, 480
_SVG_MARGIN = 60


def _svg_scale(vals, lo, hi, out_lo, out_hi):
    span = hi - lo
    if span == 0:
        span = 1.0
    return [out_lo + (v - lo) / span * (out_hi - out_lo) for v in vals]


def svg_line_plot_per_point(stream, x, series, title, x_label, y_label, comment):
    """One SVG with a polyline per (label, values) pair, point by point."""
    w, h, margin = _SVG_W, _SVG_H, _SVG_MARGIN
    xs = list(x)
    all_y = [v for _, ys in series for v in ys]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(all_y), max(all_y)
    if y_lo == y_hi:
        y_lo -= 0.5
        y_hi += 0.5
    pad = 0.05 * (y_hi - y_lo)
    y_lo -= pad
    y_hi += pad

    stream.write('<?xml version="1.0" encoding="UTF-8"?>\n')
    stream.write(f"<!-- {comment} -->\n")
    stream.write(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}" '
        f'viewBox="0 0 {w} {h}">\n'
    )
    stream.write(f'<rect width="{w}" height="{h}" fill="white"/>\n')
    stream.write(
        f'<rect x="{margin}" y="{margin}" width="{w - 2 * margin}" '
        f'height="{h - 2 * margin}" fill="none" stroke="#333"/>\n'
    )
    stream.write(
        f'<text x="{w / 2:.1f}" y="30" text-anchor="middle" '
        f'font-family="sans-serif" font-size="16">{title}</text>\n'
    )
    stream.write(
        f'<text x="{w / 2:.1f}" y="{h - 15}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12">{x_label}</text>\n'
    )
    stream.write(
        f'<text x="18" y="{h / 2:.1f}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12" '
        f'transform="rotate(-90 18 {h / 2:.1f})">{y_label}</text>\n'
    )
    for val, xp, yp, anchor in (
        (x_lo, margin, h - margin + 16, "middle"),
        (x_hi, w - margin, h - margin + 16, "middle"),
        (y_lo, margin - 6, h - margin, "end"),
        (y_hi, margin - 6, margin + 4, "end"),
    ):
        stream.write(
            f'<text x="{xp}" y="{yp}" text-anchor="{anchor}" '
            f'font-family="sans-serif" font-size="10">{val:.6g}</text>\n'
        )

    px = _svg_scale(xs, x_lo, x_hi, margin, w - margin)
    for idx, (label, ys) in enumerate(series):
        color = _SVG_COLORS[idx % len(_SVG_COLORS)]
        py = _svg_scale(ys, y_lo, y_hi, h - margin, margin)
        points = " ".join(f"{a:.2f},{b:.2f}" for a, b in zip(px, py))
        stream.write(
            f'<polyline fill="none" stroke="{color}" stroke-width="1.5" '
            f'points="{points}"/>\n'
        )
        stream.write(
            f'<text x="{w - margin - 8}" y="{margin + 16 + 14 * idx}" '
            f'text-anchor="end" font-family="sans-serif" font-size="11" '
            f'fill="{color}">{label}</text>\n'
        )
    stream.write("</svg>\n")
