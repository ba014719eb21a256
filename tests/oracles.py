"""Independent brute-force oracles shared by the unit and acceptance tests.

Everything here deliberately bypasses the library's algebra: expectations
and overlaps are computed by direct 2-D Gauss-Legendre quadrature over the
explicit displaced wave functions, sheet metrics and labels by weighted
sums over the coherent densities on a grid, and characteristic functions by
a 2-D radial-angular rule.
"""

import math

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.sparse import csc_matrix, diags
from scipy.sparse.linalg import splu

from cslab.errors import AccuracyError, DomainError
from cslab.geometry import MetricTensor
from cslab.modeltwo import _gauss_legendre, _log_solid_angle
from cslab.states import (
    AFFINE,
    AFFINE_DOMAIN,
    CANONICAL_DOMAIN,
    GAUSSIAN,
    PhasePoint,
    _require_coverage,
    affine_values,
    default_affine_grid,
    default_canonical_grid,
    gaussian_values,
)


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
# in any order, repeats allowed.  These loops are the references the
# compiled array engine in cslab.modeltwo is tested against.


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
# Crank-Nicolson by general sparse matrices
#
# A = 1 + i lam H and B = 1 - i lam H are assembled as sparse matrices and A
# is factored by a general sparse LU: the reference the tridiagonal LAPACK
# solver in cslab.schrodinger is tested against.


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


# ---------------------------------------------------------------------------
# sheet geometry by quadrature over the coherent density
#
# The grid route the closed-form moments in cslab.states and cslab.geometry
# replaced: the metric and the labels as weighted sums over |psi_{p,q}|^2 at
# the grid nodes, guarded by the quadrature norm.

# relative accuracy the quadrature norm must reach
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
    if f.kind == GAUSSIAN and pt.domain == CANONICAL_DOMAIN:
        _require_coverage(f, pt, grid)
        return gaussian_values(f.omega, f.hbar, x - pt.q) ** 2
    if f.kind == AFFINE and pt.domain == AFFINE_DOMAIN:
        return affine_values(f.beta, f.hbar, x / pt.q) ** 2 / pt.q
    raise DomainError(
        f"no closed-form density for a {f.kind} fiducial on the {pt.domain} sheet"
    )


def tangent_multipliers(f, pt, x):
    """Exact tangents of a transported analytic fiducial as real multipliers:

        d psi/dp = i u psi,    d psi/dq = (v - i p / hbar) psi,

    with u = (x - q) / hbar on both sheets and

        v = omega u                        (Gaussian canonical),
        v = -1/(2q) - a/q + b x/q^2        (affine; b = beta/hbar, a = b - 1/2)
          = beta u / q^2.
    """
    u = (x - pt.q) / f.hbar
    if f.kind == GAUSSIAN:
        return u, f.omega * u
    if f.kind == AFFINE:
        return u, (f.beta / pt.q**2) * u
    raise DomainError("closed-form tangents need a Gaussian or affine fiducial")


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
    rho = grid.weights * coherent_density(f, pt, grid)
    norm = float(rho.sum())
    if not abs(norm - 1.0) <= METRIC_RTOL:
        raise AccuracyError(
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


def density_labels(f, pt, n=None):
    """(p, q) read back as weighted sums over the density on the state's window.

    With N = sum w |psi|^2 and X = sum w x |psi|^2 on the window the state
    constructors pick for ``pt`` (``n`` nodes if given), the labels are
    (p N, X) on the canonical sheet and (p, X) on the affine one.
    """
    if f.kind == AFFINE:
        grid = default_affine_grid(f, q=pt.q, n=n)
    else:
        grid = default_canonical_grid(f, q=pt.q, n=n)
    rho = grid.weights * coherent_density(f, pt, grid)
    x_mom = float(np.dot(rho, grid.nodes))
    if pt.domain == AFFINE_DOMAIN:
        return pt.p, x_mom
    return pt.p * float(rho.sum()), x_mom


# ---------------------------------------------------------------------------
# characteristic functions by a 2-D radial-angular rule
#
# The exp(i lambda cos theta) kernel on an n_r x n_theta Gauss-Legendre
# product rule: the reference the 0F1 series of
# cslab.modeltwo.characteristic_radial is tested against.


def characteristic_kernel(density, p_r, hbar=1.0, n_r=800, n_theta=800):
    """Complex characteristic function of a radial density by the 2-D kernel."""
    N = density.N
    xr, wr = _gauss_legendre(n_r)
    r = (xr + 1) / 2 * density.r_max
    wr = wr / 2 * density.r_max
    radial = np.exp(density._log_radial(r) + _log_solid_angle(N - 1))

    xt, wt = _gauss_legendre(n_theta)
    theta = (xt + 1) / 2 * math.pi
    wt = wt / 2 * math.pi
    angular = np.sin(theta) ** (N - 2) * wt

    kernel = np.exp(1j * np.outer(p_r * r / hbar, np.cos(theta)))
    return complex(np.einsum("i,j,ij->", radial * wr, angular, kernel))
