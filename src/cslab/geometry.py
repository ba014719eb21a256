"""Ray distance, Fubini-Study metric and curvature of coherent-state sheets.

The squared distance between two state rays (phases quotiented out) is

    d2(psi1, psi2) = 2 hbar min_alpha ||psi1 - exp(i alpha) psi2||^2
                   = 4 hbar (1 - |<psi1|psi2>|),

and its infinitesimal version on a two-parameter family psi(p, q),

    dsigma^2 = 2 hbar [ <dpsi|dpsi> - |<psi|dpsi>|^2 ],

is the pulled-back Fubini-Study metric.  On the Gaussian canonical sheet it
is the constant diag(1/omega, omega); on the affine sheet it is the
Poincare half-plane metric diag(q^2/beta, beta/q^2) with scalar curvature
-2/beta.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import AccuracyError, DomainError
from .grids import WaveFunction, inner_product
from .states import (
    AFFINE_DOMAIN,
    GAUSSIAN,
    CoherentFamily,
    PhasePoint,
    coherent_moments,
)


@dataclass(frozen=True)
class MetricTensor:
    """Symmetric 2x2 phase-space metric at one point."""

    g_pp: float
    g_pq: float
    g_qq: float

    @property
    def det(self) -> float:
        return self.g_pp * self.g_qq - self.g_pq**2

    def require_positive_definite(self) -> None:
        if not (self.g_pp > 0 and self.det > 0):
            raise AccuracyError(f"metric not positive definite: {self}")


@dataclass(frozen=True)
class RayDistance:
    """Squared ray distance and the aligning phase."""

    d_squared: float
    alpha: float
    overlap_abs: float

    def __float__(self):
        return self.d_squared


def ray_distance(psi1: WaveFunction, psi2: WaveFunction, hbar: float | None = None) -> RayDistance:
    """2 hbar min_alpha ||psi1 - e^{i alpha} psi2||^2 via the closed form.

    ``alpha`` is the minimizing phase: e^{i alpha} psi2 aligned with psi1.
    """
    psi1.require_normalized(1e-8)
    psi2.require_normalized(1e-8)
    if hbar is None:
        hbar = psi1.hbar
    overlap = inner_product(psi1, psi2)
    d2 = 4.0 * hbar * (1.0 - abs(overlap))
    alpha = -cmath.phase(overlap) if overlap != 0 else 0.0
    return RayDistance(max(d2, 0.0), alpha, abs(overlap))


def _tangent(family, p, q, dp, dq, step) -> WaveFunction:
    plus = family(p + dp * step, q + dq * step)
    minus = family(p - dp * step, q - dq * step)
    values = (plus.values - minus.values) / (2 * step)
    return WaveFunction(plus.grid, values, plus.hbar)


def _metric_at_step(family, p, q, step_p, step_q) -> MetricTensor:
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


# relative accuracy the difference route must reach
METRIC_RTOL = 1e-5


def fs_metric(
    family: Callable[[float, float], WaveFunction],
    pt: PhasePoint,
    step: float | None = None,
) -> MetricTensor:
    """Fubini-Study metric of a coherent family at ``pt``, in the family's hbar.

    Analytic families (a :class:`CoherentFamily` of a Gaussian or affine-Beta
    fiducial) use the closed form of their exact tangents, which builds no
    grid.  Any other family (sampled fiducials, plain callables on one fixed
    grid) goes by central differences with one Richardson extrapolation,
    whose two consecutive extrapolants must agree to ``METRIC_RTOL``;
    ``step`` applies to that route only, and hbar is that of the states the
    family builds.
    """
    if isinstance(family, CoherentFamily) and family.analytic:
        g = _closed_form_metric(family, pt)
    else:
        g = _difference_metric(family, pt, step)
    g.require_positive_definite()
    return g


def _closed_form_metric(family: CoherentFamily, pt: PhasePoint) -> MetricTensor:
    """2 hbar [<dpsi|dpsi> - |<psi|dpsi>|^2] from the variance of x.

    The exact tangents are d_p psi = i u psi and d_q psi = (v - i p/hbar) psi
    with u = (x - q)/hbar and v = k u, where k = omega on the canonical
    sheet and beta/q^2 on the affine one.  The p/hbar terms cancel, so the
    entries are 2 hbar Var(u), 2 hbar Cov(u, v) and 2 hbar Var(v): with
    Var(x) from :func:`coherent_moments`, g_pp = 2 Var(x)/hbar, g_pq = 0 and
    g_qq = 2 k^2 Var(x)/hbar.  An overflow gives inf or NaN, which the
    positive-definiteness guard rejects.
    """
    f = family.fiducial
    pt = PhasePoint(pt.p, pt.q, domain=family.domain)
    _, var_x = coherent_moments(f, pt)
    k = f.omega if f.kind == GAUSSIAN else f.beta / pt.q / pt.q
    return MetricTensor(2 * var_x / f.hbar, 0.0, 2 * k * k * var_x / f.hbar)


def _difference_metric(
    family: Callable[[float, float], WaveFunction],
    pt: PhasePoint,
    step: float | None,
) -> MetricTensor:
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
        raise AccuracyError(
            f"metric extrapolation not converged (dev {dev:.2e} vs scale {scale:.2e})"
        )
    return r2


# ---------------------------------------------------------------------------
# curvature

_FIVE_POINT_FIRST = np.array([1.0, -8.0, 0.0, 8.0, -1.0]) / 12.0
_FIVE_POINT_SECOND = np.array([-1.0, 16.0, -30.0, 16.0, -1.0]) / 12.0
# largest relative rounding of a stencil step by the coordinate it is added to
STENCIL_RTOL = 1e-8


def scalar_curvature(
    metric_field: Callable[[float, float], MetricTensor],
    pt: PhasePoint,
    step: float = 1e-2,
) -> float:
    """Scalar curvature (twice the Gauss curvature) via the Brioschi formula.

    The metric field is sampled on a 5x5 stencil around ``pt`` with steps
    scaled by the local metric, and differentiated with fourth-order
    central stencils.
    """
    center = metric_field(pt.p, pt.q)
    center.require_positive_definite()
    h_p = step / math.sqrt(center.g_pp)
    h_q = step / math.sqrt(center.g_qq)
    if pt.domain == AFFINE_DOMAIN and pt.q - 2 * h_q <= 0:
        raise DomainError("curvature stencil leaves the affine domain q > 0")
    # a step below the float spacing of the point, or zero from an infinite
    # metric entry, would leave the stencil differencing one metric with itself
    for x, h in ((pt.p, h_p), (pt.q, h_q)):
        if not abs((x + h) - x - h) < STENCIL_RTOL * h:
            raise AccuracyError(f"stencil step {h:.3g} is not resolved at {x:.17g}")

    offsets = (-2, -1, 0, 1, 2)
    E = np.empty((5, 5))
    F = np.empty((5, 5))
    G = np.empty((5, 5))
    for i, di in enumerate(offsets):
        for j, dj in enumerate(offsets):
            if di == dj == 0:
                g = center
            else:
                g = metric_field(pt.p + di * h_p, pt.q + dj * h_q)
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


def metric_field_from_family(family: CoherentFamily) -> Callable[[float, float], MetricTensor]:
    """Wrap a coherent family as a (p, q) -> MetricTensor field on its own sheet."""

    def field(p: float, q: float) -> MetricTensor:
        return fs_metric(family, PhasePoint(p, q, domain=family.domain))

    return field
