"""Fubini-Study metric and curvature of coherent-state sheets.

The squared distance between two state rays (phases quotiented out) is

    d2(psi1, psi2) = 2 hbar min_alpha ||psi1 - exp(i alpha) psi2||^2
                   = 4 hbar (1 - |<psi1|psi2>|),

and its infinitesimal version on a two-parameter family psi(p, q),

    dsigma^2 = 2 hbar [ <dpsi|dpsi> - |<psi|dpsi>|^2 ],

is the pulled-back Fubini-Study metric.  On the Gaussian canonical sheet it
is the constant diag(1/omega, omega), which is flat; on the affine sheet it
is the Poincare half-plane metric diag(q^2/beta, beta/q^2) with scalar
curvature -2/beta at every hbar.  Both come in closed form from the
fiducial's moments; the finite-difference metric and the Brioschi curvature
stencil that check them live in ``tests/oracles.py``, as does the ray
distance itself.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import NumericError
from .states import AFFINE_DOMAIN, CANONICAL_DOMAIN, CoherentFamily, PhasePoint, coherent_moments


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
            raise NumericError(f"metric not positive definite: {self}")


def fs_metric(family: CoherentFamily, pt: PhasePoint) -> MetricTensor:
    """Fubini-Study metric of a coherent family at ``pt``, in the fiducial's hbar.

    2 hbar [<dpsi|dpsi> - |<psi|dpsi>|^2] from the variance of x.  The exact
    tangents are d_p psi = i u psi and d_q psi = (v - i p/hbar) psi with
    u = (x - q)/hbar and v = k u, where k = omega on the canonical sheet and
    beta/q^2 on the affine one.  The p/hbar terms cancel, so the entries
    are 2 hbar Var(u), 2 hbar Cov(u, v) and 2 hbar Var(v): with Var(x) from
    :func:`coherent_moments`, g_pp = 2 Var(x)/hbar, g_pq = 0 and
    g_qq = 2 k^2 Var(x)/hbar.  No grid is built.  An overflow gives inf or
    NaN, which the positive-definiteness guard rejects.
    """
    f = family.fiducial
    pt = PhasePoint(pt.p, pt.q, domain=family.domain)
    _, var_x = coherent_moments(f, pt)
    k = f.omega if f.kind == CANONICAL_DOMAIN else f.beta / pt.q / pt.q
    g = MetricTensor(2 * var_x / f.hbar, 0.0, 2 * k * k * var_x / f.hbar)
    g.require_positive_definite()
    return g


def scalar_curvature(family: CoherentFamily, pt: PhasePoint) -> float:
    """Scalar curvature (twice the Gauss curvature) of the family's sheet at ``pt``.

    The canonical metric is constant, so its sheet is flat.  The affine
    metric is a q^2 dp^2 + b dq^2 / q^2 with b = 2 beta^2 Var/hbar, where
    Var = hbar / (2 beta) is the fiducial's variance: b = beta, and the
    curvature is -2/b = -2/beta at any hbar.  The metric is evaluated at
    ``pt`` for its guard: a point where it is not positive definite fails
    as it does for :func:`fs_metric`.
    """
    fs_metric(family, pt)
    if family.domain == AFFINE_DOMAIN:
        return -2.0 / family.fiducial.beta
    return 0.0
