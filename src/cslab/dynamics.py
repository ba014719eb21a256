"""Hamiltonian flow of enhanced classical symbols.

Stationary variation of the restricted action  A = integral [p qdot - H] dt
gives Hamilton's equations for the symbol H, integrated here with fixed-step
RK4.  The affine Model-One symbol  H = q p^2 + C / q  is handled specially:
its C = 0 trajectories collapse to q = 0 in finite time, while any C > 0
keeps q above the energy floor C / E, so the integrator carries an explicit
singularity flag instead of failing silently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import IO

import numpy as np

from .errors import DomainError, IntegrationError, PreconditionError
from .states import AFFINE_DOMAIN, PhasePoint
from .symbols import AFFINE_DOMAIN_MESSAGE, SymbolFn

Q_FLOOR = 1e-6
GRADIENT_OVERFLOW = 1e12


@dataclass
class Trajectory:
    """Sampled phase-space path with its energy record."""

    times: np.ndarray
    p: np.ndarray
    q: np.ndarray
    energy: np.ndarray
    singular: bool = False
    singular_reason: str | None = None

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.p = np.asarray(self.p, dtype=float)
        self.q = np.asarray(self.q, dtype=float)
        self.energy = np.asarray(self.energy, dtype=float)

    @property
    def n(self) -> int:
        return self.times.size

    def energy_drift(self) -> float:
        e0 = self.energy[0]
        return float(np.max(np.abs(self.energy - e0)) / (1 + abs(e0)))

    def min_q(self) -> float:
        return float(np.min(self.q))

    def write_csv(self, stream: IO[str]) -> None:
        stream.write("t,p,q,H\n")
        columns = (self.times.tolist(), self.p.tolist(), self.q.tolist(), self.energy.tolist())
        stream.writelines(f"{t:.17g},{p:.17g},{q:.17g},{e:.17g}\n" for t, p, q, e in zip(*columns))


def integrate(
    symbol: SymbolFn,
    start: PhasePoint,
    t_final: float,
    dt: float,
) -> Trajectory:
    """Classic RK4 for pdot = -dH/dq, qdot = dH/dp.

    ``t_final`` may be negative (backward run; the step is negated).  For
    affine symbols the run halts with the singularity flag once q crosses
    ``Q_FLOOR`` or a step leaves the domain; a gradient overflow is flagged
    the same way.  Non-finite state is an error carrying the last point.
    """
    if not (math.isfinite(dt) and dt > 0):
        raise DomainError("dt must be finite and positive")
    affine = symbol.provenance == AFFINE_DOMAIN
    if affine and start.q <= 0:
        raise DomainError("affine dynamics requires q > 0")

    if not math.isfinite(abs(t_final) / dt):  # a NaN t_final fails too
        raise DomainError(f"t_final = {t_final!r} over dt = {dt!r} is not a finite step count")
    n_steps = int(round(abs(t_final) / dt))
    h = dt if t_final >= 0 else -dt
    p, q = float(start.p), float(start.q)

    times = [0.0]
    ps = [p]
    qs = [q]
    energies = [symbol(p, q)]
    singular = False
    reason = None

    gradient = symbol.gradient  # SymbolFn.grad without its domain check

    def rhs(pp, qq):
        if affine and qq <= 0:
            raise DomainError(AFFINE_DOMAIN_MESSAGE)
        dp, dq = gradient(pp, qq)
        if not (math.isfinite(dp) and math.isfinite(dq)):
            raise IntegrationError(
                "non-finite gradient", last_state=(times[-1], ps[-1], qs[-1])
            )
        if abs(dp) > GRADIENT_OVERFLOW or abs(dq) > GRADIENT_OVERFLOW:
            raise _Overflow()
        return -dq, dp

    for i in range(n_steps):
        try:
            k1p, k1q = rhs(p, q)
            k2p, k2q = rhs(p + 0.5 * h * k1p, q + 0.5 * h * k1q)
            k3p, k3q = rhs(p + 0.5 * h * k2p, q + 0.5 * h * k2q)
            k4p, k4q = rhs(p + h * k3p, q + h * k3q)
        except _Overflow:
            singular, reason = True, "gradient overflow"
            break
        except DomainError:
            singular, reason = True, "step left the affine domain"
            break
        p_new = p + h / 6 * (k1p + 2 * k2p + 2 * k3p + k4p)
        q_new = q + h / 6 * (k1q + 2 * k2q + 2 * k3q + k4q)
        if not (math.isfinite(p_new) and math.isfinite(q_new)):
            raise IntegrationError(
                "non-finite state", last_state=(times[-1], ps[-1], qs[-1])
            )
        if affine and q_new < Q_FLOOR:
            p, q = p_new, max(q_new, 0.0)
            times.append((i + 1) * h)
            ps.append(p)
            qs.append(q)
            energies.append(energies[-1])  # symbol undefined at/below the floor
            singular, reason = True, f"q crossed the floor {Q_FLOOR:g}"
            break
        p, q = p_new, q_new
        times.append((i + 1) * h)
        ps.append(p)
        qs.append(q)
        energies.append(symbol(p, q))

    return Trajectory(
        np.array(times), np.array(ps), np.array(qs), np.array(energies),
        singular=singular, singular_reason=reason,
    )


class _Overflow(Exception):
    pass


def restricted_action(path: Trajectory, symbol: SymbolFn) -> float:
    """Trapezoid value of  integral [p dq - H dt]  along the sampled path.

    Along a solution of Hamilton's equations this is stationary under
    fixed-endpoint variations.
    """
    if path.n < 100:
        raise PreconditionError("restricted_action needs >= 100 samples")
    p, q, t = path.p, path.q, path.times
    pdq = float(np.sum(0.5 * (p[1:] + p[:-1]) * np.diff(q)))
    h_vals = np.array([symbol(pi, qi) for pi, qi in zip(p, q)])
    h_int = float(np.trapezoid(h_vals, t))
    return pdq - h_int


def model_one_floor(p0: float, q0: float, c: float) -> float:
    """Turning-point floor q_min = C / E of the enhanced flow."""
    energy = q0 * p0**2 + c / q0
    return c / energy
