"""Hamiltonian flow of enhanced classical symbols.

Stationary variation of the restricted action  A = integral [p qdot - H] dt
gives Hamilton's equations for the symbol H, integrated here with fixed-step
RK4, with a singularity flag for an affine flow that leaves the half line
and a numerical failure for a step too coarse to follow it.
The Model-One symbol  H = q p^2 + C / q  is not integrated: its flow is
known in closed form, collapsing to q = 0 at t = -1/p0 for C = 0 and
turning back at the energy floor C / E for any C > 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, IntegrationError, NumericError
from .states import AFFINE_DOMAIN, PhasePoint
from .symbols import AFFINE_DOMAIN_MESSAGE, SymbolFn

# an affine step that leaves the half line, or lands below Q_FLOOR without
# keeping the symbol's value to ENERGY_RTOL, is followed by finer steps: each
# half that fails is halved again, down to dt / 2^MAX_HALVINGS, and a finer
# step must stay on the half line and keep the value.  If the finest still
# fails, q reaches the edge and the run stops as singular.  If q turns back
# up under them, or they take more than MAX_SUBSTEPS steps, dt does not
# resolve the flow.  Otherwise the flow falls faster than dt follows, and the
# finer steps' end replaces the step.
Q_FLOOR = 1e-6
MAX_HALVINGS = 40
MAX_SUBSTEPS = 2**16
ENERGY_RTOL = 1e-6


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


def step_count(span: float, dt: float, name: str = "t_final") -> int:
    """Steps of size ``dt`` that cover ``|span|``, rounded to the nearest count."""
    if not (math.isfinite(dt) and dt > 0):
        raise DomainError("dt must be finite and positive")
    if not math.isfinite(abs(span) / dt):  # a NaN span fails too
        raise DomainError(f"{name} = {span!r} over dt = {dt!r} is not a finite step count")
    return int(round(abs(span) / dt))


def integrate(
    symbol: SymbolFn,
    start: PhasePoint,
    t_final: float,
    dt: float,
) -> Trajectory:
    """Classic RK4 for pdot = -dH/dq, qdot = dH/dp.

    ``t_final`` may be negative (backward run; the step is negated).  For
    affine symbols a step that leaves the domain, or crosses ``Q_FLOOR``
    without keeping the symbol's value, is followed by finer steps: the run
    halts with the singularity flag if they reach the edge too, a step under
    which q turns back up is a NumericError naming dt and q, and otherwise
    their end replaces the step.  A non-finite gradient or state is an error
    carrying the last point.
    """
    n_steps = step_count(t_final, dt)
    affine = symbol.provenance == AFFINE_DOMAIN
    if affine and start.q <= 0:
        raise DomainError("affine dynamics requires q > 0")

    h = dt if t_final >= 0 else -dt
    p, q = float(start.p), float(start.q)

    times, ps, qs, energies = [0.0], [p], [q], [symbol(p, q)]
    singular, reason = False, None

    gradient = symbol.gradient  # SymbolFn.grad without its domain check

    def rhs(pp, qq):
        if affine and qq <= 0:
            raise DomainError(AFFINE_DOMAIN_MESSAGE)
        dp, dq = gradient(pp, qq)
        if not (math.isfinite(dp) and math.isfinite(dq)):
            raise IntegrationError("non-finite gradient", last_state=(times[-1], ps[-1], qs[-1]))
        return -dq, dp

    for i in range(n_steps):
        try:
            p_new, q_new = _rk4_step(rhs, p, q, h)
        except DomainError:
            p_new = q_new = math.nan
        else:
            if not (math.isfinite(p_new) and math.isfinite(q_new)):
                raise IntegrationError("non-finite state", last_state=(times[-1], ps[-1], qs[-1]))
        below = affine and not q_new >= Q_FLOOR  # a NaN q is below too
        if below and not _keeps_value(_value(symbol, p_new, q_new), energies[-1]):
            finer = _finer_steps(rhs, symbol, p, q, h)
            if finer is None:
                singular = True
                if math.isnan(q_new):
                    reason = "step left the affine domain"
                    break
                reason = f"q crossed the floor {Q_FLOOR:g}"
            elif finer[2]:
                raise NumericError(
                    f"dt = {dt!r} does not resolve the flow at t = {times[-1]!r}, q = {q!r}: "
                    "finer steps turn it back from the edge; lower dt"
                )
            else:
                p_new, q_new = finer[:2]
        p, q = p_new, max(q_new, 0.0) if singular else q_new
        times.append((i + 1) * h)
        ps.append(p)
        qs.append(q)
        if singular:
            energies.append(energies[-1])  # symbol undefined at/below the floor
            break
        energies.append(symbol(p, q))

    return Trajectory(times, ps, qs, energies, singular=singular, singular_reason=reason)


def _rk4_step(rhs, p: float, q: float, h: float) -> tuple[float, float]:
    k1p, k1q = rhs(p, q)
    k2p, k2q = rhs(p + 0.5 * h * k1p, q + 0.5 * h * k1q)
    k3p, k3q = rhs(p + 0.5 * h * k2p, q + 0.5 * h * k2q)
    k4p, k4q = rhs(p + h * k3p, q + h * k3q)
    return p + h / 6 * (k1p + 2 * k2p + 2 * k3p + k4p), q + h / 6 * (k1q + 2 * k2q + 2 * k3q + k4q)


def _value(symbol: SymbolFn, p: float, q: float) -> float:
    """The symbol at (p, q), NaN off the half line or where it fails."""
    try:
        return symbol(p, q) if q > 0 else math.nan
    except NumericError:
        return math.nan


def _keeps_value(value: float, energy: float) -> bool:
    return abs(value - energy) <= ENERGY_RTOL * (1 + abs(energy))  # a NaN value fails


def _finer_steps(rhs, symbol: SymbolFn, p: float, q: float, h: float):
    """(p, q, unresolved): where RK4 steps finer than h, each on the half line
    and keeping the symbol's value, end the step h, and whether q turned back
    up under them or they ran out; None if the finest fails.  h is covered by
    two halves, and each half that fails by two halves of its own."""
    energy, q_min = symbol(p, q), q
    finest = abs(h) / 2**MAX_HALVINGS
    pending = [h / 2, h / 2]  # the steps still to take, the next one last
    for _ in range(MAX_SUBSTEPS):
        if not pending:
            return p, q, q > q_min  # q turned back up inside the step
        sub = pending.pop()
        try:
            p_new, q_new = _rk4_step(rhs, p, q, sub)
        except DomainError:
            p_new = q_new = math.nan
        value = _value(symbol, p_new, q_new)
        if _keeps_value(value, energy):
            p, q, energy, q_min = p_new, q_new, value, min(q_min, q_new)
        elif abs(sub) <= finest:
            return None
        else:
            pending += [sub / 2, sub / 2]
    return p, q, True


def model_one_flow(p0: float, q0: float, c: float, times: np.ndarray) -> tuple[float, Trajectory]:
    """Energy E and exact path of  H = q p^2 + C / q  from (p0, q0) at t = 0.

    d(pq)/dt = E and q E = C + (pq)^2, so with u = t - t*, t* = -p0 q0 / E:
    q = C/E + E u^2 and p = E u / q.  Both terms of q are non-negative, so
    q >= C/E holds exactly; the expanded q0 + 2 p0 q0 t + E t^2 loses it to
    roundoff once |p0| is about 1e6.  C = 0 collapses at t* = -1/p0.
    """
    energy = q0 * p0 * p0 + c / q0
    if not 0 < energy < math.inf:  # a NaN fails too
        raise NumericError(f"E = {energy!r} at p0 = {p0!r}, q0 = {q0!r} is not finite and positive")
    u = times + p0 * q0 / energy  # t - t*
    with np.errstate(over="ignore", invalid="ignore"):
        pq = energy * u
        q = c / energy + pq * u
        p = pq / q
        h = q * p * p + c / q  # the symbol on the path
    if not np.isfinite(h).all():  # a non-finite p or q makes H non-finite too
        i = int(np.argmin(np.isfinite(h)))
        p_i, q_i, h_i, t_i = (float(v[i]) for v in (p, q, h, times))
        raise NumericError(f"p = {p_i!r}, q = {q_i!r}, H = {h_i!r} at t = {t_i!r}")
    return energy, Trajectory(times, p, q, h)
