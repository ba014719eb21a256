"""Hamiltonian flow of enhanced classical symbols.

Stationary variation of the restricted action  A = integral [p qdot - H] dt
gives Hamilton's equations for the symbol H, integrated here by the
Dormand-Prince 5(4) pair under error control and recorded through its
continuous extension.  The Model-One symbol  H = q p^2 + C / q  is not
integrated: its flow is known in closed form, collapsing to q = 0 at
t = -1/p0 for C = 0 and turning back at the energy floor C / E for any C > 0.
"""

from __future__ import annotations

import cmath
import math
import operator
from dataclasses import dataclass
from itertools import takewhile

import numpy as np

from .errors import DomainError, NumericError
from .states import AFFINE_DOMAIN, PhasePoint
from .symbols import AFFINE_DOMAIN_MESSAGE, SymbolFn

# a step keeps the pair's error estimate in p and in q within ATOL + RTOL |value|;
# the next is SAFETY / (error over tolerance)^(1/5) times it, within [MIN_FACTOR,
# MAX_FACTOR] and no longer after a rejection; a run takes at most MAX_STEPS steps
RTOL, ATOL, MAX_STEPS = 1e-12, 1e-14, 10**5
SAFETY, MIN_FACTOR, MAX_FACTOR = 0.9, 0.2, 10.0
# Shampine's continuous extension (Hairer's form): the weights of k1, k3 ... k7 in d
DENSE = (-12715105075 / 11282082432, 87487479700 / 32700410799, -10690763975 / 1880347072,
         701980252875 / 199316789632, -1453857185 / 822651844, 69997945 / 29380423)


@dataclass
class Trajectory:
    """Sampled phase-space path with its energy record."""

    times: np.ndarray
    p: np.ndarray
    q: np.ndarray
    energy: np.ndarray
    singular_reason: str | None = None

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.p = np.asarray(self.p, dtype=float)
        self.q = np.asarray(self.q, dtype=float)
        self.energy = np.asarray(self.energy, dtype=float)

    @property
    def singular(self) -> bool:
        return self.singular_reason is not None

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


def integrate(symbol: SymbolFn, start: PhasePoint, t_final: float, dt: float) -> Trajectory:
    """pdot = -dH/dq, qdot = dH/dp under error control, recorded at t = k dt.

    ``t_final`` may be negative (backward run); z = p + iq.  A step over its
    tolerance, or with a stage off the half line or not finite, is retried
    shorter.  Where the step shrinks to the roundoff of t, an affine flow
    whose q falls to 0 ends there flagged singular, and any other flow is a
    NumericError naming t, p and q; so is a run of over MAX_STEPS steps.
    """
    n_records = step_count(t_final, dt)
    affine = symbol.provenance == AFFINE_DOMAIN
    spacing = dt if t_final >= 0 else -dt
    t_end = n_records * spacing

    def rhs(z: complex) -> complex:
        if affine and not z.imag > 0:  # a NaN q fails too
            raise DomainError(AFFINE_DOMAIN_MESSAGE)
        dp, dq = symbol.gradient(z.real, z.imag)  # SymbolFn.grad without its domain check
        return complex(-dq, dp)

    t, z = 0.0, complex(start.p, start.q)
    k1 = rhs(z)
    if not cmath.isfinite(k1):
        raise NumericError(f"non-finite gradient (dH/dp, dH/dq) = ({k1.imag!r}, {-k1.real!r}) "
                           f"at t = 0, p = {z.real!r}, q = {z.imag!r}")
    zs, h, q_peak, rejected, taken, reason = [z], spacing, z.imag, False, 0, None
    while len(zs) <= n_records:
        if abs(h) <= 4 * math.ulp(t):
            if not (affine and z.imag <= RTOL * q_peak and k1.imag * spacing < 0):
                raise NumericError(f"the step shrinks to the roundoff of t = {t!r} at "
                                   f"p = {z.real!r}, q = {z.imag!r}: the flow is not resolved")
            reason = f"q falls to 0 at t = {t!r}"
            break
        if (taken := taken + 1) > MAX_STEPS:
            raise NumericError(f"the flow takes over MAX_STEPS = {MAX_STEPS} steps: "
                               f"it reaches t = {t:.6g} of t_final = {t_final!r}")
        step = h if abs(h) < abs(t_end - t) else t_end - t
        try:
            z_new, stages, ratio = _dopri_step(rhs, z, k1, step)
        except (DomainError, NumericError):  # a stage off the half line, or overflowing
            ratio = math.inf
        if ratio <= 1:
            t_new = t_end if step == t_end - t else t + step
            dz = z_new - z
            b = step * k1 - dz
            c = dz - step * stages[-1] - b
            d = step * sum(map(operator.mul, DENSE, stages))
            ks = takewhile(lambda k: abs(k * spacing) <= abs(t_new), range(len(zs), n_records + 1))
            us = ((k * spacing - t) / step for k in ks)
            zs += [z + u * (dz + (1 - u) * (b + u * (c + (1 - u) * d))) for u in us]
            t, z, k1, q_peak = t_new, z_new, stages[-1], max(q_peak, z_new.imag)
        factor = SAFETY / ratio**0.2 if ratio else MAX_FACTOR
        h = step * min(1.0 if rejected else MAX_FACTOR, max(MIN_FACTOR, factor))
        rejected = ratio > 1
    times = [0.0, *(k * spacing for k in range(1, len(zs)))]
    energies = [symbol(record.real, record.imag) for record in zs]
    if reason:  # the last step's end; the symbol is not resolved at the edge
        times, zs, energies = [*times, t], [*zs, z], [*energies, energies[-1]]
    zs = np.array(zs)
    return Trajectory(times, zs.real, zs.imag, energies, reason)


def _dopri_step(rhs, z: complex, k1: complex, h: float):
    """One Dormand-Prince 5(4) step from z, where rhs(z) = k1: the fifth-order
    end, the stages k1, k3 ... k7 (k7 at the end) and the larger of p's and q's
    error over ATOL + RTOL |value|, inf if the step is not finite."""
    k2 = rhs(z + h * (1 / 5 * k1))
    k3 = rhs(z + h * (3 / 40 * k1 + 9 / 40 * k2))
    k4 = rhs(z + h * (44 / 45 * k1 - 56 / 15 * k2 + 32 / 9 * k3))
    k5 = rhs(z + h * (19372 / 6561 * k1 - 25360 / 2187 * k2 + 64448 / 6561 * k3
                      - 212 / 729 * k4))
    k6 = rhs(z + h * (9017 / 3168 * k1 - 355 / 33 * k2 + 46732 / 5247 * k3 + 49 / 176 * k4
                      - 5103 / 18656 * k5))
    z_new = z + h * (35 / 384 * k1 + 500 / 1113 * k3 + 125 / 192 * k4 - 2187 / 6784 * k5
                     + 11 / 84 * k6)
    k7 = rhs(z_new)
    if not (cmath.isfinite(z_new) and cmath.isfinite(k7)):  # a stage that is not, nor is z_new
        return z_new, (), math.inf
    error = h * (71 / 57600 * k1 - 71 / 16695 * k3 + 71 / 1920 * k4 - 17253 / 339200 * k5
                 + 22 / 525 * k6 - 1 / 40 * k7)
    ratio = max(abs(error.real) / (ATOL + RTOL * max(abs(z.real), abs(z_new.real))),
                abs(error.imag) / (ATOL + RTOL * max(abs(z.imag), abs(z_new.imag))))
    return z_new, (k1, k3, k4, k5, k6, k7), ratio


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
