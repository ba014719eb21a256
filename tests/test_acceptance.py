"""Acceptance suite: one test per criterion, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the report lines.
"""

import math
import time

import numpy as np

from oracles import (
    ORACLE_CURVATURE_ATOL,
    ORACLE_LABEL_ATOL,
    ORACLE_METRIC_RTOL,
    brioschi_curvature,
    density_labels,
    exact_metric,
    exact_metric_field,
    kinetic_dilation_quadrature,
    model_one_reference,
    quadrature_expectations,
    quadrature_overlap,
)

from cslab.dynamics import integrate
from cslab.geometry import fs_metric, scalar_curvature
from cslab.modeltwo import (
    ReducibleRep,
    characteristic_exact_gaussian,
    characteristic_radial,
    gaussian_radial_density,
    h1_closed_form,
    h1_expectation,
    measure_superposition,
    overlap_reducible,
)
from cslab.schrodinger import evolve_hermite, oscillation_window
from cslab.states import (
    AFFINE_DOMAIN,
    CoherentFamily,
    PhasePoint,
    affine_fiducial,
    default_affine_grid,
    default_canonical_grid,
    gaussian_fiducial,
    state_labels,
)
from cslab.symbols import (
    compute_C,
    parse_operator,
    polynomial_symbol,
    weak_symbol,
)


def report(number: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {number:2d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {number}: {detail}"


def test_01_centering_reproduces_labels():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20)
    worst = 0.0
    points = []
    f_can = gaussian_fiducial(1.0, 1.0)
    for _ in range(10):
        p, q = rng.uniform(-2, 2, 2)
        pt = PhasePoint(p, q)
        p_read, q_read = state_labels(f_can, pt)
        worst = max(worst, abs(p_read - p), abs(q_read - q))
        points.append((f_can, pt, (p_read, q_read)))
    f_aff = affine_fiducial(1.0, 1.0)
    for _ in range(10):
        p = float(rng.uniform(-2, 2))
        q = float(rng.uniform(0.3, 2.5))
        pt = PhasePoint(p, q, domain=AFFINE_DOMAIN)
        p_read, q_read = state_labels(f_aff, pt)
        worst = max(worst, abs(p_read - p), abs(q_read - q))
        points.append((f_aff, pt, (p_read, q_read)))
    elapsed = time.perf_counter() - t0
    oracle_worst = 0.0
    for f, pt, labels in points:
        oracle = density_labels(f, pt, n=150_001)
        oracle_worst = max(oracle_worst, *(abs(a - b) for a, b in zip(labels, oracle)))
    report(
        1,
        worst <= 1e-7 and elapsed < 5.0 and oracle_worst <= ORACLE_LABEL_ATOL,
        f"20-point label error {worst:.2e} (<= 1e-7), {elapsed:.2f}s (< 5s), "
        f"vs quadrature oracle {oracle_worst:.2e} (<= {ORACLE_LABEL_ATOL:g})",
    )


def _oracle_deviation(fam, pt, g):
    """Largest relative deviation of the metric g from the quadrature oracle."""
    oracle = exact_metric(fam, pt)
    scale = max(g.g_pp, g.g_qq)
    return max(
        abs(g.g_pp - oracle.g_pp) / g.g_pp,
        abs(g.g_qq - oracle.g_qq) / g.g_qq,
        abs(g.g_pq - oracle.g_pq) / scale,
    )


def test_02_cartesian_metric():
    worst_diag = worst_off = worst_oracle = 0.0
    for omega in (0.5, 1.0, 2.0):
        f = gaussian_fiducial(omega, 1.0)
        grid = default_canonical_grid(f, q=2.0, n=150_001)
        fam = CoherentFamily(f, grid)
        for p in (-1.5, 0.0, 1.5):
            for q in (-1.0, 0.0, 1.0):
                pt = PhasePoint(p, q)
                g = fs_metric(fam, pt)
                worst_diag = max(
                    worst_diag, abs(g.g_pp - 1 / omega), abs(g.g_qq - omega)
                )
                worst_off = max(worst_off, abs(g.g_pq))
                worst_oracle = max(worst_oracle, _oracle_deviation(fam, pt, g))
    report(
        2,
        worst_diag <= 1e-6 and worst_off <= 1e-8 and worst_oracle <= ORACLE_METRIC_RTOL,
        f"diag err {worst_diag:.2e} (<= 1e-6), off-diag {worst_off:.2e} (<= 1e-8), "
        f"vs quadrature oracle {worst_oracle:.2e} (<= {ORACLE_METRIC_RTOL:g})",
    )


def test_03_poincare_geometry():
    worst_metric = worst_curv = worst_oracle = worst_oracle_curv = 0.0
    for beta in (1.0, 4.0):
        f = affine_fiducial(beta, 1.0)
        for q in (0.5, 1.0, 4.0):
            grid = default_affine_grid(f, q=q, n=150_000)
            fam = CoherentFamily(f, grid)
            pt = PhasePoint(0.4, q, domain=AFFINE_DOMAIN)
            g = fs_metric(fam, pt)
            worst_metric = max(
                worst_metric,
                abs(g.g_pp - q**2 / beta),
                abs(g.g_qq - beta / q**2),
                abs(g.g_pq),
            )
            worst_oracle = max(worst_oracle, _oracle_deviation(fam, pt, g))
            center = PhasePoint(0.0, q, domain=AFFINE_DOMAIN)
            curv = scalar_curvature(fam, center)
            worst_curv = max(worst_curv, abs(curv - (-2.0 / beta)))
            oracle_curv = brioschi_curvature(exact_metric_field(fam), center)
            worst_oracle_curv = max(worst_oracle_curv, abs(curv - oracle_curv))
    report(
        3,
        worst_metric <= 1e-5
        and worst_curv <= 1e-3
        and worst_oracle <= ORACLE_METRIC_RTOL
        and worst_oracle_curv <= ORACLE_CURVATURE_ATOL,
        f"metric err {worst_metric:.2e} (<= 1e-5), curvature err {worst_curv:.2e} (<= 1e-3), "
        f"vs quadrature oracle {worst_oracle:.2e} (<= {ORACLE_METRIC_RTOL:g}) and "
        f"{worst_oracle_curv:.2e} (<= {ORACLE_CURVATURE_ATOL:g})",
    )


def test_04_model_one_singularity_avoidance():
    hbar = beta = 1.0
    c = hbar * beta / 2
    classical = polynomial_symbol({(2, 1): 1.0}, "affine")
    enhanced = polynomial_symbol({(2, 1): 1.0, (0, -1): c}, "affine")

    # collapse of the strictly classical flow, flagged near t = -1/p0
    collapse_ok = True
    for p0, q0 in [(1.0, 1.0), (0.8, 1.5)]:
        run = integrate(classical, PhasePoint(p0, q0, domain=AFFINE_DOMAIN), -1.5, 1e-3)
        collapse_ok &= run.singular and run.min_q() < 1e-3
        collapse_ok &= abs(run.times[-1] - (-1 / p0)) < 0.05

    # positive-energy floor of the regularized flow
    rng = np.random.default_rng(4)
    floor_worst = 0.0
    for _ in range(10):
        p0 = float(rng.uniform(0.4, 1.5)) * (1 if rng.random() < 0.5 else -1)
        q0 = float(rng.uniform(0.4, 2.5))
        energy = q0 * p0**2 + c / q0
        floor = c / energy
        start = PhasePoint(p0, q0, domain=AFFINE_DOMAIN)
        q_min = min(
            integrate(enhanced, start, -10.0, 1e-3).min_q(),
            integrate(enhanced, start, 10.0, 1e-3).min_q(),
        )
        floor_worst = max(floor_worst, abs(q_min - floor) / floor)

    # the integrated flow against the closed form, recorded at dt = 1e-3
    reference = model_one_reference(1.0, 1.0, 0.0)
    run = integrate(classical, PhasePoint(1.0, 1.0, domain=AFFINE_DOMAIN), 1.0, 1e-3)
    flow_err = max(
        max(abs(p - reference(t)[0]), abs(q - reference(t)[1]))
        for t, p, q in zip(run.times, run.p, run.q)
    )
    report(
        4,
        collapse_ok and floor_worst <= 1e-3 and flow_err <= 1e-6,
        f"collapse flagged {collapse_ok}, floor rel err {floor_worst:.2e} (<= 1e-3), "
        f"flow err {flow_err:.2e} (<= 1e-6)",
    )


def test_05_kinetic_dilation_constant():
    worst = 0.0
    for beta, hbar in [(1.0, 1.0), (2.0, 1.0), (1.0, 0.5)]:
        f = affine_fiducial(beta, hbar)
        c = compute_C(f)
        worst = max(worst, abs(kinetic_dilation_quadrature(f) - c) / c)
    report(5, worst <= 1e-8, f"quadrature vs hbar*beta/2 rel err {worst:.2e} (<= 1e-8)")


def test_06_hbar_scaling_of_symbols():
    # H_hbar - H_classical is exactly linear in hbar: hbar omega / 2 for the
    # oscillator at p = q = 1, hbar beta / (2 q) for D X D at p = 1, q = 2
    harmonic = parse_operator("0.5 * D D + 0.5 * X X")
    dxd = parse_operator("1.0 * D X D")
    worst = 0.0
    for hb in (1.0, 0.5, 0.25, 0.125):
        oscillator = weak_symbol(harmonic, gaussian_fiducial(1.0, hb))(1.0, 1.0) - 1.0
        model_one = weak_symbol(dxd, affine_fiducial(1.0, hb))(1.0, 2.0) - 2.0
        worst = max(worst, abs(oscillator - hb / 2), abs(model_one - hb / 4))
    report(
        6,
        worst <= 1e-12,
        f"residuals vs hbar/2 and hbar/4 at hbar = 1, 1/2, 1/4, 1/8: "
        f"max err {worst:.2e} (<= 1e-12)",
    )


def test_07_restricted_vs_full_harmonic():
    t0 = time.perf_counter()
    omega, hbar = 1.0, 1.0
    p0, q0 = 0.5, 0.3
    op = parse_operator("0.5 * D D + 0.5 * X X")
    f = gaussian_fiducial(omega, hbar)
    grid = oscillation_window(f, p0, q0, 4096)
    period = 2 * math.pi / omega
    dt = 1e-4
    # the route evolve-quantum takes on the canonical sheet
    flow = evolve_hermite(op, f, PhasePoint(p0, q0), grid, dt, int(round(period / dt)), 100)
    traj = flow.trajectory

    symbol = weak_symbol(op, f)
    # run the restricted flow past the quantum endpoint so the time
    # interpolation below never clamps
    classical = integrate(symbol, PhasePoint(p0, q0), period + 0.01, 1e-3)
    cq = np.interp(traj.times, classical.times, classical.q)
    cp = np.interp(traj.times, classical.times, classical.p)
    err = max(np.max(np.abs(traj.q - cq)), np.max(np.abs(traj.p - cp)))
    elapsed = time.perf_counter() - t0
    report(
        7,
        err <= 1e-4 and elapsed < 60.0,
        f"<x>,<p> vs restricted flow err {err:.2e} (<= 1e-4), {elapsed:.1f}s (< 60s)",
    )


def test_08_model_two_exactness():
    rng = np.random.default_rng(8)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(1, 6))
        rep = ReducibleRep(n, float(rng.uniform(0.5, 2.5)), float(rng.uniform(0, 0.95)))
        nu = float(rng.uniform(0, 2))
        p = rng.normal(0, 1.5, n)
        q = rng.normal(0, 1.5, n)
        closed = h1_closed_form(rep, nu, p, q)
        worst = max(worst, abs(h1_expectation(rep, nu, p, q) - closed) / (1 + abs(closed)))

    wick_worst = 0.0
    for m, zeta, hbar in [(1, 0.3, 1), (2, 0.6, 1), (1, 0.9, 0.5)]:
        rep = ReducibleRep(1, m, zeta, hbar)
        p, q = 0.8, -1.1
        h_p_q, h_r_q, quartic_q = quadrature_expectations(m, zeta, hbar, p, q)
        # the route the CLI runs, against H_p + H_r + nu <B+B+BB> by quadrature
        for nu in (0.0, 1.0):
            want = h_p_q + h_r_q + nu * quartic_q
            wick_worst = max(wick_worst, abs(h1_expectation(rep, nu, [p], [q]) - want))
    report(
        8,
        worst <= 1e-12 and wick_worst <= 1e-6,
        f"closed-form dev {worst:.2e} (<= 1e-12) over 1000 draws, "
        f"N=1 quadrature dev {wick_worst:.2e} (<= 1e-6)",
    )


def test_09_reducible_overlap():
    worst = 0.0
    for zeta in (0.3, 0.6, 0.9):
        rng = np.random.default_rng(int(zeta * 1000))
        rep = ReducibleRep(1, 1.0, zeta)
        for _ in range(20):
            pl, pr = rng.normal(0, 1.5, 2)
            ql, qr = rng.normal(0, 1.5, 2)
            closed = overlap_reducible(rep, [pl], [ql], [pr], [qr])
            brute = quadrature_overlap(1.0, zeta, 1.0, pl, ql, pr, qr)
            worst = max(worst, abs(closed - brute))
    report(9, worst <= 1e-8, f"closed vs double-integral dev {worst:.2e} (<= 1e-8)")


def test_10_characteristic_function():
    monotone = True
    for p_r in (0.5, 1.0, 2.0):
        errors = [
            characteristic_radial(gaussian_radial_density(n, 1.0), p_r).difference
            for n in (4, 8, 16, 32, 64)
        ]
        monotone &= all(b < a for a, b in zip(errors, errors[1:]))
    atom_worst = 0.0
    for p_r in (0.0, 0.5, 1.0, 2.0):
        got = measure_superposition([(0.25, 1.0)], p_r)
        atom_worst = max(
            atom_worst, abs(got - characteristic_exact_gaussian(p_r, 1.0))
        )
    report(
        10,
        monotone and atom_worst <= 1e-12,
        f"descent error monotone {monotone}, single-atom dev {atom_worst:.2e} (<= 1e-12)",
    )
