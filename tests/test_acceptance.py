"""Acceptance criteria, one test per criterion.

Each test prints a single PASS/FAIL line (run with -s to see them live).
Tolerances are pinned here, not configurable.
"""

import math
import time

import numpy as np
import pytest

from poalab import (
    BPR,
    Affine,
    Constant,
    DemandSchedule,
    Game,
    MonomialLog,
    PathFlow,
    PiecewiseLinear,
    Polynomial,
    approximation_threshold,
    certificate_exponent_one,
    check_approximation_bounds,
    check_metric_axioms,
    converge_down,
    converge_up,
    cost_normalize,
    demand_normalize,
    dist,
    fit_hoelder,
    fit_rate,
    naive_max_interval_dist,
    poa,
    regular_variation_params,
    solve_so,
    solve_we,
    sweep,
    total_cost,
)

from conftest import MIXED_FAMILIES, criterion7_bases, random_cost, random_game


def report(number: int, ok: bool, detail: str) -> None:
    print(f"criterion {number:2d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {number}: {detail}"


def test_criterion_01_pigou_reproduction(pigou):
    t0 = time.perf_counter()
    we = solve_we(pigou, tol=1e-12)
    so = solve_so(pigou, tol=1e-12)
    # independent 1-D oracle: grid over the upper-arc share
    t = np.linspace(0.0, 1.0, 1_000_001)
    oracle = t * t + (1.0 - t)
    oracle_cost = float(np.min(oracle))
    oracle_split = float(t[np.argmin(oracle)])
    rho = we.total_cost / so.total_cost
    elapsed = time.perf_counter() - t0
    ok = (np.allclose(we.flow.values, [1.0, 0.0], atol=1e-9)
          and abs(we.total_cost - 1.0) < 1e-9
          and abs(so.total_cost - oracle_cost) < 1e-6
          and abs(so.total_cost - 0.75) < 1e-6
          and np.allclose(so.flow.values, [0.5, 0.5], atol=1e-5)
          and abs(so.flow.values[0] - oracle_split) < 1e-5
          and abs(rho - 4.0 / 3.0) < 1e-6
          and elapsed < 1.0)
    report(1, ok, f"WE (1,0) cost 1, SO (0.5,0.5) cost 0.75 vs grid oracle, "
                  f"PoA {rho:.9f}, {elapsed:.2f}s")


def test_criterion_02_eps_approximation(pigou):
    we = solve_we(pigou, tol=1e-13)
    ok = True
    details = []
    for eps in (1e-2, 1e-4):
        s = math.sqrt(eps)
        f = PathFlow([1.0 - s, s])
        thr = approximation_threshold(pigou, f)
        cost_gap = abs(total_cost(pigou, f) - we.total_cost)
        bounds = check_approximation_bounds(pigou, f, we.flow, eps,
                                            lipschitz=1.0, slack=1e-12)
        ok &= abs(thr - eps) <= 1e-12
        ok &= abs(cost_gap - (s - eps)) <= 1e-12
        ok &= bounds.all_ok
        details.append(f"eps={eps:g}: thr err {abs(thr - eps):.1e}, "
                       f"cost gap err {abs(cost_gap - (s - eps)):.1e}")
    report(2, ok, "; ".join(details))


def test_criterion_03_half_split_threshold(two_link, fig3a, fig3b):
    eps = 0.01
    d = dist(fig3a, fig3b)
    thr = approximation_threshold(fig3a, PathFlow([0.5, 0.5]))
    we = solve_we(fig3a, tol=1e-12)
    expected = np.array([(1 + eps) / 2, (1 - eps) / 2])
    ok = (abs(d.value - eps) <= 1e-15
          and abs(thr - 0.5 * eps) <= 1e-12
          and np.allclose(we.flow.values, expected, atol=1e-10))
    report(3, ok, f"dist err {abs(d.value - eps):.1e}, threshold err "
                  f"{abs(thr - 0.5 * eps):.1e}, WE flow err "
                  f"{np.max(np.abs(we.flow.values - expected)):.1e}")


def test_criterion_04_metric_axioms(two_link):
    rng = np.random.default_rng(2024)
    ok = True
    for i in range(1000):
        games = [Game(two_link,
                      (random_cost(rng, rng.choice(MIXED_FAMILIES)),
                       random_cost(rng, rng.choice(MIXED_FAMILIES))),
                      rng.uniform(0.4, 1.6, size=1))
                 for _ in range(3)]
        rep = check_metric_axioms(*games)
        if not rep.all_ok:
            ok = False
            break
    # the union-interval operator must violate the triangle inequality on a
    # pair that agrees up to one total demand but diverges beyond it
    tau = PiecewiseLinear((0.0, 1.0, 1.2), (0.1, 1.0, 1.2))
    sigma = PiecewiseLinear((0.0, 1.0, 1.2), (0.1, 1.0, 3.0))
    g = Game(two_link, (tau, Constant(1.0)), np.array([1.0]))
    g_prime = Game(two_link, (sigma, Constant(1.0)), np.array([1.0]))
    g_second = Game(two_link, (sigma, Constant(1.0)), np.array([1.2]))
    violation = (naive_max_interval_dist(g, g_second)
                 > naive_max_interval_dist(g, g_prime)
                 + naive_max_interval_dist(g_prime, g_second) + 1e-9)
    ok &= violation
    report(4, ok, "1000 random triples pass; union-interval operator "
                  f"triangle violation reproduced: {violation}")


def test_criterion_05_poa_invariance(three_link):
    rng = np.random.default_rng(77)
    worst = 0.0
    for _ in range(50):
        g = random_game(three_link, rng,
                        families=[rng.choice(("affine", "bpr", "poly"))] * 3)
        base = poa(g, tol=1e-12)
        for factor in (0.5, 2.0, 10.0):
            worst = max(worst, abs(poa(cost_normalize(g, factor), tol=1e-12) - base))
            worst = max(worst, abs(poa(demand_normalize(g, factor), tol=1e-12) - base))
    report(5, worst <= 1e-6, f"max |poa - poa∘normalization| = {worst:.2e}")


def test_criterion_06_no_uniform_hoelder_pair(pigou, two_link):
    flat = Game(two_link, (Constant(1.0), Constant(1.0)), np.array([1.0]))
    delta0 = abs(poa(pigou, tol=1e-12) - poa(flat, tol=1e-12))
    d0 = dist(pigou, flat)
    a, b = pigou, flat
    for _ in range(3):
        a, b = cost_normalize(a, 10.0), cost_normalize(b, 10.0)
    d3 = dist(a, b)
    delta3 = abs(poa(a, tol=1e-12) - poa(b, tol=1e-12))
    shrink = d0.value / d3.value
    ok = (delta0 >= 0.1
          and abs(shrink - 1000.0) <= 1e-6 * 1000.0 + (d0.error_bound + d3.error_bound) * 1e6
          and abs(delta3 - delta0) < 1e-6)
    report(6, ok, f"|drho| = {delta0:.4f} fixed (changed {abs(delta3-delta0):.1e}) "
                  f"while dist shrank by {shrink:.1f}")


def test_criterion_07_certificate_soundness(two_link, three_link, shared_arc):
    t0 = time.perf_counter()
    radii = [1e-1, 1e-2, 1e-3, 1e-4]
    violations = 0
    bounded = 0
    for b_idx, base in enumerate(criterion7_bases(two_link, three_link, shared_arc).values()):
        for kind in ("cost", "demand"):
            records = sweep(base, kind, radii, 32, seed=1000 + b_idx)
            for r in records:
                if r.certificate_bound is None or not math.isfinite(r.delta):
                    continue
                bounded += 1
                if r.delta > r.certificate_bound + 20 * r.solve_tol:
                    violations += 1
    elapsed = time.perf_counter() - t0
    ok = violations == 0 and bounded > 500 and elapsed < 120.0
    report(7, ok, f"{bounded} certified records, {violations} violations, "
                  f"{elapsed:.1f}s")


def test_criterion_08_exponent_one_regimes(two_link):
    radii = [1e-1, 1e-2, 1e-3, 1e-4, 1e-5]
    results = []
    ok = True
    for b_idx, (name, base) in enumerate((
            ("constant", Game(two_link, (Constant(1.0), Constant(1.0)), np.array([1.0]))),
            ("increasing", Game(two_link, (Affine(1.0, 0.2), Affine(2.0, 0.7)),
                                np.array([1.0]))),
    )):
        assert certificate_exponent_one(base, tol=1e-12) is not None
        records = sweep(base, "joint", radii, 32, seed=2000 + b_idx)
        fit = fit_hoelder(records)
        viol = sum(1 for r in records
                   if r.certificate_bound is not None and math.isfinite(r.delta)
                   and r.delta > r.certificate_bound + 20 * r.solve_tol)
        ok &= fit.gamma >= 0.9 and fit.r_squared >= 0.95 and viol == 0
        results.append(f"{name}: gamma {fit.gamma:.3f}, r2 {fit.r_squared:.3f}, "
                       f"{viol} violations")
    report(8, ok, "; ".join(results))


def test_criterion_09_convergence_down(two_link):
    game = Game(two_link, (Affine(1.0, 1.0), Polynomial((1.0, 1.0, 1.0))),
                np.array([1.0]))
    totals = tuple(10.0 ** (-e) for e in (1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0))
    points = converge_down(game, DemandSchedule((1.0,), totals), tol=1e-14)
    dominated = all(p.poa_minus_one <= p.bound for p in points)
    fit = fit_rate(points, "down", censor=1e-12)
    ok = dominated and not fit.degenerate and fit.slope >= 0.9
    report(9, ok, f"bound dominates at all {len(points)} totals; "
                  f"log-log slope {fit.slope:.2f} (n={fit.n_used})")


def test_criterion_10_convergence_up(two_link):
    game = Game(two_link, (MonomialLog(1.0, 1.0, 1.0), MonomialLog(2.0, 1.0, 1.0)),
                np.array([1.0]))
    totals = tuple(10.0 ** k for k in range(1, 7))
    points = converge_up(game, DemandSchedule((1.0,), totals), tol=1e-12)
    beta, alpha, coeffs = regular_variation_params(game)
    lam = coeffs / coeffs[0]
    lam_max = float(np.max(lam))
    monomial = Game(two_link, tuple(BPR(l, beta, 0.0) for l in lam), np.array([1.0]))
    c_star = solve_so(monomial, tol=1e-12).total_cost
    rho_mono = poa(monomial, tol=1e-12)
    h = 2.0 * (rho_mono + math.sqrt(beta * lam_max * 2.0) + 2.0) / c_star * 2.0
    c_const = h * math.sqrt((alpha / beta) * lam_max)
    dominated = all(
        p.poa_minus_one <= c_const * math.sqrt(1.0 / math.log1p(p.total_demand))
        for p in points)
    gaps = [p.poa_minus_one for p in points]
    monotone = all(b <= a + 1e-10 for a, b in zip(gaps, gaps[1:]))
    ok = dominated and monotone
    report(10, ok, f"poa-1 <= {c_const:.1f}*sqrt(1/ln(T+1)) at all T; "
                   f"monotone non-increasing: {monotone}")
