"""Cost family behavior: closed forms, bounds, and certified distances."""

import dataclasses
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from poalab import (
    BPR,
    Affine,
    Constant,
    MonomialLog,
    PiecewiseLinear,
    Polynomial,
    ScaledCost,
    TangentCost,
    TruncatedCost,
    sup_distance,
)
from poalab.costs import GRID_N, MarginalCost, _marginal

FAMILY_STRATEGIES = st.one_of(
    st.builds(Constant, st.floats(0.1, 5.0)),
    st.builds(Affine, st.floats(0.0, 4.0), st.floats(0.0, 3.0)),
    st.builds(lambda a, b, c: Polynomial((a, b, c)),
              st.floats(0.0, 2.0), st.floats(0.0, 2.0), st.floats(0.0, 2.0)),
    st.builds(BPR, st.floats(0.1, 3.0), st.sampled_from([1.0, 2.0, 3.0]),
              st.floats(0.0, 2.0)),
    st.builds(MonomialLog, st.floats(0.1, 2.0), st.sampled_from([1.0, 2.0]),
              st.sampled_from([0.5, 1.0, 2.0])),
)


PWL_STRATEGY = st.integers(1, 3).flatmap(lambda n: st.builds(
    lambda steps, rises, base: PiecewiseLinear(tuple(np.cumsum([0.0, *steps]).tolist()),
                                               tuple((base + np.cumsum([0.0, *rises])).tolist())),
    st.lists(st.floats(0.1, 1.0), min_size=n, max_size=n),
    st.lists(st.floats(0.0, 2.0), min_size=n, max_size=n),
    st.floats(0.0, 1.0)))

# pairs that reach every branch of sup_distance: polynomial differences, the
# grid, piecewise-linear pairs, same-shape MonomialLog and same-beta BPR, and
# each of these but the polynomials inside ScaledCost wrappers of one factor
_RULE_PAIRS = st.one_of(
    st.tuples(PWL_STRATEGY, PWL_STRATEGY),
    st.tuples(st.floats(0.1, 2.0), st.floats(0.1, 2.0), st.sampled_from([1.0, 2.0]),
              st.sampled_from([0.5, 1.0, 2.0])).map(
        lambda t: (MonomialLog(t[0], t[2], t[3]), MonomialLog(t[1], t[2], t[3]))),
    st.tuples(st.floats(0.1, 3.0), st.floats(0.1, 3.0), st.sampled_from([1.5, 2.0, 3.0, 4.0]),
              st.floats(0.0, 2.0), st.floats(0.0, 2.0)).map(
        lambda t: (BPR(t[0], t[2], t[3]), BPR(t[1], t[2], t[4]))),
)
# a convex MonomialLog (beta >= 1) against a cost linear on pieces of [0, hi]
_LINEAR_PIECES = st.one_of(
    PWL_STRATEGY,
    st.builds(Constant, st.floats(0.0, 5.0)),
    st.builds(Affine, st.floats(0.0, 4.0), st.floats(0.0, 3.0)),
    st.builds(lambda q, p: BPR(q, 1.0, p), st.floats(0.0, 3.0), st.floats(0.0, 2.0)),
    st.builds(lambda a, b: Polynomial((a, b)), st.floats(0.0, 2.0), st.floats(0.0, 4.0)),
    st.builds(ScaledCost, st.builds(Affine, st.floats(0.0, 4.0), st.floats(0.0, 3.0)),
              st.floats(0.25, 3.0)),
)
MONOMIAL_LOG_LINEAR_PAIRS = st.tuples(
    st.builds(MonomialLog, st.floats(0.0, 2.0), st.floats(1.0, 4.0), st.floats(0.0, 3.0)),
    _LINEAR_PIECES)

SUP_PAIRS = st.one_of(
    st.tuples(FAMILY_STRATEGIES, FAMILY_STRATEGIES),
    _RULE_PAIRS,
    MONOMIAL_LOG_LINEAR_PAIRS,
    st.tuples(_RULE_PAIRS, st.sampled_from([0.5, 0.7, 3.0])).map(
        lambda t: (ScaledCost(t[0][0], t[1]), ScaledCost(t[0][1], t[1]))),
)

# pairs of the flat-side rule (a cost flat on [0, inf) against any family, wrappers
# included) and of the piecewise-linear-polynomial rule (a difference cubic on each piece)
_FLAT = st.one_of(
    st.builds(Constant, st.floats(0.1, 5.0)),
    st.builds(lambda q, p: BPR(q, 0.0, p), st.floats(0.0, 2.0), st.floats(0.1, 2.0)),
    st.builds(MonomialLog, st.just(0.0), st.floats(0.5, 2.0), st.floats(0.0, 2.0)),
    PWL_STRATEGY.map(lambda c: PiecewiseLinear(c.breakpoints, (c.values[0],) * len(c.values))),
)
_MONOTONE = st.one_of(
    FAMILY_STRATEGIES, PWL_STRATEGY,
    st.builds(BPR, st.floats(0.1, 3.0), st.floats(0.1, 4.0), st.floats(0.0, 2.0)),
    st.builds(MonomialLog, st.floats(0.1, 2.0), st.floats(0.1, 3.0), st.floats(0.0, 3.0)),
)
_CUBICS = st.one_of(
    st.builds(Constant, st.floats(0.1, 5.0)),
    st.builds(Affine, st.floats(0.0, 4.0), st.floats(0.0, 3.0)),
    st.lists(st.floats(0.0, 2.0), min_size=1, max_size=4).map(lambda c: Polynomial(tuple(c))),
    st.builds(BPR, st.floats(0.1, 3.0), st.sampled_from([1.0, 2.0, 3.0]), st.floats(0.0, 2.0)),
    st.builds(ScaledCost, st.lists(st.floats(0.0, 2.0), min_size=1, max_size=4).map(
        lambda c: Polynomial(tuple(c))), st.floats(0.25, 3.0)),
)
FLAT_OR_PIECEWISE_POLYNOMIAL_PAIRS = st.one_of(
    st.tuples(st.one_of(_FLAT, _FLAT.map(lambda c: TruncatedCost(c, 0.7))),
              st.one_of(_MONOTONE, st.builds(
                  lambda c, kind, x: kind(c, x), _MONOTONE,
                  st.sampled_from([ScaledCost, TruncatedCost, TangentCost]), st.floats(0.3, 3.0)))),
    st.tuples(PWL_STRATEGY, _CUBICS),
)


# piecewise-linear costs on a quarter grid: slopes are ratios of small
# integers, so two unequal slopes differ by at least 1/12 and every fall of
# the marginal at a breakpoint is at least 1/48
GRID_PWL = st.integers(1, 4).flatmap(lambda n: st.builds(
    lambda steps, rises, base: PiecewiseLinear(
        tuple(np.cumsum([0.0, *steps]) / 4.0), tuple(base + np.cumsum([0.0, *rises]) / 4.0)),
    st.lists(st.integers(1, 4), min_size=n, max_size=n),
    st.lists(st.integers(0, 4), min_size=n, max_size=n),
    st.sampled_from([0.0, 0.5])))

# every family, with exponents below 1 for BPR and MonomialLog; half of the
# draws are piecewise linear, the only family whose rule can say False
CONVEXITY_FAMILIES = st.booleans().flatmap(lambda kinked: GRID_PWL if kinked else st.one_of(
    FAMILY_STRATEGIES,
    st.builds(BPR, st.floats(0.1, 3.0), st.floats(0.0, 4.0), st.floats(0.0, 2.0)),
    st.builds(MonomialLog, st.floats(0.0, 2.0), st.floats(0.0, 3.0), st.floats(0.0, 3.0))))


SMOOTH_BASES = ("family", "bpr-root", "pwl")


@st.composite
def smooth_points(draw, kinds=SMOOTH_BASES + ("scaled", "truncated", "tangent")):
    """(cost, x) where the cost is smooth around x > 0: a family of FAMILY_STRATEGIES, BPR
    with 0 < beta < 1, a PiecewiseLinear inside a piece, and one wrapper around any of
    these; the extensions away from their anchor."""
    kind = draw(st.sampled_from(kinds))
    if kind == "family":
        return draw(FAMILY_STRATEGIES), draw(st.floats(0.05, 3.0))
    if kind == "bpr-root":
        return (draw(st.builds(BPR, st.floats(0.1, 3.0), st.sampled_from([0.25, 0.5, 0.75]),
                               st.floats(0.0, 2.0))), draw(st.floats(0.05, 3.0)))
    if kind == "pwl":
        cost = draw(PWL_STRATEGY)
        ends = (*cost.breakpoints, cost.breakpoints[-1] + 1.0)  # and past the last one
        j = draw(st.integers(0, len(ends) - 2))
        return cost, ends[j] + draw(st.floats(0.1, 0.9)) * (ends[j + 1] - ends[j])
    inner, x = draw(smooth_points(SMOOTH_BASES))
    if kind == "scaled":
        factor = draw(st.floats(0.25, 3.0))
        return ScaledCost(inner, factor), x / factor
    offset = draw(st.floats(0.05, 2.0))
    anchor = x - offset if draw(st.booleans()) and x > offset else x + offset
    return (TruncatedCost if kind == "truncated" else TangentCost)(inner, anchor), x


def _central_difference(f, x):
    h = 1e-5 * max(1.0, x)
    return (f(x + h) - f(x - h)) / (2 * h)


def _marginal_values(cost, xs):
    """x f'(x) + f(x) on xs, f(0) at x = 0; computed here, not by MarginalCost."""
    vals = np.asarray(cost(xs), dtype=float).copy()
    pos = xs > 0.0
    vals[pos] += xs[pos] * np.asarray(cost.derivative(xs[pos]), dtype=float)
    return vals


def _marginal_falls(cost, xs):
    """True when the marginal falls between two neighbours of xs by more than rounding."""
    vals = _marginal_values(cost, xs)
    return bool(np.any(np.diff(vals) < -1e-12 * np.max(np.abs(vals), initial=1.0)))


def _eigen_poly_sup(coeffs, hi):
    """Oracle apart from the closed form: the exact sup of |p| on [0, hi] by np.roots."""
    coeffs = np.trim_zeros(np.asarray(coeffs, dtype=float), "b")
    if coeffs.size == 0:
        return 0.0
    candidates = [0.0, hi]
    if coeffs.size > 2:
        dc = coeffs[1:] * np.arange(1, coeffs.size)
        for r in np.roots(dc[::-1]):
            if abs(r.imag) < 1e-12 and 0.0 < r.real < hi:
                candidates.append(float(r.real))
    return float(max(abs(np.polyval(coeffs[::-1], c)) for c in candidates))


def _random_polynomial_cost(rng):
    kind = rng.integers(0, 5)
    coef = lambda: float(rng.choice([0.0, rng.uniform(0.0, 3.0), rng.uniform(0.0, 1e-3)]))
    if kind == 0:
        return Constant(coef() + 0.1)
    if kind == 1:
        return Affine(coef(), coef())
    if kind == 2:
        return Polynomial(tuple(coef() for _ in range(rng.integers(1, 5))))
    if kind == 3:
        return BPR(coef() + 0.01, float(rng.integers(1, 4)), coef())
    return ScaledCost(Polynomial(tuple(coef() for _ in range(3))), float(rng.uniform(0.5, 2.0)))


class TestEval:
    def test_bpr_linear(self):
        assert BPR(1.0, 1.0, 0.0)(0.7) == pytest.approx(0.7)

    def test_monomial_log_at_zero(self):
        assert MonomialLog(1.0, 1.0, 1.0)(0.0) == 0.0

    def test_affine_shift(self):
        eps = 0.01
        f = Affine(1.0, eps)
        assert f(0.3) == pytest.approx(0.3 + eps)

    def test_pwl_constant_beyond_last_breakpoint(self):
        f = PiecewiseLinear((0.0, 1.0), (0.5, 1.5))
        assert f(2.0) == pytest.approx(1.5)
        assert f(0.5) == pytest.approx(1.0)

    def test_negative_argument_rejected(self):
        for f in (BPR(1.0, 2.0, 0.0), Constant(1.0), Affine(1.0, 0.0),
                  Polynomial((1.0,)), MonomialLog(1.0, 1.0, 1.0),
                  PiecewiseLinear((0.0, 1.0), (0.0, 1.0))):
            with pytest.raises(ValueError):
                f(-0.5)


class TestIntegralAndDerivative:
    def test_integral_of_identity(self):
        assert BPR(1.0, 1.0, 0.0).antiderivative(1.0) == pytest.approx(0.5)

    def test_integral_of_constant(self):
        assert Constant(1.0).antiderivative(0.7) == pytest.approx(0.7)

    def test_derivative_of_square(self):
        assert Polynomial((0.0, 0.0, 1.0)).derivative(2.0) == pytest.approx(4.0)

    def test_pwl_right_derivative_at_kink(self):
        f = PiecewiseLinear((0.0, 1.0, 2.0), (0.0, 1.0, 4.0))
        assert f.derivative(1.0) == pytest.approx(3.0)
        assert f.derivative(0.5) == pytest.approx(1.0)

    @settings(max_examples=100, deadline=None)
    @given(cost=FAMILY_STRATEGIES, x=st.floats(0.01, 3.0))
    def test_derivative_matches_finite_differences(self, cost, x):
        h = 1e-5 * max(1.0, x)
        numeric = (cost(x + h) - cost(x - h)) / (2 * h)
        exact = cost.derivative(x)
        assert exact == pytest.approx(numeric, rel=1e-6, abs=1e-8)

    @settings(max_examples=300, deadline=None)
    @given(point=smooth_points())
    def test_derivative_and_marginal_match_finite_differences_on_every_family(self, point):
        # oracles apart from the kernels: central differences of tau and of x tau(x)
        cost, x = point
        assert cost.derivative(x) == pytest.approx(_central_difference(cost, x),
                                                   rel=1e-6, abs=1e-8)
        assert MarginalCost(cost)(x) == pytest.approx(
            _central_difference(lambda y: y * cost(y), x), rel=1e-6, abs=1e-8)

    @settings(max_examples=40, deadline=None)
    @given(cost=FAMILY_STRATEGIES, hi=st.floats(0.1, 4.0))
    def test_integral_matches_simpson(self, cost, hi):
        xs = np.linspace(0.0, hi, 2001)
        simpson = float(np.trapezoid(np.asarray(cost(xs), dtype=float), xs))
        exact = cost.antiderivative(hi)
        assert exact == pytest.approx(simpson, rel=1e-5, abs=1e-8)

    def test_monomial_log_integral_closed_forms(self):
        assert MonomialLog(1.0, 1.0, 1.0).antiderivative(1.0) == pytest.approx(0.25, rel=1e-15)
        assert MonomialLog(1.0, 0.0, 1.0).antiderivative(1.0) == pytest.approx(
            2.0 * math.log(2.0) - 1.0, rel=1e-15)

    @pytest.mark.parametrize("beta, alpha", [(3.0, 2.5), (0.0, 0.3), (1.0, 1.0), (2.0, 3.0)])
    def test_monomial_log_integral_near_zero_is_the_series(self, beta, alpha):
        # ln(1 + t)**a = t**a (1 - a t / 2 + O(t**2)): two terms, relative error O(x**2)
        e = alpha + beta + 1.0
        for x in (1e-4, 1e-6, 1e-8):
            series = x**e / e - 0.5 * alpha * x ** (e + 1.0) / (e + 1.0)
            got = MonomialLog(1.0, beta, alpha).antiderivative(x)
            assert got == pytest.approx(series, rel=2.0 * x * x + 1e-14)

    @settings(max_examples=200, deadline=None)
    @given(cost=st.builds(MonomialLog, st.floats(0.0, 3.0), st.floats(0.0, 4.0),
                          st.floats(0.0, 3.0)), log_x=st.floats(-3.0, 3.0))
    def test_monomial_log_integral_matches_adaptive_quadrature(self, cost, log_x):
        # the adaptive rule is a test-only reference, stopped on a relative error near its floor
        # of 50 eps: at epsrel 1e-12 quad's own error reached 5e-11 relative on this domain
        from scipy.integrate import IntegrationWarning, quad
        x, (z, b, a) = 10.0**log_x, (cost.zeta, cost.beta, cost.alpha)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", IntegrationWarning)  # roundoff at that floor
            ref = quad(lambda t: z * t**b * math.log1p(t) ** a, 0.0, x,
                       epsabs=0.0, epsrel=2e-14, limit=200)[0]
        # abs: below 1e-300 (a subnormal zeta) neither side keeps relative precision
        assert cost.antiderivative(x) == pytest.approx(ref, rel=1e-12, abs=1e-300)

    def test_integral_simpson_tight_on_smooth_families(self):
        from scipy.integrate import simpson
        for cost in (Polynomial((0.2, 0.3, 1.0)), BPR(1.0, 3.0, 0.5),
                     MonomialLog(1.0, 1.0, 1.0)):
            xs = np.linspace(0.0, 2.0, 4097)
            ref = float(simpson(np.asarray(cost(xs), dtype=float), x=xs))
            assert cost.antiderivative(2.0) == pytest.approx(ref, rel=1e-8)


class TestMarginal:
    def test_constant_marginal_is_itself(self):
        m = MarginalCost(Constant(2.0))
        assert m(0.5) == pytest.approx(2.0)

    def test_bpr_marginal_closed_form(self):
        q, beta, p = 1.5, 2.0, 0.3
        m = MarginalCost(BPR(q, beta, p))
        for x in (0.0, 0.4, 1.7):
            assert m(x) == pytest.approx((beta + 1) * q * x**beta + p)

    def test_affine_marginal(self):
        m = MarginalCost(Affine(2.0, 0.5))
        assert m(1.0) == pytest.approx(2 * 2.0 * 1.0 + 0.5)

    def test_marginal_at_zero_is_the_cost_there(self):
        # x f'(x) -> 0 at 0 even where f'(0) is infinite: no 0 * inf = nan
        for cost in (BPR(1.0, 0.5, 0.2), MonomialLog(1.0, 0.2, 0.3), BPR(2.0, 2.0, 0.3)):
            m = MarginalCost(cost)
            assert m(0.0) == cost(0.0)
            assert np.array_equal(m(np.array([0.0, 0.0])), cost(np.array([0.0, 0.0])))

    @pytest.mark.parametrize("slope", [math.inf, math.nan, 0.0, -1.5, -math.inf, 2.0])
    def test_marginal_rule_without_errstate(self, slope):
        # the rule every caller shares gives the bits of x * f' + f masked at x <= 0,
        # computed under errstate, and raises no warning of its own
        x = np.array([0.0, -0.0, 5e-324, 1e-300, 0.7, 3.0])
        value = np.linspace(0.1, 1.0, len(x))
        slopes = np.full(len(x), slope)
        with np.errstate(invalid="ignore"):
            want = np.where(x > 0.0, x * slopes, 0.0) + value
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _marginal(x, value, slopes)
        assert got.tobytes() == want.tobytes()

    def test_nonconvex_pwl_flagged(self):
        # slope drops 3 -> 0.1, the marginal jumps down at the kink
        f = PiecewiseLinear((0.0, 1.0, 3.0), (0.0, 3.0, 3.2))
        assert not f.has_nondecreasing_marginal(3.0)

    def test_smooth_families_certified(self):
        for cost in (Constant(1.0), Affine(1.0, 1.0), BPR(2.0, 3.0, 0.1),
                     Polynomial((0.1, 0.2, 0.3))):
            assert cost.has_nondecreasing_marginal(5.0)

    @pytest.mark.parametrize("wrap", [lambda c, k: c, ScaledCost, TruncatedCost, TangentCost,
                                      lambda c, k: TangentCost(ScaledCost(c, k), 1.0 / k)],
                             ids=["plain", "scaled", "truncated", "tangent", "scaled-tangent"])
    @settings(max_examples=100, deadline=None)
    @given(cost=CONVEXITY_FAMILIES, k=st.floats(0.25, 3.0), hi=st.floats(0.05, 4.0))
    def test_rule_holds_on_a_dense_grid(self, wrap, cost, k, hi):
        # the grid has hi itself: the solvers' right-derivative marginal is
        # taken there too
        cost = wrap(cost, k)
        if cost.has_nondecreasing_marginal(hi):
            assert not _marginal_falls(cost, np.linspace(0.0, hi, 10001))

    @settings(max_examples=200, deadline=None)
    @given(cost=GRID_PWL, hi=st.one_of(st.floats(0.05, 5.0), st.sampled_from([0.25, 0.5, 1.0])))
    def test_pwl_rule_is_exact(self, cost, hi):
        # the marginal can only fall at a breakpoint, from its left limit
        bps = np.asarray(cost.breakpoints)[1:]
        bps = bps[bps <= hi]
        left = np.stack([bps - 1e-9, bps], axis=1).reshape(-1)
        assert cost.has_nondecreasing_marginal(hi) == (not _marginal_falls(cost, left))


class TestLipschitz:
    def test_bpr_square(self):
        assert BPR(1.0, 2.0, 0.0).lipschitz_on(1.0) == pytest.approx(2.0)

    def test_constant_zero_and_clamp(self):
        assert Constant(3.0).lipschitz_on(1.0) == 0.0

    def test_pwl_max_slope(self):
        f = PiecewiseLinear((0.0, 1.0, 2.0), (0.0, 1.0, 4.0))
        assert f.lipschitz_on(2.0) == pytest.approx(3.0)
        assert f.lipschitz_on(0.5) == pytest.approx(1.0)

    def test_tangent_past_a_kink_at_its_anchor(self):
        # the tangent line takes the inner's right-derivative at the anchor, 2.0 here,
        # steeper than any inner slope on [0, anchor]
        f = TangentCost(PiecewiseLinear((0.0, 1.0, 2.0), (0.1, 0.2, 2.2)), 1.0)
        assert f.lipschitz_on(1.0) == pytest.approx(0.1)
        assert f.lipschitz_on(1.5) == pytest.approx(2.0)

    def test_tangent_slope_floor_past_a_kink_at_its_anchor(self):
        # on (1, 1.5] the cost follows the tangent line, whose slope 0.1 is below
        # every inner slope on [0, 1]
        f = TangentCost(PiecewiseLinear((0.0, 1.0, 2.0), (0.1, 1.1, 1.2)), 1.0)
        assert f.deriv_min_on(1.0) == pytest.approx(1.0)
        assert f.deriv_min_on(1.5) == pytest.approx(0.1)

    def test_non_lipschitz_families_report_inf(self):
        assert BPR(1.0, 0.5, 0.0).lipschitz_on(1.0) == math.inf
        assert MonomialLog(1.0, 0.5, 0.3).lipschitz_on(1.0) == math.inf  # tau'(0+) is infinite
        # past the float range
        assert MonomialLog(1.0, 2.0, 1.0).lipschitz_on(1e200) == math.inf
        assert BPR(1.0, 4.0, 0.0).lipschitz_on(1e200) == math.inf
        assert MonomialLog(1.0, 0.9, 3.0).lipschitz_on(1e200) == math.inf

    def test_monomial_log_below_beta_one_is_lipschitz(self):
        # x**0.5 ln(1 + x): tau' peaks at 0.864 on [0, 2]; the bound is 1.5 * 2**0.5
        assert MonomialLog(1.0, 0.5, 1.0).lipschitz_on(2.0) == pytest.approx(1.5 * 2.0**0.5)

    @settings(max_examples=60, deadline=None)
    @given(zeta=st.floats(0.1, 3.0), beta=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
           hi=st.floats(0.01, 10.0), data=st.data())
    def test_monomial_log_bound_below_beta_one_dominates_slopes(self, zeta, beta, hi, data):
        cost = MonomialLog(zeta, beta, data.draw(st.floats(1.0 - beta, 3.0)))
        slopes = cost.derivative(np.linspace(0.0, hi, 100_001))
        assert cost.lipschitz_on(hi) >= slopes.max()

    @given(cost=st.builds(MonomialLog, st.floats(0.0, 2.0), st.floats(1.0, 4.0),
                          st.floats(0.0, 3.0)), hi=st.floats(1e-3, 5.0))
    def test_monomial_log_bound_is_the_slope_at_hi(self, cost, hi):
        # convex for beta >= 1: the bound is tau'(hi), on floats within a few ulps of the kernel's
        slope = float(cost.derivative(hi))
        assert abs(cost.lipschitz_on(hi) - slope) <= 8 * math.ulp(slope)

    @settings(max_examples=60, deadline=None)
    @given(cost=st.one_of(FAMILY_STRATEGIES, st.builds(
        MonomialLog, st.floats(0.1, 2.0), st.floats(1.0, 4.0), st.floats(0.01, 0.99))),
        hi=st.floats(0.5, 4.0), data=st.data())
    def test_lipschitz_dominates_slopes(self, cost, hi, data):
        m = cost.lipschitz_on(hi)
        xs = data.draw(st.lists(st.floats(0.0, 1.0), min_size=2, max_size=20))
        pts = sorted(set(x * hi for x in xs))
        for a, b in zip(pts, pts[1:]):
            # separation floor keeps evaluation roundoff out of the slope
            if b - a > 1e-6:
                slope = abs(cost(b) - cost(a)) / (b - a)
                assert slope <= m * (1 + 1e-9) + 1e-9


class TestSupDistance:
    def test_constant_shift_exact(self):
        est, err = sup_distance(BPR(1, 1, 0), Affine(1.0, 0.01), 1.0)
        assert est == pytest.approx(0.01, abs=1e-15)
        assert err == 0.0

    def test_identical(self):
        assert sup_distance(Constant(2.0), Constant(2.0), 3.0) == (0.0, 0.0)

    def test_square_vs_identity_quarter(self):
        # dense-grid oracle: max of |x^2 - x| on [0,1] is 0.25 at x = 0.5
        xs = np.linspace(0, 1, 1_000_001)
        oracle = float(np.max(np.abs(xs**2 - xs)))
        est, err = sup_distance(Polynomial((0.0, 0.0, 1.0)), BPR(1, 1, 0), 1.0)
        assert err == 0.0
        assert est == pytest.approx(oracle, abs=1e-9)
        assert est == pytest.approx(0.25)

    @pytest.mark.parametrize("f, g, hi, sup", [
        # x^3 - 3x: the critical point x = 1 gives 2, as does the endpoint 2 ...
        (Polynomial((0.0, 0.0, 0.0, 1.0)), Affine(3.0, 0.0), 2.0, 2.0),
        # ... and only the critical point on [0, 1.5]
        (Polynomial((0.0, 0.0, 0.0, 1.0)), Affine(3.0, 0.0), 1.5, 2.0),
        # x (x - 1) (x - 2): two interior critical points, 1 -+ 1/sqrt(3)
        (Polynomial((0.0, 2.0, 0.0, 1.0)), Polynomial((0.0, 0.0, 3.0)), 2.0,
         2.0 * math.sqrt(3.0) / 9.0),
        # (x - 1)^3: p' has a double root (discriminant 0), the sup is at the ends
        (Polynomial((0.0, 3.0, 0.0, 1.0)), Polynomial((1.0, 0.0, 3.0)), 2.0, 1.0),
        # x^3 + x - 1: p' = 3x^2 + 1 has no real root
        (Polynomial((0.0, 1.0, 0.0, 1.0)), Constant(1.0), 2.0, 9.0),
        # critical points outside [0, hi]: x^2 - x at 0.5, x^3 - 3x at 1
        (Polynomial((0.0, 0.0, 1.0)), Affine(1.0, 0.0), 0.4, 0.24),
        (Polynomial((0.0, 0.0, 0.0, 1.0)), Affine(3.0, 0.0), 0.5, 1.375),
        # constant and linear differences
        (Constant(2.0), Constant(0.5), 3.0, 1.5),
        (Affine(2.0, 1.0), Affine(0.5, 0.0), 3.0, 5.5),
        (Affine(1.0, 0.0), Constant(1.0), 3.0, 2.0),
    ])
    def test_closed_form_oracles(self, f, g, hi, sup):
        for pair in ((f, g), (g, f)):
            est, err = sup_distance(*pair, hi)
            assert err == 0.0
            assert est == pytest.approx(sup, rel=1e-14, abs=1e-15)

    def test_closed_form_against_dense_grid(self):
        rng = np.random.default_rng(8)
        xs = np.linspace(0.0, 1.0, 1_000_001)
        for _ in range(40):
            degree = rng.integers(0, 4)
            f = Polynomial(tuple(rng.uniform(0.0, 2.0, degree + 1)))
            g = Polynomial(tuple(rng.uniform(0.0, 2.0, rng.integers(1, degree + 2))))
            hi = float(rng.uniform(0.1, 3.0))
            est, err = sup_distance(f, g, hi)
            grid = float(np.max(np.abs(f(hi * xs) - g(hi * xs))))
            assert err == 0.0
            assert est == pytest.approx(grid, rel=1e-9)

    def test_closed_form_matches_the_eigensolver(self):
        rng = np.random.default_rng(2000)
        for _ in range(2000):
            f, g = _random_polynomial_cost(rng), _random_polynomial_cost(rng)
            pf, pg = f.as_polynomial(), g.as_polynomial()  # degree <= 3 each
            diff = np.zeros(max(len(pf), len(pg)))
            diff[: len(pf)] += pf
            diff[: len(pg)] -= pg
            hi = float(rng.choice([rng.uniform(0.0, 3.0), rng.uniform(0.0, 50.0)]))
            est, err = sup_distance(f, g, hi)
            oracle = _eigen_poly_sup(diff, hi)
            assert err == 0.0
            assert abs(est - oracle) <= 4 * math.ulp(oracle), (f, g, hi)

    @settings(max_examples=300, deadline=None)
    @given(pair=SUP_PAIRS, hi=st.floats(0.0, 5.0))
    def test_symmetric_bit_for_bit(self, pair, hi):
        f, g = pair
        forward, backward = sup_distance(f, g, hi), sup_distance(g, f, hi)
        assert [x.hex() for x in forward] == [x.hex() for x in backward]

    def test_signed_zero_keeps_symmetry(self):
        # the x^2 coefficient of the difference is 0.0 one way and -0.0 the
        # other; a branch on its sign bit would move the critical points
        f = BPR(0.58353196034748, 3.0, 0.19757814003424745)
        g = Affine(1.7019986527092623, 0.2724405301402192)
        hi = 1.5631362944764402
        forward, backward = sup_distance(f, g, hi), sup_distance(g, f, hi)
        assert [x.hex() for x in forward] == [x.hex() for x in backward]

    def test_grid_path_certifies(self):
        f, g = MonomialLog(1.0, 1.0, 1.0), BPR(0.8, 2.0, 0.1)
        est, err = sup_distance(f, g, 2.0)
        xs = np.linspace(0, 2, 1_000_001)
        true = float(np.max(np.abs(np.asarray(f(xs)) - np.asarray(g(xs)))))
        assert err > 0.0
        assert est <= true <= est + err

    @pytest.mark.parametrize("f, g", [
        (MonomialLog(1.0, 1.0, 1.0), Polynomial((0.1, 0.3, 0.8))),
        # x**0.5 ln(1 + x) is concave near 2: no convexity rule for beta < 1
        (MonomialLog(1.0, 0.5, 1.0), Affine(1.0, 0.5)),
    ])
    def test_other_monomial_log_pairs_take_the_grid(self, f, g):
        est, err = sup_distance(f, g, 2.0)
        xs = np.linspace(0, 2, 1_000_001)
        true = float(np.max(np.abs(np.asarray(f(xs)) - np.asarray(g(xs)))))
        assert err > 0.0 and est <= true <= est + err

    @pytest.mark.parametrize("hi", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("f, g", [
        (Affine(1.0, 0.5), Polynomial((0.5, 0.2, 0.3))),  # the polynomial rule
        (MonomialLog(1.0, 2.0, 1.0), Affine(1.0, 0.5)),  # a family rule
        (MonomialLog(1.0, 2.0, 1.0), Polynomial((0.5, 0.2, 0.3))),  # the grid
    ])
    def test_non_finite_hi_rejected(self, f, g, hi):
        with pytest.raises(ValueError, match="finite"):
            sup_distance(f, g, hi)

    @settings(max_examples=60, deadline=None)
    @given(pair=MONOMIAL_LOG_LINEAR_PAIRS, hi=st.floats(0.0, 5.0))
    def test_monomial_log_against_linear_pieces_is_exact(self, pair, hi):
        f, g = pair
        est, err = sup_distance(f, g, hi)
        assert err == 0.0
        xs = np.linspace(0.0, hi, 2_000_001)
        m = float(np.max(np.abs(f(xs) - g(xs))))
        slack = (f.lipschitz_on(hi) + g.lipschitz_on(hi)) * hi / 4e6  # the dense grid's own
        assert m - 1e-12 * max(1.0, m) <= est <= m + slack

    @pytest.mark.parametrize("f, g", [
        (BPR(1.0, 1.5, 0.3), BPR(2.0, 1.5, 0.1)),
        (BPR(0.5, 2.5, 0.0), BPR(0.2, 2.5, 1.0)),  # |f - g| peaks at 0
        (MonomialLog(1.0, 1.0, 0.5), MonomialLog(2.5, 1.0, 0.5)),
        (MonomialLog(2.0, 2.0, 1.0), MonomialLog(0.5, 2.0, 1.0)),
    ])
    def test_same_shape_pairs_exact(self, f, g):
        xs = np.linspace(0, 2, 1_000_001)
        true = float(np.max(np.abs(f(xs) - g(xs))))
        for pair in ((f, g), (g, f)):
            est, err = sup_distance(*pair, 2.0)
            assert err == 0.0
            assert est >= true - 1e-12

    def test_pwl_pair_exact(self):
        f = PiecewiseLinear((0.0, 1.0, 2.0), (0.0, 1.0, 1.5))
        g = PiecewiseLinear((0.0, 0.5, 2.0), (0.2, 0.4, 2.0))
        est, err = sup_distance(f, g, 2.0)
        assert err == 0.0
        xs = np.linspace(0, 2, 1_000_001)
        true = float(np.max(np.abs(np.asarray(f(xs)) - np.asarray(g(xs)))))
        assert est >= true - 1e-12

    @pytest.mark.parametrize("f, g, hi", [
        (ScaledCost(MonomialLog(0.5, 2.0, 0.5), 2.0), ScaledCost(MonomialLog(0.8, 2.0, 0.5), 2.0),
         2.5),
        (ScaledCost(BPR(1.0, 1.5, 0.3), 0.7), ScaledCost(BPR(2.0, 1.5, 0.1), 0.7), 2.0),
        (ScaledCost(PiecewiseLinear((0.0, 0.7, 2.0), (0.1, 0.5, 2.5)), 0.7),  # peak at a kink
         ScaledCost(PiecewiseLinear((0.0, 1.2, 2.0), (0.2, 0.4, 2.0)), 0.7), 2.0),
        (ScaledCost(PiecewiseLinear((0.0, 0.5, 2.0), (0.1, 0.5, 2.5)), 0.5),  # peak at hi
         ScaledCost(PiecewiseLinear((0.0, 0.75, 2.0), (0.2, 0.4, 2.0)), 0.5), 3.0),
    ])
    def test_scaled_pairs_of_one_factor_exact(self, f, g, hi):
        # the inners' rule, its points mapped back by 1/factor, against a dense grid
        xs = np.linspace(0, hi, 1_000_001)
        true = float(np.max(np.abs(np.asarray(f(xs)) - np.asarray(g(xs)))))
        slack = (f.lipschitz_on(hi) + g.lipschitz_on(hi)) * hi / 2e6  # the grid's own error
        for pair in ((f, g), (g, f)):
            est, err = sup_distance(*pair, hi)
            assert err == 0.0
            assert true - 1e-12 <= est <= true + slack

    @pytest.mark.parametrize("f, g", [
        # 0.9 / 3 * 3 != 0.9: the mapped kink would be evaluated an ulp off
        (ScaledCost(PiecewiseLinear((0.0, 0.9, 3.0), (0.1, 1.5, 2.0)), 3.0),
         ScaledCost(PiecewiseLinear((0.0, 2.0, 3.0), (0.2, 0.4, 2.5)), 3.0)),
        (ScaledCost(MonomialLog(0.5, 2.0, 0.5), 2.0), ScaledCost(MonomialLog(0.5, 2.0, 0.5), 1.5)),
        (ScaledCost(MonomialLog(0.5, 2.0, 0.5), 2.0), MonomialLog(0.5, 2.0, 0.5)),
    ])
    def test_other_scaled_pairs_take_the_grid(self, f, g):
        est, err = sup_distance(f, g, 1.0)
        xs = np.linspace(0, 1, 1_000_001)
        true = float(np.max(np.abs(np.asarray(f(xs)) - np.asarray(g(xs)))))
        assert err > 0.0 and est <= true + 1e-12 and true <= est + err

    @pytest.mark.parametrize("f, g, hi", [
        (TruncatedCost(PiecewiseLinear((0.0, 0.5, 2.0), (0.1, 0.9, 1.0)), 1.5),  # peak below
         TruncatedCost(PiecewiseLinear((0.0, 1.0, 2.0), (0.2, 0.4, 1.5)), 1.5), 2.5),
        (TangentCost(PiecewiseLinear((0.0, 1.0, 2.0), (0.1, 1.1, 1.2)), 1.0),  # peak at the anchor
         TangentCost(PiecewiseLinear((0.0, 1.0, 2.0), (0.1, 0.2, 2.2)), 1.0), 1.5),
        (TruncatedCost(BPR(1.0, 2.0, 0.1), 1.0), TruncatedCost(BPR(2.0, 2.0, 0.3), 1.0), 2.0),
        (TangentCost(BPR(1.0, 2.0, 0.3), 1.0), TangentCost(BPR(2.0, 2.0, 0.1), 1.0), 3.0),  # past
        (TangentCost(PiecewiseLinear((0.0, 0.7, 2.0), (0.1, 0.5, 2.5)), 1.2),  # kinked inner
         TangentCost(PiecewiseLinear((0.0, 1.2, 2.0), (0.2, 0.4, 2.0)), 1.2), 2.5),
        (TruncatedCost(MonomialLog(0.5, 2.0, 0.5), 3.0),  # hi below the anchor
         TruncatedCost(MonomialLog(0.8, 2.0, 0.5), 3.0), 2.0),
        (TruncatedCost(ScaledCost(MonomialLog(0.5, 2.0, 0.5), 2.0), 1.0),
         TruncatedCost(ScaledCost(MonomialLog(0.8, 2.0, 0.5), 2.0), 1.0), 2.0),
        # two classes around one anchor: past it both are linear
        (TruncatedCost(BPR(1.0, 2.0, 0.1), 1.0), TangentCost(BPR(2.0, 2.0, 0.3), 1.0), 2.0),
        (TruncatedCost(BPR(1.0, 2.0, 0.1), 1.0), TangentCost(BPR(1.0, 2.0, 0.1), 1.0), 2.0),
    ])
    def test_extension_pairs_of_one_anchor_exact(self, f, g, hi):
        # the inners' rule on [0, min(hi, anchor)] and hi, against a dense grid
        xs = np.linspace(0, hi, 1_000_001)
        true = float(np.max(np.abs(np.asarray(f(xs)) - np.asarray(g(xs)))))
        slack = (f.lipschitz_on(hi) + g.lipschitz_on(hi)) * hi / 2e6  # the grid's own error
        for pair in ((f, g), (g, f)):
            est, err = sup_distance(*pair, hi)
            assert err == 0.0
            assert true - 1e-12 <= est <= true + slack

    @pytest.mark.parametrize("f, g", [
        (TruncatedCost(BPR(1.0, 2.0, 0.1), 1.0), TruncatedCost(BPR(2.0, 2.0, 0.3), 0.8)),
        (TruncatedCost(BPR(1.0, 2.0, 0.1), 1.0), BPR(2.0, 2.0, 0.3)),
        (TruncatedCost(BPR(1.0, 2.0, 0.1), 1.0), TangentCost(BPR(2.0, 2.0, 0.3), 0.8)),
    ])
    def test_other_extension_pairs_take_the_grid(self, f, g):
        est, err = sup_distance(f, g, 2.0)
        xs = np.linspace(0, 2, 1_000_001)
        true = float(np.max(np.abs(np.asarray(f(xs)) - np.asarray(g(xs)))))
        assert err > 0.0 and est <= true + 1e-12 and true <= est + err

    def test_truncated_polynomials_of_one_anchor_are_exact(self):
        # below the anchor the difference is x**2 - x, of degree <= 3: its ends and its
        # critical point 1/2 hold |f - g|, and past the anchor both are frozen
        f, g = TruncatedCost(Polynomial((0, 1, 1)), 1.0), TruncatedCost(Polynomial((0, 2)), 1.0)
        assert sup_distance(f, g, 2.0) == sup_distance(g, f, 2.0) == (0.25, 0.0)

    def test_truncation_against_the_tangent_of_one_inner(self):
        # equal inners agree up to the anchor; past it the tangent's line 2 (x - 1) is the gap
        f, g = TruncatedCost(BPR(1, 2, 0.1), 1.0), TangentCost(BPR(1, 2, 0.1), 1.0)
        assert sup_distance(f, g, 2.0) == sup_distance(g, f, 2.0) == (2.0, 0.0)
        assert sup_distance(f, g, 0.5) == (0.0, 0.0)

    @pytest.mark.parametrize("f, g, hi, sup", [
        # flat against a monomial-log: |0.5 - x ln(1 + x)| peaks at hi
        (PiecewiseLinear((0.0, 1.0, 2.0), (0.5, 0.5, 0.5)), MonomialLog(1.0, 1.0, 1.0), 2.0,
         2.0 * math.log1p(2.0) - 0.5),
        # a constant that the piecewise-linear cost crosses at 0.75
        (Constant(1.0), PiecewiseLinear((0.0, 1.0, 2.0), (0.4, 1.2, 2.1)), 1.5, 0.65),
        # 3x - x**3 on the first piece peaks at its critical point x = 1
        (PiecewiseLinear((0.0, 2.0, 3.0), (0.0, 6.0, 7.0)), Polynomial((0.0, 0.0, 0.0, 1.0)),
         1.5, 2.0),
        # x**2 against slopes 3 then 2: the critical point of the second piece is its breakpoint
        (PiecewiseLinear((0.0, 1.0, 2.0), (0.0, 3.0, 5.0)), Polynomial((0.0, 0.0, 1.0)), 2.0,
         2.0),
        # a convex MonomialLog against linear pieces: x**2 - 2x, where tau' = 2 at x = 1 ...
        (MonomialLog(1.0, 2.0, 0.0), Affine(2.0, 0.0), 2.0, 1.0),
        (MonomialLog(1.0, 2.0, 0.0), PiecewiseLinear((0.0, 3.0), (0.0, 6.0)), 2.0, 1.0),
        # ... and x ln(1 + x) - (2 - 1/e) x, where tau' = 2 - 1/e at e - 1: |tau - g| is
        # (e - 1)**2 / e there, above its 1.067 at hi; as Affine, linear BPR and ScaledCost
        (MonomialLog(1.0, 1.0, 1.0), Affine(2.0 - 1.0 / math.e, 0.0), 2.0,
         (math.e - 1.0) ** 2 / math.e),
        (MonomialLog(1.0, 1.0, 1.0), BPR(2.0 - 1.0 / math.e, 1.0, 0.0), 2.0,
         (math.e - 1.0) ** 2 / math.e),
        (MonomialLog(1.0, 1.0, 1.0), ScaledCost(Affine(4.0 - 2.0 / math.e, 0.0), 0.5), 2.0,
         (math.e - 1.0) ** 2 / math.e),
    ])
    def test_flat_and_piecewise_polynomial_closed_forms(self, f, g, hi, sup):
        for pair in ((f, g), (g, f)):
            est, err = sup_distance(*pair, hi)
            assert err == 0.0
            assert est == pytest.approx(sup, rel=1e-15)

    @settings(max_examples=300, deadline=None)
    @given(pair=FLAT_OR_PIECEWISE_POLYNOMIAL_PAIRS, hi=st.floats(0.05, 4.0))
    def test_flat_and_piecewise_polynomial_rules_are_exact(self, pair, hi):
        f, g = pair
        forward, backward = sup_distance(f, g, hi), sup_distance(g, f, hi)
        assert [x.hex() for x in forward] == [x.hex() for x in backward]
        est, err = forward
        assert err == 0.0
        lip = f.lipschitz_on(hi) + g.lipschitz_on(hi)
        xs = np.linspace(0.0, hi, 200_001)
        true = float(np.max(np.abs(f(xs) - g(xs))))
        # the dense grid's own slack, and the rounding of its differences both ways
        assert true - 1e-12 <= est <= true + lip * hi / 4e5 + 1e-12
        if f.as_polynomial() is None or g.as_polynomial() is None:  # not the polynomial rule
            # inside the enclosure of the 4097-point grid that such pairs took before the rules,
            # up to the grid's rounding: a difference constant on a piece rounds to a few values
            coarse = np.linspace(0.0, hi, GRID_N)
            grid_est = float(np.max(np.abs(f(coarse) - g(coarse))))
            assert grid_est - 1e-12 <= est <= grid_est + lip * hi / (2.0 * (GRID_N - 1))


class TestWrappers:
    def test_scaled_cost_value_and_integral(self):
        inner = MonomialLog(1.0, 1.0, 1.0)
        f = ScaledCost(inner, 2.0)
        assert f(1.5) == pytest.approx(inner(3.0))
        assert f.antiderivative(1.0) == pytest.approx(inner.antiderivative(2.0) / 2.0)
        assert f.lipschitz_on(1.0) == pytest.approx(2.0 * inner.lipschitz_on(2.0))

    def test_truncated_freezes(self):
        f = TruncatedCost(Polynomial((0.0, 0.0, 1.0)), 1.0)
        assert f(0.5) == pytest.approx(0.25)
        assert f(2.0) == pytest.approx(1.0)
        assert f.derivative(2.0) == 0.0

    def test_tangent_extends_linearly(self):
        f = TangentCost(Polynomial((0.0, 0.0, 1.0)), 1.0)
        assert f(1.5) == pytest.approx(1.0 + 2.0 * 0.5)
        assert f.derivative(3.0) == pytest.approx(2.0)

    def test_tangent_antiderivative_continuity(self):
        f = TangentCost(Polynomial((0.0, 0.0, 1.0)), 1.0)
        h = 1e-6
        left = (f.antiderivative(1.0) - f.antiderivative(1.0 - h)) / h
        right = (f.antiderivative(1.0 + h) - f.antiderivative(1.0)) / h
        assert left == pytest.approx(right, rel=1e-4)


class TestValidation:
    def test_negative_parameters_rejected(self):
        with pytest.raises(ValueError):
            Constant(-1.0)
        with pytest.raises(ValueError):
            Polynomial((1.0, -0.5))
        with pytest.raises(ValueError):
            BPR(-1.0, 1.0, 0.0)

    @pytest.mark.parametrize("family, params", [
        (Constant, {"c": 1.0}),
        (Affine, {"slope": 2.0, "intercept": 0.5}),
        (BPR, {"q": 1.0, "beta": 4.0, "p": 0.5}),
        (MonomialLog, {"zeta": 1.0, "beta": 2.0, "alpha": 0.5}),
    ], ids=["constant", "affine", "bpr", "monomial-log"])
    @pytest.mark.parametrize("bad", [-1.0, math.nan, math.inf])
    def test_every_float_param_has_the_sign_rule(self, family, params, bad):
        for name in params:
            message = f"{name} must be finite and >= 0, got {bad}"
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                family(**{**params, name: bad})

    @pytest.mark.parametrize("family, n_params", [(Constant, 1), (Affine, 2), (BPR, 3),
                                                  (MonomialLog, 3)])
    def test_float_params_are_stored_as_floats(self, family, n_params):
        cost = family(*range(1, n_params + 1))  # ints in, floats out, in field order
        values = [getattr(cost, f.name) for f in dataclasses.fields(cost)]
        assert [(type(v), v) for v in values] == [(float, float(i)) for i in range(1, n_params + 1)]

    @pytest.mark.parametrize("make", [
        lambda v: PiecewiseLinear((0.0, v), (0.5, 1.0)),
        lambda v: PiecewiseLinear((0.0, 1.0, v), (0.5, 1.0, 1.5)),
        lambda v: ScaledCost(Affine(1.0, 0.5), v),
        lambda v: TruncatedCost(Affine(1.0, 0.5), v),
        lambda v: TangentCost(Affine(1.0, 0.5), v),
    ], ids=["pwl-breakpoint", "pwl-last-breakpoint", "scaled-factor", "truncated-anchor",
            "tangent-anchor"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_parameters_rejected(self, make, value):
        # NaN and inf pass sign checks such as "factor <= 0 raises"
        with pytest.raises(ValueError, match="finite"):
            make(value)

    def test_pwl_must_be_nondecreasing(self):
        with pytest.raises(ValueError):
            PiecewiseLinear((0.0, 1.0), (1.0, 0.5))
        with pytest.raises(ValueError):
            PiecewiseLinear((0.5, 1.0), (0.0, 1.0))
