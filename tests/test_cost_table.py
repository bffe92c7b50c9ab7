"""The compiled arc-cost table against the per-object cost API, bit for bit.

The table's values are checked against each family's own ``__call__``: the inlined ones
of Constant, Affine, Polynomial and BPR, and PiecewiseLinear's ``np.interp``.  A cost's
``derivative``, its ``antiderivative``, its ``MarginalCost`` and the other ``__call__``s
read a one-row kernel of the same class, so their bit tests here check that grouping rows,
padding them and delegating to inner kernels keep each row's bits; the oracles for tau',
the integral and the marginal apart from the kernels are the finite differences and
quadratures in ``test_costs.py``.

Also the derivative kernels of every family against finite differences, each cost's
slope bounds against its derivative, and solves through a wrapper against solves of the
costs it wraps.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from poalab import (
    BPR,
    Affine,
    Constant,
    Game,
    MonomialLog,
    PiecewiseLinear,
    Polynomial,
    ScaledCost,
    TangentCost,
    TruncatedCost,
    solve_so,
    solve_we,
)
from poalab.costs import MarginalCost
from poalab.games import ArcCostTable

from conftest import unit_scale

PARAM = st.one_of(st.just(0.0), st.floats(0.0, 4.0))
POSITIVE = st.floats(0.05, 4.0)


@st.composite
def piecewise_linear(draw):
    steps = draw(st.lists(st.floats(0.05, 2.0), min_size=0, max_size=3))
    rises = draw(st.lists(PARAM, min_size=len(steps), max_size=len(steps)))
    breakpoints = np.concatenate([[0.0], np.cumsum(steps)])
    values = draw(PARAM) + np.concatenate([[0.0], np.cumsum(rises)])
    return PiecewiseLinear(tuple(breakpoints), tuple(values))


BASE_COSTS = st.one_of(
    st.builds(Constant, PARAM),
    st.builds(Affine, PARAM, PARAM),
    st.builds(lambda cs: Polynomial(tuple(cs)), st.lists(PARAM, min_size=1, max_size=5)),
    st.builds(BPR, PARAM, st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.0, 3.0, 4.0]), PARAM),
    st.builds(MonomialLog, PARAM, st.sampled_from([0.0, 0.5, 1.0, 2.0]),
              st.sampled_from([0.0, 0.5, 1.0, 2.0])),
    piecewise_linear(),
)

WRAPPED_COSTS = st.one_of(
    st.builds(ScaledCost, BASE_COSTS, POSITIVE),
    st.builds(TruncatedCost, BASE_COSTS, POSITIVE),
    st.builds(TangentCost, BASE_COSTS, POSITIVE),
)

COSTS = st.one_of(
    BASE_COSTS,
    WRAPPED_COSTS,
    # two levels: each wrapper's kernel delegates to another wrapper's
    st.builds(ScaledCost, WRAPPED_COSTS, POSITIVE),
    st.builds(TruncatedCost, WRAPPED_COSTS, POSITIVE),
    st.builds(TangentCost, WRAPPED_COSTS, POSITIVE),
)

FLOW = st.one_of(st.just(0.0), st.floats(0.0, 20.0))


@st.composite
def costs_and_flows(draw):
    costs = draw(st.lists(COSTS, min_size=1, max_size=8))
    x = np.array(draw(st.lists(FLOW, min_size=len(costs), max_size=len(costs))))
    return costs, x


def assert_matches_per_object(costs, x):
    """The table's values and marginals, and each kernel's tau', have the per-object bits."""
    table = ArcCostTable(costs)
    assert table.values(x).tobytes() == np.array([c(xi) for c, xi in zip(costs, x)]).tobytes()
    assert (table.marginals(x).tobytes()
            == np.array([MarginalCost(c)(xi) for c, xi in zip(costs, x)]).tobytes())
    for idx, kernel in table.groups:
        slopes = [costs[i].derivative(x[i]) for i in idx]
        assert kernel.derivative(x[idx]).tobytes() == np.array(slopes).tobytes()


class TestArcCostTable:
    @settings(max_examples=300, deadline=None)
    @given(data=costs_and_flows())
    def test_matches_per_object_costs(self, data):
        costs, x = data
        table = ArcCostTable(costs)
        assert np.array_equal(table.values(x), np.array([c(xi) for c, xi in zip(costs, x)]))
        assert np.array_equal(table.marginals(x),
                              np.array([MarginalCost(c)(xi) for c, xi in zip(costs, x)]))

    @settings(max_examples=300, deadline=None)
    @given(data=costs_and_flows())
    def test_kernel_derivatives_match_per_object(self, data):
        # the wrappers' kernels build their marginals from the inner kernel's tau'
        costs, x = data
        for idx, kernel in ArcCostTable(costs).groups:
            slopes = [costs[i].derivative(x[i]) for i in idx]
            assert kernel.derivative(x[idx]).tobytes() == np.array(slopes).tobytes()

    @settings(max_examples=100, deadline=None)
    @given(data=costs_and_flows())
    def test_antiderivs_match_per_object(self, data):
        # grouping rows and padding their integrated coefficients and trapezoid areas
        # keep each row's bits
        costs, x = data
        assert (ArcCostTable(costs).antiderivs(x).tobytes()
                == np.array([c.antiderivative(xi) for c, xi in zip(costs, x)]).tobytes())

    @pytest.mark.parametrize("beta", [0.5, 1.0, 1.5, 2.0, 3.0, 4.0])
    def test_bpr_powers_on_a_dense_grid(self, beta):
        # numpy raises to an array of exponents on another path than to a
        # scalar one, and at some exponents that path differs in the last bit
        # for a few percent of flows: too rare for the drawn examples above
        x = np.random.default_rng(0).uniform(0.0, 20.0, 2000)
        costs = [BPR(1.3, beta, 0.2)] * len(x)
        table = ArcCostTable(costs)
        assert np.array_equal(table.values(x), np.array([c(xi) for c, xi in zip(costs, x)]))
        assert np.array_equal(table.marginals(x),
                              np.array([MarginalCost(c)(xi) for c, xi in zip(costs, x)]))

    @pytest.mark.parametrize("beta", [0.0, 0.5, 1.0, 2.0])
    @pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0, 2.0])
    def test_monomial_log_powers_on_a_dense_grid(self, beta, alpha):
        # one kernel per (beta, alpha), with zeta = 0 rows and flows at 0,
        # where tau'(0) is 0, zeta (alpha + beta) or infinite
        rng = np.random.default_rng(0)
        x = rng.uniform(0.0, 20.0, 2000)
        x[::40] = 0.0
        zeta = rng.uniform(0.0, 3.0, 2000)
        zeta[::7] = 0.0
        costs = [MonomialLog(z, beta, alpha) for z in zeta]
        assert len(ArcCostTable(costs).groups) == 1
        assert_matches_per_object(costs, x)

    def test_piecewise_linear_at_and_past_breakpoints(self):
        # rows of 1, 2 and 4 breakpoints in one padded matrix, at every
        # breakpoint, between them and past the last one
        shapes = [PiecewiseLinear((0.0,), (0.7,)),
                  PiecewiseLinear((0.0, 1.5), (0.2, 1.1)),
                  PiecewiseLinear((0.0, 0.3, 1.1, 2.6), (0.1, 0.4, 0.4, 2.9))]
        costs, x = [], []
        for cost in shapes:
            bps = cost.breakpoints
            flows = [*bps, *(0.5 * (a + b) for a, b in zip(bps, bps[1:])), bps[-1] + 0.9, 40.0]
            costs += [cost] * len(flows)
            x += flows
        assert len(ArcCostTable(costs).groups) == 1
        assert_matches_per_object(costs, np.array(x))

    @settings(max_examples=100, deadline=None)
    @given(data=costs_and_flows(), at=st.integers(0, 7), neg=st.floats(-5.0, -1e-300))
    def test_negative_flow_rejected(self, data, at, neg):
        costs, x = data
        x[at % len(x)] = neg
        table = ArcCostTable(costs)
        with pytest.raises(ValueError):
            table.values(x)
        with pytest.raises(ValueError):
            table.marginals(x)

    def test_groups_by_kernel(self):
        costs = (BPR(1.0, 4.0, 0.1), Constant(1.0), BPR(2.0, 4.0, 0.0), BPR(1.0, 2.0, 0.0),
                 Affine(1.0, 0.5), MonomialLog(1.0, 1.0, 1.0), BPR(3.0, 1.0, 0.2))
        groups = [(list(idx), type(kernel).__name__) for idx, kernel in ArcCostTable(costs).groups]
        assert groups == [([0, 2], "BPRKernel"), ([1, 4, 6], "PolynomialKernel"),
                          ([3], "BPRKernel"), ([5], "MonomialLogKernel")]


@st.composite
def inside_a_piece(draw):
    """A piecewise-linear cost and a flow at least a tenth of a piece from its breakpoints."""
    cost = draw(piecewise_linear())
    bps = cost.breakpoints + (cost.breakpoints[-1] + 2.0,)
    k = draw(st.integers(0, len(bps) - 2))
    return cost, bps[k] + draw(st.floats(0.1, 0.9)) * (bps[k + 1] - bps[k])


SMOOTH_BASE = st.one_of(  # (cost, flow) where the cost is twice differentiable
    st.tuples(st.one_of(
        st.builds(Constant, PARAM),
        st.builds(Affine, PARAM, PARAM),
        st.builds(lambda cs: Polynomial(tuple(cs)), st.lists(PARAM, min_size=1, max_size=5)),
        st.builds(BPR, PARAM, st.sampled_from([0.0, 1.0, 1.5, 2.0, 3.0, 4.0]), PARAM),
    ), FLOW),
    st.tuples(st.one_of(  # tau'(0+) may be infinite: x > 0
        st.builds(BPR, PARAM, st.sampled_from([0.25, 0.5]), PARAM),
        st.builds(MonomialLog, PARAM, st.sampled_from([0.2, 1.0, 2.0]),
                  st.sampled_from([0.0, 0.5, 1.0])),
    ), st.floats(1e-3, 20.0)),
    inside_a_piece(),
)


@st.composite
def wrapped_smooth(draw):
    """A wrapper around a SMOOTH_BASE pair; its flow is >= 0.05 below or >= 1.1 times the anchor."""
    cost, x = draw(SMOOTH_BASE)
    u = draw(st.floats(0.1, 2.0))
    wrapper = draw(st.sampled_from([ScaledCost, TruncatedCost, TangentCost]))
    if wrapper is ScaledCost:
        return ScaledCost(cost, u), x / u
    beyond = x / (1.0 + u) > 0.0 and draw(st.booleans())  # a subnormal x would anchor at 0
    return wrapper(cost, x / (1.0 + u) if beyond else x * (1.0 + u) + 0.05), x


SMOOTH_COSTS = st.one_of(SMOOTH_BASE, wrapped_smooth())


@st.composite
def smooth_costs_and_flows(draw):
    costs, x = zip(*draw(st.lists(SMOOTH_COSTS, min_size=1, max_size=8)))
    return costs, np.array(x)


class TestDerivativeKernels:
    @settings(max_examples=300, deadline=None)
    @given(data=smooth_costs_and_flows())
    def test_match_derivative_and_marginal_slope(self, data):
        costs, x = data
        table = ArcCostTable(costs)
        d, md = table.derivs(x), table.marginal_derivs(x)
        assert not np.any(np.isnan(d)) and not np.any(np.isnan(md))
        assert np.array_equal(d, np.array([c.derivative(xi) for c, xi in zip(costs, x)]))
        # central difference of the marginal at x + step, where both samples are >= 0
        step = 1e-6 * (1.0 + x)
        slope = (table.marginals(x + 2.0 * step) - table.marginals(x)) / (2.0 * step)
        assert np.allclose(table.marginal_derivs(x + step), slope, rtol=1e-5, atol=5e-3)

    def test_bpr_beta_zero_is_exactly_flat(self):
        x = np.array([0.0, 1e-300, 1.0, 20.0])
        table = ArcCostTable([BPR(2.0, 0.0, 0.5)] * len(x))
        assert np.array_equal(table.derivs(x), np.zeros(4))
        assert np.array_equal(table.marginal_derivs(x), np.zeros(4))


@st.composite
def kinked_tangent(draw):
    """A tangent anchored where its inner's slope jumps, at a piecewise-linear breakpoint or a
    truncation's anchor: a random anchor seldom lands on one."""
    pwl = draw(piecewise_linear())
    if len(pwl.breakpoints) > 1 and draw(st.booleans()):
        return TangentCost(pwl, draw(st.sampled_from(pwl.breakpoints[1:])))
    anchor = draw(POSITIVE)
    return TangentCost(TruncatedCost(draw(BASE_COSTS), anchor), anchor)


SLOPE_COSTS = st.one_of(
    COSTS,
    kinked_tangent(),
    st.builds(ScaledCost, kinked_tangent(), POSITIVE),
    st.builds(TruncatedCost, kinked_tangent(), POSITIVE),
)


class TestSlopeBounds:
    @settings(max_examples=300, deadline=None)
    @given(cost=SLOPE_COSTS, hi=st.floats(0.05, 8.0))
    def test_bounds_hold_the_derivative(self, cost, hi):
        # deriv_min_on(hi) <= tau'(x) <= lipschitz_on(hi) on a grid of [0, hi)
        slopes = cost.derivative(np.linspace(0.0, hi, 65)[:-1])
        assert cost.deriv_min_on(hi) <= slopes.min()
        assert slopes.max() <= cost.lipschitz_on(hi)


GAME_COSTS = st.lists(st.one_of(
    st.builds(Affine, st.floats(0.0, 3.0), st.floats(0.05, 2.0)),
    st.lists(st.floats(0.0, 2.0), min_size=2, max_size=4).map(
        lambda cs: Polynomial((cs[0] + 0.05, *cs[1:]))),
    st.builds(BPR, st.floats(0.0, 3.0), st.sampled_from([0.0, 1.0, 2.0, 4.0]),
              st.floats(0.05, 2.0)),
    st.builds(Constant, st.floats(0.05, 3.0)),
), min_size=4, max_size=4)


class TestWrapperConsistency:
    @settings(max_examples=60, deadline=None)
    @given(costs=GAME_COSTS, demands=st.lists(st.floats(0.05, 3.0), min_size=2, max_size=2))
    def test_same_totals(self, shared_arc, costs, demands):
        tol = 1e-10
        game = unit_scale(Game(shared_arc, tuple(costs), np.array(demands)))
        # ScaledCost(c, 1.0) is c through the wrapper's kernel: values, tau' and the
        # marginal's slope all pass through WrapperKernel, and both solve by Newton steps
        wrapped = game.with_costs(ScaledCost(c, 1.0) for c in game.costs)
        for solve in (solve_we, solve_so):
            plain, through = solve(game, tol=tol), solve(wrapped, tol=tol)
            assert plain.converged and through.converged
            assert plain.optimality_certified and through.optimality_certified
            assert abs(plain.total_cost - through.total_cost) <= tol


def _former_rule(cost, shift, stretch, horizon):
    """The scalar perturbation rules of Constant, Affine, Polynomial and BPR before they moved
    into PolynomialKernel, in Python floats."""
    def stretch_by(height):
        return max(1.0 + stretch / max(height, 1e-12), 0.0) if height > 0 else 1.0

    if isinstance(cost, Constant):
        slope, c = abs(stretch) / max(horizon, 1e-12), max(cost.c + shift, cost.c * 0.5)
        return Constant(c) if slope == 0.0 else Affine(slope, c)
    if isinstance(cost, Affine):
        return Affine(max(cost.slope + stretch / max(horizon, 1e-12), 0.0),
                      max(cost.intercept + shift, 0.0))
    if isinstance(cost, BPR):
        return BPR(cost.q * stretch_by(cost.q * horizon**cost.beta), cost.beta,
                   max(cost.p + shift, 0.0))
    coeffs = np.asarray(cost.coefficients, dtype=float)
    rest = coeffs.copy()
    rest[0] = 0.0
    new = coeffs * stretch_by(float(np.polyval(rest[::-1], horizon)))
    new[0] = max(coeffs[0] + shift, 0.0)
    return Polynomial(tuple(new))


POLYNOMIAL_KERNEL_COSTS = st.one_of(
    st.builds(Constant, PARAM),
    st.builds(Affine, PARAM, PARAM),
    st.builds(lambda cs: Polynomial(tuple(cs)), st.lists(PARAM, min_size=1, max_size=5)),
    st.builds(BPR, PARAM, st.just(1.0), PARAM),
)


@settings(max_examples=80, deadline=None)
@given(data=st.data(), costs=st.lists(POLYNOMIAL_KERNEL_COSTS, min_size=1, max_size=6),
       horizon=st.floats(0.0, 4.0))
def test_polynomial_kernel_rules_are_the_families_rules(data, costs, horizon):
    """One PolynomialKernel holds four rules whose bits differ; each row takes its family's,
    alone (CostFunction.perturbed) and among the others."""
    moves = st.floats(-2.0, 2.0) | st.just(0.0)
    shift = np.array(data.draw(st.lists(moves, min_size=len(costs), max_size=len(costs))))
    stretch = np.array(data.draw(st.lists(moves, min_size=len(costs), max_size=len(costs))))
    want = [_former_rule(c, s, r, horizon) for c, s, r in zip(costs, shift, stretch)]
    rows = costs[0].kernel_key()[0](costs).perturbed(shift, stretch, horizon).costs()
    alone = [c.perturbed(s, r, horizon) for c, s, r in zip(costs, shift, stretch)]
    assert repr(rows) == repr(alone) == repr(want)
