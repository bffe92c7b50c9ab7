"""The compiled arc-cost table against the per-object cost API, bit for bit."""

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
)
from poalab.costs import MarginalCost
from poalab.games import ArcCostTable

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

COSTS = st.one_of(
    BASE_COSTS,
    st.builds(ScaledCost, BASE_COSTS, POSITIVE),
    st.builds(TruncatedCost, BASE_COSTS, POSITIVE),
    st.builds(TangentCost, BASE_COSTS, POSITIVE),
)

FLOW = st.one_of(st.just(0.0), st.floats(0.0, 20.0))


@st.composite
def costs_and_flows(draw):
    costs = draw(st.lists(COSTS, min_size=1, max_size=8))
    x = np.array(draw(st.lists(FLOW, min_size=len(costs), max_size=len(costs))))
    return costs, x


class TestArcCostTable:
    @settings(max_examples=300, deadline=None)
    @given(data=costs_and_flows())
    def test_matches_per_object_costs(self, data):
        costs, x = data
        table = ArcCostTable(costs)
        assert np.array_equal(table.values(x), np.array([c(xi) for c, xi in zip(costs, x)]))
        assert np.array_equal(table.marginals(x),
                              np.array([MarginalCost(c)(xi) for c, xi in zip(costs, x)]))

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
                          ([3], "BPRKernel"), ([5], "CallKernel")]
