"""Solvers against oracles that do not use them: PoA bounds and closed forms.

PoA <= 4/3 for affine costs (Roughgarden & Tardos, JACM 2002) and PoA <=
alpha(p) for non-negative polynomials of degree <= p (Roughgarden, JCSS 2003),
on any structure; the WE and SO of the two-link and Braess games in closed
form; and the same for two-link games of the other families, two of them
with tau'(0+) infinite, where the Newton step reads the curvature at a zero
flow as 0.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import optimize

from poalab import (
    BPR,
    Affine,
    Constant,
    Game,
    MonomialLog,
    PiecewiseLinear,
    Polynomial,
    ScaledCost,
    Structure,
    poa,
    solve_so,
    solve_we,
)
from conftest import unit_scale

TOL = 1e-12

BRAESS = Structure(("sv", "sw", "vt", "wt", "vw"), ("st",),
                   ((("sv", "vt"), ("sw", "wt"), ("sv", "vw", "wt")),))

COEFF = st.floats(0.0, 3.0)
DEMANDS = st.lists(st.floats(0.05, 5.0), min_size=2, max_size=2).map(np.array)


def alpha(p: int) -> float:
    """Roughgarden's PoA bound for polynomial costs of degree <= p."""
    return 1.0 / (1.0 - p * (p + 1.0) ** (-(p + 1.0) / p))


def polynomial(degree: int):
    # a positive constant term keeps every cost positive away from 0
    return st.one_of(
        st.lists(COEFF, min_size=degree + 1, max_size=degree + 1).map(
            lambda cs: Polynomial((cs[0] + 0.05, *cs[1:]))),
        st.builds(BPR, COEFF, st.integers(0, degree).map(float), st.floats(0.05, 3.0)),
    )


class TestPoABounds:
    @settings(max_examples=60, deadline=None)
    @given(costs=st.lists(st.builds(Affine, COEFF, st.floats(0.05, 3.0)), min_size=4, max_size=4),
           demands=DEMANDS)
    def test_affine_at_most_four_thirds(self, shared_arc, costs, demands):
        rho = poa(unit_scale(Game(shared_arc, tuple(costs), demands)), tol=TOL)
        assert 1.0 - 1e-9 <= rho <= 4.0 / 3.0 + 1e-9

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), degree=st.integers(1, 4), demands=DEMANDS)
    def test_polynomial_at_most_alpha(self, shared_arc, data, degree, demands):
        costs = data.draw(st.lists(polynomial(degree), min_size=4, max_size=4))
        rho = poa(unit_scale(Game(shared_arc, tuple(costs), demands)), tol=TOL)
        assert 1.0 - 1e-9 <= rho <= alpha(degree) + 1e-9

    @pytest.mark.parametrize("degree", [1, 2, 3, 4, 6])
    def test_pigou_attains_alpha(self, two_link, degree):
        # x**p against 1 at unit demand: the bound is tight
        game = Game(two_link, (BPR(1.0, float(degree), 0.0), Constant(1.0)), np.array([1.0]))
        assert poa(game, tol=TOL) == pytest.approx(alpha(degree), abs=1e-9)


def two_link_cost(a, b, d, x1):
    return x1 * (a[0] * x1 + b[0]) + (d - x1) * (a[1] * (d - x1) + b[1])


def assert_costs(game, we_cost, so_cost):
    """WE and SO total costs at TOL against their closed forms.

    An eps-approximate WE may miss the WE cost by |A| sqrt(L eps) T + eps
    (L the costs' Lipschitz constant on [0, T]), an order above eps where the
    WE sits on a tie; an SO flow with gap eps misses C* by at most eps.
    """
    t = game.total_demand
    lip = max(c.lipschitz_on(t) for c in game.costs)
    we, so = solve_we(game, tol=TOL), solve_so(game, tol=TOL)
    assert we.converged and so.converged
    we_slack = len(game.costs) * np.sqrt(lip * TOL) * t + TOL
    assert abs(we.total_cost - we_cost) <= we_slack + 1e-12 * we_cost
    assert -1e-12 * so_cost <= so.total_cost - so_cost <= TOL + 1e-12 * so_cost
    return we, so


class TestClosedForms:
    @settings(max_examples=60, deadline=None)
    @given(a=st.lists(st.floats(0.05, 3.0), min_size=2, max_size=2),
           b=st.lists(st.floats(0.0, 2.0), min_size=2, max_size=2), d=st.floats(0.05, 5.0))
    def test_two_link_affine(self, two_link, a, b, d):
        game = Game(two_link, (Affine(a[0], b[0]), Affine(a[1], b[1])), np.array([d]))
        # equal (marginal) costs on both links, or everything on the cheaper one
        x_we = min(max((b[1] - b[0] + a[1] * d) / (a[0] + a[1]), 0.0), d)
        x_so = min(max((b[1] - b[0] + 2.0 * a[1] * d) / (2.0 * (a[0] + a[1])), 0.0), d)
        we, so = assert_costs(game, two_link_cost(a, b, d, x_we), two_link_cost(a, b, d, x_so))
        # both objectives are strongly convex along the one free direction
        slack = np.sqrt(2.0 * TOL / (a[0] + a[1]))
        assert abs(we.flow.values[0] - x_we) <= slack
        assert abs(so.flow.values[0] - x_so) <= slack

    @settings(max_examples=60, deadline=None)
    @given(c=st.floats(0.01, 0.9), d=st.floats(0.05, 3.0))
    def test_braess(self, c, d):
        # x on sv and wt, 1 on sw and vt, c on the bridge vw; by symmetry the
        # two outer paths carry y each and the zigzag d - 2y
        game = Game(BRAESS, (Affine(1.0, 0.0), Constant(1.0), Constant(1.0), Affine(1.0, 0.0),
                             Constant(c)), np.array([d]))
        if d + c <= 1.0:
            we_cost = d * (2.0 * d + c)  # everyone zigzags
        elif d <= 2.0 * (1.0 - c):
            we_cost = d * (2.0 - c)  # all three paths cost 2 - c
        else:
            we_cost = d * (0.5 * d + 1.0)  # the bridge is unused
        y = min(max(d - 0.5 * (1.0 - c), 0.0), 0.5 * d)
        so_cost = 2.0 * (d - y) ** 2 + 2.0 * y + c * (d - 2.0 * y)
        assert_costs(game, we_cost, so_cost)


def root_in_0_2(fn) -> float:
    """The root of fn in [0, 2] by brentq, an oracle apart from the solvers' step."""
    return optimize.brentq(fn, 0.0, 2.0, xtol=1e-15)


LN2 = math.log(2.0)

# (upper cost, lower cost, demand, upper WE flow, upper SO flow or None)
TWO_LINK_ORACLES = [
    pytest.param(BPR(1.0, 0.5, 0.0), Constant(0.5), 1.0, 0.25, 1.0 / 9.0, id="sqrt"),
    # x**0.25 = 0.8 and 1.25 x**0.25 = 0.8
    pytest.param(BPR(1.0, 0.25, 0.0), Constant(0.8), 1.0, 0.8**4, 0.64**4, id="fourth-root"),
    pytest.param(PiecewiseLinear((0.0, 1.0, 2.0), (0.0, 1.0, 3.0)), Constant(1.5), 2.0,
                 1.25, None, id="piecewise-linear"),
    # SO: where the marginal of the total cost, x^2 ln(x + 1) or x ln(x + 1), meets ln 2
    pytest.param(MonomialLog(1.0, 1.0, 1.0), Constant(LN2), 2.0, 1.0,
                 root_in_0_2(lambda x: 2.0 * x * math.log1p(x) + x * x / (x + 1.0) - LN2),
                 id="monomial-log"),
    pytest.param(MonomialLog(1.0, 0.0, 1.0), Constant(LN2), 2.0, 1.0,
                 root_in_0_2(lambda x: math.log1p(x) + x / (x + 1.0) - LN2), id="log"),
    # alpha + beta < 1; the marginal is tau(x) (1.2 + 0.3 x / ((x + 1) ln(x + 1)))
    pytest.param(MonomialLog(1.0, 0.2, 0.3), Constant(LN2**0.3), 2.0, 1.0,
                 root_in_0_2(lambda x: x**0.2 * math.log1p(x) ** 0.3 * (
                     1.2 + (0.3 * x / ((x + 1.0) * math.log1p(x)) if x else 0.3)) - LN2**0.3),
                 id="monomial-log-sublinear"),
    pytest.param(ScaledCost(Affine(1.0, 0.0), 2.0), Constant(1.0), 1.0, 0.5, 0.25, id="scaled"),
]


class TestTwoLinkOracles:
    @pytest.mark.parametrize("upper, lower, d, x_we, x_so", TWO_LINK_ORACLES)
    def test_two_link(self, two_link, upper, lower, d, x_we, x_so):
        game = Game(two_link, (upper, lower), np.array([d]))
        # each solution splits the demand with at least 1/9 on either link and
        # cost slopes >= 1/3 nearby, so a gap of TOL moves the flow by < 1e-9
        solves = [(solve_we, x_we)] + ([(solve_so, x_so)] if x_so is not None else [])
        for solve, x in solves:
            report = solve(game, tol=TOL)
            assert report.converged and report.optimality_certified
            assert report.flow.values[0] == pytest.approx(x, abs=1e-9)

