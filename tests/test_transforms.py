"""Normalization operators, their metric action, and auxiliary extensions."""

import numpy as np
import pytest

from poalab import (
    BPR,
    Affine,
    Constant,
    Game,
    MonomialLog,
    PathFlow,
    Polynomial,
    ScaledCost,
    cost_normalize,
    demand_normalize,
    dist,
    games_equivalent,
    metric_shrinking_trace,
    poa,
    solve_so,
    solve_we,
    total_cost,
    truncate_extend,
)

from conftest import random_game

TOL = 1e-12


class TestCostNormalize:
    def test_identity(self, pigou):
        assert cost_normalize(pigou, 1.0) is pigou

    def test_pigou_halved(self, pigou):
        g = cost_normalize(pigou, 2.0)
        assert g.costs[0](1.0) == pytest.approx(0.5)
        assert g.costs[1](0.3) == pytest.approx(0.5)
        assert poa(g, tol=TOL) == pytest.approx(4.0 / 3.0, abs=1e-9)

    def test_metric_scaling_on_same_demand_pairs(self, two_link):
        rng = np.random.default_rng(3)
        for factor in (0.5, 2.0, 10.0):
            g1 = random_game(two_link, rng, families=["affine", "bpr"])
            g2 = Game(two_link, random_game(two_link, rng).costs, g1.demands.copy())
            d0 = dist(g1, g2)
            d1 = dist(cost_normalize(g1, factor), cost_normalize(g2, factor))
            assert d1.value * factor == pytest.approx(
                d0.value, abs=(d0.error_bound + d1.error_bound) * factor + 1e-12)


class TestDemandNormalize:
    def test_identity(self, pigou):
        assert demand_normalize(pigou, 1.0) is pigou

    def test_unit_total(self, shared_arc):
        rng = np.random.default_rng(5)
        g = random_game(shared_arc, rng)
        unit = demand_normalize(g, g.total_demand)
        assert unit.total_demand == pytest.approx(1.0, abs=1e-12)

    def test_poa_invariant(self, pigou, fig3a):
        for g in (pigou, fig3a):
            base = poa(g, tol=TOL)
            for factor in (0.5, 2.0, 10.0):
                assert poa(demand_normalize(g, factor), tol=TOL) == pytest.approx(
                    base, abs=1e-7)

    def test_monomial_log_wraps(self, two_link):
        g = Game(two_link, (MonomialLog(1.0, 1.0, 1.0), Constant(1.0)), np.array([1.0]))
        scaled = demand_normalize(g, 2.0)
        assert isinstance(scaled.costs[0], ScaledCost)
        assert scaled.costs[0](0.5) == pytest.approx(g.costs[0](1.0))

    def test_flow_correspondence(self, fig3a):
        factor = 2.0
        lam = demand_normalize(fig3a, factor)
        we = solve_we(fig3a, tol=TOL)
        we_lam = solve_we(lam, tol=TOL)
        # flows correspond by the factor and arc costs match
        assert np.allclose(we.flow.values, factor * we_lam.flow.values, atol=1e-8)
        arc = fig3a.arc_cost_values(fig3a.structure.incidence @ we.flow.values)
        arc_lam = lam.arc_cost_values(lam.structure.incidence @ we_lam.flow.values)
        assert np.allclose(arc, arc_lam, atol=1e-8)
        # C(g, f) = factor * C(lambda(g), f / factor)
        f = PathFlow([0.3, 0.7])
        assert total_cost(fig3a, f) == pytest.approx(
            factor * total_cost(lam, PathFlow(f.values / factor)), abs=1e-10)


class TestTruncateExtend:
    def test_shrinking_total_preserves_costs_below(self, pigou):
        g = truncate_extend(pigou, 0.5)
        xs = np.linspace(0, 0.5, 33)
        assert np.allclose(np.asarray(g.costs[0](xs)), xs)
        assert g.total_demand == pytest.approx(0.5)

    def test_constant_extension_freezes(self, pigou):
        g = truncate_extend(pigou, 2.0, mode="constant")
        anchor = 1.0
        assert g.costs[0](anchor + 1.0) == pytest.approx(g.costs[0](anchor))

    def test_tangent_extension_of_square(self, two_link):
        base = Game(two_link, (Polynomial((0.0, 0.0, 1.0)), Constant(1.0)),
                    np.array([1.0]))
        g = truncate_extend(base, 2.0, mode="tangent")
        assert g.costs[0](1.5) == pytest.approx(1.0 + 2.0 * 0.5)

    def test_equivalence_when_not_extending(self, pigou):
        g = truncate_extend(pigou, 1.0)
        assert games_equivalent(pigou, g)

    def test_not_extending_keeps_the_certified_optimum(self, two_link):
        # a TruncatedCost anchored at T(d) has a marginal that falls there, which
        # leaves the SO uncertified; on [0, T(d)] no cost needs an extension
        base = Game(two_link, (BPR(1.0, 2.0, 0.0), Affine(1.0, 0.2)), np.array([1.0]))
        g = truncate_extend(base, 1.0)
        so = solve_so(g)
        assert so.optimality_certified is True
        assert abs(so.total_cost - solve_so(base).total_cost) <= 1e-12

    def test_tangent_mode_needs_differentiable_costs(self, two_link):
        from poalab import PiecewiseLinear
        g = Game(two_link,
                 (PiecewiseLinear((0.0, 1.0), (0.5, 1.5)), Constant(1.0)),
                 np.array([1.0]))
        with pytest.raises(ValueError):
            truncate_extend(g, 2.0, mode="tangent")


@pytest.mark.parametrize("value", [0.0, -1.0, float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize("transform, name", [
    (cost_normalize, "factor"), (demand_normalize, "factor"), (truncate_extend, "new_total"),
])
def test_factor_must_be_finite_and_positive(pigou, transform, name, value):
    # NaN passes a `<= 0` test, and inf used to fail later on the scaled costs or demands
    with pytest.raises(ValueError, match=f"^{name} must be finite and > 0, got"):
        transform(pigou, value)


class TestShrinkingMechanism:
    def test_distance_shrinks_poa_gap_fixed(self, pigou, two_link):
        other = Game(two_link, (Constant(1.0), Constant(1.0)), np.array([1.0]))
        trace = metric_shrinking_trace(pigou, other, 10.0, 3, tol=TOL)
        d0, delta0 = trace[0]
        assert delta0 == pytest.approx(1.0 / 3.0, abs=1e-9)
        for n, (d, delta) in enumerate(trace):
            assert d == pytest.approx(d0 / 10.0**n, rel=1e-9)
            assert delta == pytest.approx(delta0, abs=1e-9)
