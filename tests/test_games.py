"""Structure validation, flows, total cost, and game equivalence."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from poalab import (
    BPR,
    Affine,
    Constant,
    Game,
    GameValidationError,
    PathFlow,
    PiecewiseLinear,
    Structure,
    StructureMismatchError,
    arc_flows,
    games_equivalent,
    total_cost_sandwich,
    path_cost,
    solve_so,
    solve_we,
    total_cost,
)
from poalab.games import TOTAL_COST_RTOL, InfeasibleFlowError, _checked_total, _price

from conftest import random_game


class TestStructureValidation:
    def test_every_arc_must_be_used(self):
        with pytest.raises(GameValidationError) as err:
            Structure(("a", "b", "ghost"), ("k",), ((("a",), ("b",)),))
        assert err.value.code == "path_coverage"

    def test_at_least_two_paths_per_od(self):
        with pytest.raises(GameValidationError) as err:
            Structure(("a",), ("k",), ((("a",),),))
        assert err.value.code == "path_coverage"

    def test_path_sets_disjoint_across_ods(self):
        with pytest.raises(GameValidationError):
            Structure(("a", "b"), ("k1", "k2"),
                      ((("a",), ("b",)), (("a",), ("b",))))

    def test_paths_are_arc_sets(self):
        st_ = Structure(("a", "b"), ("k",), ((("a", "a"), ("b",)),))
        assert st_.paths[0][0] == ("a",)


def test_arc_pairs_marks_the_pairs_with_a_path_through_each_arc(shared_arc):
    # paths: k1 on (a) and (c, d), k2 on (b) and (c)
    expected = [[1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [1.0, 0.0]]
    assert shared_arc.arc_pairs.tolist() == expected
    assert not shared_arc.arc_pairs.flags.writeable


class TestGameValidation:
    def test_zero_total_demand_rejected(self, two_link):
        with pytest.raises(GameValidationError) as err:
            Game(two_link, (Constant(1.0), Constant(1.0)), np.array([0.0]))
        assert err.value.code == "positivity"

    def test_vanishing_cost_rejected(self, two_link):
        flat_zero = PiecewiseLinear((0.0, 0.5, 1.0), (0.0, 0.0, 1.0))
        with pytest.raises(GameValidationError) as err:
            Game(two_link, (flat_zero, Constant(1.0)), np.array([1.0]))
        assert err.value.code == "positivity"

    def test_zero_single_demand_allowed(self, shared_arc):
        g = Game(shared_arc,
                 (Affine(1, 0.5), Affine(1, 0.5), Affine(1, 0.5), Affine(1, 0.5)),
                 np.array([1.0, 0.0]))
        assert g.total_demand == 1.0

    def test_demands_are_immutable(self, pigou):
        with pytest.raises(ValueError):
            pigou.demands[0] = 2.0


class TestArcFlows:
    def test_parallel_identity(self, pigou):
        assert np.allclose(arc_flows(pigou, PathFlow([1.0, 0.0])), [1.0, 0.0])
        assert np.allclose(arc_flows(pigou, PathFlow([0.5, 0.5])), [0.5, 0.5])

    def test_shared_arc_sums(self, shared_arc):
        g = Game(shared_arc,
                 (Affine(1, 0.1), Affine(1, 0.1), Affine(1, 0.1), Affine(1, 0.1)),
                 np.array([0.7, 0.4]))
        flow = PathFlow([0.4, 0.3, 0.0, 0.4])  # paths (a), (c,d), (b), (c)
        fa = arc_flows(g, flow)
        arc_index = {a: i for i, a in enumerate(shared_arc.arcs)}
        assert fa[arc_index["c"]] == pytest.approx(0.7)

    def test_infeasible_flow_rejected(self, pigou):
        with pytest.raises(InfeasibleFlowError):
            arc_flows(pigou, PathFlow([0.7, 0.7]))

    def test_bounded_by_total_demand(self, shared_arc):
        rng = np.random.default_rng(5)
        g = random_game(shared_arc, rng, families=["affine"] * 4)
        f = solve_we(g, tol=1e-10).flow
        assert np.all(arc_flows(g, f) <= g.total_demand + 1e-9)

    @settings(max_examples=30, deadline=None)
    @given(t=st.floats(0.0, 1.0), alpha=st.floats(0.0, 1.0))
    def test_linearity(self, two_link, t, alpha):
        g = Game(two_link, (Affine(1, 0.1), Affine(1, 0.1)), np.array([1.0]))
        f1 = np.array([t, 1 - t])
        f2 = np.array([1 - t, t])
        mix = alpha * f1 + (1 - alpha) * f2
        lhs = arc_flows(g, PathFlow(mix))
        rhs = alpha * arc_flows(g, PathFlow(f1)) + (1 - alpha) * arc_flows(g, PathFlow(f2))
        assert np.allclose(lhs, rhs, atol=1e-12)


class TestCosts:
    def test_pigou_path_costs(self, pigou):
        flow = PathFlow([1.0, 0.0])
        assert path_cost(pigou, flow, 0) == pytest.approx(1.0)
        assert path_cost(pigou, flow, 1) == pytest.approx(1.0)
        assert path_cost(pigou, PathFlow([0.5, 0.5]), 0) == pytest.approx(0.5)

    def test_unknown_path(self, pigou):
        with pytest.raises(KeyError):
            path_cost(pigou, PathFlow([1.0, 0.0]), 7)

    def test_pigou_total_cost(self, pigou):
        assert total_cost(pigou, PathFlow([1.0, 0.0])) == pytest.approx(1.0)
        assert total_cost(pigou, PathFlow([0.5, 0.5])) == pytest.approx(0.75)

    def test_constant_costs_count_path_lengths(self, shared_arc):
        c = 0.8
        g = Game(shared_arc, tuple(Constant(c) for _ in range(4)),
                 np.array([1.0, 2.0]))
        flow = PathFlow([1.0, 0.0, 2.0, 0.0])  # single-arc paths only
        assert total_cost(g, flow) == pytest.approx((1.0 + 2.0) * c)

    def test_both_summation_forms_agree_on_random_games(self, shared_arc):
        rng = np.random.default_rng(17)
        for _ in range(25):
            g = random_game(shared_arc, rng)
            split = rng.dirichlet([1, 1])
            f = PathFlow(np.concatenate([g.demands[0] * split,
                                         g.demands[1] * rng.dirichlet([1, 1])]))
            total_cost(g, f)  # raises if the two forms disagree


class TestEquivalence:
    def test_reflexive(self, pigou):
        assert games_equivalent(pigou, pigou)

    def test_tail_changes_do_not_matter(self, two_link):
        # costs agree on [0, T(d)] = [0, 1] but diverge beyond
        g1 = Game(two_link,
                  (PiecewiseLinear((0.0, 1.0), (0.5, 1.0)), Constant(1.0)),
                  np.array([1.0]))
        g2 = Game(two_link,
                  (PiecewiseLinear((0.0, 1.0, 2.0), (0.5, 1.0, 9.0)), Constant(1.0)),
                  np.array([1.0]))
        assert games_equivalent(g1, g2)

    def test_demand_difference_matters(self, two_link):
        g1 = Game(two_link, (Affine(1, 0.1), Constant(1.0)), np.array([1.0]))
        g2 = g1.with_demands([1.2])
        assert not games_equivalent(g1, g2)

    def test_structure_mismatch_raises(self, pigou, three_link):
        other = Game(three_link,
                     (Affine(1, 0.1), Affine(1, 0.1), Affine(1, 0.1)),
                     np.array([1.0]))
        with pytest.raises(StructureMismatchError):
            games_equivalent(pigou, other)


class TestCostSandwich:
    def test_after_solving(self, shared_arc):
        rng = np.random.default_rng(23)
        for _ in range(10):
            g = random_game(shared_arc, rng)
            we = solve_we(g, tol=1e-10)
            so = solve_so(g, tol=1e-10)
            ok, lower, upper = total_cost_sandwich(g, so.total_cost, we.total_cost)
            assert ok, (lower, so.total_cost, we.total_cost, upper)


def test_price_gives_each_row_the_bits_of_that_row_alone():
    # twenty four-arc paths over twelve arcs: on small structures every
    # product order gives the same bits, and the test would show nothing
    paths = list(itertools.combinations("abcdefghijkl", 4))[:20]
    st = Structure(tuple("abcdefghijkl"), ("k1", "k2"), (tuple(paths[0::2]), tuple(paths[1::2])))
    rng = np.random.default_rng(4)
    f = rng.exponential(size=(64, st.n_paths)) * 10.0 ** rng.uniform(-3, 3, (64, st.n_paths))

    def evaluate(x):
        return 0.3 + x * x

    batch = _price(st, evaluate, f)
    for b, row in enumerate(f):
        for got, want in zip(batch, _price(st, evaluate, row)):
            assert got[b].tobytes() == want.tobytes()


@pytest.mark.parametrize("rows", [None, 3])
def test_checked_total_rejects_sums_beyond_the_relative_tolerance(rows):
    # the two total-cost forms may differ by TOTAL_COST_RTOL * max(1, |arc sum|),
    # for one game (float sums) as for one game per row
    def forms(arc_sum, path_sum):
        arc_f, f = np.array([arc_sum, 0.0]), np.array([path_sum, 0.0])
        ones = np.ones(2)
        if rows is None:
            return f, arc_f, ones, ones
        return (np.tile(v, (rows, 1)) for v in (f, arc_f, ones, ones))

    for total in (0.5, 1.0, 1e6):
        slack = TOTAL_COST_RTOL * max(1.0, total)
        assert np.all(_checked_total(*forms(total, total + 0.5 * slack)) == total)
        with pytest.raises(AssertionError, match="total cost forms disagree"):
            _checked_total(*forms(total, total + 2.0 * slack))
