"""Equilibrium and optimum solvers against oracles and approximation bounds."""

import dataclasses
import gc
import json
import math
import pathlib
import subprocess
import sys
import weakref
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import brentq

from poalab import (
    BPR,
    Affine,
    Constant,
    Game,
    InvariantError,
    MonomialLog,
    PathFlow,
    PiecewiseLinear,
    Polynomial,
    Structure,
    TangentCost,
    TruncatedCost,
    UnconvergedError,
    approximation_threshold,
    check_approximation_bounds,
    cost_normalize,
    demand_normalize,
    poa,
    poa_upper_bound,
    potential,
    solve_so,
    solve_we,
    sweep,
    total_cost,
)
from poalab import cli, solvers
from poalab.games import ArcCostTable, _dot, _price
from poalab.io import game_from_dict, load_game

from conftest import child_env, make_two_link_affine, random_game, unit_scale

TOL = 1e-12


def so_grid_oracle_two_link(game, resolution=1e-6):
    """1-D grid minimizer of the total cost for a two-parallel-link game."""
    t = np.arange(0.0, 1.0 + resolution, resolution) * game.total_demand
    c0 = np.asarray(game.costs[0](t), dtype=float)
    c1 = np.asarray(game.costs[1](game.total_demand - t), dtype=float)
    costs = t * c0 + (game.total_demand - t) * c1
    i = int(np.argmin(costs))
    return float(costs[i]), float(t[i])


class TestWardrop:
    def test_pigou(self, pigou):
        rep = solve_we(pigou, tol=TOL)
        assert rep.converged
        assert np.allclose(rep.flow.values, [1.0, 0.0], atol=1e-9)
        assert rep.total_cost == pytest.approx(1.0, abs=1e-9)
        assert rep.duality_gap <= TOL

    def test_two_link_affine_split(self, fig3a):
        rep = solve_we(fig3a, tol=TOL)
        eps = 0.01
        assert np.allclose(rep.flow.values, [(1 + eps) / 2, (1 - eps) / 2], atol=1e-10)

    def test_identical_links_equal_costs(self, fig3b):
        rep = solve_we(fig3b, tol=TOL)
        arc = fig3b.structure.incidence @ rep.flow.values
        costs = fig3b.arc_cost_values(arc)
        assert costs[0] == pytest.approx(costs[1], abs=1e-9)
        assert costs[0] == pytest.approx(0.5, abs=1e-9)

    def test_gap_equals_threshold(self, shared_arc):
        rng = np.random.default_rng(3)
        g = random_game(shared_arc, rng, families=["affine", "bpr", "affine", "poly"])
        rep = solve_we(g, tol=1e-11)
        assert rep.duality_gap == pytest.approx(
            approximation_threshold(g, rep.flow), abs=1e-13)

    def test_unconverged_report_not_exception(self, fig3a):
        rep = solve_we(fig3a, tol=1e-14, max_iter=0)
        assert not rep.converged

    def test_zero_demand_od_pair(self, shared_arc):
        g = Game(shared_arc,
                 (Affine(1, 0.2), Affine(1, 0.2), Affine(1, 0.2), Affine(1, 0.2)),
                 np.array([1.0, 0.0]))
        rep = solve_we(g, tol=TOL)
        assert rep.converged
        lo, hi = shared_arc.path_slices[1]
        assert np.all(rep.flow.values[lo:hi] == 0.0)


class TestSocialOptimum:
    def test_pigou_against_grid_oracle(self, pigou):
        oracle_cost, oracle_split = so_grid_oracle_two_link(pigou)
        rep = solve_so(pigou, tol=TOL)
        assert rep.optimality_certified
        assert rep.total_cost == pytest.approx(oracle_cost, abs=1e-6)
        assert rep.total_cost == pytest.approx(0.75, abs=1e-9)
        assert np.allclose(rep.flow.values, [0.5, 0.5], atol=1e-6)
        assert abs(rep.flow.values[0] - oracle_split) < 1e-5

    def test_equal_degree_monomials_so_equals_we(self, two_link):
        g = Game(two_link, (BPR(1.0, 2.0, 0.0), BPR(3.0, 2.0, 0.0)), np.array([1.0]))
        we = solve_we(g, tol=TOL)
        so = solve_so(g, tol=TOL)
        arc_we = g.arc_cost_values(g.structure.incidence @ we.flow.values)
        arc_so = g.arc_cost_values(g.structure.incidence @ so.flow.values)
        assert np.allclose(arc_we, arc_so, atol=1e-8)
        assert we.total_cost == pytest.approx(so.total_cost, abs=1e-10)

    def test_constant_costs_any_flow_optimal(self, two_link):
        g = Game(two_link, (Constant(2.0), Constant(2.0)), np.array([1.5]))
        rep = solve_so(g, tol=TOL)
        assert rep.total_cost == pytest.approx(1.5 * 2.0, abs=1e-10)

    def test_nonconvex_marginal_downgrades_certificate(self, two_link):
        bumpy = PiecewiseLinear((0.0, 1.0, 3.0), (0.1, 3.0, 3.2))
        g = Game(two_link, (bumpy, Constant(2.0)), np.array([1.0]))
        rep = solve_so(g, tol=1e-9)
        assert not rep.optimality_certified

    def test_small_marginal_fall_downgrades_certificate(self, two_link):
        # the marginal falls by 5e-4 at x = 0.5, too little for a sample of
        # [0, 0.9] at 512 points to see against the rise of 2 per unit flow
        kink = PiecewiseLinear((0.0, 0.5, 1.0), (0.0, 0.5, 0.9995))
        g = Game(two_link, (kink, kink), np.array([0.9]))
        assert not solve_so(g, tol=1e-9).optimality_certified

    @pytest.mark.parametrize("demand, certified", [(0.6, True), (0.75, False), (0.9, False)])
    def test_truncation_of_a_rising_cost_downgrades_certificate(self, two_link, demand,
                                                                certified):
        # past the anchor the marginal is the frozen cost 0.75, below its left limit 1.5
        frozen = TruncatedCost(BPR(1.0, 1.0, 0.0), 0.75)
        g = Game(two_link, (frozen, Constant(1.2)), np.array([demand]))
        assert solve_so(g, tol=1e-9).optimality_certified is certified

    @pytest.mark.parametrize("kinked, bpr, demand", [
        (PiecewiseLinear((0.0, 0.57, 2.34), (0.24, 0.55, 1.2)), BPR(1.19, 2.0, 0.32), 0.95),
        (PiecewiseLinear((0.0, 0.7, 1.175, 1.23), (0.09, 1.4, 1.95, 2.0)), BPR(1.83, 2.0, 0.99),
         1.235)], ids=["three-breakpoints", "four-breakpoints"])
    def test_uncertified_so_finds_the_global_optimum(self, two_link, kinked, bpr, demand):
        # a slope that falls at a breakpoint leaves the SO uncertified; with Newton's step
        # alone as the step candidate, the descent stops 7.8e-4 and 6.5e-3 above the minimum
        g = Game(two_link, (kinked, bpr), np.array([demand]))
        rep = solve_so(g)
        assert not rep.optimality_certified
        assert rep.total_cost <= so_grid_oracle_two_link(g, resolution=5e-6)[0] + 1e-9

    @pytest.mark.parametrize("solve", [solve_we, solve_so])
    @pytest.mark.parametrize("tol", [0.0, -1e-10, math.inf, math.nan])
    def test_rejects_a_tolerance_that_is_not_finite_and_positive(self, pigou, solve, tol):
        # an infinite tol would stop both solves at once as converged, and Pigou's PoA read 1
        with pytest.raises(ValueError, match="tol"):
            solve(pigou, tol=tol)


# two games of the check-mixed benchmark corpus (corpus seed 0): each has a piecewise-linear
# arc a whose slope falls at 1.6, above the most flow any feasible point puts on a (the
# demand of pair k1) but below the total demand
REACH_CERTIFIED_GAMES = {
    "corpus-041": {
        "schema": 1,
        "structure": {"arcs": ["a", "b", "c", "d"], "od_pairs": [
            {"id": "k1", "demand": 1.5232268772256328, "paths": [["a"], ["c", "d"]]},
            {"id": "k2", "demand": 0.7352688204782777, "paths": [["b"], ["c"]]}]},
        "costs": {
            "a": {"family": "piecewise_linear", "params": {
                "breakpoints": [0.0, 0.7, 1.6, 2.5],
                "values": [0.26977672723350055, 0.7284937612519278, 1.693301328896856,
                           2.4104810046950558]}},
            "b": {"family": "polynomial", "params": {"coefficients": [
                0.6635152605122232, 0.35271681906602315, 0.35465541853162486]}},
            "c": {"family": "affine", "params": {"slope": 0.7618208371775883,
                                                 "intercept": 0.2374410333857212}},
            "d": {"family": "bpr", "params": {"q": 1.4254433322599565, "beta": 1.0,
                                              "p": 0.5676695157867506}}}},
    "corpus-053": {
        "schema": 1,
        "structure": {"arcs": ["a", "b", "c", "d"], "od_pairs": [
            {"id": "k1", "demand": 1.328487985144427, "paths": [["a"], ["c", "d"]]},
            {"id": "k2", "demand": 0.9920200204562176, "paths": [["b"], ["c"]]}]},
        "costs": {
            "a": {"family": "piecewise_linear", "params": {
                "breakpoints": [0.0, 0.7, 1.6, 2.5],
                "values": [0.4726540348532591, 0.6132049494227526, 1.2539606248881257,
                           1.3429950729768358]}},
            "b": {"family": "polynomial", "params": {"coefficients": [
                0.2866349643286912, 0.16837627714829684, 0.46214322601811497]}},
            "c": {"family": "bpr", "params": {"q": 1.2551668232193007, "beta": 3.0,
                                              "p": 0.7411754542705203}},
            "d": {"family": "affine", "params": {"slope": 1.91733929350814,
                                                 "intercept": 0.9402151390614678}}}},
}


class TestReachableRangeCertificate:
    """SO convexity is certified on [0, R_a], R_a the demand that can reach arc a."""

    @pytest.fixture(params=sorted(REACH_CERTIFIED_GAMES))
    def doc(self, request):
        return REACH_CERTIFIED_GAMES[request.param]

    def test_so_is_certified(self, doc):
        game = game_from_dict(doc)
        a = game.costs[0]
        assert not a.has_nondecreasing_marginal(game.total_demand)
        assert a.has_nondecreasing_marginal(float(game.demands[0]))
        assert solve_so(game).optimality_certified

    def test_so_against_a_grid_of_both_splits(self, doc):
        game = game_from_dict(doc)
        (d1, d2), (a, b, c, d) = game.demands, game.costs
        x1 = np.linspace(0.0, d1, 1001)[:, None]  # pair k1's flow on path [a]
        x2 = np.linspace(0.0, d2, 1001)[None, :]  # pair k2's flow on path [b]
        shared = (d1 - x1) + (d2 - x2)
        grid = (x1 * a(x1) + x2 * b(x2) + shared * c(shared) + (d1 - x1) * d(d1 - x1))
        assert solve_so(game).total_cost <= grid.min() + 1e-9

    def test_check_exits_0(self, doc, tmp_path):
        path = tmp_path / "game.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert cli.main(["check", "--game", str(path)]) == 0


class TestNewtonStep:
    @pytest.fixture()
    def flat_start(self, three_link):
        # all demand starts on the constant link, and BPR beta = 2 has
        # tau'(0) = 0: the first swaps see zero curvature and must step to 1
        return Game(three_link, (Constant(1.427), Affine(0.715, 1.110), BPR(0.973, 2.0, 0.681)),
                    np.array([1.403]))

    @pytest.mark.parametrize("transform, factor", [(cost_normalize, 1.0)] + [
        (t, k) for t in (cost_normalize, demand_normalize) for k in (0.5, 2.0, 10.0)])
    @pytest.mark.parametrize("solve", [solve_we, solve_so])
    def test_zero_curvature_start_converges(self, flat_start, transform, factor, solve):
        rep = solve(transform(flat_start, factor), tol=1e-10)
        assert rep.converged, (rep.iterations, rep.duality_gap)
        assert rep.duality_gap <= 1e-10

    def test_moves_below_float_resolution_end_the_solve(self, shared_arc):
        # SO totals near 700: at tol 1e-12 (about 10 ulps of the total) the
        # step's move falls below the flows' float resolution at gap 1.4e-12;
        # the solve must stop there instead of repeating the no-op move
        g = Game(shared_arc, (BPR(2.8795911595744412, 4.0, 0.07463333199212066),
                              BPR(1.5168524720644552, 0.0, 1.3662669716050093),
                              BPR(2.8795911595744412, 3.0, 0.07463333199212066),
                              Polynomial((2.1057112172111, 2.51999888493674, 0.2088643091536873,
                                          0.4870750557272757, 3.0))),
                 np.array([5.0, 0.861083781539039]))
        rep = solve_so(g, tol=1e-12, max_iter=1000)
        assert rep.iterations < 1000
        assert rep.duality_gap < 1e-11

    @pytest.mark.parametrize("family", ["affine", "bpr4", "monolog", "pwl", "tangent"])
    def test_line_search_finds_the_root(self, family):
        # random two-path slices: a row's alpha has the same bits alone as in a
        # stacked batch of five, and agrees with brentq on phi'(alpha) = h @ c(x + alpha h)
        rng = np.random.default_rng(["affine", "bpr4", "monolog", "pwl", "tangent"].index(family))
        for _ in range(40):
            costs = [_slice_costs(rng, family) for _ in range(5)]
            flows = rng.uniform(0.0, 2.0, (5, 2))
            flows[:, 0] += 0.05  # the source arc carries the mass the swap moves
            h = flows[:, :1] * np.array([-1.0, 1.0])
            stop = [1e-10 * float(f) for f in flows[:, 0]]
            table = ArcCostTable([c for pair in costs for c in pair])
            values, derivs = solvers._by_row(table, "values"), solvers._by_row(table, "derivs")
            batch, batch_costs = solvers._newton_steps(values, derivs, flows, h, values(flows),
                                                       stop, list(range(5)))
            for b, (c0, c1) in enumerate(costs):
                one = ArcCostTable([c0, c1])
                values, derivs = solvers._by_row(one, "values"), solvers._by_row(one, "derivs")
                (alpha,), step_costs = solvers._newton_steps(
                    values, derivs, flows[b:b + 1], h[b:b + 1], values(flows[b:b + 1]),
                    stop[b:b + 1], [0])
                assert alpha == batch[b]
                if alpha > 0.0:  # the costs at the step, the same bits alone and in the batch
                    at = values(flows[b:b + 1] + alpha * h[b:b + 1])[0].tolist()
                    assert step_costs[0].tolist() == batch_costs[b].tolist() == at
                x0, x1 = flows[b].tolist()  # x0 is the mass the swap moves

                def slope(a):
                    return x0 * (c1(x1 + a * x0) - c0(x0 + a * -x0))

                if slope(0.0) >= 0.0:
                    assert alpha == 0.0
                elif not (alpha == 1.0 and slope(1.0) <= 0.0):
                    # the band |phi'| <= stop around the root, a few ulps wider for
                    # brentq and for a bracket that shrinks to adjacent floats
                    lo = 0.0 if slope(0.0) >= -stop[b] else brentq(
                        lambda a: slope(a) + stop[b], 0.0, 1.0, xtol=1e-16)
                    hi = 1.0 if slope(1.0) <= stop[b] else brentq(
                        lambda a: slope(a) - stop[b], 0.0, 1.0, xtol=1e-16)
                    assert lo - 4e-15 <= alpha <= hi + 4e-15, (family, b, alpha, lo, hi)

    def test_a_row_descends_alone_as_in_a_batch(self):
        # five games on a 9-arc network (netgen.generate(0, 3, 3, 3, 9) of the
        # benchmark's ladder): each row of the lockstep WE and SO has the flows,
        # gap and pass count of its one-row call, bit for bit
        paths = ((("a0", "a1", "a2"), ("a5", "a7", "a8"), ("a4", "a5", "a6")),
                 (("a3", "a7", "a8"), ("a5", "a6", "a8"), ("a0", "a5", "a6")),
                 (("a2", "a6", "a8"), ("a3", "a4", "a7"), ("a2", "a4", "a6")))
        st_ = Structure(tuple(f"a{i}" for i in range(9)), ("k0", "k1", "k2"), paths)
        rng = np.random.default_rng(5)
        for grad, slope in [("values", "derivs"), ("marginals", "marginal_derivs")] * 4:
            games = [Game(st_, tuple(_slice_costs(rng, family)[0] for family in
                                     rng.choice(["affine", "bpr4", "monolog"], 9)),
                          rng.uniform(0.5, 2.0, 3)) for _ in range(5)]
            f0 = np.array([solvers._initial_flow(g, None) for g in games])
            demands, tol = np.array([g.demands for g in games]), np.full(5, 1e-10)
            table = ArcCostTable([c for g in games for c in g.costs])
            f, gap, passes = solvers._descend_batch(
                st_, demands, solvers._by_row(table, grad), solvers._by_row(table, slope),
                tol, 1000, f0)
            assert passes.max() > 2
            for b, g in enumerate(games):
                one = g.cost_table
                f1, gap1, passes1 = solvers._descend_batch(
                    st_, demands[b:b + 1], solvers._by_row(one, grad), solvers._by_row(one, slope),
                    tol[:1], 1000, f0[b:b + 1])
                assert f[b].tolist() == f1[0].tolist()
                assert (gap[b], passes[b]) == (gap1[0], passes1[0])


def _slice_costs(rng, family):
    """Two arc costs of one family: a random two-path slice's."""
    def one():
        a, b = rng.uniform(0.1, 2.0, 2).tolist()
        if family == "affine":
            return Affine(a, b)
        if family == "bpr4":
            return BPR(a, 4.0, b)
        if family == "monolog":
            return MonomialLog(a, float(rng.uniform(0.5, 3.0)), float(rng.uniform(0.0, 2.0)))
        if family == "pwl":
            steps, rises = rng.uniform(0.1, 1.0, 3), rng.uniform(0.0, 2.0, 3)
            return PiecewiseLinear(tuple(np.cumsum([0.0, *steps]).tolist()),
                                   tuple((b + np.cumsum([0.0, *rises])).tolist()))
        return TangentCost(BPR(a, 2.0, b), float(rng.uniform(0.2, 1.5)))
    return one(), one()


# netgen.generate(4, 2, 3, 2, 6) of the benchmark's size ladder, written out: BPR(q, 4, p) arcs
LADDER_PATHS = ((("a3", "a4"), ("a4", "a5"), ("a1", "a4")),
                (("a0", "a4"), ("a0", "a1"), ("a2", "a5")))
LADDER_Q = (0.9785298167304846, 1.8377082650749372, 0.930288457279894, 0.7363583859038125,
            1.1991252123451923, 1.0476003042727309)
LADDER_P = (0.57060645270149, 0.5177873593062353, 0.5918288033392025, 1.6948814964104753,
            1.4006387200804649, 0.8532176625177637)
LADDER_DEMANDS = np.array([1.4232737963202609, 0.5071619463498722])


def bpr4_gap(structure, flow, marginal):
    """Approximation threshold of a ladder flow from the BPR closed form, not the cost table."""
    inc = structure.incidence
    x = inc @ flow
    cost = inc.T @ ((5.0 if marginal else 1.0) * np.array(LADDER_Q) * x**4 + np.array(LADDER_P))
    return sum(float((cost[lo:hi] - cost[lo:hi].min()) @ flow[lo:hi])
               for lo, hi in structure.path_slices)


class TestUsedPathNewton:
    def test_ladder_network_converges_in_few_iterations(self):
        # swaps alone take 613 WE and 423 SO iterations on this network
        st_ = Structure(tuple(f"a{i}" for i in range(6)), ("k0", "k1"), LADDER_PATHS)
        game = Game(st_, tuple(BPR(q, 4.0, p) for q, p in zip(LADDER_Q, LADDER_P)),
                    LADDER_DEMANDS)
        # the cold start with every pair's demand off by 3e-10, inside the feasibility tolerance
        start = np.zeros(st_.n_paths)
        start[st_.pair_starts] = LADDER_DEMANDS * (1.0 + 3e-10)
        for solve, marginal in ((solve_we, False), (solve_so, True)):
            rep = solve(game, tol=1e-8, start=start)
            assert rep.converged and rep.iterations <= 30, rep.iterations
            assert bpr4_gap(st_, rep.flow.values, marginal) <= 1e-8
            # the step sets each pair's sum back to its demand
            routed = np.add.reduceat(rep.flow.values, st_.pair_starts)
            assert np.all(np.abs(routed - LADDER_DEMANDS) <= 4 * np.spacing(LADDER_DEMANDS))

    @pytest.mark.parametrize("solve, total", [(solve_we, 2.0), (solve_so, 1.6713664654969003)])
    def test_two_used_flat_arcs(self, three_link, solve, total):
        # all three links start used: two with tau' = 0 leave the KKT system
        # singular but for its ridge, and the dearer one must be emptied
        game = Game(three_link, (Constant(1.0), Constant(1.2), BPR(1.0, 2.0, 0.1)),
                    np.array([2.0]))
        rep = solve(game, tol=1e-10, start=np.array([0.3, 0.2, 1.5]))
        assert rep.converged and rep.iterations <= 2, rep.iterations
        assert abs(rep.total_cost - total) <= 1e-10  # the swaps alone reach these totals
        assert rep.flow.values[1] == 0.0


def uncertified_games(two_link):
    """The kinked games of test_uncertified_so_finds_the_global_optimum and two_link_kinked.json."""
    return [Game(two_link, (PiecewiseLinear((0.0, 0.57, 2.34), (0.24, 0.55, 1.2)),
                            BPR(1.19, 2.0, 0.32)), np.array([0.95])),
            Game(two_link, (PiecewiseLinear((0.0, 0.7, 1.175, 1.23), (0.09, 1.4, 1.95, 2.0)),
                            BPR(1.83, 2.0, 0.99)), np.array([1.235])),
            load_game(pathlib.Path(__file__).resolve().parents[1] / "data/two_link_kinked.json")]


def lockstep_search(game, f0, tol=1e-10, max_iter=3000):
    """_descend_batch with the total cost as its objective, one row per start flow in f0."""
    table = ArcCostTable(game.costs * len(f0))
    values = solvers._by_row(table, "values")
    return solvers._descend_batch(
        game.structure, np.tile(game.demands, (len(f0), 1)), solvers._by_row(table, "marginals"),
        solvers._by_row(table, "marginal_derivs"), np.full(len(f0), tol), max_iter, f0,
        objective=lambda x: _dot(x, values(x)))


class TestLockstepMultistart:
    def test_rows_are_independent(self, two_link):
        # each row of the lockstep search takes the steps its start takes alone
        for game in uncertified_games(two_link):
            d = game.demands[0]
            starts = np.array([[d, 0.0], [0.0, d], [0.3 * d, 0.7 * d]])
            f, gap, passes = lockstep_search(game, starts)
            assert not solvers._so_certified(game) and passes.max() > 1
            for b in range(len(starts)):
                f1, gap1, passes1 = lockstep_search(game, starts[b:b + 1])
                assert f[b].tolist() == f1[0].tolist()
                assert (gap[b], passes[b]) == (gap1[0], passes1[0])

    def test_one_objective_call_per_swap_never_raises_it(self, two_link):
        # each swap prices its four trial steps and the flow itself, last, in one call; a row
        # steps only below its flow's total cost, so the flows' costs never rise (on the last
        # game every trial step of some swap raises it)
        rising = Game(two_link, (PiecewiseLinear((0.0, 0.2995428785874795, 0.9925362788251205),
                                                 (0.17204300724288468, 0.9342257963144116,
                                                  1.0211398846262254)),
                                 BPR(1.6432574945905816, 2.0, 0.8690479332809924)),
                      np.array([0.63280463]))
        for game in uncertified_games(two_link) + [rising]:
            d = game.demands[0]
            starts = np.array([[d, 0.0], [0.0, d], [0.3 * d, 0.7 * d], [0.6 * d, 0.4 * d]])
            table = ArcCostTable(game.costs * len(starts))
            values, seen = solvers._by_row(table, "values"), []

            def objective(x):
                seen.append(_dot(x, values(x)))
                return seen[-1]

            f, *_ = solvers._descend_batch(
                game.structure, np.tile(game.demands, (4, 1)), solvers._by_row(table, "marginals"),
                solvers._by_row(table, "marginal_derivs"), np.full(4, 1e-10), 3000, starts,
                objective=objective)
            assert f.tolist() == lockstep_search(game, starts)[0].tolist()
            assert seen and all(v.shape == (5, 4) for v in seen)
            own = np.array([v[4] for v in seen])
            assert np.all(np.diff(own, axis=0) <= 1e-14 * own[:-1]), own

    def test_restarts_are_one_batch(self, two_link):
        # the start and every restart run as the rows of one _descend_batch
        batch = mock.patch.object(solvers, "_descend_batch", wraps=solvers._descend_batch)
        for game in uncertified_games(two_link):
            with batch as lockstep:
                rep = solve_so(game)
            assert not rep.optimality_certified
            assert lockstep.call_count == 1
            assert lockstep.call_args.args[6].shape == (1 + solvers._MULTISTARTS, 2)


def _cold_gap(game, so):
    """The gap a cold descent of the game's WE (so False) or SO starts its first pass at."""
    f0 = solvers._initial_flow(game, None)[None]
    grad = solvers._by_row(game.cost_table, "marginals" if so else "values")
    return float(solvers._flow_gap(game.structure, _price(game.structure, grad, f0)[2], f0)[0])


def _newton_calls(solve, game, **kw):
    """The report of a solve and the (stop, h, live) of each of its _newton_steps calls."""
    with mock.patch.object(solvers, "_newton_steps", wraps=solvers._newton_steps) as spy:
        rep = solve(game, **kw)
    return rep, [(call.args[5], call.args[3], call.args[6]) for call in spy.call_args_list]


@st.composite
def multi_pair_games(draw):
    """A game of 2 to 4 O/D pairs, 2 or 3 paths each, on up to 8 BPR arcs, at unit scale."""
    n_pairs = draw(st.integers(2, 4))
    subsets = st.lists(st.integers(0, 7), min_size=1, max_size=3, unique=True).map(frozenset)
    paths = draw(st.lists(subsets, min_size=2 * n_pairs, max_size=3 * n_pairs, unique=True))
    arcs = sorted(set().union(*paths))
    structure = Structure(tuple(f"a{i}" for i in arcs), tuple(f"k{k}" for k in range(n_pairs)),
                          tuple(tuple(tuple(f"a{i}" for i in sorted(p)) for p in paths[k::n_pairs])
                                for k in range(n_pairs)))
    costs = draw(st.lists(st.builds(BPR, st.floats(0.1, 3.0), st.integers(0, 4).map(float),
                                    st.floats(0.05, 3.0)), min_size=len(arcs), max_size=len(arcs)))
    demands = draw(st.lists(st.floats(0.05, 5.0), min_size=n_pairs, max_size=n_pairs))
    return unit_scale(Game(structure, tuple(costs), np.array(demands)))


class TestForcedSwapStops:
    """A swap's search on a WE or certified SO of two or more O/D pairs stops at a slope of
    0.1 max(tol, _FORCING gap) / |K| f_i / d_k, the gap of its row at the start of the pass;
    on one pair and in the uncertified multistart at 0.1 tol / |K| f_i / d_k."""

    @pytest.mark.parametrize("solve, so", [(solve_we, False), (solve_so, True)])
    def test_two_pairs_force_the_first_pass(self, shared_arc, solve, so):
        # both pairs start on their dearer first path, so pass 1 swaps pair 0, then pair 1,
        # each with all its demand: f_i = d_k
        game, tol = _shared_arc_game(shared_arc), 1e-10
        rep, calls = _newton_calls(solve, game, tol=tol)
        gap = _cold_gap(game, so)
        assert rep.converged and rep.optimality_certified and gap > 1.0
        want = 0.1 * max(tol, solvers._FORCING * gap) / 2
        assert [stop[0] for stop, *_ in calls[:2]] == pytest.approx([want] * 2, rel=1e-14)
        assert want > 1e8 * 0.1 * tol / 2  # far from the stop of the tol alone

    @pytest.mark.parametrize("solve, so", [(solve_we, False), (solve_so, True)])
    def test_one_pair_keeps_the_tol_stop(self, three_link, solve, so):
        game, tol = Game(three_link, (Affine(1, 0.1), Affine(0.5, 0.3),
                                      Polynomial((0.05, 0.2, 1.0))), np.array([2.0])), 1e-10
        rep, calls = _newton_calls(solve, game, tol=tol)
        assert rep.converged and _cold_gap(game, so) > 1.0
        assert calls[0][0] == pytest.approx([0.1 * tol], rel=1e-14)

    def test_the_multistart_keeps_the_tol_stop(self, shared_arc):
        # a kinked arc whose slope falls leaves the SO uncertified: each of the 1 + 8 rows of
        # its first swap stops at 0.1 tol / |K| of the share f_i / d_0 its swap moves
        game = Game(shared_arc, (PiecewiseLinear((0.0, 0.57, 2.34), (0.24, 0.55, 1.2)),
                                 Affine(2, 0.2), BPR(1, 2, 0.1), Affine(0.5, 0.05)),
                    np.array([0.95, 1.5]))
        tol = 1e-10
        rep, calls = _newton_calls(solve_so, game, tol=tol)
        assert not rep.optimality_certified
        stop, h, live = calls[0]
        assert len(h) == 1 + solvers._MULTISTARTS and len(live) > 1
        assert [stop[b] for b in live] == pytest.approx(
            [0.1 * tol / 2 * np.abs(h[b]).max() / 0.95 for b in live], rel=1e-14)

    @pytest.mark.parametrize("grad, slope", [("values", "derivs"),
                                             ("marginals", "marginal_derivs")])
    def test_rows_of_different_gaps_descend_as_alone(self, grad, slope):
        # a cold row, a row started near its solution, a row whose costs are 1000 times larger
        # and a row at a looser tol, on the benchmark ladder's 6-arc network: each row's
        # flows, gap and pass count are those of its one-row call, bit for bit
        st_ = Structure(tuple(f"a{i}" for i in range(6)), ("k0", "k1"), LADDER_PATHS)
        game = Game(st_, tuple(BPR(q, 4.0, p) for q, p in zip(LADDER_Q, LADDER_P)),
                    LADDER_DEMANDS)
        solve = solve_so if grad == "marginals" else solve_we
        games = [game, game, cost_normalize(game, 1e-3), game]
        f0 = np.array([solvers._initial_flow(game, None), solve(game, tol=1e-5).flow.values,
                       solvers._initial_flow(game, None), solvers._initial_flow(game, None)])
        tol, demands = np.array([1e-10, 1e-10, 1e-10, 1e-6]), np.array([g.demands for g in games])
        table = ArcCostTable([c for g in games for c in g.costs])
        gaps = solvers._flow_gap(st_, _price(st_, solvers._by_row(table, grad), f0)[2], f0)
        assert gaps.max() > 1e6 * gaps.min() and gaps.min() > tol[0]
        f, gap, passes = solvers._descend_batch(
            st_, demands, solvers._by_row(table, grad), solvers._by_row(table, slope), tol, 1000,
            f0)
        assert (gap <= tol).all()
        for b, g in enumerate(games):
            one = g.cost_table
            f1, gap1, passes1 = solvers._descend_batch(
                st_, demands[b:b + 1], solvers._by_row(one, grad), solvers._by_row(one, slope),
                tol[b:b + 1], 1000, f0[b:b + 1])
            assert f[b].tolist() == f1[0].tolist()
            assert (gap[b], passes[b]) == (gap1[0], passes1[0])

    @settings(max_examples=30, deadline=None)
    @given(game=multi_pair_games(), tol=st.sampled_from([1e-6, 1e-8, 1e-10]))
    def test_forced_solves_keep_their_bounds(self, game, tol):
        # convexity: potential(f) - min potential <= the WE gap of f, and for a certified SO
        # total_cost(f) - C* <= its gap, so neither may lie above a solve at 1e-13 by more
        # than tol and rounding
        we, we_ref = solve_we(game, tol=tol), solve_we(game, tol=1e-13)
        assert we.converged
        assert potential(game, we.flow) - potential(game, we_ref.flow) <= tol + 1e-12
        so, so_ref = solve_so(game, tol=tol), solve_so(game, tol=1e-13)
        assert so.converged and so.optimality_certified
        assert so.total_cost - so_ref.total_cost <= tol + 1e-12

    def test_under_optimize(self):
        # python -O strips assert statements: the rule must not rest on any
        script = (
            "from unittest import mock\n"
            "import numpy as np\n"
            "from poalab import BPR, Affine, Game, Structure, solve_we, solvers\n"
            "two = Structure(('a', 'b', 'c', 'd'), ('k1', 'k2'),\n"
            "                ((('a',), ('c', 'd')), (('b',), ('c',))))\n"
            "one = Structure(('u', 'l'), ('k',), ((('u',), ('l',)),))\n"
            "for game in (Game(two, (Affine(1, 0.5), Affine(2, 0.2), BPR(1, 2, 0.1),\n"
            "                        Affine(0.5, 0.05)), np.array([1.0, 1.5])),\n"
            "             Game(one, (Affine(1, 0.5), Affine(2, 0.2)), np.array([1.0]))):\n"
            "    with mock.patch.object(solvers, '_newton_steps',\n"
            "                           wraps=solvers._newton_steps) as spy:\n"
            "        solve_we(game, tol=1e-10)\n"
            "    print(spy.call_args_list[0].args[5])\n"
        )
        res = subprocess.run([sys.executable, "-O", "-c", script],
                             capture_output=True, text=True, env=child_env())
        assert res.returncode == 0, res.stderr
        # pass 1's gap is 1 (1.5 - 0.15) + 1.5 (3.2 - 0.1) = 6 on two pairs: 0.1 * 0.1 * 6 / 2
        forced, alone = (float(line.strip("[]")) for line in res.stdout.split())
        assert forced == pytest.approx(0.03, rel=1e-12) and alone == pytest.approx(1e-11)


class TestPoA:
    def test_pigou_four_thirds(self, pigou):
        assert poa(pigou, tol=TOL) == pytest.approx(4.0 / 3.0, abs=1e-9)

    def test_constant_costs_poa_one(self, two_link):
        g = Game(two_link, (Constant(1.0), Constant(1.0)), np.array([1.0]))
        assert poa(g, tol=TOL) == pytest.approx(1.0, abs=1e-10)

    def test_equal_degree_monomials_poa_one(self, two_link):
        g = Game(two_link, (BPR(2.0, 3.0, 0.0), BPR(0.5, 3.0, 0.0)), np.array([1.0]))
        assert poa(g, tol=TOL) == pytest.approx(1.0, abs=1e-9)

    def test_within_a_priori_bound(self, shared_arc):
        rng = np.random.default_rng(11)
        for _ in range(5):
            g = random_game(shared_arc, rng)
            assert poa(g, tol=1e-11) <= poa_upper_bound(g) + 1e-9

    def test_sqrt_arc_from_zero_flow(self, two_link):
        # the SO solve starts with no flow on the BPR arc, where f'(0) is infinite;
        # SO routes 4/9 there, C* = 23/27 against a WE cost of 1
        g = Game(two_link, (Constant(1.0), BPR(1.0, 0.5, 0.0)), np.array([1.0]))
        so = solve_so(g, tol=TOL)
        assert so.flow.values[1] == pytest.approx(4.0 / 9.0, abs=1e-6)
        assert poa(g, tol=TOL) == pytest.approx(27.0 / 23.0, abs=1e-9)

    def test_invariant_checked_under_optimize(self):
        # python -O strips assert statements; the PoA range check must survive it
        script = (
            "import dataclasses, sys\n"
            "import numpy as np\n"
            "from poalab import BPR, Constant, Game, InvariantError, Structure, solvers\n"
            "st = Structure(('u', 'l'), ('od0',), ((('u',), ('l',)),))\n"
            "g = Game(st, (BPR(1.0, 1.0, 0.0), Constant(1.0)), np.array([1.0]))\n"
            "real = solvers.solve_we\n"
            "solvers.solve_we = lambda game, **kw: dataclasses.replace(\n"
            "    real(game, **kw), total_cost=0.5)\n"
            "try:\n"
            "    solvers.poa(g)\n"
            "except InvariantError as exc:\n"
            "    print('raised', sys.flags.optimize, exc)\n"
        )
        res = subprocess.run([sys.executable, "-O", "-c", script],
                             capture_output=True, text=True, env=child_env())
        assert res.returncode == 0, res.stderr
        assert res.stdout.startswith("raised 1 PoA ")


def _shared_arc_game(structure):
    return Game(structure, (Affine(1, 0.5), Affine(2, 0.2), BPR(1, 2, 0.1), Affine(0.5, 0.05)),
                np.array([1.0, 1.5]))


class TestSolvePoaOnce:
    """_solve_poa solves a game object once per (tol, max_iter) and keeps only checked results."""

    def test_a_second_sweep_reuses_the_base_solve(self, shared_arc):
        # the base's WE and SO are one-row descents, the 8 samples' WEs and SOs one of 16 rows
        base, runs = _shared_arc_game(shared_arc), []
        for game in (base, base, _shared_arc_game(shared_arc)):
            with mock.patch.object(solvers, "_descend_batch", wraps=solvers._descend_batch) as spy:
                records = sweep(game, "cost", [1e-1, 1e-2], 4, seed=3)
            runs.append(([len(call.args[1]) for call in spy.call_args_list], records))
        (first, records), (again, reused), (fresh, solved) = runs
        assert first == fresh == [1, 1, 16] and again == [16]
        assert records == reused == solved

    def test_each_tolerance_and_cap_solves_once(self, shared_arc):
        game = _shared_arc_game(shared_arc)
        with mock.patch.object(solvers, "solve_we", wraps=solvers.solve_we) as spy:
            first = solvers._solve_poa(game, 1e-10)
            for _ in range(2):
                assert solvers._solve_poa(game, 1e-10) is first
                assert poa(game, 1e-10) == first[0]
                solvers._solve_poa(game, 1e-11)
                solvers._solve_poa(game, 1e-10, 50_000)
        assert spy.call_count == 3

    def test_an_unconverged_solve_raises_on_every_call(self, shared_arc):
        game = _shared_arc_game(shared_arc)
        with mock.patch.object(solvers, "solve_we", wraps=solvers.solve_we) as spy:
            for _ in range(2):
                with pytest.raises(UnconvergedError):
                    solvers._solve_poa(game, 1e-12, max_iter=1)
        assert spy.call_count == 2

    def test_a_failed_check_raises_on_every_call(self, pigou):
        real = solvers.solve_we

        def halved(game, **kw):  # a WE cost below C* = 3/4: the PoA falls below 1
            return dataclasses.replace(real(game, **kw), total_cost=0.5)

        with mock.patch.object(solvers, "solve_we", side_effect=halved) as spy:
            for _ in range(2):
                with pytest.raises(InvariantError, match="fell below 1"):
                    solvers._solve_poa(pigou, 1e-10)
        assert spy.call_count == 2

    def test_a_solved_game_is_not_kept_alive(self, two_link):
        game = Game(two_link, (BPR(1.0, 1.0, 0.0), Constant(1.0)), np.array([1.0]))
        poa(game)
        ref = weakref.ref(game)
        del game
        gc.collect()
        assert ref() is None

    def test_shared_reports_are_read_only(self, pigou):
        _, we, so = solvers._solve_poa(pigou, 1e-10)
        for report in (we, so):
            for values in (report.user_costs, report.flow.values):
                with pytest.raises(ValueError, match="read-only"):
                    values[0] = 0.0

    def test_under_optimize(self):
        # python -O strips assert statements: the memo must not rest on any
        script = (
            "import gc, weakref\n"
            "import numpy as np\n"
            "from poalab import BPR, Affine, Game, Structure, UnconvergedError, solvers\n"
            "st = Structure(('a', 'b', 'c', 'd'), ('k1', 'k2'),\n"
            "               ((('a',), ('c', 'd')), (('b',), ('c',))))\n"
            "g = Game(st, (Affine(1, 0.5), Affine(2, 0.2), BPR(1, 2, 0.1), Affine(0.5, 0.05)),\n"
            "         np.array([1.0, 1.5]))\n"
            "real, calls = solvers.solve_we, []\n"
            "solvers.solve_we = lambda game, **kw: calls.append(kw['tol']) or real(game, **kw)\n"
            "print(solvers._solve_poa(g, 1e-10) is solvers._solve_poa(g, 1e-10))\n"
            "solvers._solve_poa(g, 1e-11)\n"
            "for _ in range(2):\n"
            "    try:\n"
            "        solvers._solve_poa(g, 1e-12, max_iter=1)\n"
            "    except UnconvergedError:\n"
            "        print('unconverged')\n"
            "print(calls)\n"
            "ref = weakref.ref(g)\n"
            "del g\n"
            "gc.collect()\n"
            "print(ref() is None)\n"
        )
        res = subprocess.run([sys.executable, "-O", "-c", script],
                             capture_output=True, text=True, env=child_env())
        assert res.returncode == 0, res.stderr
        assert res.stdout.split("\n") == [
            "True", "unconverged", "unconverged", "[1e-10, 1e-11, 1e-12, 1e-12]", "True", ""]


class TestApproximationThreshold:
    def test_pigou_sqrt_eps_flow(self, pigou):
        for eps in (1e-2, 1e-4):
            s = math.sqrt(eps)
            thr = approximation_threshold(pigou, PathFlow([1 - s, s]))
            assert thr == pytest.approx(eps, abs=1e-12)

    def test_half_half_in_near_tie_game(self, fig3a):
        thr = approximation_threshold(fig3a, PathFlow([0.5, 0.5]))
        assert thr == pytest.approx(0.5 * 0.01, abs=1e-12)

    def test_solved_we_has_zero_threshold(self, fig3a):
        rep = solve_we(fig3a, tol=TOL)
        assert approximation_threshold(fig3a, rep.flow) <= TOL

    @settings(max_examples=40, deadline=None)
    @given(costs=st.lists(st.builds(BPR, st.floats(0.0, 3.0), st.integers(0, 4).map(float),
                                    st.floats(0.05, 3.0)), min_size=4, max_size=4),
           demands=st.lists(st.floats(0.05, 5.0), min_size=2, max_size=2).map(np.array))
    def test_solver_gap_is_threshold(self, shared_arc, costs, demands):
        # the solver's gap uses the costs at its last trial flow, so the two
        # agree up to rounding
        tol = 1e-10
        game = unit_scale(Game(shared_arc, tuple(costs), demands))
        we, so = solve_we(game, tol=tol), solve_so(game, tol=tol)
        assert we.converged and so.converged and so.optimality_certified
        assert we.duality_gap == pytest.approx(
            approximation_threshold(game, we.flow), abs=0.01 * tol)
        # the SO of a game is the WE of the game priced at its marginal costs
        marginal = game.with_costs(BPR((c.beta + 1.0) * c.q, c.beta, c.p) for c in game.costs)
        assert so.duality_gap == pytest.approx(
            approximation_threshold(marginal, so.flow), abs=0.01 * tol)


class TestApproximationBounds:
    def test_pigou_eps_chain(self, pigou):
        eps = 0.01
        s = math.sqrt(eps)
        f = PathFlow([1 - s, s])
        we = solve_we(pigou, tol=TOL)
        rep = check_approximation_bounds(pigou, f, we.flow, eps, lipschitz=1.0)
        assert rep.all_ok
        assert rep.total_cost_diff == pytest.approx(s - eps, abs=1e-12)
        assert rep.total_cost_diff_bound == pytest.approx(2 * math.sqrt(eps) * 1.0 + eps)

    def test_exact_we_has_zero_lhs(self, fig3a):
        we = solve_we(fig3a, tol=TOL)
        rep = check_approximation_bounds(fig3a, we.flow, we.flow, 1e-9, lipschitz=1.0)
        assert rep.all_ok
        assert rep.total_cost_diff == 0.0

    def test_three_path_grid_oracle(self, three_link):
        rng = np.random.default_rng(29)
        g = random_game(three_link, rng, families=["affine", "affine", "bpr"])
        t = g.total_demand
        # brute-force potential minimizer on the 3-path simplex, step 1e-3;
        # parallel links make the potential separable, so vectorize per arc
        step = 1e-3 * t
        grid = np.arange(0.0, t + step / 2, step)
        anti = [np.asarray(c.antiderivative(grid), dtype=float) for c in g.costs]
        best, best_flow = math.inf, None
        for i, a in enumerate(grid):
            n_b = len(grid) - i
            pots = anti[0][i] + anti[1][:n_b] + anti[2][: n_b][::-1]
            j = int(np.argmin(pots))
            if pots[j] < best:
                best = float(pots[j])
                best_flow = PathFlow([a, grid[j], t - a - grid[j]])
        eps = approximation_threshold(g, best_flow) + 1e-12
        we = solve_we(g, tol=1e-12)
        lip = max(c.lipschitz_on(t) for c in g.costs)
        rep = check_approximation_bounds(g, best_flow, we.flow, eps, lip)
        assert rep.all_ok


class TestEquilibriumProperties:
    def _random_feasible(self, game, rng):
        parts = []
        for k, (lo, hi) in enumerate(game.structure.path_slices):
            parts.append(game.demands[k] * rng.dirichlet(np.ones(hi - lo)))
        return PathFlow(np.concatenate(parts))

    def test_variational_inequality(self, shared_arc):
        rng = np.random.default_rng(41)
        g = random_game(shared_arc, rng, families=["affine", "bpr", "poly", "affine"])
        we = solve_we(g, tol=1e-12)
        arc_we = g.structure.incidence @ we.flow.values
        tau = g.arc_cost_values(arc_we)
        for _ in range(100):
            other = self._random_feasible(g, rng)
            arc_g = g.structure.incidence @ other.values
            assert float(tau @ (arc_g - arc_we)) >= -1e-10

    def test_essential_uniqueness(self, shared_arc):
        rng = np.random.default_rng(43)
        g = random_game(shared_arc, rng, families=["affine", "bpr", "affine", "poly"])
        rep1 = solve_we(g, tol=1e-12)
        rep2 = solve_we(g, tol=1e-12, start=self._random_feasible(g, rng))
        c1 = g.arc_cost_values(g.structure.incidence @ rep1.flow.values)
        c2 = g.arc_cost_values(g.structure.incidence @ rep2.flow.values)
        assert np.max(np.abs(c1 - c2)) <= 1e-11

    def test_we_minimizes_potential(self, three_link):
        rng = np.random.default_rng(47)
        g = random_game(three_link, rng, families=["affine", "bpr", "poly"])
        we = solve_we(g, tol=1e-12)
        phi_we = potential(g, we.flow)
        for _ in range(50):
            assert phi_we <= potential(g, self._random_feasible(g, rng)) + 1e-12

    def test_we_cost_is_demand_weighted_user_cost(self, shared_arc):
        rng = np.random.default_rng(53)
        g = random_game(shared_arc, rng, families=["affine", "affine", "bpr", "affine"])
        rep = solve_we(g, tol=1e-12)
        assert rep.total_cost == pytest.approx(
            float(rep.user_costs @ g.demands), abs=1e-9)

    def test_so_never_exceeds_we(self, shared_arc):
        rng = np.random.default_rng(59)
        for _ in range(10):
            g = random_game(shared_arc, rng)
            we = solve_we(g, tol=1e-10)
            so = solve_so(g, tol=1e-10)
            assert so.total_cost <= we.total_cost + 1e-9
