"""Equilibrium and optimum solvers against oracles and approximation bounds."""

import math
import pathlib
import subprocess
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from poalab import (
    BPR,
    Affine,
    Constant,
    Game,
    PathFlow,
    PiecewiseLinear,
    Polynomial,
    Structure,
    TruncatedCost,
    approximation_threshold,
    check_approximation_bounds,
    cost_normalize,
    demand_normalize,
    poa,
    poa_upper_bound,
    potential,
    solve_so,
    solve_we,
    total_cost,
)
from poalab import solvers
from poalab.games import ArcCostTable, _dot
from poalab.io import load_game

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

    def test_restarts_are_one_batch(self, two_link):
        # the start and every restart run as the rows of one _descend_batch, none alone
        batch = mock.patch.object(solvers, "_descend_batch", wraps=solvers._descend_batch)
        alone = mock.patch.object(solvers, "_descend", wraps=solvers._descend)
        for game in uncertified_games(two_link):
            with batch as lockstep, alone as single:
                rep = solve_so(game)
            assert not rep.optimality_certified and single.call_count == 0
            assert lockstep.call_count == 1
            assert lockstep.call_args.args[6].shape == (1 + solvers._MULTISTARTS, 2)


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
