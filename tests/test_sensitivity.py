"""Hoelder certificates, perturbation sweeps, and exponent fits."""

import math
import pathlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from poalab import (
    BPR,
    Affine,
    Constant,
    Game,
    InfeasibleFlowError,
    MetricValue,
    MonomialLog,
    PiecewiseLinear,
    Polynomial,
    certificate_cost_slice,
    certificate_demand_slice,
    certificate_exponent_one,
    cost_normalize,
    dist,
    fit_hoelder,
    max_delta_by_radius,
    poa,
    poa_upper_bound,
    sample_ball,
    sup_distance,
    sweep,
)
from poalab import sensitivity, solvers
from poalab.io import load_game
from poalab.sensitivity import SweepRecord

from conftest import make_two_link_affine, random_game

TOL = 1e-12
DATA = pathlib.Path(__file__).resolve().parents[1] / "data"


class TestDemandSliceCertificate:
    def test_pigou_plugin_values(self, pigou):
        cert = certificate_demand_slice(pigou, tol=TOL)
        expected = 2.0 * (4.0 / 3.0 + math.sqrt(2.0) + 2.0) / 0.75 * 2.0
        assert cert.constant == pytest.approx(expected, abs=1e-6)
        assert cert.constant == pytest.approx(25.32, abs=0.01)
        assert cert.radius == pytest.approx(0.1875)
        assert cert.exponent == 0.5

    def test_bounds_near_tie_pair(self, two_link, fig3b):
        base = fig3b  # (x, x), poa = 1
        cert = certificate_demand_slice(base, tol=TOL)
        for eps in (1e-2, 1e-4):
            other = make_two_link_affine(two_link, eps)
            d = dist(base, other).value
            delta = abs(poa(other, tol=TOL) - poa(base, tol=TOL))
            assert d <= cert.radius
            assert delta <= cert.bound(d) + 20 * TOL

    def test_none_for_non_lipschitz(self, two_link):
        g = Game(two_link, (BPR(1.0, 0.5, 0.1), Constant(1.0)), np.array([1.0]))
        assert certificate_demand_slice(g, tol=1e-9) is None


class TestCostSliceCertificate:
    def test_pigou_demand_drop(self, pigou):
        cert = certificate_cost_slice(pigou, tol=TOL)
        other = pigou.with_demands([0.99])
        d = dist(pigou, other).value
        assert d <= cert.radius
        delta = abs(poa(other, tol=TOL) - poa(pigou, tol=TOL))
        assert delta <= cert.bound(d) + 20 * TOL

    def test_bpr_degree_two_loose_by_design(self, two_link):
        g = Game(two_link, (BPR(1.0, 2.0, 0.0), Constant(1.0)), np.array([1.0]))
        cert = certificate_cost_slice(g, tol=TOL)
        other = g.with_demands([0.9])
        d = dist(g, other).value
        delta = abs(poa(other, tol=TOL) - poa(g, tol=TOL))
        assert delta <= cert.bound(d) / 10.0  # slack exceeds a factor of 10

    def test_equal_total_demand_gives_zero_distance_record(self, shared_arc):
        g = Game(shared_arc, (Affine(1, 0.3),) * 4, np.array([1.0, 1.0]))
        other = g.with_demands([1.0, 1.0])
        assert dist(g, other).value == 0.0  # skipped by fits


class TestExponentOneCertificate:
    def test_constant_cost_plugin(self, two_link):
        g = Game(two_link, (Constant(1.0), Constant(1.0)), np.array([1.0]))
        cert = certificate_exponent_one(g, tol=TOL)
        assert cert.which == "constant-costs"
        assert cert.constant == pytest.approx(32.0)
        assert cert.exponent == 1.0

    def test_strictly_increasing_qualifies(self, fig3a):
        cert = certificate_exponent_one(fig3a, tol=TOL)
        assert cert is not None
        assert cert.which == "increasing-costs"
        assert cert.exponent == 1.0

    def test_flat_arc_disqualifies(self, pigou):
        # the constant arc has derivative 0, so neither regime applies
        assert certificate_exponent_one(pigou, tol=TOL) is None


class TestSweep:
    def test_cardinality(self, pigou):
        records = sweep(pigou, "cost", [1e-1, 1e-2, 1e-3, 1e-4], 32, seed=5)
        assert len(records) == 128

    def test_cost_sweep_respects_demand_slice_bound(self, pigou):
        records = sweep(pigou, "cost", [1e-2, 1e-3], 16, seed=6)
        assert all(r.dist.demand_part == 0.0 for r in records)
        bounded = [r for r in records if r.certificate_bound is not None]
        assert bounded, "demand-slice certificate should apply"
        for r in bounded:
            assert r.delta <= r.certificate_bound + 20 * r.solve_tol

    def test_joint_sweep_constant_base_bound(self, two_link):
        g = Game(two_link, (Constant(1.0), Constant(1.0)), np.array([1.0]))
        records = sweep(g, "joint", [1e-2, 1e-3], 16, seed=7)
        bounded = [r for r in records if r.certificate_bound is not None]
        assert bounded
        for r in bounded:
            assert r.delta <= r.certificate_bound + 20 * r.solve_tol

    def test_records_sorted_by_seed(self, pigou):
        records = sweep(pigou, "cost", [1e-2, 1e-3], 8, seed=9)
        seeds = [r.seed for r in records]
        assert seeds == sorted(seeds)

    def test_zero_demand_pair_starts_cold(self, shared_arc):
        # a sample's start scales the base flow by d'_k / d_k; with d_k = 0 the
        # pair has no split to scale and must start cold
        base = Game(shared_arc,
                    (Affine(1, 0.5), Affine(2, 0.2), BPR(1, 2, 0.1), Affine(0.5, 0.05)),
                    np.array([0.0, 1.5]))
        for kind in ("demand", "joint", "cost"):
            for rec in sweep(base, kind, [1e-1, 1e-2], 4, seed=3):
                assert math.isfinite(rec.pert_poa)
                sample = sample_ball(base, rec.radius, kind=kind, seed=rec.seed).game
                cold = poa(sample, tol=rec.solve_tol)
                assert abs(rec.pert_poa - cold) <= 2.0 * rec.solve_tol


def _solve_alone(games, tols, max_iter, starts, table=None):
    """_solve_poas game by game: (PoAs, None), each from its game's solve_we and solve_so.

    Each game is solved from its starts, with _solve_poa's checks; its PoA is NaN if
    either solve is unconverged.
    """
    out = []
    for game, tol, (we_start, so_start) in zip(games, tols, starts, strict=True):
        we = solvers.solve_we(game, tol, max_iter, we_start)
        so = solvers.solve_so(game, tol, max_iter, so_start)
        rho = we.total_cost / so.total_cost
        out.append(solvers._checked_poa(rho, tol, poa_upper_bound(game))
                   if we.converged and so.converged else math.nan)
    return out, None


def _sweeps(base, kind, radii, samples, seed, **kwargs):
    """(records, lockstep rows, rows per lockstep call) of a sweep, and its records solved alone.

    The rows and the calls leave out the base's own WE and SO solves, the first two calls:
    a fresh copy of base is swept, so a solve of base that _solve_poa kept is not reused.
    """
    base = Game(base.structure, base.costs, base.demands)
    spy = mock.patch.object(solvers, "_descend_batch", wraps=solvers._descend_batch)
    with spy as batch:
        records = sweep(base, kind, radii, samples, seed=seed, **kwargs)
    sizes = [len(call.args[1]) for call in batch.call_args_list]
    assert sizes[:2] == [1, 1 if solvers._so_certified(base) else 1 + solvers._MULTISTARTS]
    with mock.patch.object(sensitivity, "_solve_poas", _solve_alone):
        alone = sweep(base, kind, radii, samples, seed=seed, **kwargs)
    return records, sum(sizes[2:]), sizes[2:], alone


def _assert_matches(records, alone):
    """Every field equal but pert_poa and delta; the same NaN records; PoAs within 2 solve_tol."""
    for rec, ref in zip(records, alone, strict=True):
        assert (rec.seed, rec.kind, rec.radius, rec.dist, rec.base_poa, rec.certificate_bound,
                rec.solve_tol, rec.shrunk) == (ref.seed, ref.kind, ref.radius, ref.dist,
                                               ref.base_poa, ref.certificate_bound,
                                               ref.solve_tol, ref.shrunk)
        assert math.isnan(rec.pert_poa) == math.isnan(ref.pert_poa)
        if math.isfinite(ref.pert_poa):
            assert abs(rec.pert_poa - ref.pert_poa) <= 2.0 * rec.solve_tol


class TestBatchedSweep:
    """Samples solved in lockstep match the per-sample solves from the same warm starts."""

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1), which=st.integers(0, 2),
           kind=st.sampled_from(("demand", "cost", "joint")), samples=st.integers(2, 8))
    def test_matches_per_sample(self, two_link, three_link, shared_arc, seed, which, kind,
                                samples):
        structure = (two_link, three_link, shared_arc)[which]
        rng = np.random.default_rng(seed)
        families = [str(f) for f in rng.choice(("affine", "bpr", "poly"),
                                               len(structure.arcs))]
        base = random_game(structure, rng, families)
        records, rows, _, alone = _sweeps(base, kind, [1e-1, 1e-2, 1e-3], samples, seed % 1000)
        assert rows == 2 * len(records)  # every WE and SO went through the lockstep loop
        _assert_matches(records, alone)

    def test_unconverged_rows_as_per_sample(self, shared_arc):
        # 3 iterations solve the base (its SO from its WE), but not every wide sample
        # from its warm start
        base = Game(shared_arc,
                    (BPR(0.5, 2, 0.26), Affine(1.2, 0.18), BPR(1.6, 1, 0.31), Affine(2.0, 0.22)),
                    np.array([1.5, 1.5]))
        records, rows, _, alone = _sweeps(base, "cost", [0.5, 0.3, 0.1], 4, 2, max_iter=3)
        assert rows == 2 * len(records)
        unconverged = [math.isnan(r.pert_poa) for r in records]
        assert 0 < sum(unconverged) < len(records)
        _assert_matches(records, alone)

    def test_three_link_rows_take_the_newton_step(self, three_link):
        # three used links leave two free directions, so the batch's rows take
        # the used-path Newton step, as the per-sample solves do
        base = Game(three_link, (Affine(1, 0.1), Affine(0.5, 0.3), Polynomial((0.05, 0.2, 1.0))),
                    np.array([2.0]))
        real, stepped = solvers._used_path_newton, []

        def spy(st_, arc_eval, arc_slope, f, *rest):
            out = real(st_, arc_eval, arc_slope, f, *rest)
            stepped.append(len(f) > 1 and not np.array_equal(out[0], f))  # a batch moved
            return out

        with mock.patch.object(solvers, "_used_path_newton", spy):
            records, rows, _, alone = _sweeps(base, "joint", [1e-1, 1e-2], 4, 3, max_iter=5)
        assert any(stepped)
        assert rows == 2 * len(records)
        assert all(math.isfinite(r.pert_poa) for r in records)
        _assert_matches(records, alone)

    def test_flat_links_batch_matches_alone(self, three_link):
        # every row starts with flow on a dearer flat link, which the step's ratio
        # test must empty: one pass solves each row, in lockstep or alone
        games = [Game(three_link, (Constant(1.0), Constant(c), BPR(1.0, 2.0, 0.1)), np.array([2.0]))
                 for c in (1.1, 1.2, 1.3, 1.4)]
        starts = [(np.array([0.3, 0.2, 1.5]),) * 2] * len(games)
        lockstep = solvers._solve_poas(games, [1e-10] * len(games), 1, starts)[0]
        alone = _solve_alone(games, [1e-10] * len(games), 1, starts)[0]
        assert all(math.isfinite(rho) for rho in lockstep)
        assert np.allclose(lockstep, alone, rtol=0.0, atol=2e-10)

    def test_stalled_rows_leave_with_the_gap_after_the_step(self, three_link):
        # at tol 1e-14 the swaps stall at the costs' float resolution, and in that
        # last pass the Newton step closes the gap: lockstep rows, like the solves
        # alone, must be judged on the flow the step left
        game = Game(three_link, (BPR(100, 4, 0.8), BPR(10, 1, 0.5), Affine(10, 0.6)),
                    np.array([3.0]))
        games, starts = [game] * 4, [(np.ones(3), np.ones(3))] * 4
        lockstep = solvers._solve_poas(games, [1e-14] * 4, 200, starts)[0]
        alone = _solve_alone(games, [1e-14] * 4, 200, starts)[0]
        assert all(math.isfinite(rho) for rho in alone)
        assert np.allclose(lockstep, alone, rtol=0.0, atol=2e-14)

    @pytest.mark.parametrize("kind", ["cost", "demand", "joint"])
    def test_uncertified_samples_are_one_batch(self, kind):
        # the upper arc's slope falls past flow 1, below every sample's total
        # demand: all 24 SOs are uncertified, and their starts and restarts run
        # as the rows of one batch
        base = load_game(DATA / "two_link_kinked.json")
        records, _, calls, alone = _sweeps(base, kind, [1e-1, 1e-2, 1e-3], 8, 3)
        assert calls == [24, 24 * (1 + solvers._MULTISTARTS)]
        _assert_matches(records, alone)
        assert [r.pert_poa for r in records] == [r.pert_poa for r in alone]

    def test_certified_and_uncertified_samples_in_one_sweep(self):
        # demand samples around a total just below the kink: those that cross it
        # have an uncertified SO, the others a certified one
        base = load_game(DATA / "two_link_kink_edge.json")
        records, _, calls, alone = _sweeps(base, "demand", [2e-1, 1e-1, 5e-2, 2e-2], 8, 4)
        certified = sum(solvers._so_certified(sample_ball(base, r.radius, "demand", r.seed).game)
                        for r in records)
        assert 0 < certified < len(records) == 32
        # the WEs and the certified SOs descend as one batch, the uncertified SOs as another
        assert calls == [32 + certified, (32 - certified) * (1 + solvers._MULTISTARTS)]
        _assert_matches(records, alone)
        assert all(math.isfinite(r.pert_poa) for r in records)
        assert [r.pert_poa for r in records] == [r.pert_poa for r in alone]

    def test_mixed_batch_rows_have_their_solves_bits(self, two_link):
        # certified games around a kinked one whose SO is uncertified: the WEs and the
        # certified SOs are one batch, the kinked SO its multistart, and each row has the
        # bits of its game's solve_we or solve_so alone from the same start
        kinked = load_game(DATA / "two_link_kinked.json")
        games = [Game(two_link, (BPR(1, 2, 0.1), Affine(0.5, 0.4)), np.array([1.0])), kinked,
                 Game(two_link, (Affine(1, 0.1), Constant(1.2)), np.array([2.0])),
                 Game(two_link, (PiecewiseLinear((0.0, 0.5, 1.5), (0.2, 0.6, 1.8)),
                                 Affine(1.0, 0.3)), np.array([1.0]))]
        assert [solvers._so_certified(g) for g in games] == [True, False, True, True]
        starts = [(np.array([0.3, 0.7]) * g.total_demand, np.array([0.6, 0.4]) * g.total_demand)
                  for g in games]
        tols = [1e-10, 1e-12, 1e-10, 1e-11]
        with mock.patch.object(solvers, "_descend_batch", wraps=solvers._descend_batch) as spy:
            _, solved = solvers._solve_poas(games, tols, 100_000, starts)
        assert [len(call.args[1]) for call in spy.call_args_list] == [7, 1 + solvers._MULTISTARTS]
        for kind, (f, gap, passes, certified) in enumerate(solved):
            solve = (solvers.solve_we, solvers.solve_so)[kind]
            for b, (game, tol, start) in enumerate(zip(games, tols, starts, strict=True)):
                alone = solve(game, tol, 100_000, start[kind])
                np.testing.assert_array_equal(f[b], alone.flow.values)
                assert (gap[b], passes[b], certified[b]) == (
                    alone.duality_gap, alone.iterations, alone.optimality_certified)

    def test_final_flows_are_checked(self, pigou):
        # a batch's final flows pass the feasibility check of a single solve's flow
        descend = solvers._descend_batch

        def off_demand(*args):
            f, gap, passes = descend(*args)
            return f * (1.0 + 1e-6), gap, passes

        with mock.patch.object(solvers, "_descend_batch", off_demand):
            with pytest.raises(InfeasibleFlowError):
                sweep(pigou, "cost", [1e-2, 1e-3], 8, seed=3)

    @pytest.mark.parametrize("costs", [
        (MonomialLog(1.0, 1.0, 1.0), MonomialLog(0.5, 2.0, 1.0)),
        (PiecewiseLinear((0.0, 0.5, 1.5), (0.2, 0.6, 1.8)), Affine(1.0, 0.3)),
    ])
    def test_other_families_solve_in_lockstep(self, two_link, costs):
        # both SOs are certified convex, so every sample's WE and SO run in lockstep
        base = Game(two_link, costs, np.array([1.0]))
        for kind in ("demand", "cost", "joint"):
            records, rows, _, alone = _sweeps(base, kind, [1e-1, 1e-2], 4, 1)
            assert rows == 2 * len(records)
            _assert_matches(records, alone)

    def test_batch_bounds_are_each_games_bound(self):
        # the a priori PoA bound of every lockstep row, priced by the batch's cost
        # table, has the bits of the game's own bound and of its scalar cost calls
        base = load_game(DATA / "shared_arc_mixed.json")
        games = [sample_ball(base, radius, kind=kind, seed=seed).game
                 for kind in ("demand", "cost", "joint") for radius in (1e-1, 1e-2)
                 for seed in range(4)]
        starts = [(solvers._initial_flow(g, None),) * 2 for g in games]
        checked, bounds = solvers._checked_poa, []

        def spy(rho, tol, bound):
            bounds.append(bound)
            return checked(rho, tol, bound)

        with mock.patch.object(solvers, "_checked_poa", spy), \
                mock.patch.object(solvers, "_solve_poa", side_effect=AssertionError):
            poas = solvers._solve_poas(games, [1e-10] * len(games), 100_000, starts)[0]
        assert all(math.isfinite(rho) for rho in poas)
        n_a, n_s = len(base.structure.arcs), base.structure.n_paths
        for game, bound in zip(games, bounds, strict=True):
            t = game.total_demand
            scalar = (n_a * n_s * max(float(c(t)) for c in game.costs)
                      / min(float(c(t / n_s)) for c in game.costs))
            assert bound == poa_upper_bound(game) == scalar


def _synthetic_records(rule):
    rng = np.random.default_rng(0)
    records = []
    for i in range(40):
        d = float(10.0 ** rng.uniform(-4, -1))
        records.append(SweepRecord(
            seed=i, kind="joint", radius=d, dist=MetricValue(d, d, 0.0, 0.0),
            base_poa=1.0, pert_poa=1.0 + rule(d), delta=rule(d),
            certificate_bound=None, solve_tol=1e-14))
    return records


class TestFit:
    def test_identity_rule(self):
        fit = fit_hoelder(_synthetic_records(lambda d: d))
        assert fit.gamma == pytest.approx(1.0, abs=1e-9)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
        assert fit.constant == pytest.approx(1.0, abs=1e-9)

    def test_sqrt_rule(self):
        fit = fit_hoelder(_synthetic_records(math.sqrt))
        assert fit.gamma == pytest.approx(0.5, abs=1e-9)

    @pytest.mark.parametrize("min_delta", [math.nan, math.inf, -1e-9])
    def test_rejects_a_floor_that_is_not_finite_and_non_negative(self, min_delta):
        # delta <= nan is False: a NaN floor would let a record below the solver floor in
        records = _synthetic_records(lambda d: d) + [SweepRecord(
            seed=40, kind="joint", radius=1e-2, dist=MetricValue(1e-2, 1e-2, 0.0, 0.0),
            base_poa=1.0, pert_poa=1.0 + 1e-15, delta=1e-15, certificate_bound=None,
            solve_tol=1e-14)]
        assert fit_hoelder(records).n_used == 40
        with pytest.raises(ValueError, match="min_delta"):
            fit_hoelder(records, min_delta=min_delta)

    def test_too_few_records(self):
        with pytest.raises(ValueError):
            fit_hoelder(_synthetic_records(lambda d: d)[:5])

    def test_near_tie_family_fits_exponent_one(self, fig3b):
        # strictly increasing costs: joint perturbations respond linearly
        records = sweep(fig3b, "joint", [1e-1, 1e-2, 1e-3, 1e-4], 24, seed=21)
        fit = fit_hoelder(records)
        assert fit.gamma >= 0.9


class TestContinuityAndDivergence:
    def test_max_delta_shrinks_with_radius(self, pigou):
        records = sweep(pigou, "joint", [1e-1, 1e-2, 1e-3, 1e-4], 24, seed=13)
        by_radius = max_delta_by_radius(records)
        radii = sorted(by_radius, reverse=True)
        for larger, smaller in zip(radii, radii[1:]):
            assert by_radius[smaller] <= by_radius[larger] + 20 * 1e-10

    def test_shrinking_mechanism_no_uniform_pair(self, pigou, two_link):
        other = Game(two_link, (Constant(1.0), Constant(1.0)), np.array([1.0]))
        delta = abs(poa(pigou, tol=TOL) - poa(other, tol=TOL))
        assert delta >= 0.1
        d0 = dist(pigou, other).value
        for n in (1, 2, 3):
            a = cost_normalize(pigou, 10.0**n)
            b = cost_normalize(other, 10.0**n)
            dn = dist(a, b).value
            assert dn == pytest.approx(d0 / 10.0**n, rel=1e-9)
            delta_n = abs(poa(a, tol=TOL) - poa(b, tol=TOL))
            assert delta_n == pytest.approx(delta, abs=20 * TOL)
            # the empirical ratio grows without bound for any fixed exponent
            for gamma in (0.5, 1.0):
                assert delta_n / dn**gamma >= 0.9 * delta / d0**gamma * 10 ** (n * gamma * 0.9)

    def test_zero_cost_limit_has_no_continuous_extension(self, two_link):
        # two sequences at shrinking distance from the same degenerate limit
        # with different PoA limits (1 for flat arcs, 4/3 for the linear arc)
        zero = Constant(0.0)
        for n in (10, 100, 1000):
            flat = Game(two_link, (Constant(1.0 / n), Constant(1.0 / n)),
                        np.array([1.0]))
            linear = Game(two_link, (Constant(1.0 / n), BPR(1.0 / n, 1.0, 0.0)),
                          np.array([1.0]))
            d_flat = max(sup_distance(c, zero, 1.0)[0] for c in flat.costs)
            d_linear = max(sup_distance(c, zero, 1.0)[0] for c in linear.costs)
            assert d_flat == pytest.approx(1.0 / n)
            assert d_linear == pytest.approx(1.0 / n)
            assert abs(poa(flat, tol=TOL) - 1.0) < 1e-3
            assert abs(poa(linear, tol=TOL) - 4.0 / 3.0) < 1e-3


def test_warm_starts_over_rows_are_each_rows_start(shared_arc):
    """One _warm_start over (B, |K|) demands gives each row the bits of its own call, a
    pair with zero base demand starting cold."""
    base = Game(shared_arc, (Affine(1, 0.5), Affine(2, 0.2), BPR(1, 2, 0.1), Affine(0.5, 0.05)),
                np.array([0.0, 1.5]))
    flow = solvers.solve_we(base).flow
    demands = np.random.default_rng(3).uniform(0.0, 2.0, size=(5, 2))
    rows = sensitivity._warm_start(base, flow, demands)
    for row, d in zip(rows, demands, strict=True):
        assert row.tobytes() == sensitivity._warm_start(base, flow, d).tobytes()
        assert row[shared_arc.pair_starts[0]] == d[0]
