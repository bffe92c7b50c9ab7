"""Metric axioms, certified distances, and the ball sampler."""

import dataclasses
import pathlib
from unittest import mock

import numpy as np
import pytest

from poalab import (
    BPR,
    Affine,
    Constant,
    Game,
    PiecewiseLinear,
    StructureMismatchError,
    check_metric_axioms,
    dist,
    games_equivalent,
    naive_max_interval_dist,
    sample_ball,
    sup_distance,
)
from hypothesis import given, settings, strategies as st

from poalab import Polynomial, ScaledCost, TruncatedCost, metric
from poalab.costs import _Wrapper
from poalab.io import load_game

from conftest import MIXED_FAMILIES, criterion7_bases, random_game
from test_cost_table import COSTS


def _probe_rounds():
    """A spy on the sampler's probe rounds: each round checks its draws once, by Game's rule."""
    return mock.patch.object(Game, "_valid_rows", wraps=Game._valid_rows)


def _loop_dist(g1, g2):
    """dist with its endpoint term priced by a scalar call per cost, per call."""
    t1, t2 = g1.total_demand, g2.total_demand
    sups = [sup_distance(c1, c2, min(t1, t2)) for c1, c2 in zip(g1.costs, g2.costs)]
    endpoint = max(abs(c1(t1) - c2(t2)) for c1, c2 in zip(g1.costs, g2.costs))
    demand_part = float(np.max(np.abs(g1.demands - g2.demands)))
    cost_part = max(max(est for est, _ in sups), endpoint)
    cost_hi = max(max(est + err for est, err in sups), endpoint)
    value = max(demand_part, cost_part)
    return metric.MetricValue(value, demand_part, cost_part,
                              max(demand_part, cost_hi) - value)


def _bits(mv):
    return [x.hex() for x in dataclasses.astuple(mv)]


class TestDist:
    def test_self_distance_zero(self, pigou):
        mv = dist(pigou, pigou)
        assert mv.value == 0.0
        assert mv.error_bound == 0.0

    def test_near_tie_pair_distance_is_eps(self, fig3a, fig3b):
        mv = dist(fig3a, fig3b)
        assert mv.value == pytest.approx(0.01, abs=1e-15)
        assert mv.demand_part == 0.0

    def test_demand_scaling_closed_form(self, two_link):
        # same affine costs, demands scaled by 1 + delta: demand part is
        # delta * max d_k, endpoint part is slope * delta * T
        slope, delta = 1.4, 0.3
        g1 = Game(two_link, (Affine(slope, 0.2), Affine(slope, 0.2)), np.array([1.0]))
        g2 = g1.with_demands([1.0 + delta])
        mv = dist(g1, g2)
        assert mv.demand_part == pytest.approx(delta)
        assert mv.cost_part == pytest.approx(slope * delta * 1.0)
        assert mv.value == pytest.approx(max(delta, slope * delta))

    def test_symmetry_exact(self, shared_arc):
        rng = np.random.default_rng(7)
        for _ in range(20):
            g1 = random_game(shared_arc, rng, families=list(MIXED_FAMILIES)[:4])
            g2 = random_game(shared_arc, rng)
            assert dist(g1, g2).value == dist(g2, g1).value

    def test_endpoint_costs_are_the_scalar_calls(self, shared_arc):
        rng = np.random.default_rng(11)
        for _ in range(20):
            game = random_game(shared_arc, rng, families=list(rng.choice(MIXED_FAMILIES, size=4)))
            want = tuple(c(game.total_demand) for c in game.costs)
            assert [x.hex() for x in game.endpoint_costs] == [x.hex() for x in want]

    def test_dist_matches_the_per_call_endpoint_loop(self, two_link, three_link, shared_arc):
        # the cached endpoint costs give the bits of pricing each cost at its own total
        # demand inside every dist call, on the sampler's draws around the criterion-07 bases
        for base in criterion7_bases(two_link, three_link, shared_arc).values():
            for kind in ("cost", "demand", "joint"):
                for radius in (1e-1, 1e-3):
                    for seed in range(3):
                        game = sample_ball(base, radius, kind=kind, seed=seed).game
                        for a, b in ((base, game), (game, base)):
                            assert _bits(dist(a, b)) == _bits(_loop_dist(a, b))

    def test_structure_mismatch(self, pigou, three_link):
        g = Game(three_link, (Constant(1.0),) * 3, np.array([1.0]))
        with pytest.raises(StructureMismatchError):
            dist(pigou, g)

    def test_tail_equivalent_game_at_distance_zero(self, two_link):
        g1 = Game(two_link,
                  (PiecewiseLinear((0.0, 1.0), (0.5, 1.0)), Constant(1.0)),
                  np.array([1.0]))
        g2 = Game(two_link,
                  (PiecewiseLinear((0.0, 1.0, 1.5), (0.5, 1.0, 7.0)), Constant(1.0)),
                  np.array([1.0]))
        assert games_equivalent(g1, g2)
        mv = dist(g1, g2)
        assert mv.value <= mv.error_bound  # zero up to certification

    def test_equivalent_games_same_distance_to_third(self, two_link):
        g1 = Game(two_link,
                  (PiecewiseLinear((0.0, 1.0), (0.5, 1.0)), Constant(1.0)),
                  np.array([1.0]))
        g2 = Game(two_link,
                  (PiecewiseLinear((0.0, 1.0, 1.5), (0.5, 1.0, 7.0)), Constant(1.0)),
                  np.array([1.0]))
        g3 = Game(two_link, (Affine(0.7, 0.3), Constant(1.2)), np.array([1.0]))
        d1, d2 = dist(g1, g3), dist(g2, g3)
        assert d1.value == pytest.approx(d2.value, abs=d1.error_bound + d2.error_bound + 1e-12)


class TestAxioms:
    def test_random_triples(self, two_link):
        rng = np.random.default_rng(13)
        for _ in range(60):
            g1 = random_game(two_link, rng, families=[rng.choice(MIXED_FAMILIES)] * 2)
            g2 = random_game(two_link, rng, families=[rng.choice(MIXED_FAMILIES)] * 2)
            g3 = random_game(two_link, rng, families=[rng.choice(MIXED_FAMILIES)] * 2)
            rep = check_metric_axioms(g1, g2, g3)
            assert rep.all_ok, rep

    def test_union_interval_operator_breaks_triangle(self, two_link):
        # costs equal on [0, 1], diverging on (1, 1.2]: the union-interval
        # operator sees distance 0 between the first two games but a large
        # distance to the third, violating the triangle inequality
        tau = PiecewiseLinear((0.0, 1.0, 1.2), (0.1, 1.0, 1.2))
        sigma = PiecewiseLinear((0.0, 1.0, 1.2), (0.1, 1.0, 3.0))
        g = Game(two_link, (tau, Constant(1.0)), np.array([1.0]))
        g_prime = Game(two_link, (sigma, Constant(1.0)), np.array([1.0]))
        g_second = Game(two_link, (sigma, Constant(1.0)), np.array([1.2]))
        d_ab = naive_max_interval_dist(g, g_prime)
        d_bc = naive_max_interval_dist(g_prime, g_second)
        d_ac = naive_max_interval_dist(g, g_second)
        assert d_ac > d_ab + d_bc + 0.5  # clear violation
        # the proper metric is fine on the same triple
        rep = check_metric_axioms(g, g_prime, g_second)
        assert rep.triangle_ok

    def test_equivalence_sees_a_narrow_bump(self, two_link):
        # the costs differ by up to 1/15 on [0.5, 0.5002] only, between the points of
        # a coarse grid; equivalence reads the exact piecewise-linear sup that dist reads
        g1 = Game(two_link, (PiecewiseLinear((0.0, 0.5, 0.5001, 0.5002, 1.0),
                                             (0.5, 0.5, 0.6, 0.6, 1.0)), Constant(1.0)),
                  np.array([1.0]))
        g2 = Game(two_link, (PiecewiseLinear((0.0, 0.5, 0.50015, 0.5002, 1.0),
                                             (0.5, 0.5, 0.55, 0.6, 1.0)), Constant(1.0)),
                  np.array([1.0]))
        assert dist(g1, g2).value == pytest.approx(1.0 / 15.0)
        assert not games_equivalent(g1, g2)
        assert check_metric_axioms(g1, g2, g1).identity_ok


class TestSampleBall:
    def test_radius_zero_returns_base(self, pigou):
        p = sample_ball(pigou, 0.0, kind="joint", seed=1)
        assert p.game is pigou
        assert p.realized.value == 0.0

    def test_demand_only_bounds(self, pigou):
        p = sample_ball(pigou, 0.1, kind="demand", seed=2)
        assert 0.9 <= p.game.demands[0] <= 1.1
        assert p.realized.upper() <= 0.1
        assert p.realized.value >= 0.05 or p.shrunk
        # costs untouched
        assert p.game.costs == pigou.costs

    def test_cost_only_keeps_demands(self, pigou):
        p = sample_ball(pigou, 0.02, kind="cost", seed=3)
        assert np.array_equal(p.game.demands, pigou.demands)
        assert p.realized.upper() <= 0.02

    def test_certificate_on_many_draws(self, shared_arc):
        rng = np.random.default_rng(31)
        base = random_game(shared_arc, rng, families=["affine", "bpr", "poly", "affine"])
        for seed in range(25):
            for kind in ("demand", "cost", "joint"):
                p = sample_ball(base, 0.05, kind=kind, seed=seed)
                recomputed = dist(base, p.game)
                assert recomputed.upper() <= 0.05 + 1e-12
                if not p.shrunk:
                    assert recomputed.upper() >= 0.025 - 1e-12

    def test_one_dist_per_sample(self, two_link, three_link, shared_arc):
        # the knob's first-order probe, or its one secant step, lands in the band: about one
        # probe round, and so one distance, per sample
        samples = 0
        with _probe_rounds() as spy:
            for base in criterion7_bases(two_link, three_link, shared_arc).values():
                for kind in ("cost", "demand", "joint"):
                    for radius in (1e-1, 1e-2, 1e-3, 1e-4):
                        for seed in range(4):
                            p = sample_ball(base, radius, kind=kind, seed=seed)
                            samples += 1
                            assert p.realized == dist(base, p.game)  # the unpatched dist
                            assert p.shrunk or radius / 2 <= p.realized.upper() <= radius
        assert spy.call_count / samples <= 1.2

    def test_scaled_arc_lands_in_the_band(self):
        # the scaled monomial-log arc of this game has an exact sup rule against its
        # perturbed self, so no grid error keeps a small ball's samples out of the band
        base = load_game(pathlib.Path(__file__).resolve().parents[1] / "data/shared_arc_mixed.json")
        samples = 0
        with _probe_rounds() as spy:
            for kind in ("cost", "joint"):
                for radius in (1e-2, 1e-3):
                    for seed in range(8):
                        p = sample_ball(base, radius, kind=kind, seed=seed)
                        samples += 1
                        assert not p.shrunk and p.realized.error_bound == 0.0
                        assert radius / 2 <= p.realized.upper() <= radius
        assert spy.call_count / samples <= 1.5

    def test_truncated_arc_lands_in_the_band(self):
        # the truncated BPR arc of this game and its perturbed self share an anchor, so
        # the extension rule gives their sup exactly and small balls reach their band
        base = load_game(
            pathlib.Path(__file__).resolve().parents[1] / "data/shared_arc_truncated.json")
        for kind in ("cost", "joint"):
            for seed in range(8):
                p = sample_ball(base, 1e-3, kind=kind, seed=seed)
                assert not p.shrunk and p.realized.error_bound == 0.0
                assert 1e-3 / 2 <= p.realized.upper() <= 1e-3

    def test_one_cap_on_the_probes(self, two_link, three_link, shared_arc):
        # a ball too wide for the demands: the search ends within its cap, on a draw
        # that is flagged shrunk exactly when it lies below the band
        for base in criterion7_bases(two_link, three_link, shared_arc).values():
            for kind in ("demand", "joint"):
                for seed in range(10):
                    with _probe_rounds() as spy:
                        p = sample_ball(base, 5.0, kind=kind, seed=seed)
                    assert spy.call_count <= metric._PROBES
                    assert p.realized == dist(base, p.game)
                    assert p.shrunk == (p.realized.upper() < 2.5)

    @pytest.mark.parametrize("seed, demand, value", [
        (0, 1.0000000000287557e-06, 0.999999),
        (2, 1.000000000139778e-06, 0.9999989999999999),
    ])
    def test_search_stops_when_its_bracket_cannot_shrink(self, pigou, seed, demand, value):
        # the demand clip holds the distance under 1, out of the band [2.5, 5]: the search
        # bisects its bracket down to adjacent floats and stops there, with the draw it had
        with _probe_rounds() as spy:
            p = sample_ball(pigou, 5.0, kind="demand", seed=seed)
        assert spy.call_count <= 60  # 56 rounds; re-probing the fixed bracket spends all 80
        assert p.shrunk and p.game.demands.tolist() == [demand]
        assert p.realized == metric.MetricValue(value, value, value, 0.0)

    def test_a_search_longer_than_the_cap_stops_at_it(self, two_link):
        # a base just above the demand floor: a lowered demand stays valid only for t below
        # about 1e-15, so the bracket halves from t ~ 0.4 down to there and then bisects
        # toward adjacent floats, 101 rounds in all; the cap stops it, with its last draw
        base = Game(two_link, (BPR(1.0, 1.0, 0.0), Constant(1.0)),
                    np.array([metric.MIN_TOTAL_DEMAND * (1.0 + 1e-9)]))
        with mock.patch.object(metric, "_PROBES", 1000), _probe_rounds() as spy:
            sample_ball(base, 0.5, kind="demand", seed=0)
        assert spy.call_count > metric._PROBES
        with _probe_rounds() as spy:
            p = sample_ball(base, 0.5, kind="demand", seed=0)
        assert spy.call_count == metric._PROBES
        assert p.shrunk and p.game is not base
        assert p.realized == dist(base, p.game) and 0.0 < p.realized.value < 1e-15

    def test_deterministic_given_seed(self, pigou):
        a = sample_ball(pigou, 0.03, kind="joint", seed=77)
        b = sample_ball(pigou, 0.03, kind="joint", seed=77)
        assert np.array_equal(a.game.demands, b.game.demands)
        assert a.game.costs == b.game.costs

    def test_oversized_radius_flags_shrunk(self, pigou):
        # demand ball of radius 5 around demand 1 cannot be filled while
        # keeping the demand non-negative
        p = sample_ball(pigou, 5.0, kind="demand", seed=4)
        assert p.shrunk or p.realized.upper() >= 2.5


DATA = pathlib.Path(__file__).resolve().parents[1] / "data"
RADII = (1e-4, 1e-3, 1e-2, 0.1, 0.5, 1.0, 5.0)


def _no_tangent_games(two_link, three_link, shared_arc):
    """The criterion-07 bases and every data game whose costs all have a perturbation rule."""
    games = dict(criterion7_bases(two_link, three_link, shared_arc))
    games.update((path.stem, load_game(path)) for path in sorted(DATA.glob("*.json")))
    return {name: g for name, g in games.items() if all(c.perturbable for c in g.costs)}


def _draw_bits(p):
    return (p.kind, p.target, p.seed, repr(p.game.costs), p.game.demands.tobytes(),
            _bits(p.realized), p.shrunk)


class TestSampleBalls:
    """``_sample_balls`` against its one-row calls, and its distances against ``dist``."""

    @settings(max_examples=12, deadline=None)
    @given(data=st.data())
    def test_every_row_is_its_one_row_call(self, two_link, three_link, shared_arc, data):
        games = _no_tangent_games(two_link, three_link, shared_arc)
        base = games[data.draw(st.sampled_from(sorted(games)))]
        kind = data.draw(st.sampled_from(["demand", "cost", "joint"]))
        draws = data.draw(st.lists(st.tuples(st.sampled_from(RADII), st.integers(0, 2**31)),
                                   min_size=1, max_size=8))
        radii, seeds = [r for r, _ in draws], [s for _, s in draws]
        batch, table = metric._sample_balls(base, radii, [kind] * len(draws), seeds)
        alone = [sample_ball(base, r, kind, s) for r, s in draws]
        assert [_draw_bits(p) for p in batch] == [_draw_bits(p) for p in alone]
        if table is not None:  # the table of the draws' costs, game after game
            costs = [c for p in batch for c in p.game.costs]
            assert repr(table.costs()) == repr(costs)

    def test_one_batch_per_base_and_kind(self, two_link, three_link, shared_arc):
        # every radius from 1e-4 to 5 and four seeds in one batch: rows that shrink, clip a
        # demand to 0 or get no valid draw keep their one-row bits too
        shrunk = clipped = 0
        for base in _no_tangent_games(two_link, three_link, shared_arc).values():
            for kind in ("demand", "cost", "joint"):
                draws = [(r, s) for r in RADII for s in range(4)]
                batch = metric._sample_balls(base, [r for r, _ in draws], [kind] * len(draws),
                                             [s for _, s in draws])[0]
                for p, (radius, seed) in zip(batch, draws, strict=True):
                    assert _draw_bits(p) == _draw_bits(sample_ball(base, radius, kind, seed))
                    shrunk += p.shrunk
                    clipped += bool((p.game.demands == 0.0).any())
        assert shrunk and clipped

    def test_array_distance_is_dist(self, two_link, three_link, shared_arc):
        # the kernels' exact sup rules give each draw the bits of dist against its base; a
        # game without a wrapper arc has one for every row, so its search never calls dist
        for base in _no_tangent_games(two_link, three_link, shared_arc).values():
            wrapped = any(isinstance(c, _Wrapper) for c in base.costs)
            for kind in ("demand", "cost", "joint"):
                draws = [(r, s) for r in RADII for s in range(3)]
                with mock.patch.object(metric, "dist", wraps=metric.dist) as spy:
                    batch = metric._sample_balls(base, [r for r, _ in draws],
                                                 [kind] * len(draws), [s for _, s in draws])[0]
                assert spy.call_count == 0 or (wrapped and kind != "demand")
                for p in batch:
                    assert _bits(p.realized) == _bits(dist(base, p.game))

    @settings(max_examples=60, deadline=None)
    @given(cost=COSTS.filter(lambda c: c.perturbable), shift=st.floats(-0.5, 0.5),
           stretch=st.floats(-0.5, 0.5), horizon=st.floats(0.05, 4.0), hi=st.floats(0.01, 4.0))
    def test_kernel_sup_rules_are_sup_distance(self, cost, shift, stretch, horizon, hi):
        # where a kernel rule answers, it is sup_distance's exact estimate, bit for bit
        moved = cost.perturbed(shift, stretch, horizon)
        base = cost._row
        got = base.sup(base.perturbed(np.array([shift]), np.array([stretch]), horizon),
                       np.array([hi]))[0]
        est, err = sup_distance(cost, moved, hi)
        assert np.isnan(got) or (got == est and err == 0.0)

    @pytest.mark.parametrize("wrapper", [ScaledCost(Affine(1.0, 0.2), 2.0),
                                         TruncatedCost(Polynomial((0.1, 1.0, 1.0)), 1.0)])
    def test_rows_without_a_rule_take_dist(self, two_link, wrapper):
        # a quartic's perturbed difference takes sup_distance's grid, and wrapper rows have no
        # kernel rule: their rows call dist, with the same bits alone
        base = Game(two_link, (Polynomial((0.1, 0.0, 0.0, 0.0, 1.0)), wrapper), np.array([1.0]))
        for kind in ("cost", "joint"):
            draws = [(r, s) for r in (1e-3, 0.1) for s in range(3)]
            with mock.patch.object(metric, "dist", wraps=metric.dist) as spy:
                batch = metric._sample_balls(base, [r for r, _ in draws], [kind] * len(draws),
                                             [s for _, s in draws])[0]
            assert spy.call_count >= len(draws)
            for p, (radius, seed) in zip(batch, draws, strict=True):
                assert _draw_bits(p) == _draw_bits(sample_ball(base, radius, kind, seed))
                assert p.realized == dist(base, p.game)

    @pytest.mark.parametrize("seed", [0, 1, 2**31 - 1, 2**32 - 1, 2**32, 5 * 10**15 + 3,
                                      2**64 + 7, np.int64(12), np.uint32(2**32 - 1)])
    def test_uniforms_are_default_rngs(self, seed):
        # one random call, and an int seed's uint32 words in place of SeedSequence's own
        # conversion, give the three uniform draws of the seed's default_rng, bit for bit
        rng = np.random.default_rng(np.random.SeedSequence((seed, 0xBA11)))
        want = (rng.uniform(-1.0, 1.0, size=2), rng.uniform(0.5, 1.0, size=3),
                rng.uniform(0.5, 1.0, size=3))
        got = metric._uniforms([seed, 7], 2, 3)
        assert [g[0].tobytes() for g in got] == [w.tobytes() for w in want]

    def test_a_negative_seed_is_refused(self, pigou):
        with pytest.raises(ValueError):
            sample_ball(pigou, 0.1, seed=-3)

    def test_mixed_batches_are_refused(self, pigou):
        with pytest.raises(ValueError, match="every row or in none"):
            metric._sample_balls(pigou, [0.1, 0.1], ["demand", "cost"], [1, 2])
