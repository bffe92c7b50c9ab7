"""Demand-scaling experiments and their certificate bounds."""

import math

import numpy as np
import pytest

from poalab import (
    BPR,
    Affine,
    Constant,
    DemandSchedule,
    Game,
    MonomialLog,
    Polynomial,
    converge_down,
    converge_up,
    cost_normalize,
    demand_normalize,
    fit_rate,
    light_traffic_reduction_gap,
    monomial_log_gap_bound,
    normalized_monomial_gap,
    poa,
    regular_variation_params,
)


class TestSchedule:
    def test_fixed_ratio_exact(self):
        sched = DemandSchedule((2.0, 1.0), (3.0, 0.3, 0.03))
        for i, total in enumerate(sched.totals):
            d = sched.demands_at(i)
            assert d.sum() == pytest.approx(total, abs=1e-15)
            assert d[0] / d.sum() == pytest.approx(2.0 / 3.0, abs=1e-15)

    def test_drifting_ratio_stays_positive(self):
        sched = DemandSchedule((1.0, 1.0), tuple(10.0**-k for k in range(6)),
                               pattern="drifting-ratio")
        for i in range(6):
            d = sched.demands_at(i)
            assert np.all(d > 0)
            assert d.sum() == pytest.approx(sched.totals[i])

    def test_validation(self):
        with pytest.raises(ValueError):
            DemandSchedule((0.0,), (1.0,))
        with pytest.raises(ValueError):
            DemandSchedule((1.0,), (0.0,))
        for totals in ((), (1.0, math.nan), (1.0, math.inf)):
            with pytest.raises(ValueError, match="totals"):
                DemandSchedule((1.0,), totals)
        for direction in ((1.0, math.nan), (math.inf, 1.0)):
            with pytest.raises(ValueError, match="direction"):
                DemandSchedule(direction, (1.0,))


class TestConvergeDown:
    def test_affine_pair_stays_below_bound(self, two_link):
        g = Game(two_link, (Affine(1.0, 1.0), Constant(2.0)), np.array([1.0]))
        sched = DemandSchedule((1.0,), (1e-1, 1e-2, 1e-3, 1e-4))
        points = converge_down(g, sched)
        for p in points:
            assert p.poa_minus_one <= p.bound
            assert p.poa_minus_one >= -1e-12

    def test_constant_costs_poa_stays_one(self, two_link):
        g = Game(two_link, (Constant(1.0), Constant(1.5)), np.array([1.0]))
        sched = DemandSchedule((1.0,), (1e-1, 1e-2, 1e-3))
        for p in converge_down(g, sched):
            assert p.poa_minus_one == pytest.approx(0.0, abs=1e-11)

    def test_rate_at_least_linear(self, two_link):
        # tie at zero with distinct curvature: strictly positive gap decaying
        # faster than the linear certificate
        g = Game(two_link, (Affine(1.0, 1.0), Polynomial((1.0, 1.0, 1.0))),
                 np.array([1.0]))
        totals = tuple(10.0 ** (-e) for e in (1.0, 1.5, 2.0, 2.5, 3.0))
        points = converge_down(g, DemandSchedule((1.0,), totals), tol=1e-14)
        fit = fit_rate(points, "down", censor=1e-12)
        assert not fit.degenerate
        assert fit.slope >= 0.9

    def test_zero_at_origin_rejected(self, pigou):
        sched = DemandSchedule((1.0,), (0.1,))
        with pytest.raises(ValueError):
            converge_down(pigou, sched)  # the linear arc vanishes at 0

    def test_reduction_distance_bounded(self, two_link):
        g = Game(two_link, (Affine(1.0, 1.0), Constant(2.0)), np.array([1.0]))
        for total in (0.1, 0.01):
            gap, bound = light_traffic_reduction_gap(g, total)
            assert gap <= bound + 1e-12


class TestRegularVariation:
    def test_common_shape_extracted(self, two_link):
        g = Game(two_link, (BPR(2.0, 2.0, 0.5), Polynomial((0.1, 0.0, 1.0))),
                 np.array([1.0]))
        beta, alpha, coeffs = regular_variation_params(g)
        assert beta == 2.0 and alpha == 0.0
        assert np.allclose(coeffs, [2.0, 1.0])

    def test_mixed_indices_rejected(self, two_link):
        g = Game(two_link, (BPR(1.0, 1.0, 0.1), BPR(1.0, 2.0, 0.1)), np.array([1.0]))
        with pytest.raises(ValueError):
            regular_variation_params(g)

    def test_constant_not_regularly_varying_with_positive_index(self, pigou):
        with pytest.raises(ValueError):
            regular_variation_params(pigou)


class TestConvergeUp:
    def test_equal_degree_monomials_stay_at_one(self, two_link):
        g = Game(two_link, (BPR(1.0, 2.0, 0.0), BPR(3.0, 2.0, 0.0)), np.array([1.0]))
        sched = DemandSchedule((1.0,), (1.0, 10.0, 100.0))
        for p in converge_up(g, sched):
            assert p.poa_minus_one == pytest.approx(0.0, abs=1e-10)
            assert p.w == pytest.approx(0.0, abs=1e-12)

    def test_bpr_pair_decreasing_below_bound(self, two_link):
        g = Game(two_link, (Affine(1.0, 1.0), Affine(2.0, 0.5)), np.array([1.0]))
        sched = DemandSchedule((1.0,), tuple(10.0**k for k in range(0, 5)))
        points = converge_up(g, sched, tol=1e-12)
        gaps = [p.poa_minus_one for p in points]
        assert all(b <= a + 1e-10 for a, b in zip(gaps, gaps[1:]))
        for p in points:
            if p.bound is not None:
                assert p.poa_minus_one <= p.bound

    def test_monomial_log_closed_form_bound(self, two_link):
        g = Game(two_link, (MonomialLog(1.0, 1.0, 1.0), MonomialLog(2.0, 1.0, 1.0)),
                 np.array([1.0]))
        for total in (10.0, 1e3, 1e6):
            w_est, w_err = normalized_monomial_gap(g, total)
            closed = monomial_log_gap_bound(g, total)
            assert w_est <= closed + w_err

    @pytest.mark.parametrize("costs", [
        (Affine(1.0, 1.0), Affine(2.0, 0.5)),
        (BPR(1.0, 4.0, 0.15), BPR(0.5, 4.0, 1.0)),
        (Polynomial((1.0, 0.5, 1.0)), Polynomial((0.5, 1.0, 2.0))),
    ])
    def test_monomial_gap_exact_on_polynomial_games(self, two_link, costs):
        g = Game(two_link, costs, np.array([1.0]))
        beta, _alpha, coeffs = regular_variation_params(g)
        xs = np.linspace(0.0, 1.0, 1_000_001)
        for total in (10.0, 1e3):
            w, err = normalized_monomial_gap(g, total)
            ref = costs[0](total)
            grid = max(float(np.max(np.abs(c(total * xs) / ref - lam * xs**beta)))
                       for c, lam in zip(costs, coeffs / coeffs[0]))
            assert err == 0.0
            assert abs(w - grid) <= 1e-12

    def test_normalization_chain_preserves_poa(self, two_link):
        g = Game(two_link, (MonomialLog(1.0, 1.0, 1.0), MonomialLog(2.0, 1.0, 1.0)),
                 np.array([1.0]))
        total = 10.0
        scaled = g.with_demands([total])
        direct = poa(scaled, tol=1e-12)
        hat = cost_normalize(demand_normalize(scaled, total),
                             float(g.costs[0](total)))
        assert poa(hat, tol=1e-12) == pytest.approx(direct, abs=1e-7)


class TestFitRate:
    def _points(self, rule, totals):
        from poalab.convergence import RatePoint
        return [RatePoint(t, rule(t), None) for t in totals]

    def test_linear_rule(self):
        pts = self._points(lambda t: t, (1e-1, 1e-2, 1e-3, 1e-4))
        fit = fit_rate(pts, "down", censor=0.0)
        assert fit.slope == pytest.approx(1.0, abs=1e-9)

    def test_inverse_square_rule(self):
        pts = self._points(lambda t: t**-2, (10.0, 100.0, 1e3, 1e4))
        fit = fit_rate(pts, "down", censor=0.0)
        assert fit.slope == pytest.approx(-2.0, abs=1e-9)

    def test_censored_to_degenerate(self):
        pts = self._points(lambda t: 0.0, (1e-1, 1e-2, 1e-3, 1e-4))
        fit = fit_rate(pts, "down")
        assert fit.degenerate

    def test_unknown_direction_rejected(self):
        pts = self._points(lambda t: t, (1e-1, 1e-2, 1e-3, 1e-4))
        with pytest.raises(ValueError, match="direction"):
            fit_rate(pts, "Up")

    def test_up_direction_uses_log_variable(self):
        totals = (10.0, 100.0, 1e3, 1e4)
        pts = self._points(lambda t: 1.0 / math.log1p(t), totals)
        fit = fit_rate(pts, "up", censor=0.0)
        assert fit.slope == pytest.approx(1.0, abs=1e-9)
