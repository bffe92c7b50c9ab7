"""PoA convergence experiments as the total demand tends to 0 or infinity.

Going down, strictly-positive Lipschitz costs force poa - 1 <= c * T with an
explicit constant.  Going up, regularly varying costs with a common index
that stay mutually comparable force poa -> 1 at a rate controlled by how
fast the normalized costs approach their limiting monomials.  That proximity
w(T) is the metric distance from the rescaled game to its monomial game, also
bounded in closed form for the monomial-times-log family.  Both directions
solve rescaled unit-demand instances (the PoA is invariant under the
rescaling), which keeps the solvers well conditioned at extreme demand levels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .costs import BPR, Constant
from .games import Game
from .metric import dist
from .sensitivity import certificate_demand_slice, loglog_fit
from .solvers import poa
from .transforms import cost_normalize, demand_normalize

__all__ = [
    "DemandSchedule",
    "RatePoint",
    "converge_down",
    "converge_up",
    "RateFit",
    "fit_rate",
    "light_traffic_reduction_gap",
    "regular_variation_params",
    "normalized_monomial_gap",
    "monomial_log_gap_bound",
]


@dataclass(frozen=True)
class DemandSchedule:
    """Demand vectors along a list of total-demand levels.

    fixed-ratio keeps every d_k / T constant; drifting-ratio lets the ratios
    oscillate while staying bounded away from zero.
    """

    base_direction: tuple[float, ...]
    totals: tuple[float, ...]
    pattern: str = "fixed-ratio"

    def __post_init__(self):
        direction = tuple(float(v) for v in self.base_direction)
        if not all(0.0 < v < math.inf for v in direction):
            raise ValueError(f"base direction must be finite and > 0, got {direction}")
        totals = tuple(float(t) for t in self.totals)
        if not totals or not all(0.0 < t < math.inf for t in totals):
            raise ValueError(f"totals must be non-empty, finite and > 0, got {totals}")
        if self.pattern not in ("fixed-ratio", "drifting-ratio"):
            raise ValueError(f"unknown pattern {self.pattern!r}")
        object.__setattr__(self, "base_direction", direction)
        object.__setattr__(self, "totals", totals)

    def demands_at(self, index: int) -> np.ndarray:
        direction = np.asarray(self.base_direction)
        if self.pattern == "drifting-ratio":
            wobble = 1.0 + 0.3 * np.sin(index + np.arange(direction.size))
            direction = direction * wobble  # stays within [0.7, 1.3] of base
        return self.totals[index] * direction / direction.sum()


@dataclass(frozen=True)
class RatePoint:
    total_demand: float
    poa_minus_one: float
    bound: float | None
    w: float | None = None
    w_error: float | None = None
    w_closed_form: float | None = None


def converge_down(game: Game, schedule: DemandSchedule,
                  tol: float = 1e-13) -> list[RatePoint]:
    """PoA against its linear light-traffic bound along decreasing totals.

    Requires costs that are strictly positive at 0 and Lipschitz up to the
    largest scheduled total.
    """
    tau_min0 = min(float(c(0.0)) for c in game.costs)
    if tau_min0 <= 0.0:
        raise ValueError("light-traffic bound needs strictly positive costs at 0")
    b = max(schedule.totals)
    m_tau = max(c.lipschitz_on(b) for c in game.costs)
    if not math.isfinite(m_tau):
        raise ValueError("light-traffic bound needs Lipschitz costs near 0")
    n_a = len(game.structure.arcs)
    n_k = len(game.structure.od_pairs)
    coeff = 8.0 * n_a * (n_k + 1.0) * m_tau / tau_min0

    points = []
    for i, total in enumerate(schedule.totals):
        scaled = game.with_demands(schedule.demands_at(i))
        unit = demand_normalize(scaled, scaled.total_demand)  # unit total demand
        rho = poa(unit, tol=tol)
        points.append(RatePoint(total, rho - 1.0, coeff * total))
    return points


def light_traffic_reduction_gap(game: Game, total: float) -> tuple[float, float]:
    """Distance from the unit-demand rescaling to its frozen-at-zero companion.

    Returns (distance, lipschitz * total); the first never exceeds the second.
    """
    demands = game.demands * (total / game.total_demand)
    scaled = game.with_demands(demands)
    unit = demand_normalize(scaled, total)
    frozen = Game(game.structure,
                  tuple(Constant(float(c(0.0))) for c in game.costs),
                  unit.demands.copy())
    m_tau = max(c.lipschitz_on(total) for c in game.costs)
    return dist(unit, frozen).value, m_tau * total


def regular_variation_params(game: Game) -> tuple[float, float, np.ndarray]:
    """Common (index, log exponent) and per-arc leading coefficients.

    Raises when some cost is not regularly varying with positive index, or
    when the arcs disagree on the index: growing-demand convergence is only
    certified for a common index with mutually comparable costs.
    """
    shapes = []
    for arc, cost in zip(game.structure.arcs, game.costs):
        shape = cost.regular_variation()
        if shape is None:
            raise ValueError(
                f"arc {arc!r}: cost family {type(cost).__name__} has no "
                "regular-variation form")
        beta, alpha, coeff = shape
        if beta <= 0 or coeff <= 0:
            raise ValueError(f"arc {arc!r}: needs a positive-index leading term")
        shapes.append((beta, alpha, coeff))
    betas = {s[0] for s in shapes}
    alphas = {s[1] for s in shapes}
    if len(betas) > 1 or len(alphas) > 1:
        raise ValueError(
            "mixed regular-variation shapes: growing-demand convergence is "
            "only certified for a common index with comparable costs")
    beta, alpha = shapes[0][0], shapes[0][1]
    coeffs = np.array([s[2] for s in shapes])
    return beta, alpha, coeffs


def _unit_pair(game: Game, total: float) -> tuple[Game, Game]:
    """The game at `total` with unit demand and arc 0's cost there as the unit, and its
    limiting monomial game: costs lambda_a x**beta, lambda_a = c_a / c_0, same demands."""
    beta, _alpha, coeffs = regular_variation_params(game)
    scaled = game.with_demands(game.demands * (total / game.total_demand))
    hat = cost_normalize(demand_normalize(scaled, total), float(game.costs[0](total)))
    monomial = Game(game.structure, tuple(BPR(lam, beta, 0.0) for lam in coeffs / coeffs[0]),
                    hat.demands.copy())
    return hat, monomial


def normalized_monomial_gap(game: Game, total: float) -> tuple[float, float]:
    """w(T), the sup gap on [0, 1] between rescaled costs and their limit monomials.

    Costs are rescaled by the reference arc's value at `total`; the reference
    arc is arc 0 in structure order.  w is ``dist`` of the rescaled game and its
    monomial game, exact where ``sup_distance`` is.  Returns (value, error_bound).
    """
    mv = dist(*_unit_pair(game, total))
    return mv.value, mv.error_bound


def monomial_log_gap_bound(game: Game, total: float) -> float:
    """Closed-form bound on the normalized monomial gap for log-factor costs."""
    beta, alpha, coeffs = regular_variation_params(game)
    if alpha == 0.0:
        raise ValueError("closed-form log bound needs a positive log exponent")
    lam_max = float(np.max(coeffs / coeffs[0]))
    return (alpha / beta) * (total / (total + 1.0)) / math.log1p(total) * lam_max


def converge_up(game: Game, schedule: DemandSchedule,
                tol: float = 1e-12) -> list[RatePoint]:
    """PoA against its heavy-traffic certificate along growing totals.

    Each point solves the unit-demand, unit-scale rescaling of the scheduled
    game (same PoA).  The certificate is the demand-slice bound evaluated at
    the limiting monomial game; points whose monomial gap exceeds that
    certificate's validity radius carry bound None.
    """
    beta, alpha, _coeffs = regular_variation_params(game)

    points = []
    for i, total in enumerate(schedule.totals):
        scaled = game.with_demands(schedule.demands_at(i))
        hat, monomial = _unit_pair(scaled, scaled.total_demand)
        w = dist(hat, monomial)
        bound = None
        if beta >= 1:
            cert = certificate_demand_slice(monomial, tol)
            bound = cert.bound(w.upper()) if w.upper() <= cert.radius else None
        w_closed = monomial_log_gap_bound(scaled, scaled.total_demand) if alpha > 0 else None
        points.append(RatePoint(total, poa(hat, tol=tol) - 1.0, bound, w=w.value,
                                w_error=w.error_bound, w_closed_form=w_closed))
    return points


@dataclass(frozen=True)
class RateFit:
    slope: float
    intercept: float
    r_squared: float
    degenerate: bool
    n_used: int


def fit_rate(points, direction: str = "down", censor: float = 1e-11) -> RateFit:
    """Log-log rate fit of poa - 1 against T (down) or 1/ln(T+1) (up).

    Points with poa - 1 at or below `censor` are excluded; with fewer than 4
    usable points the fit is reported as degenerate.
    """
    if direction not in ("down", "up"):
        raise ValueError(f"unknown direction {direction!r}")
    xs, ys = [], []
    for p in points:
        if p.poa_minus_one > censor:
            x = p.total_demand if direction == "down" \
                else 1.0 / math.log1p(p.total_demand)
            xs.append(x)
            ys.append(p.poa_minus_one)
    if len(xs) < 4:
        return RateFit(math.nan, math.nan, math.nan, True, len(xs))
    slope, intercept, r2 = loglog_fit(xs, ys)
    return RateFit(slope, intercept, r2, False, len(xs))
