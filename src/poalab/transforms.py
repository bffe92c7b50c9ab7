"""PoA-invariant rescalings and auxiliary-game constructions.

Cost normalization divides every cost function by a positive factor; demand
normalization divides the demands and rescales the cost arguments to match.
Both leave the PoA unchanged.  On same-demand pairs, cost normalization
scales the metric by exactly 1/factor, which is the engine behind the
non-existence of uniform Hoelder constants: repeated normalization shrinks
distances at will while PoA differences stay fixed.
"""

from __future__ import annotations

import math

from .games import Game
from .costs import TangentCost, TruncatedCost

__all__ = [
    "cost_normalize",
    "demand_normalize",
    "truncate_extend",
    "metric_shrinking_trace",
]


def cost_normalize(game: Game, factor: float) -> Game:
    """Divide every cost function by factor > 0; demands unchanged."""
    if not 0.0 < factor < math.inf:
        raise ValueError(f"factor must be finite and > 0, got {factor}")
    if factor == 1.0:
        return game
    return game.with_costs(c.scaled_by(1.0 / factor) for c in game.costs)


def demand_normalize(game: Game, factor: float) -> Game:
    """Divide demands by factor > 0 and rescale cost arguments: new(x) = old(factor*x)."""
    if not 0.0 < factor < math.inf:
        raise ValueError(f"factor must be finite and > 0, got {factor}")
    if factor == 1.0:
        return game
    costs = tuple(c.with_argument_scale(factor) for c in game.costs)
    return Game(game.structure, costs, game.demands / factor)


def truncate_extend(game: Game, new_total: float, mode: str = "constant") -> Game:
    """Auxiliary game at total demand new_total with extended cost functions.

    When new_total <= T(d) the costs stay as they are: on [0, new_total] the
    extended game is the game itself.  Beyond T(d), mode="constant" freezes
    each cost at its value at T(d), and mode="tangent" continues it along its
    tangent there and refuses costs that may have kinks (``has_kinks``).
    Demands keep their ratios and are rescaled to sum to new_total.
    """
    if not 0.0 < new_total < math.inf:
        raise ValueError(f"new_total must be finite and > 0, got {new_total}")
    if mode not in ("constant", "tangent"):
        raise ValueError(f"unknown extension mode {mode!r}")
    t_base = game.total_demand
    demands = game.demands * (new_total / t_base)
    if new_total <= t_base:
        costs = game.costs
    elif mode == "constant":
        costs = tuple(TruncatedCost(c, t_base) for c in game.costs)
    else:
        bad = [type(c).__name__ for c in game.costs if c.has_kinks()]
        if bad:
            raise ValueError(f"tangent extension needs differentiable costs, got {bad}")
        costs = tuple(TangentCost(c, t_base) for c in game.costs)
    return Game(game.structure, costs, demands)


def metric_shrinking_trace(g1: Game, g2: Game, factor: float, steps: int,
                           tol: float = 1e-12):
    """Distances and PoA gaps along repeated cost normalization of a pair.

    Returns a list of (distance, |poa difference|) for 0..steps applications.
    The distance shrinks by 1/factor each step on same-demand pairs while the
    PoA gap stays fixed.
    """
    from .metric import dist
    from .solvers import poa

    out = []
    a, b = g1, g2
    for _ in range(steps + 1):
        out.append((dist(a, b).value, abs(poa(a, tol=tol) - poa(b, tol=tol))))
        a = cost_normalize(a, factor)
        b = cost_normalize(b, factor)
    return out
