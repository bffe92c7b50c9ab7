"""The metric on the space of games with a fixed structure.

Distance between two games is the max of the L-infinity demand distance, the
per-arc sup distance of the costs on the shared demand interval, and the
L-infinity distance of the cost vectors evaluated at the respective total
demands.  ``sup_distance`` gives most cost pairs exactly; a pair without an exact
rule is compared on a grid whose certified error bound the distance carries, so
that downstream consumers can reason soundly.  Each game's endpoint costs are
priced once (``Game.endpoint_costs``).  The module also provides the
deliberately wrong variant that compares costs on the union interval (it
violates the triangle inequality) and an epsilon-ball sampler used by the
sensitivity sweeps.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .costs import sup_distance
from .games import (
    EQUIVALENCE_TOL,
    Game,
    GameValidationError,
    StructureMismatchError,
    games_equivalent,
)

__all__ = [
    "MetricValue",
    "dist",
    "naive_max_interval_dist",
    "MetricAxiomReport",
    "check_metric_axioms",
    "Perturbation",
    "sample_ball",
]

MIN_TOTAL_DEMAND = 1e-6


@dataclass(frozen=True)
class MetricValue:
    """Distance between two games, split into its demand and cost parts."""

    value: float
    demand_part: float
    cost_part: float
    error_bound: float

    def upper(self) -> float:
        return self.value + self.error_bound


def dist(g1: Game, g2: Game) -> MetricValue:
    """Metric distance between two games on the same structure."""
    if g1.structure != g2.structure:
        raise StructureMismatchError("games have different structures")
    demand_part = float(np.max(np.abs(g1.demands - g2.demands)))
    tmin = min(g1.total_demand, g2.total_demand)
    sup_est = 0.0
    sup_hi = 0.0
    for c1, c2 in zip(g1.costs, g2.costs):
        est, err = sup_distance(c1, c2, tmin)
        sup_est = max(sup_est, est)
        sup_hi = max(sup_hi, est + err)
    endpoint = max(abs(e1 - e2) for e1, e2 in zip(g1.endpoint_costs, g2.endpoint_costs))
    cost_part = max(sup_est, endpoint)
    cost_hi = max(sup_hi, endpoint)
    value = max(demand_part, cost_part)
    return MetricValue(
        value=value,
        demand_part=demand_part,
        cost_part=cost_part,
        error_bound=max(demand_part, cost_hi) - value,
    )


def naive_max_interval_dist(g1: Game, g2: Game) -> float:
    """Cost comparison on [0, max(T, T')] instead of the shared interval.

    Kept only as a negative example: this operator is inconsistent with game
    equivalence and violates the triangle inequality.
    """
    if g1.structure != g2.structure:
        raise StructureMismatchError("games have different structures")
    demand_part = float(np.max(np.abs(g1.demands - g2.demands)))
    tmax = max(g1.total_demand, g2.total_demand)
    sup_est = max(sup_distance(c1, c2, tmax)[0]
                  for c1, c2 in zip(g1.costs, g2.costs))
    return max(demand_part, sup_est)


@dataclass(frozen=True)
class MetricAxiomReport:
    symmetry_ok: bool
    nonnegative_ok: bool
    identity_ok: bool
    triangle_ok: bool
    triangle_slack: float

    @property
    def all_ok(self) -> bool:
        return (self.symmetry_ok and self.nonnegative_ok
                and self.identity_ok and self.triangle_ok)


def check_metric_axioms(g1: Game, g2: Game, g3: Game) -> MetricAxiomReport:
    """Symmetry, non-negativity, identity-iff-equivalent, triangle inequality.

    All checks hold within the certified error carried by the distances: the grid
    error of the cost pairs without an exact ``sup_distance`` rule, 0 for the rest.
    """
    pairs = [(g1, g2), (g1, g3), (g3, g2)]
    fwd = [dist(a, b) for a, b in pairs]
    bwd = [dist(b, a) for a, b in pairs]
    symmetry = all(f.value == b.value for f, b in zip(fwd, bwd))
    nonneg = all(f.value >= 0.0 for f in fwd)
    identity = True
    for (a, b), d in zip(pairs, fwd):
        if games_equivalent(a, b):
            identity &= d.value <= d.error_bound + EQUIVALENCE_TOL
        else:
            identity &= d.upper() > 0.0
    d12, d13, d32 = fwd
    slack = d13.value + d32.value - d12.value
    triangle = slack >= -(d12.error_bound + d13.error_bound + d32.error_bound + 1e-12)
    return MetricAxiomReport(
        symmetry_ok=symmetry,
        nonnegative_ok=nonneg,
        identity_ok=identity,
        triangle_ok=triangle,
        triangle_slack=float(slack),
    )


@dataclass(frozen=True)
class Perturbation:
    """A sampled game at certified distance <= target from its base game."""

    kind: str
    target: float
    seed: int
    game: Game
    realized: MetricValue
    shrunk: bool


# relative weights of the (demand, intercept, stretch) components per kind;
# joint leans on the cost side so the PoA response cannot cancel between the
# demand and cost contributions, which would poison log-log exponent fits
_WEIGHTS = {
    "demand": (1.0, 0.0, 0.0),
    "cost": (0.0, 0.2, 0.8),
    "joint": (0.2, 0.16, 0.64),
}

_PROBES = 80  # the most dist calls one sample may make


def sample_ball(base: Game, radius: float, kind: str = "joint",
                seed: int = 0) -> Perturbation:
    """Sample a game at certified metric distance in [radius/2, radius].

    Demand draws are symmetric uniforms; cost draws, applied by each cost's
    ``perturbed`` rule, use per-arc alternating signs with magnitudes bounded
    away from zero so the realized distance responds linearly to the scaling
    knob t.  The first probe aims a first-order model of dist(t) at the middle
    of [radius/2, 0.95 radius]: t = radius for ``cost`` and ``joint``, where
    dist(t)/t is near-constant; for ``demand``, dist(t) ~ t max(max|u|, |sum u|
    max tau'(T)), its demand and endpoint parts.  Then a safeguarded secant
    search (Dekker and Brent) keeps a bracket [t_lo, t_hi]: t_lo is the largest
    t with a valid game at certified distance <= radius, t_hi the least t that
    overshoots or gives an invalid game.  A miss takes the secant step
    t aim / dist(t) if it stays in the bracket, else doubles t while t_hi is
    inf and then bisects; the first distance in [radius/2, radius] ends it,
    within ``_PROBES`` probes, and so does a bracket that cannot shrink.  The
    sample is t_lo's draw, shrunk below radius/2 (a clipped demand or the grid
    error can keep the band out of reach), or the base game, shrunk, if no
    probe gave a valid draw.
    """
    if kind not in _WEIGHTS:
        raise ValueError(f"unknown perturbation kind {kind!r}")
    if not 0.0 <= radius < np.inf:
        raise ValueError(f"radius must be finite and >= 0, got {radius}")
    zero = MetricValue(0.0, 0.0, 0.0, 0.0)
    if radius == 0.0:
        return Perturbation(kind, 0.0, seed, base, zero, False)

    rng = np.random.default_rng(np.random.SeedSequence(entropy=(seed, 0xBA11)))
    n_k = len(base.structure.od_pairs)
    n_a = len(base.structure.arcs)
    u_dem = rng.uniform(-1.0, 1.0, size=n_k)
    mag_int = rng.uniform(0.5, 1.0, size=n_a)
    sign_int = np.where(np.arange(n_a) % 2 == 0, 1.0, -1.0)
    mag_str = rng.uniform(0.5, 1.0, size=n_a)
    w_dem, w_int, w_str = _WEIGHTS[kind]
    horizon = base.total_demand

    def realize(t: float) -> Game | None:
        demands = base.demands + t * w_dem * u_dem
        demands = np.maximum(demands, 0.0)
        if demands.sum() <= MIN_TOTAL_DEMAND:
            return None
        costs = base.costs
        if w_int or w_str:
            costs = tuple(
                c.perturbed(t * w_int * sign_int[i] * mag_int[i],
                            t * w_str * mag_str[i], horizon)
                for i, c in enumerate(base.costs))
        try:
            return Game(base.structure, costs, demands)
        except GameValidationError:
            return None

    lo_band, aim = 0.5 * radius, 0.725 * radius  # aim: the middle of [radius/2, 0.95 radius]
    t = radius
    if kind == "demand":  # t max|u| for the demands, t |sum u| max tau'(T) at the endpoint
        slope = base.cost_table.derivs(np.full(n_a, horizon)).max()
        t = aim / max(np.abs(u_dem).max(), abs(u_dem.sum()) * slope)
    t_lo, t_hi, best = 0.0, np.inf, (base, zero)  # no valid draw: the base game, shrunk
    for _ in range(_PROBES):
        game = realize(t)
        mv = None if game is None else dist(base, game)
        if mv is not None and mv.upper() <= radius:
            t_lo, best = t, (game, mv)
            if mv.upper() >= lo_band:
                break
        else:
            t_hi = t
        step = t * (aim / mv.upper()) if mv is not None and mv.upper() > 0.0 else np.nan
        if not t_lo < step < t_hi:  # the safeguard: double until a bound, then bisect
            step = 2.0 * t if t_hi == np.inf else 0.5 * (t_lo + t_hi)
        if step in (t_lo, t_hi):
            break  # no float lies inside the bracket: each further probe would repeat an end
        t = step
    game, mv = best
    return Perturbation(kind, radius, seed, game, mv, mv.upper() < lo_band)
