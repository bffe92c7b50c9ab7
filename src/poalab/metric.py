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

The sampler draws all samples around one base game in lockstep over the base's kernel
parameter arrays (``_sample_balls``; ``sample_ball`` is its one-draw call), and builds a
``Game`` once per accepted draw.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .costs import sup_distance
from .games import (
    EQUIVALENCE_TOL,
    ArcCostTable,
    Game,
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

_PROBES = 80  # the most probe rounds one sample may take


def sample_ball(base: Game, radius: float, kind: str = "joint",
                seed: int = 0) -> Perturbation:
    """Sample a game at certified metric distance in [radius/2, radius]: the one-draw call
    of ``_sample_balls``, which describes the draw."""
    return _sample_balls(base, [radius], [kind], [seed])[0][0]


def _uniforms(seeds, n_k: int, n_a: int):
    """Per seed, the draws uniform(-1, 1, n_k), uniform(0.5, 1, n_a) and uniform(0.5, 1, n_a) of
    default_rng(SeedSequence((seed, 0xBA11))), as three arrays of rows.  uniform(lo, hi, m) is
    lo + (hi - lo) random(m), so one random call gives all three, and an int seed in [0, 2**64)
    enters SeedSequence as the uint32 words it makes of an int, which it takes as they are."""
    u = []
    for seed in seeds:
        entropy = (seed, 0xBA11)
        if isinstance(seed, int) and 0 <= seed < 2**64:  # low word first, no high word of 0
            high = seed >> 32
            entropy = np.array([seed & 0xFFFFFFFF, high, 0xBA11] if high else [seed, 0xBA11],
                               dtype=np.uint32)
        u.append(np.random.default_rng(np.random.SeedSequence(entropy)).random(n_k + 2 * n_a))
    u = np.array(u)
    return -1.0 + 2.0 * u[:, :n_k], 0.5 + 0.5 * u[:, n_k:n_k + n_a], 0.5 + 0.5 * u[:, n_k + n_a:]


def _sample_balls(base: Game, radii, kinds,
                  seeds) -> tuple[list[Perturbation], ArcCostTable | None]:
    """Draws around one base game in lockstep, one per (radius, kind, seed), each with the bits
    of its one-row call, and, when every one is a draw, the table of their costs (game after game).

    Demand draws are symmetric uniforms; cost draws, applied by each cost's
    ``perturbed`` rule, use per-arc alternating signs with magnitudes bounded
    away from zero so the realized distance responds linearly to the scaling
    knob t.  The first probe aims a first-order model of dist(t) at the middle
    of [radius/2, 0.95 radius]: t = radius for ``cost`` and ``joint``, where
    dist(t)/t is near-constant; for ``demand``, dist(t) ~ t max(max|u|, |sum u|
    max tau'(T)), its demand and endpoint parts.  Then a safeguarded secant
    search (Dekker and Brent) keeps a bracket [t_lo, t_hi] in Python floats per row:
    t_lo is the largest t with a valid game at certified distance <= radius, t_hi the
    least t that overshoots or gives an invalid game.  A miss takes the secant step
    t aim / dist(t) if it stays in the bracket, else doubles t while t_hi is
    inf and then bisects; the first distance in [radius/2, radius] ends it,
    within ``_PROBES`` probes, and so does a bracket that cannot shrink.  The
    sample is t_lo's draw, shrunk below radius/2 (a clipped demand or the grid
    error can keep the band out of reach), or the base game, shrunk, if no
    probe gave a valid draw.

    A probe round moves all rows' demands and the base's cost table (``ArcCostTable.perturbed``),
    checks them as ``Game`` would (``Game._valid_rows``), and takes each distance by the
    kernels' exact sup rules (``ArcCostTable.sups``), or by ``dist`` for a row without one.
    """
    for kind, radius in zip(kinds, radii):
        if kind not in _WEIGHTS:
            raise ValueError(f"unknown perturbation kind {kind!r}")
        if not 0.0 <= radius < np.inf:
            raise ValueError(f"radius must be finite and >= 0, got {radius}")
    still = "demand" in kinds  # demand draws keep the costs
    if still and set(kinds) != {"demand"}:
        raise ValueError("the draws of one batch move the costs in every row or in none")
    zero = MetricValue(0.0, 0.0, 0.0, 0.0)
    out = [None if radius > 0.0 else Perturbation(kind, 0.0, seed, base, zero, False)
           for radius, kind, seed in zip(radii, kinds, seeds)]  # radius 0: the base game
    rows = [i for i, pert in enumerate(out) if pert is None]
    if not rows:
        return out, None

    st, n = base.structure, len(rows)
    n_k, n_a = len(st.od_pairs), len(st.arcs)
    u_dem, mag_int, mag_str = _uniforms([seeds[i] for i in rows], n_k, n_a)
    mag_int *= np.where(np.arange(n_a) % 2 == 0, 1.0, -1.0)  # alternating signs
    w_dem, w_int, w_str = np.array([_WEIGHTS[kinds[i]] for i in rows]).T
    radius = [radii[i] for i in rows]
    horizon = base.total_demand
    t = list(radius)
    if still:  # t max|u| for the demands, t |sum u| max tau'(T) at the endpoint
        slope = base.cost_table.derivs(np.full(n_a, horizon)).max()
        t = (0.725 * np.array(radius) / np.maximum(
            np.abs(u_dem).max(axis=1), np.abs(u_dem.sum(axis=1)) * slope)).tolist()
    tiled = base.cost_table.tiled(n)  # the arcs of row b are b n_a + a
    base_ends = np.array(base.endpoint_costs)

    def move(t):  # the rows' demands and cost table at knobs t
        t = np.array(t)
        demands = np.maximum(base.demands + (t * w_dem)[:, None] * u_dem, 0.0)
        return demands, tiled if still else tiled.perturbed(
            ((t * w_int)[:, None] * mag_int).ravel(), ((t * w_str)[:, None] * mag_str).ravel(),
            horizon)

    t_lo, t_hi, best = [0.0] * n, [np.inf] * n, [None] * n
    live = set(range(n))
    for _ in range(_PROBES):
        if not live:
            break
        demands, table = move(t)
        totals = demands.sum(axis=1)
        ok = (totals > MIN_TOTAL_DEMAND) & Game._valid_rows(st, table, demands)
        totals = np.where(ok, totals, horizon)
        part = np.abs(demands - base.demands).max(axis=1)
        tau = table._unchecked("values")(np.repeat(totals, n_a)).reshape(n, n_a)
        ends = np.abs(base_ends - tau).max(axis=1)
        sup = np.zeros(n) if still else tiled.sups(
            table, np.repeat(np.minimum(horizon, totals), n_a)).reshape(n, n_a).max(axis=1)
        cost = np.maximum(sup, ends)
        value = np.maximum(part, cost)
        rounds, costs = list(zip(*(v.tolist() for v in (ok, np.isnan(sup), value, part, cost)))), []
        for b in list(live):
            valid, no_rule, *parts = rounds[b]
            mv, up = None, np.nan
            if valid and no_rule:  # no exact sup rule for some cost: dist, as for any pair
                costs = costs or table.costs()
                mv = dist(base, Game._rows(st, costs, demands, [b])[0])
            elif valid:
                mv = MetricValue(*parts, 0.0)
            if mv is not None and (up := mv.upper()) <= radius[b]:
                t_lo[b], best[b] = t[b], mv
                if up >= 0.5 * radius[b]:
                    live.remove(b)
                    continue
            else:
                t_hi[b] = t[b]
            aim = 0.725 * radius[b]  # the middle of [radius/2, 0.95 radius]
            step = t[b] * (aim / up) if up > 0.0 else np.nan
            if not t_lo[b] < step < t_hi[b]:  # the safeguard: double until a bound, then bisect
                step = 2.0 * t[b] if t_hi[b] == np.inf else 0.5 * (t_lo[b] + t_hi[b])
            if step in (t_lo[b], t_hi[b]):
                live.remove(b)  # no float lies inside the bracket: a further probe repeats an end
                continue
            t[b] = step

    if t != t_lo:  # the draws are the last probes, unless a row's was not its t_lo
        demands, table = move(t_lo)
    drawn = [b for b in range(n) if best[b] is not None]
    games = dict(zip(drawn, Game._rows(st, base.costs * n if still else table.costs(),
                                       demands, drawn)))
    for b, i in enumerate(rows):
        game, mv = (games[b], best[b]) if b in games else (base, zero)  # no draw: the base, shrunk
        out[i] = Perturbation(kinds[i], radii[i], seeds[i], game, mv, mv.upper() < 0.5 * radius[b])
    return out, table if n == len(kinds) and len(drawn) == n else None
