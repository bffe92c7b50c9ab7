"""Pointwise Hoelder continuity probes for the PoA.

Closed-form certificates bound |poa(base) - poa(perturbed)| by
H * max(dist**gamma, dist) inside a validity radius around the base game:

* ``certificate_demand_slice`` (exponent 1/2) covers perturbations that keep
  the demands fixed, for Lipschitz costs.
* ``certificate_cost_slice`` (exponent 1/2) covers perturbations that keep
  the cost functions fixed and do not raise the total demand.
* ``certificate_exponent_one`` (exponent 1) covers joint perturbations when
  all costs are constant, or when all are continuously differentiable with
  derivative bounded away from zero.

``sweep`` solves its base game once, samples metric balls around it, solves
every sample, and attaches the applicable certificate bound.  Each sample's
WE and SO solves start from the base game's WE and SO flows, scaled on each
O/D pair k by the sample's demand over the base demand d'_k / d_k, which is
feasible for any sample; a pair with zero base demand starts cold, with its
whole demand on its first path.  Nearby games have nearby equilibria
(Englert, Franke and Olbrich, "Sensitivity of Wardrop equilibria", 2010),
so warm samples take fewer iterations; the base game itself is solved cold.

A sweep first draws all its samples, then solves them together.  The
paper's metric compares games on one structure only, so every sample is
the base structure with other costs and demands, and the samples whose
social optimum is certified convex are solved in lockstep, as rows of one
batch, when there are at least four of them, whatever their cost families.
The rest take the per-sample path, one ``_solve_poa`` each: the samples
with an uncertified social optimum, whose ``solve_so`` runs the sample's start
and its eight seeded restarts in lockstep as a batch of its own, and batches
too small to gain, since the lockstep loop is 1.8 to 5.4 times slower than a
single solve at one row (see ``poalab.solvers``).  Both paths take the same
solver steps up to rounding, so they give a sample the same PoA within its
solve tolerance.

``fit_hoelder`` estimates the empirical exponent from the records.  Fitted exponents are
lower-confidence estimates: the certificates are upper bounds, so a larger
fitted exponent is consistent.

``check_game``, the invariant suite of ``poalab check``, takes the same warm start
for the game's six normalized copies: a cost-normalized copy has the game's WE and
SO flows, and a demand-normalized one has them divided by the factor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .games import Game, PathFlow
from .metric import MetricValue, check_metric_axioms, sample_ball
from .regression import loglog_fit
# poa stays bound here for perfbench's tracer, which patches each binding of it
from .solvers import _solve_poa, _solve_poas, poa  # noqa: F401
from .solvers import approximation_threshold, check_approximation_bounds, total_cost_sandwich
from .transforms import cost_normalize, demand_normalize

__all__ = [
    "HoelderCertificate",
    "certificate_demand_slice",
    "certificate_cost_slice",
    "certificate_exponent_one",
    "SweepRecord",
    "sweep",
    "HoelderFit",
    "fit_hoelder",
    "max_delta_by_radius",
    "check_game",
]


@dataclass(frozen=True)
class HoelderCertificate:
    """Certified local bound on the PoA change around a base game.

    |poa(base) - poa(other)| <= constant * max(dist**exponent,
    linear_factor * dist) whenever dist <= radius.  The linear factor is 1
    except for the cost-slice certificate, whose linear branch carries the
    square root of the (clamped) Lipschitz constant.
    """

    which: str
    constant: float
    exponent: float
    radius: float
    linear_factor: float = 1.0

    def __post_init__(self):
        if self.constant <= 0 or self.radius <= 0:
            raise ValueError("certificate needs positive constant and radius")

    def bound(self, distance: float) -> float:
        return self.constant * max(distance**self.exponent,
                                   self.linear_factor * distance)


def _base_quantities(game: Game, tol: float):
    rho, _we, so = _solve_poa(game, tol)
    return rho, so.total_cost


def certificate_demand_slice(game: Game, tol: float = 1e-10) -> HoelderCertificate | None:
    """Exponent-1/2 certificate for same-demand comparisons (Lipschitz costs)."""
    return _demand_slice(game, lambda: _base_quantities(game, tol))


def certificate_cost_slice(game: Game, tol: float = 1e-10) -> HoelderCertificate | None:
    """Exponent-1/2 certificate for same-cost comparisons with total demand <= T(d).

    The Lipschitz constant is clamped up to 1, which keeps it valid.
    """
    return _cost_slice(game, lambda: _base_quantities(game, tol))


def certificate_exponent_one(game: Game, tol: float = 1e-10) -> HoelderCertificate | None:
    """Exponent-1 certificate for constant or strictly-increasing C1 costs.

    Returns None when neither regime applies.  The validity radii are
    conservative consequences of the same chain of estimates that yields the
    constants (auxiliary game well-posedness plus keeping every denominator
    above half its base value).
    """
    return _exponent_one(game, lambda: _base_quantities(game, tol))


# Each certificate body calls base() for the base game's (PoA, C*) only once it
# applies, so a game it does not cover is never solved.


def _demand_slice(game: Game, base) -> HoelderCertificate | None:
    T = game.total_demand
    m = max(c.lipschitz_on(T) for c in game.costs)
    if not math.isfinite(m):
        return None
    rho, c_star = base()
    n_a = len(game.structure.arcs)
    constant = 2.0 * (rho + math.sqrt(m * n_a * T) + 2.0) / c_star * n_a * T
    radius = c_star / (2.0 * n_a * T)
    return HoelderCertificate("demand-slice", constant, 0.5, radius)


def _cost_slice(game: Game, base) -> HoelderCertificate | None:
    T = game.total_demand
    m_raw = max(c.lipschitz_on(T) for c in game.costs)
    if not math.isfinite(m_raw):
        return None
    m = max(1.0, m_raw)
    rho, c_star = base()
    n_a = len(game.structure.arcs)
    n_k = len(game.structure.od_pairs)
    pi_max = max(float(c(T)) for c in game.costs)
    m_tilde = 2.0 * ((math.sqrt(m * n_a * T) + 2.0) * n_a * T
                     + n_a * n_k * pi_max) * math.sqrt(m)
    m_star = 2.0 * (n_a * n_k * pi_max + n_a * T * m)
    constant = (2.0 * rho * m_star + 2.0 * m_tilde) / c_star
    radius = min(T / n_k, c_star / (2.0 * m_star))
    return HoelderCertificate("cost-slice", constant, 0.5, radius,
                              linear_factor=math.sqrt(m))


def _exponent_one(game: Game, base) -> HoelderCertificate | None:
    T = game.total_demand
    n_a = len(game.structure.arcs)
    n_k = len(game.structure.od_pairs)
    lips = [c.lipschitz_on(T) for c in game.costs]

    if max(lips) == 0.0:  # constant on [0, T]
        rho, c_star = base()
        tau_max0 = max(float(c(0.0)) for c in game.costs)
        constant = 8.0 * n_a * T * (n_k + 1.0) / c_star
        radius = min(T / n_k,
                     c_star / (2.0 * (n_a * n_k * tau_max0 + 2.0 * n_a * T * (n_k + 1.0))))
        return HoelderCertificate("constant-costs", constant, 1.0, radius)

    if any(c.has_kinks() for c in game.costs):
        return None  # not continuously differentiable
    m_lo = min(c.deriv_min_on(T) for c in game.costs)
    m_hi = max(lips)
    if m_lo <= 0.0 or not math.isfinite(m_hi):
        return None
    rho, c_star = base()
    tau_max = max(float(c(T)) for c in game.costs)
    blow = 1.0 + n_k * m_hi
    # demand-slice part and cost-slice part of the perturbation are bounded
    # separately; their sum bounds the full change via the auxiliary game.
    h_demand = (4.0 + 4.0 * (2.0 + m_hi / m_lo) * rho) / c_star * n_a * T * blow
    w_cost = (2.0 * (2.0 + m_hi / m_lo) * n_a * T * blow
              + 2.0 * n_a * tau_max * n_k * blow)
    s_cost = 4.0 * (n_a * n_k * tau_max + n_a * T * m_hi) * blow
    h_cost = 2.0 * (rho * s_cost + w_cost) / c_star
    constant = h_demand + h_cost
    radius = min(T / (2.0 * n_k), c_star / (4.0 * s_cost))
    return HoelderCertificate("increasing-costs", constant, 1.0, radius)


@dataclass(frozen=True)
class SweepRecord:
    seed: int
    kind: str
    radius: float
    dist: MetricValue
    base_poa: float
    pert_poa: float
    delta: float
    certificate_bound: float | None
    solve_tol: float
    shrunk: bool = False


def _sweep_tol(radius: float) -> float:
    # keep solver error well below the PoA changes being measured
    return max(min(1e-10, radius * radius / 100.0), 1e-14)


def sweep(base: Game, kind: str, radii, samples_per_radius: int,
          seed: int = 0, max_iter: int = 200_000) -> list[SweepRecord]:
    """Perturbation sweep around a base game.

    For each radius, draws samples from the metric ball of that radius
    (respecting `kind`), solves all samples from the scaled base equilibria,
    in lockstep where they allow it (see the module docstring), and emits
    one record per sample with the applicable certificate bound attached.
    Per-sample solver failures are recorded as NaN PoA rather than raised.
    """
    radii = [float(r) for r in radii]
    tol_base = min(_sweep_tol(r) for r in radii)
    base_poa, base_we, base_so = _solve_poa(base, tol_base, max_iter)
    c_star = base_so.total_cost
    # the certificate of the subspace a kind samples: demands fixed for
    # "cost", costs fixed for "demand"
    certificate = {"cost": _demand_slice, "demand": _cost_slice}.get(kind, _exponent_one)
    cert = certificate(base, lambda: (base_poa, c_star))
    t_base = base.total_demand

    draws = []  # (seed, radius, tol, sample)
    for r_idx, radius in enumerate(radii):
        for i in range(samples_per_radius):
            sample_seed = seed * 1_000_000 + r_idx * 10_000 + i
            draws.append((sample_seed, radius, _sweep_tol(radius),
                          sample_ball(base, radius, kind=kind, seed=sample_seed)))
    games = [pert.game for *_, pert in draws]
    starts = [(_warm_start(base, base_we.flow, g), _warm_start(base, base_so.flow, g))
              for g in games]
    poas = _solve_poas(games, [tol for _, _, tol, _ in draws], max_iter, starts)

    records: list[SweepRecord] = []
    for (sample_seed, radius, tol, pert), pert_poa in zip(draws, poas):
        delta = abs(pert_poa - base_poa) if math.isfinite(pert_poa) else math.nan
        bound = None
        # the cost-slice certificate covers no demand above the base's
        covered = kind != "demand" or pert.game.total_demand <= t_base
        if cert is not None and covered and pert.realized.upper() <= cert.radius:
            bound = cert.bound(pert.realized.value)
        records.append(SweepRecord(
            seed=sample_seed, kind=kind, radius=radius, dist=pert.realized,
            base_poa=base_poa, pert_poa=pert_poa, delta=delta,
            certificate_bound=bound, solve_tol=tol, shrunk=pert.shrunk))
    records.sort(key=lambda rec: rec.seed)
    return records


def _warm_start(base: Game, flow: PathFlow, game: Game) -> np.ndarray:
    """Base path flow scaled per O/D pair to the demands of a game on the same structure.

    A pair with zero base demand has no flow split to scale; it starts cold,
    with its whole demand on its first path.
    """
    st = base.structure
    routed = base.demands > 0.0
    scale = np.divide(game.demands, base.demands, out=np.zeros(len(routed)), where=routed)
    f = flow.values * scale[st.path_owner]
    f[st.pair_starts[~routed]] = game.demands[~routed]
    return f


def check_game(game: Game, tol: float = 1e-10) -> tuple[float, list[str]]:
    """``poalab check``'s invariant suite on one solve: (PoA, the invariants that failed).

    Each of the six normalized copies is solved from the game's WE and SO flows
    mapped by ``_warm_start``, with a cold solve's gap certificate at tol and checks;
    UnconvergedError and InvariantError propagate from any solve.
    """
    failures: list[str] = []
    base, we, so = _solve_poa(game, tol)
    ok, lower, upper = total_cost_sandwich(game, so.total_cost, we.total_cost)
    if not ok:
        failures.append(f"cost sandwich violated: {lower} / {so.total_cost} / "
                        f"{we.total_cost} / {upper}")

    t = game.total_demand
    lip = max(c.lipschitz_on(t) for c in game.costs)
    if math.isfinite(lip):
        # nudge a little mass off each O/D pair's first path and verify the
        # approximation inequalities at the resulting near-equilibrium flow
        nudged = we.flow.values.copy()
        for lo, hi in game.structure.path_slices:
            shift = min(0.01 * t, 0.5 * nudged[lo])
            nudged[lo] -= shift
            nudged[lo + 1] += shift
        flow = PathFlow(nudged)
        eps = approximation_threshold(game, flow) + max(10.0 * tol, 1e-12)
        report = check_approximation_bounds(game, flow, we.flow, eps, lip)
        if not report.all_ok:
            failures.append("approximation inequalities failed near the solved flow")

    for seed in (1, 2):
        pert_a = sample_ball(game, min(0.05, t / 4), kind="joint", seed=seed).game
        pert_b = sample_ball(game, min(0.05, t / 4), kind="cost", seed=seed + 10).game
        axioms = check_metric_axioms(game, pert_a, pert_b)
        if not axioms.all_ok:
            failures.append(f"metric axioms failed for sampled triple (seed {seed})")

    for factor in (0.5, 2.0, 10.0):
        for name, normalize in (("cost", cost_normalize), ("demand", demand_normalize)):
            copy = normalize(game, factor)
            starts = (_warm_start(game, we.flow, copy), _warm_start(game, so.flow, copy))
            if abs(_solve_poa(copy, tol, starts=starts)[0] - base) > 1e-6:
                failures.append(f"PoA not invariant under {name} normalization {factor}")
    return base, failures


@dataclass(frozen=True)
class HoelderFit:
    gamma: float
    constant: float
    r_squared: float
    n_used: int


def fit_hoelder(records, min_delta: float | None = None) -> HoelderFit:
    """Empirical Hoelder exponent: slope of log(delta) against log(dist).

    Records whose delta is below the numerical floor (solver tolerance, or
    `min_delta` when given) or whose distance is inside its own grid error
    are censored; at least 8 usable records are required.  min_delta must be
    None or finite and >= 0: a NaN floor would censor nothing.
    """
    if min_delta is not None and not 0.0 <= min_delta < math.inf:
        raise ValueError(f"min_delta must be finite and >= 0, got {min_delta}")
    xs, ys = [], []
    for rec in records:
        delta = rec.delta
        if not math.isfinite(delta):
            continue
        floor = min_delta if min_delta is not None else max(1e-12, 20.0 * rec.solve_tol)
        d, err = rec.dist.value, rec.dist.error_bound
        if delta <= floor or d <= err or d <= 0.0:
            continue
        xs.append(d)
        ys.append(delta)
    if len(xs) < 8:
        raise ValueError(f"only {len(xs)} usable records, need at least 8")
    slope, intercept, r2 = loglog_fit(xs, ys)
    return HoelderFit(gamma=slope, constant=math.exp(intercept),
                      r_squared=r2, n_used=len(xs))


def max_delta_by_radius(records) -> dict[float, float]:
    """Largest observed PoA change per sweep radius (continuity diagnostics)."""
    out: dict[float, float] = {}
    for rec in records:
        if math.isfinite(rec.delta):
            out[rec.radius] = max(out.get(rec.radius, 0.0), rec.delta)
    return out
