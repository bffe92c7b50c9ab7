"""Wardrop equilibrium and social optimum solvers, PoA, approximation checks.

Both solvers are Frank-Wolfe schemes on path flows.  The linear subproblem
assigns each O/D pair's demand wholly to its current min-cost path (ties
broken by lowest path index), and the resulting duality gap is exactly the
approximation threshold of the current flow, which gives the stopping
certificate.  Both are computed by one helper as the sum over paths of
flow times (path cost - the least path cost of its O/D pair): every term
is non-negative, so no cancellation between large per-pair totals can hide
or fake a small gap.  Descent steps swap mass between each O/D pair's most
expensive used path and its cheapest path, with the step length found where
the directional derivative of the convex slice vanishes.  This converges
far faster than 2/(i+2) averaging on desk-scale instances.

The step length comes from a safeguarded Newton iteration on the slice (the
path-based Newton step of Jayakrishnan et al., TRR 1443, 1994) whenever the
game's cost table has closed-form derivatives: constant, affine, polynomial
and BPR costs with beta = 0 or beta >= 1.  Every other game (MonomialLog,
PiecewiseLinear, the wrapper costs, BPR with 0 < beta < 1) takes brentq on
the directional derivative, with 2/(i+2) as its fallback, and so does the
social optimum when its convexity is not certified, where each step is
also checked against the total cost.

Costs (WE) and marginal costs (SO) are evaluated for all arcs at once
through the game's compiled ``ArcCostTable``.  The arc costs at the current
flow serve the gap, every O/D pair's swap choice and the step's slope at
step 0, until a step moves the flow; the Newton step hands back the costs
at the step it takes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import optimize

from .costs import MarginalCost
from .games import (
    Game,
    PathFlow,
    Structure,
    check_feasible,
    path_cost_vector,
    total_cost,
)

__all__ = [
    "UnconvergedError",
    "InvariantError",
    "SolveReport",
    "solve_we",
    "solve_so",
    "poa",
    "approximation_threshold",
    "potential",
    "check_approximation_bounds",
    "ApproximationBoundsReport",
    "total_cost_sandwich",
    "poa_upper_bound",
]

_USED_EPS = 1e-15


class UnconvergedError(RuntimeError):
    def __init__(self, report: "SolveReport"):
        super().__init__(
            f"solver stopped at duality gap {report.duality_gap:.3e} "
            f"after {report.iterations} iterations")
        self.report = report


class InvariantError(RuntimeError):
    """A solved result broke a property that holds for every valid game."""


@dataclass(frozen=True, eq=False)
class SolveReport:
    flow: PathFlow
    total_cost: float
    user_costs: np.ndarray
    duality_gap: float
    iterations: int
    converged: bool
    optimality_certified: bool

    def to_dict(self) -> dict:
        return {
            "flow": [float(v) for v in self.flow.values],
            "total_cost": self.total_cost,
            "user_costs": [float(v) for v in self.user_costs],
            "duality_gap": self.duality_gap,
            "iterations": self.iterations,
            "converged": self.converged,
            "optimality_certified": self.optimality_certified,
        }


def _initial_flow(game: Game, start) -> np.ndarray:
    st = game.structure
    if start is not None:
        flow = start.values if isinstance(start, PathFlow) else np.asarray(start, dtype=float)
        pf = PathFlow(np.array(flow))
        check_feasible(game, pf)
        return pf.values.copy()
    f = np.zeros(st.n_paths)
    f[st.pair_starts] = game.demands
    return f


def _flow_gap(st: Structure, path_costs: np.ndarray, f: np.ndarray) -> float:
    """Sum over paths of flow times (path cost - its O/D pair's least path cost).

    Each term is non-negative, so the sum has no cancellation.  This is the
    Frank-Wolfe duality gap of a descent and the approximation threshold of
    a flow.
    """
    least = np.minimum.reduceat(path_costs, st.pair_starts)
    return float((path_costs - least[st.path_owner]) @ f)


def _line_search(arc_eval, arc_f, h, tau, fallback):
    """Step in [0, 1] for a convex 1-D slice: root of the directional derivative.

    tau = arc_eval(arc_f) is the gradient at step 0; brentq's own calls at
    the two ends of the bracket reuse the values computed here.
    """
    ends = {0.0: float(h @ tau)}

    def dphi(alpha):
        d = ends.get(alpha)
        return float(h @ arc_eval(arc_f + alpha * h)) if d is None else d

    ends[1.0] = dphi(1.0)
    if ends[1.0] <= 0.0:
        return 1.0
    if ends[0.0] >= 0.0:
        return 0.0
    try:
        return float(optimize.brentq(dphi, 0.0, 1.0, xtol=1e-16, rtol=8.9e-16, maxiter=200))
    except (ValueError, RuntimeError):
        return fallback


_NEWTON_MAX_STEPS = 50


def _newton_step(arc_eval, arc_slope, arc_f, h, tau, stop):
    """(alpha, arc_eval(arc_f + alpha h)) with alpha in [0, 1] where the slice's slope vanishes.

    The slope is phi'(alpha) = h @ arc_eval(arc_f + alpha h) and the
    curvature phi''(alpha) = (h * h) @ arc_slope(arc_f + alpha h); tau =
    arc_eval(arc_f).  Newton steps, clipped to [0, 1], run until |phi'| <=
    stop or alpha = 1 with phi' <= 0; at zero curvature with phi' < 0 the
    step goes to 1.  A step that leaves the bracket [lo, hi] known to hold the
    root (hi open until phi' > 0 is seen) is replaced by bisection, and the
    loop ends when a step no longer moves alpha.
    """
    alpha, slope = 0.0, float(h @ tau)
    if slope >= 0.0:
        return 0.0, tau
    hh = h * h
    lo, hi = 0.0, math.inf
    x = arc_f
    for _ in range(_NEWTON_MAX_STEPS):
        if abs(slope) <= stop or (alpha == 1.0 and slope <= 0.0):
            break
        if slope < 0.0:
            lo = alpha
        else:
            hi = alpha
        curv = float(hh @ arc_slope(x))
        nxt = min(max(alpha - slope / curv, 0.0), 1.0) if curv > 0.0 else 1.0
        if not lo < nxt < hi:
            nxt = 0.5 * (lo + min(hi, 1.0))
        if nxt == alpha:  # the bracket has shrunk to adjacent floats
            break
        alpha = nxt
        x = arc_f + alpha * h
        tau = arc_eval(x)
        slope = float(h @ tau)
    return alpha, tau


def _descend(game: Game, arc_eval, arc_slope, tol: float, max_iter: int, start,
             objective=None) -> tuple[np.ndarray, float, int, bool]:
    """Shared FW loop; arc_eval maps arc flows to per-arc gradient values.

    arc_slope maps arc flows to the derivatives of arc_eval's values, or is
    None; with it, each swap takes a Newton step, without it brentq.  When
    `objective` is given (non-certified optimum search, which passes no
    arc_slope) every step is validated against it, since the
    directional-derivative root is only the minimizer of a convex slice.
    The loop exits early when no O/D pair has an improving swap left that
    changes a flow.  With discontinuous gradients (piecewise-linear
    marginals) the gap can stay positive at the optimum, and where tol lies
    below the float resolution of the costs no representable move closes
    it; spinning on either would never terminate.
    """
    st = game.structure
    inc, rows = st.incidence, st.path_arcs
    demands = [float(d) for d in game.demands]
    floor = _USED_EPS * max(1.0, game.total_demand)  # flows at or below it count as unused
    # Newton stops when a pair's cost difference is 0.1 tol over its demand and |K|
    stop_per_mass = 0.1 * tol / len(demands)
    f = _initial_flow(game, start)
    arc_f = inc @ f
    tau = arc_eval(arc_f)  # kept until a move changes arc_f
    path_costs = rows @ tau
    it = 0
    for it in range(1, max_iter + 1):
        gap = _flow_gap(st, path_costs, f)
        if gap <= tol:
            return f, gap, it, True
        progressed = False
        for k, (lo, hi) in enumerate(st.path_slices):
            d_k = demands[k]
            if d_k <= 0.0:
                continue
            seg = path_costs[lo:hi]
            dst = lo + int(seg.argmin())
            # most expensive used path; -inf when none is used
            used_cost = np.where(f[lo:hi] > floor, seg, -np.inf)
            src = lo + int(used_cost.argmax())
            if used_cost[src - lo] <= seg[dst - lo]:
                continue
            mass = f[src]
            # distinct paths with mass above the floor: h is never zero
            h = mass * (rows[dst] - rows[src])
            moved_tau = None
            if arc_slope is not None:
                stop = stop_per_mass * mass / d_k
                alpha, moved_tau = _newton_step(arc_eval, arc_slope, arc_f, h, tau, stop)
            else:
                alpha = _line_search(arc_eval, arc_f, h, tau, fallback=2.0 / (it + 2.0))
            if objective is not None and alpha > 0.0:
                # nonconvex slice: accept the best of a few candidates, or nothing
                cands = [a for a in (alpha, 1.0, 0.5, 2.0 / (it + 2.0)) if 0.0 < a <= 1.0]
                base_val = objective(arc_f)
                vals = [objective(arc_f + a * h) for a in cands]
                best = int(np.argmin(vals))
                alpha = cands[best] if vals[best] < base_val - 1e-15 else 0.0
            if alpha <= 0.0:
                continue
            moved = alpha * mass
            if f[src] - moved == f[src] and f[dst] + moved == f[dst]:
                continue  # below the flows' float resolution: no progress
            f[src] -= moved
            f[dst] += moved
            if f[src] < 0.0:
                f[src] = 0.0
            arc_f = inc @ f
            tau = arc_eval(arc_f) if moved_tau is None else moved_tau
            path_costs = rows @ tau
            progressed = True
        if not progressed:
            break
    gap = _flow_gap(st, path_costs, f)
    return f, gap, it, gap <= tol


def _report(game: Game, f: np.ndarray, gap: float, iters: int,
            conv: bool, certified: bool) -> SolveReport:
    flow = PathFlow(f)
    pc = path_cost_vector(game, flow)
    user = np.minimum.reduceat(pc, game.structure.pair_starts)
    return SolveReport(
        flow=flow,
        total_cost=total_cost(game, flow),
        user_costs=user,
        duality_gap=gap,
        iterations=iters,
        converged=conv,
        optimality_certified=certified,
    )


def solve_we(game: Game, tol: float = 1e-10, max_iter: int = 100_000,
             start=None) -> SolveReport:
    """Wardrop equilibrium by potential minimization.

    The returned flow satisfies approximation_threshold(game, flow) <= tol
    when converged; otherwise an unconverged report is returned (no raise).
    """
    if tol <= 0:
        raise ValueError("tol must be > 0")

    f, gap, iters, conv = _descend(game, game.arc_cost_values, game.cost_table.derivs,
                                   tol, max_iter, start)
    return _report(game, f, gap, iters, conv, certified=True)


def solve_so(game: Game, tol: float = 1e-10, max_iter: int = 100_000,
             start=None, multistarts: int = 8, seed: int = 0) -> SolveReport:
    """Social optimum by total-cost minimization with marginal-cost gradients.

    optimality_certified is True iff every marginal cost is non-decreasing on
    [0, T(d)] (convex objective); otherwise the best of `multistarts` random
    restarts is reported with certified=False.
    """
    if tol <= 0:
        raise ValueError("tol must be > 0")
    T = game.total_demand
    certified = all(MarginalCost(c).is_nondecreasing_on(T) for c in game.costs)
    table = game.cost_table
    # Newton needs a convex slice; the multistart search takes brentq
    slope = table.marginal_derivs if certified else None

    def objective(arc_f):
        return float(arc_f @ game.arc_cost_values(arc_f))

    f, gap, iters, conv = _descend(game, table.marginals, slope, tol, max_iter, start,
                                   objective=None if certified else objective)
    best = _report(game, f, gap, iters, conv, certified)
    if certified:
        return best
    rng = np.random.default_rng(seed)
    st = game.structure
    for _ in range(multistarts):
        f0 = np.zeros(st.n_paths)
        for k, (lo, hi) in enumerate(st.path_slices):
            w = rng.dirichlet(np.ones(hi - lo))
            f0[lo:hi] = game.demands[k] * w
        f, gap, iters, conv = _descend(game, table.marginals, None, tol, max_iter, f0,
                                       objective=objective)
        cand = _report(game, f, gap, iters, conv, certified)
        if cand.total_cost < best.total_cost:
            best = cand
    return best


def approximation_threshold(game: Game, flow: PathFlow) -> float:
    """Smallest eps for which the flow is an eps-approximate equilibrium."""
    check_feasible(game, flow)
    return _flow_gap(game.structure, path_cost_vector(game, flow), flow.values)


def potential(game: Game, flow: PathFlow) -> float:
    """Sum over arcs of the cost antiderivative at the arc flow."""
    check_feasible(game, flow)
    arc_f = game.structure.incidence @ flow.values
    return float(sum(c.antiderivative(x) for c, x in zip(game.costs, arc_f)))


def poa_upper_bound(game: Game) -> float:
    """Finite a priori PoA bound |A| |S| max tau(T) / min tau(T/|S|)."""
    T = game.total_demand
    n_s = game.structure.n_paths
    hi = max(float(c(T)) for c in game.costs)
    lo = min(float(c(T / n_s)) for c in game.costs)
    return len(game.structure.arcs) * n_s * hi / lo


def total_cost_sandwich(game: Game, so_cost: float, we_cost: float,
                    slack: float = 1e-9) -> tuple[bool, float, float]:
    """Sandwich 0 < (T/|S|) min tau(T/|S|) <= C* <= WE cost <= |A| T max tau(T)."""
    T = game.total_demand
    n_s = game.structure.n_paths
    lower = (T / n_s) * min(float(c(T / n_s)) for c in game.costs)
    upper = len(game.structure.arcs) * T * max(float(c(T)) for c in game.costs)
    ok = (0.0 < lower <= so_cost + slack
          and so_cost <= we_cost + slack
          and we_cost <= upper + slack)
    return ok, lower, upper


def poa(game: Game, tol: float = 1e-10, max_iter: int = 100_000) -> float:
    """PoA = WE total cost over SO total cost.

    Raises UnconvergedError on an unconverged solve, and InvariantError when
    the ratio falls below 1 or above ``poa_upper_bound``.
    """
    return _solve_poa(game, tol, max_iter)[0]


def _solve_poa(game: Game, tol: float = 1e-10, max_iter: int = 100_000,
               starts=(None, None)) -> tuple[float, SolveReport, SolveReport]:
    """(PoA, WE report, SO report), with the checks ``poa`` documents.

    ``starts`` holds the start flows of the WE and the SO solve (None: cold).
    """
    we = solve_we(game, tol=tol, max_iter=max_iter, start=starts[0])
    if not we.converged:
        raise UnconvergedError(we)
    so = solve_so(game, tol=tol, max_iter=max_iter, start=starts[1])
    if not so.converged:
        raise UnconvergedError(so)
    rho = we.total_cost / so.total_cost
    if not rho >= 1.0 - 10.0 * tol:
        raise InvariantError(f"PoA {rho} fell below 1")
    if not rho <= poa_upper_bound(game) * (1.0 + 1e-9):
        raise InvariantError(f"PoA {rho} exceeds its a priori bound")
    return rho, we, so


@dataclass(frozen=True)
class ApproximationBoundsReport:
    """Which approximation inequalities hold for an eps-approximate flow."""

    per_od_gap_ok: bool
    cost_between_user_costs_ok: bool
    potential_chain_ok: bool
    cross_term_ok: bool
    arc_cost_diff_ok: bool
    user_cost_diff_ok: bool
    total_cost_diff_ok: bool
    total_cost_diff: float
    total_cost_diff_bound: float

    @property
    def all_ok(self) -> bool:
        return all((self.per_od_gap_ok, self.cost_between_user_costs_ok,
                    self.potential_chain_ok, self.cross_term_ok,
                    self.arc_cost_diff_ok, self.user_cost_diff_ok,
                    self.total_cost_diff_ok))


def check_approximation_bounds(game: Game, f: PathFlow, f_we: PathFlow, eps: float,
                 lipschitz: float, slack: float = 1e-9) -> ApproximationBoundsReport:
    """Verify the eps-approximate equilibrium inequalities against a solved WE."""
    st = game.structure
    inc = st.incidence
    pc_f = path_cost_vector(game, f)
    arc_f = inc @ f.values
    arc_we = inc @ f_we.values
    tau_f = game.arc_cost_values(arc_f)
    tau_we = game.arc_cost_values(arc_we)
    T = game.total_demand
    n_arcs = len(st.arcs)

    per_od = True
    cost_bounds = True
    c_f = total_cost(game, f)
    user_sum = 0.0
    for k, (lo, hi) in enumerate(st.path_slices):
        seg = pc_f[lo:hi]
        l_k = float(np.min(seg))
        gap_k = float(seg @ f.values[lo:hi]) - float(game.demands[k]) * l_k
        per_od &= (-slack <= gap_k < eps + slack)
        user_sum += float(game.demands[k]) * l_k
    cost_bounds = (user_sum - slack <= c_f <= user_sum + eps + slack)

    lhs = float(tau_we @ (arc_f - arc_we))
    mid = potential(game, f) - potential(game, f_we)
    rhs = float(tau_f @ (arc_f - arc_we))
    chain = (-slack <= lhs <= mid + slack <= rhs + 2 * slack) and rhs < eps + slack
    cross = float(np.abs(tau_f - tau_we) @ np.abs(arc_f - arc_we))
    cross_ok = cross < eps + slack

    bound_c = float(np.sqrt(lipschitz * eps))
    arc_ok = bool(np.all(np.abs(tau_f - tau_we) < bound_c + slack))
    pc_we = inc.T @ tau_we
    user_ok = True
    for lo, hi in st.path_slices:
        l_we = float(np.min(pc_we[lo:hi]))
        l_f = float(np.min(pc_f[lo:hi]))
        user_ok &= abs(l_we - l_f) <= n_arcs * bound_c + slack
    c_diff = abs(c_f - total_cost(game, f_we))
    c_bound = n_arcs * bound_c * T + eps
    return ApproximationBoundsReport(
        per_od_gap_ok=per_od,
        cost_between_user_costs_ok=cost_bounds,
        potential_chain_ok=chain,
        cross_term_ok=cross_ok,
        arc_cost_diff_ok=arc_ok,
        user_cost_diff_ok=user_ok,
        total_cost_diff_ok=c_diff <= c_bound + slack,
        total_cost_diff=c_diff,
        total_cost_diff_bound=c_bound,
    )
