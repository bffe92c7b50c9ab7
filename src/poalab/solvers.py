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
at the step it takes.  The solvers call the table without its x >= 0
check, which every flow they form passes by construction (see
``_descend``).

Many games on one structure, such as the samples of a sweep, can be solved
in lockstep (``_solve_poas``): their flows are the rows of (B, |S|) and
(B, |A|) arrays, one ``ArcCostTable`` prices all B |A| arcs per call, and
``_descend_batch`` runs the same Gauss-Seidel pair loop and Newton step on
every row at once, each row with its own tolerance, bracket and stopping
rule.  A game whose cost table has no derivative kernels (the brentq
games) or whose social optimum is not certified convex is solved alone,
as ``_solve_poa`` does.  The lockstep loop pays numpy's per-call overhead
on every step, for all rows together, so it only wins with enough rows:
measured on the criterion-07 games and on the 6- to 12-arc BPR networks
of the benchmark, one game alone runs 1.8 to 5.4 times slower in it than
in ``_descend``, and the two break even at 3 to 5 games.  So single solves keep ``_descend``, and a
batch of fewer than ``_LOCKSTEP_MIN_ROWS`` games is solved game by game.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import optimize

from .costs import MarginalCost
from .games import (
    ArcCostTable,
    Game,
    PathFlow,
    Structure,
    _check_routed,
    _checked_total,
    _dot,
    arc_flows,
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


def _flow_gap(st: Structure, path_costs: np.ndarray, f: np.ndarray):
    """Sum over paths of flow times (path cost - its O/D pair's least path cost).

    Each term is non-negative, so the sum has no cancellation.  This is the
    Frank-Wolfe duality gap of a descent and the approximation threshold of
    a flow.  With a leading batch axis it gives one gap per row.
    """
    least = np.minimum.reduceat(path_costs, st.pair_starts, axis=-1)
    return _dot(path_costs - least[..., st.path_owner], f)


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
            # distinct paths with mass above the floor: h is never zero.  The
            # table runs without its x >= 0 check: every flow here is >= 0, and
            # so is a trial flow x = arc_f + alpha h with alpha in [0, 1],
            # exactly.  h is -mass only on arcs of the source path alone, and
            # rounding is monotone, so fl(alpha mass) <= mass <= arc_f there (a
            # float sum of non-negative path flows is at least each of them).
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


def _newton_steps(arc_eval, arc_slope, arc_f, h, tau, stop, run):
    """_newton_step on every row where `run` holds, in lockstep; alpha = 0 elsewhere.

    Row b of each array belongs to game b, and stop holds one threshold per
    row.  Each row keeps its own bracket and stops on its own rule; the
    costs of a row that has stopped are kept, not re-evaluated.
    """
    slope = _dot(h, tau)
    run = run & (slope < 0.0)
    alpha, lo, hi = np.zeros(len(h)), np.zeros(len(h)), np.full(len(h), math.inf)
    tau = tau.copy()
    hh = h * h
    x = arc_f
    for _ in range(_NEWTON_MAX_STEPS):
        run &= (np.abs(slope) > stop) & ((alpha != 1.0) | (slope > 0.0))
        if not run.any():
            break
        below = slope < 0.0
        np.copyto(lo, alpha, where=run & below)
        np.copyto(hi, alpha, where=run & ~below)
        curv = _dot(hh, arc_slope(x))
        newton = curv > 0.0
        nxt = np.where(newton, np.minimum(np.maximum(
            alpha - slope / np.where(newton, curv, 1.0), 0.0), 1.0), 1.0)
        nxt = np.where((lo < nxt) & (nxt < hi), nxt, 0.5 * (lo + np.minimum(hi, 1.0)))
        run &= nxt != alpha
        np.copyto(alpha, nxt, where=run)
        x = arc_f + alpha[:, None] * h
        moved = arc_eval(x)
        np.copyto(tau, moved, where=run[:, None])
        np.copyto(slope, _dot(h, moved), where=run)
    return alpha, tau


def _descend_batch(st: Structure, demands: np.ndarray, arc_eval, arc_slope,
                   tol: np.ndarray, max_iter: int, f0: np.ndarray):
    """_descend with Newton steps on B games of one structure at once.

    Row b of demands (B, |K|), tol (B,) and the start flows f0 (B, |S|) belongs
    to game b; arc_eval and arc_slope map (B, |A|) arc flows to per-row
    gradients and their slopes.  Every row takes the steps its own _descend
    would take, up to the rounding of the incidence products, and leaves the
    loop on its own rule: converged, stalled (no swap moved a flow) or out of
    iterations.  Returns the final flows and a per-row converged mask.
    """
    inc, rows = st.incidence, st.path_arcs
    every = np.arange(len(f0))
    floor = _USED_EPS * np.maximum(1.0, demands.sum(axis=1))[:, None]
    stop_per_mass = 0.1 * tol / demands.shape[1]
    routed = (demands > 0.0).T  # (|K|, B): a pair without demand makes no swap
    pair_demand = np.where(routed, demands.T, 1.0)
    f = f0.copy()
    arc_f = f @ rows
    tau = arc_eval(arc_f)
    path_costs = tau @ inc
    gap = np.zeros(len(f))
    active = np.ones(len(f), dtype=bool)
    for _ in range(max_iter):
        np.copyto(gap, _flow_gap(st, path_costs, f), where=active)
        active &= gap > tol
        if not active.any():
            break
        progressed = np.zeros(len(f), dtype=bool)
        for k, (lo, hi) in enumerate(st.path_slices):
            seg = path_costs[:, lo:hi]
            used_cost = np.where(f[:, lo:hi] > floor, seg, -np.inf)
            src, dst = used_cost.argmax(axis=1), seg.argmin(axis=1)
            swap = active & routed[k] & (used_cost[every, src] > seg[every, dst])
            if not swap.any():
                continue
            src += lo
            dst += lo
            f_src, f_dst = f[every, src], f[every, dst]
            mass = np.where(swap, f_src, 0.0)
            h = mass[:, None] * (rows[dst] - rows[src])  # >= 0 trial flows, as in _descend
            alpha, moved_tau = _newton_steps(arc_eval, arc_slope, arc_f, h, tau,
                                             stop_per_mass * mass / pair_demand[k], swap)
            moved = alpha * mass
            new_src, new_dst = f_src - moved, f_dst + moved
            step = (alpha > 0.0) & ((new_src != f_src) | (new_dst != f_dst))
            if not step.any():
                continue
            f[every, src] = np.where(step, np.where(new_src < 0.0, 0.0, new_src), f_src)
            f[every, dst] = np.where(step, new_dst, f_dst)
            arc_f = f @ rows
            tau = np.where(step[:, None], moved_tau, tau)
            path_costs = tau @ inc
            progressed |= step
        active &= progressed
    if active.any():  # out of iterations
        np.copyto(gap, _flow_gap(st, path_costs, f), where=active)
    return f, gap <= tol


# Fewest games solved in lockstep: below it, one _descend per game is faster
# (see the module docstring).
_LOCKSTEP_MIN_ROWS = 4


def _solve_poas(games, tols, max_iter: int, starts) -> list[float]:
    """PoA of each of several games on one structure; NaN where a solve does not converge.

    tols and starts hold, per game, its tolerance and its WE and SO start
    flows.  The games whose SO is certified convex are solved in lockstep by
    _descend_batch when there are at least _LOCKSTEP_MIN_ROWS of them and
    their costs have derivative kernels; the others go through _solve_poa
    one at a time.  Either way each PoA passes the checks of _solve_poa.
    """
    batch = [i for i, game in enumerate(games) if _so_certified(game)]
    table = ArcCostTable([c for i in batch for c in games[i].costs])
    if len(batch) < _LOCKSTEP_MIN_ROWS or table.derivs is None:
        batch = []
    out = [math.nan] * len(games)
    for i in sorted(set(range(len(games))).difference(batch)):
        try:
            out[i] = _solve_poa(games[i], tols[i], max_iter, starts[i])[0]
        except UnconvergedError:
            pass
    if not batch:
        return out
    st = games[batch[0]].structure
    demands = np.array([games[i].demands for i in batch])
    tol = np.array([tols[i] for i in batch])

    def by_row(name):  # the table's arcs are the games' arcs, game after game
        fn = table._unchecked(name)
        return lambda x: fn(x.reshape(-1)).reshape(x.shape)

    flows, done = [], np.ones(len(batch), dtype=bool)
    for which, grad, slope in ((0, "values", "derivs"), (1, "marginals", "marginal_derivs")):
        f0 = np.array([starts[i][which] for i in batch])
        _check_routed(st, demands, f0)
        f, conv = _descend_batch(st, demands, by_row(grad), by_row(slope), tol, max_iter, f0)
        flows.append(f)
        done &= conv
    values = by_row("values")
    costs = []
    for f in flows:  # priced as _report prices a flow, on the rows where both solves converged
        arc_f = f @ st.path_arcs
        tau = values(arc_f)
        costs.append(_checked_total(arc_f[done], tau[done], f[done], (tau @ st.incidence)[done]))
    for i, we_cost, so_cost in zip(np.array(batch)[done], *costs):
        out[i] = _checked_poa(games[i], float(we_cost / so_cost), tols[i])
    return out


def _report(game: Game, f: np.ndarray, gap: float, iters: int,
            conv: bool, certified: bool) -> SolveReport:
    flow = PathFlow(f)
    arc_f = arc_flows(game, flow)
    tau = game.arc_cost_values(arc_f)
    pc = game.structure.incidence.T @ tau
    return SolveReport(
        flow=flow,
        total_cost=_checked_total(arc_f, tau, flow.values, pc),
        user_costs=np.minimum.reduceat(pc, game.structure.pair_starts),
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

    table = game.cost_table
    f, gap, iters, conv = _descend(game, table._unchecked("values"), table._unchecked("derivs"),
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
    certified = _so_certified(game)
    table = game.cost_table
    marginals, values = table._unchecked("marginals"), table._unchecked("values")
    # Newton needs a convex slice; the multistart search takes brentq
    slope = table._unchecked("marginal_derivs") if certified else None

    def objective(arc_f):
        return float(arc_f @ values(arc_f))

    f, gap, iters, conv = _descend(game, marginals, slope, tol, max_iter, start,
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
        f, gap, iters, conv = _descend(game, marginals, None, tol, max_iter, f0,
                                       objective=objective)
        cand = _report(game, f, gap, iters, conv, certified)
        if cand.total_cost < best.total_cost:
            best = cand
    return best


def _so_certified(game: Game) -> bool:
    """True when every marginal cost is non-decreasing on [0, T(d)] (convex total cost)."""
    T = game.total_demand
    return all(MarginalCost(c).is_nondecreasing_on(T) for c in game.costs)


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
    return _checked_poa(game, we.total_cost / so.total_cost, tol), we, so


def _checked_poa(game: Game, rho: float, tol: float) -> float:
    """rho, after the checks that every PoA solved at tolerance tol passes."""
    if not rho >= 1.0 - 10.0 * tol:
        raise InvariantError(f"PoA {rho} fell below 1")
    if not rho <= poa_upper_bound(game) * (1.0 + 1e-9):
        raise InvariantError(f"PoA {rho} exceeds its a priori bound")
    return rho


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
