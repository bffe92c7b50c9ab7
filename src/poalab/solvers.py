"""Wardrop equilibrium and social optimum solvers, PoA, approximation checks.

Both solvers are Frank-Wolfe schemes on path flows.  The linear subproblem
assigns each O/D pair's demand wholly to its current min-cost path (ties
broken by lowest path index), and the resulting duality gap is exactly the
approximation threshold of the current flow, which gives the stopping
certificate.  Both are computed by one helper as the sum over paths of
flow times (path cost - the least path cost of its O/D pair): every term
is non-negative, so no cancellation between large per-pair totals can hide
or fake a small gap.  A Gauss-Seidel pass swaps mass between each O/D
pair's most expensive used path and its cheapest path, with the step length
found where the directional derivative of the convex slice vanishes.

Every swap takes its step length from one safeguarded path-based Newton
iteration on the slice (Jayakrishnan et al., TRR 1443, 1994), with the exact
curvature the game's cost table gives for every family.  Where the social
optimum's convexity is not certified, each step is checked against the total cost,
and the start and its seeded restarts descend in lockstep (``solve_so``).

WE and certified SO follow each pass that kept the set of used paths U with
one projected Newton step on U (Bertsekas, SIAM J. Control Optim. 20, 1982;
Bertsekas and Gafni, Math. Prog. Study 17, 1982).  Its curvature is R_U
diag(tau') R_U^T, plus a ridge of _RIDGE times the largest diagonal entry: a
least-norm step where used paths outnumber arcs.  A ratio test keeps f >= 0,
the Newton line search runs along the step, and each pair's sum is set back
to its demand.  Rows with one free direction (used paths less the pairs
they serve) skip it: the swap is their Newton step.  A used path with at
most _ACTIVE_SHARE of its demand, dearer than its pair's least, stays out of U.

Costs (WE) and marginal costs (SO) are evaluated for all arcs at once
through the game's compiled ``ArcCostTable``.  The arc costs at the current
flow serve the gap, every O/D pair's swap choice and the step's slope at
step 0, until a step moves the flow; the Newton step hands back the costs
at the step it takes.  The solvers call the table without its x >= 0
check, which every flow they form passes by construction (see
``_descend``).  A descent's start flow, every report and a batch's final
totals are priced by ``games._price`` (``incidence @ f``, then ``path_arcs @
tau``, one column per row); the lockstep loop keeps its whole-batch products.

Many games on one structure, such as the samples of a sweep, can be solved
in lockstep (``_solve_poas``): their flows are the rows of (B, |S|) and
(B, |A|) arrays, one ``ArcCostTable`` prices all B |A| arcs per call, and
``_descend_batch`` runs the same Gauss-Seidel pair loop and Newton step on
every row at once, each row with its own tolerance, bracket and stopping
rule.  A game whose social optimum is not certified convex is left to
``_solve_poa``, whose ``solve_so`` runs its own nine-row batch.  The lockstep
loop pays numpy's per-call overhead on every step, for all rows together, so it
only wins with enough rows: measured on the criterion-07 games and on the 6- to
12-arc BPR networks of the benchmark, one game alone runs 1.8 to 5.4 times
slower in it than in ``_descend``, and the two break even at 3 to 5 games.  So
WE and certified SO solves keep ``_descend``, and a batch of fewer than
``_LOCKSTEP_MIN_ROWS`` games is solved game by game.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .games import (
    ArcCostTable,
    Game,
    PathFlow,
    Structure,
    _check_routed,
    _checked_total,
    _dot,
    _price,
    check_feasible,
    path_cost_vector,
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

_MULTISTARTS = 8  # random restarts of an uncertified social optimum, seeded with 0

CHECK_SLACK = 1e-9  # absolute slack of the total-cost sandwich and the approximation checks


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


_NEWTON_MAX_STEPS = 50


def _newton_step(arc_eval, arc_slope, arc_f, h, tau, stop):
    """(alpha, arc_eval(arc_f + alpha h)) with alpha in [0, 1] where the slice's slope vanishes.

    The slope is phi'(alpha) = h @ arc_eval(arc_f + alpha h), tau =
    arc_eval(arc_f), and the curvature (h * h) @ arc_slope(arc_f + alpha h).
    Newton steps, clipped to [0, 1], run until |phi'| <= stop or alpha = 1
    with phi' <= 0; at zero curvature with phi' < 0 the step goes to 1.  A
    step that leaves the bracket [lo, hi] known to hold the root (hi open
    until phi' > 0 is seen) is replaced by bisection, and the loop ends when
    alpha stops moving.
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


_ACTIVE_SHARE = 1e-3  # the epsilon-active set of the used-path Newton step
_RIDGE = 1e-12  # its ridge, relative to the largest diagonal entry


def _two_free(n_used, n_pairs):
    """Whether n_used paths serving n_pairs pairs leave two free directions for the Newton step.

    With one, the swap already is the Newton step.  Asked of all a structure's
    paths and pairs, it is false only if it is false for every flow on it.
    """
    return n_used - n_pairs >= 2


def _used_path_newton(st: Structure, arc_eval, arc_slope, f, arc_f, tau, path_costs, demands,
                      floor, tol, run):
    """(f, arc_f, tau, path_costs), rows `run` allows after a Newton step on their used paths U.

    Rows are games.  The KKT system [R_U diag(tau') R_U^T, E^T; E, 0] has identity
    rows for the paths outside U and the pairs without a used path.
    """
    owner, n_s, n = st.path_owner, st.n_paths, st.n_paths + len(st.pair_starts)
    excess = path_costs - np.minimum.reduceat(path_costs, st.pair_starts, axis=1)[:, owner]
    share = demands[:, owner]
    used = (f > floor) & ((f > _ACTIVE_SHARE * share) | (excess <= 0.0))
    pairs = np.logical_or.reduceat(used, st.pair_starts, axis=1)
    run &= _two_free(used.sum(axis=1), pairs.sum(axis=1)) & (_flow_gap(st, path_costs, f) > tol)
    if not run.any():
        return f, arc_f, tau, path_costs
    curv, u, rows = arc_slope(arc_f)[run], used[run], st.path_arcs
    link = (owner == np.arange(n - n_s)[:, None]) & u[:, None, :]  # E on U
    kkt = np.zeros((len(u), n, n))
    kkt[:, :n_s, :n_s] = (rows * curv[:, None, :]) @ rows.T * (u[:, :, None] & u[:, None, :])
    kkt[:, n_s:, :n_s], kkt[:, :n_s, n_s:] = link, link.transpose(0, 2, 1)
    diag = kkt.reshape(len(u), -1)[:, ::n + 1]  # a view of each row's diagonal
    top = diag[:, :n_s].max(axis=1, keepdims=True)  # 0: the ridge 1 makes a gradient step
    diag += np.concatenate([np.where(top > 0.0, _RIDGE * top, 1.0) + ~u, ~pairs[run]], axis=1)
    rhs = np.concatenate([-excess[run] * u, np.zeros((len(u), n - n_s))], axis=1)
    d, fr = np.linalg.solve(kkt, rhs[..., None])[:, :n_s, 0], f[run]
    block = -d > fr  # paths a full step would empty: the ratios there lie in [0, 1)
    s = np.zeros_like(f)
    s[run] = d * np.min(np.where(block, fr / np.where(block, -d, 1.0), 1.0), axis=1)[:, None]
    stop = 0.05 * tol / len(st.pair_starts) * _dot(np.abs(s), 1.0 / np.maximum(share, 1e-300))
    alpha, _ = _newton_steps(lambda x: arc_eval(np.maximum(x, 0.0)),
                             lambda x: arc_slope(np.maximum(x, 0.0)), arc_f, s @ rows, tau,
                             stop, run)  # trial arc flows along s may round below 0
    g = np.maximum(f + alpha[:, None] * s, 0.0)  # with each pair's sum set back to its demand:
    g *= (demands / np.maximum(np.add.reduceat(g, st.pair_starts, axis=1), 1e-300))[:, owner]
    moved = (alpha > 0.0)[:, None]
    f = np.where(moved, g, f)
    arc_f = f @ rows
    tau = np.where(moved, arc_eval(arc_f), tau)
    return f, arc_f, tau, tau @ st.incidence


def _descend(game: Game, arc_eval, arc_slope, tol: float, max_iter: int,
             start) -> tuple[np.ndarray, float, int, bool]:
    """FW loop of a WE or certified SO; arc_eval maps arc flows to per-arc gradient values.

    arc_slope maps arc flows to the derivatives of arc_eval's values; every
    swap takes one _newton_step and keeps the costs it returns, and a
    _used_path_newton step follows each pass.
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
    arc_f, tau, path_costs = _price(st, arc_eval, f)  # tau is kept until a move changes arc_f
    newton = _two_free(st.n_paths, len(demands))
    it = 0
    for it in range(1, max_iter + 1):
        gap = _flow_gap(st, path_costs, f)
        if gap <= tol:
            return f, gap, it, True
        progressed, support = False, newton and f > floor
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
            stop = stop_per_mass * mass / d_k
            alpha, moved_tau = _newton_step(arc_eval, arc_slope, arc_f, h, tau, stop)
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
            tau = moved_tau
            path_costs = rows @ tau
            progressed = True
        if newton:  # as the one row of a batch
            f, arc_f, tau, path_costs = (a[0] for a in _used_path_newton(
                st, lambda x: arc_eval(x[0])[None], lambda x: arc_slope(x[0])[None],
                f[None], arc_f[None], tau[None], path_costs[None], game.demands[None], floor, tol,
                np.array_equal(support, f > floor)))
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
                   tol: np.ndarray, max_iter: int, f0: np.ndarray, objective=None):
    """_descend on B games of one structure at once; with `objective`, a nonconvex search.

    Row b of demands (B, |K|), tol (B,) and the start flows f0 (B, |S|) belongs
    to game b; arc_eval and arc_slope map (B, |A|) arc flows to per-row
    gradients and their slopes.  Without `objective` every row takes the
    steps its own _descend would take, up to the rounding of the incidence
    products.  With it (objective maps (B, |A|) arc flows to one value per
    row) the used-path Newton step is off, and a row's swap step is the first
    best of the Newton step, 1, 1/2 and 2/(it + 2) on pass `it`, taken only if
    it lowers the objective: the directional-derivative root minimizes only a
    convex slice.  Each row leaves the loop on its own rule: converged,
    stalled (no swap moved a flow) or out of iterations.  Returns the final
    flows, each row's gap and the pass at which it left the loop.
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
    passes = np.zeros(len(f), dtype=int)
    active = np.ones(len(f), dtype=bool)
    newton = objective is None and _two_free(st.n_paths, demands.shape[1])
    for it in range(1, max_iter + 1):
        np.copyto(gap, _flow_gap(st, path_costs, f), where=active)
        passes[active] = it
        active &= gap > tol
        if not active.any():
            break
        progressed, support = np.zeros(len(f), dtype=bool), newton and f > floor
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
            stale = None  # rows whose step is not Newton's: the costs it returned are not theirs
            if objective is not None and (alpha > 0.0).any():
                cands = np.stack(np.broadcast_arrays(alpha, 1.0, 0.5, 2.0 / (it + 2.0)))
                vals = np.array([objective(arc_f + a[:, None] * h) for a in cands])
                best = vals.argmin(axis=0)
                chosen = np.where((alpha > 0.0) & (vals[best, every] < objective(arc_f) - 1e-15),
                                  cands[best, every], 0.0)
                stale, alpha = chosen != alpha, chosen
            moved = alpha * mass
            new_src, new_dst = f_src - moved, f_dst + moved
            step = (alpha > 0.0) & ((new_src != f_src) | (new_dst != f_dst))
            if not step.any():
                continue
            f[every, src] = np.where(step, np.where(new_src < 0.0, 0.0, new_src), f_src)
            f[every, dst] = np.where(step, new_dst, f_dst)
            arc_f = f @ rows
            tau = np.where(step[:, None], moved_tau, tau)
            if stale is not None and (step & stale).any():
                tau = np.where((step & stale)[:, None], arc_eval(arc_f), tau)
            path_costs = tau @ inc
            progressed |= step
        if newton:  # a row no swap moved leaves with the gap of the flow the step left
            f, arc_f, tau, path_costs = _used_path_newton(
                st, arc_eval, arc_slope, f, arc_f, tau, path_costs, demands, floor, tol,
                active & (support == (f > floor)).all(axis=1))
            if (active & ~progressed).any():
                np.copyto(gap, _flow_gap(st, path_costs, f), where=active & ~progressed)
        active &= progressed
    if active.any():  # out of iterations
        np.copyto(gap, _flow_gap(st, path_costs, f), where=active)
    return f, gap, passes


def _by_row(table: ArcCostTable, name: str):
    """The table's unchecked method `name` on (B, |A|) arc flows.

    The table's arcs are the arcs of B games on one structure, game after game.
    """
    fn = table._unchecked(name)
    return lambda x: fn(x.reshape(-1)).reshape(x.shape)


# Fewest games solved in lockstep: below it, one _descend per game is faster
# (see the module docstring).
_LOCKSTEP_MIN_ROWS = 4


def _solve_poas(games, tols, max_iter: int, starts) -> list[float]:
    """PoA of each of several games on one structure; NaN where a solve does not converge.

    tols and starts hold, per game, its tolerance and its WE and SO start
    flows.  The games whose SO is certified convex are solved in lockstep by
    _descend_batch when there are at least _LOCKSTEP_MIN_ROWS of them; the
    others go through _solve_poa one at a time.  Either way each PoA passes
    the checks of _solve_poa.
    """
    certified = [i for i, game in enumerate(games) if _so_certified(game)]
    batch = certified if len(certified) >= _LOCKSTEP_MIN_ROWS else []
    out = [math.nan] * len(games)
    for i in sorted(set(range(len(games))).difference(batch)):
        try:
            out[i] = _solve_poa(games[i], tols[i], max_iter, starts[i])[0]
        except UnconvergedError:
            pass
    if not batch:
        return out
    st = games[batch[0]].structure
    table = ArcCostTable([c for i in batch for c in games[i].costs])
    demands = np.array([games[i].demands for i in batch])
    tol = np.array([tols[i] for i in batch])
    flows, done = [], np.ones(len(batch), dtype=bool)
    for which, grad, slope in ((0, "values", "derivs"), (1, "marginals", "marginal_derivs")):
        f0 = np.array([starts[i][which] for i in batch])
        _check_routed(st, demands, f0)
        f, gap, _ = _descend_batch(st, demands, _by_row(table, grad), _by_row(table, slope),
                                   tol, max_iter, f0)
        _check_routed(st, demands, f)
        flows.append(f)
        done &= gap <= tol
    values = _by_row(table, "values")
    costs = []
    for f in flows:  # priced as _report prices a flow, on the rows where both solves converged
        arc_f, tau, pc = _price(st, values, f)
        costs.append(_checked_total(f[done], arc_f[done], tau[done], pc[done]))
    for i, we_cost, so_cost in zip(np.array(batch)[done], *costs):
        out[i] = _checked_poa(games[i], float(we_cost / so_cost), tols[i])
    return out


def _report(game: Game, f: np.ndarray, gap: float, iters: int,
            conv: bool, certified: bool) -> SolveReport:
    flow = PathFlow(f)
    check_feasible(game, flow)
    arc_f, tau, pc = _price(game.structure, game.arc_cost_values, flow.values)
    return SolveReport(
        flow=flow,
        total_cost=_checked_total(flow.values, arc_f, tau, pc),
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
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tol must be finite and > 0, got {tol}")

    table = game.cost_table
    f, gap, iters, conv = _descend(game, table._unchecked("values"), table._unchecked("derivs"),
                                   tol, max_iter, start)
    return _report(game, f, gap, iters, conv, certified=True)


def solve_so(game: Game, tol: float = 1e-10, max_iter: int = 100_000,
             start=None) -> SolveReport:
    """Social optimum by total-cost minimization with marginal-cost gradients.

    optimality_certified is True iff every cost's closed-form rule proves its marginal
    non-decreasing on [0, T(d)] (convex objective, never sampled).  Otherwise the start and
    _MULTISTARTS random start flows (seed 0) are descended in lockstep as the rows of one
    _descend_batch, each step checked against the total cost, and the first row with the
    least total cost is reported uncertified.
    """
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tol must be finite and > 0, got {tol}")
    if _so_certified(game):
        table = game.cost_table
        f, gap, iters, conv = _descend(game, table._unchecked("marginals"),
                                       table._unchecked("marginal_derivs"), tol, max_iter, start)
        return _report(game, f, gap, iters, conv, certified=True)
    st = game.structure
    rng = np.random.default_rng(0)
    f0 = np.zeros((1 + _MULTISTARTS, st.n_paths))
    f0[0] = _initial_flow(game, start)
    for row in f0[1:]:
        for k, (lo, hi) in enumerate(st.path_slices):
            row[lo:hi] = game.demands[k] * rng.dirichlet(np.ones(hi - lo))
    table = ArcCostTable(game.costs * len(f0))
    values = _by_row(table, "values")
    demands = np.tile(game.demands, (len(f0), 1))
    f, gap, iters = _descend_batch(
        st, demands, _by_row(table, "marginals"), _by_row(table, "marginal_derivs"),
        np.full(len(f0), tol), max_iter, f0, objective=lambda x: _dot(x, values(x)))
    _check_routed(st, demands, f)
    best = int(np.argmin(_checked_total(f, *_price(st, values, f))))
    return _report(game, f[best], float(gap[best]), int(iters[best]), bool(gap[best] <= tol),
                   certified=False)


def _so_certified(game: Game) -> bool:
    """True when each cost's closed-form rule proves its marginal non-decreasing on [0, T(d)]."""
    T = game.total_demand
    return all(c.has_nondecreasing_marginal(T) for c in game.costs)


def approximation_threshold(game: Game, flow: PathFlow) -> float:
    """Smallest eps for which the flow is an eps-approximate equilibrium."""
    return _flow_gap(game.structure, path_cost_vector(game, flow), flow.values)


def potential(game: Game, flow: PathFlow) -> float:
    """Sum over arcs of the cost antiderivative at the arc flow."""
    check_feasible(game, flow)
    arc_f = game.structure.incidence @ flow.values
    return float(game.cost_table.antiderivs(arc_f).sum())


def _cost_range(game: Game) -> tuple[float, float]:
    """(min tau_a(T/|S|), max tau_a(T)) over the arcs, for the two a priori bounds."""
    T = game.total_demand
    n_s = game.structure.n_paths
    return min(float(c(T / n_s)) for c in game.costs), max(float(c(T)) for c in game.costs)


def poa_upper_bound(game: Game) -> float:
    """Finite a priori PoA bound |A| |S| max tau(T) / min tau(T/|S|)."""
    lo, hi = _cost_range(game)
    return len(game.structure.arcs) * game.structure.n_paths * hi / lo


def total_cost_sandwich(game: Game, so_cost: float, we_cost: float) -> tuple[bool, float, float]:
    """Sandwich 0 < (T/|S|) min tau(T/|S|) <= C* <= WE cost <= |A| T max tau(T), to CHECK_SLACK."""
    T = game.total_demand
    lo, hi = _cost_range(game)
    lower = (T / game.structure.n_paths) * lo
    upper = len(game.structure.arcs) * T * hi
    ok = (0.0 < lower <= so_cost + CHECK_SLACK
          and so_cost <= we_cost + CHECK_SLACK
          and we_cost <= upper + CHECK_SLACK)
    return ok, lower, upper


def poa(game: Game, tol: float = 1e-10) -> float:
    """PoA = WE total cost over SO total cost.

    Raises UnconvergedError on an unconverged solve, and InvariantError when
    the ratio falls below 1 or above ``poa_upper_bound``.
    """
    return _solve_poa(game, tol)[0]


def _solve_poa(game: Game, tol: float, max_iter: int = 100_000,
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
                 lipschitz: float, slack: float = CHECK_SLACK) -> ApproximationBoundsReport:
    """Verify the eps-approximate equilibrium inequalities against a solved WE."""
    st = game.structure
    mid = potential(game, f) - potential(game, f_we)  # also checks both flows are feasible
    arc_f, tau_f, pc_f = _price(st, game.arc_cost_values, f.values)
    arc_we, tau_we, pc_we = _price(st, game.arc_cost_values, f_we.values)
    T = game.total_demand
    n_arcs = len(st.arcs)

    c_f = _checked_total(f.values, arc_f, tau_f, pc_f)
    # per-pair gaps: sums of the non-negative terms _flow_gap sums, so each is >= 0
    least_f = np.minimum.reduceat(pc_f, st.pair_starts)
    gaps = np.add.reduceat(f.values * (pc_f - least_f[st.path_owner]), st.pair_starts)
    per_od = bool(np.all(gaps < eps + slack))
    user_sum = float(game.demands @ least_f)
    cost_bounds = (user_sum - slack <= c_f <= user_sum + eps + slack)

    lhs = float(tau_we @ (arc_f - arc_we))
    rhs = float(tau_f @ (arc_f - arc_we))
    chain = (-slack <= lhs <= mid + slack <= rhs + 2 * slack) and rhs < eps + slack
    cross = float(np.abs(tau_f - tau_we) @ np.abs(arc_f - arc_we))
    cross_ok = cross < eps + slack

    bound_c = float(np.sqrt(lipschitz * eps))
    arc_ok = bool(np.all(np.abs(tau_f - tau_we) < bound_c + slack))
    least_we = np.minimum.reduceat(pc_we, st.pair_starts)
    user_ok = bool(np.all(np.abs(least_we - least_f) <= n_arcs * bound_c + slack))
    c_diff = abs(c_f - _checked_total(f_we.values, arc_we, tau_we, pc_we))
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
