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
curvature the game's cost table gives for every family, to a slope of 0.1 tol / |K| f_i /
d_k; on a WE or certified SO of two or more O/D pairs, tol becomes max(tol, _FORCING gap),
the gap at the pass's start (inexact Newton: Dembo, Eisenstat and Steihaug, 1982).  Where
the SO's convexity is not certified, each step is checked against the total cost.

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
through the game's compiled ``ArcCostTable``, without its x >= 0 check,
which every flow the solvers form passes by construction (see
``_descend_batch``).  The arc costs at the current flow serve the gap, every
O/D pair's swap choice and the step's slope at step 0, until a step moves
the flow; the Newton step hands back the costs at the step it takes.  Arc
flows and path costs are always the products of ``games._price``
(``incidence @ f``, then ``path_arcs @ tau``, one column per row), which
also prices a descent's start flow and every report.

There is one descent, ``_descend_batch``, over the rows of (B, |S|) and (B,
|A|) arrays, one game per row, with one ``ArcCostTable`` call for all B |A|
arcs.  Each row keeps its path choices, flow updates and line-search bracket
in Python floats, and only the table calls, the row dots and the pricing
products span the rows, so a row takes the same steps alone as in a batch.
Any number of WEs and SOs on one structure is one ``_solve_games`` call, one kind per row:
a single solve is its one-row call on the game's own table, and the WEs and then the SOs of
a sweep's samples or ``check``'s copies are its 2B rows in lockstep (``_solve_poas``).
Every WE and certified SO is a row of one batch; each uncertified SO takes
1 + 8 rows of a second batch, its start and its _MULTISTARTS = 8 seeded restarts.

A game's PoA (``_solve_poa``) solves its WE cold and its SO from the WE flow, and keeps a
checked result per (tol, max_iter) while the game object lives: one solve per tolerance.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass
from functools import lru_cache

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
TOL = 1e-10  # the default duality-gap tolerance of a solve, a check and the CLI
MAX_ITER = 100_000  # the default cap on a solve's passes
_SOLVED = weakref.WeakKeyDictionary()  # game -> {(tol, max_iter): its checked _solve_poa result}


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
    """The start flow, checked feasible (read-only); None: each pair's demand on its first path."""
    st = game.structure
    if start is not None:
        pf = start if isinstance(start, PathFlow) else PathFlow(start)
        check_feasible(game, pf)
        return pf.values
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
_FORCING = 0.1  # a multi-pair swap's search stops at max(tol, _FORCING gap at its pass's start)


def _newton_steps(arc_eval, arc_slope, arc_f, h, tau, stop, live, dtau=None):
    """(alpha, costs): each `live` row's step alpha in [0, 1] where its slice's slope vanishes.

    Row b of arc_f, h, tau = arc_eval(arc_f) and dtau = arc_slope(arc_f) (None: taken
    here) belongs to game b, and stop[b] is its threshold.  Its slope is phi'(alpha) = h_b
    @ arc_eval(arc_f + alpha h)_b and its curvature (h_b * h_b) @ arc_slope(arc_f + alpha
    h)_b.  Newton steps, clipped to [0, 1], run until |phi'| <= stop[b] or alpha = 1 with
    phi' <= 0; at zero curvature with phi' < 0 the step goes to 1.  A step
    that leaves the bracket [lo, hi] known to hold the root (hi open until
    phi' > 0 is seen) is replaced by bisection, and a row stops when alpha
    stops moving.  A row's bracket is Python floats and only the table calls
    and the row dots span the rows, so a row takes the same steps alone as
    among others (safeguarded path-based Newton: Jayakrishnan et al., TRR
    1443, 1994).  alpha is 0 on every other row and where phi'(0) >= 0; the
    costs are arc_eval(arc_f + alpha h) on each row with alpha > 0.
    """
    slope = np.vecdot(h, tau).tolist()
    live = [b for b in live if slope[b] < 0.0]
    alpha, lo, hi = [0.0] * len(h), [0.0] * len(h), [math.inf] * len(h)
    hh = h * h
    x = arc_f
    for _ in range(_NEWTON_MAX_STEPS):
        live = [b for b in live
                if abs(slope[b]) > stop[b] and (alpha[b] != 1.0 or slope[b] > 0.0)]
        if not live:
            break
        curv = np.vecdot(hh, arc_slope(x) if dtau is None else dtau).tolist()
        moving, dtau = [], None
        for b in live:
            a, s = alpha[b], slope[b]
            if s < 0.0:
                lo[b] = a
            else:
                hi[b] = a
            nxt = min(max(a - s / curv[b], 0.0), 1.0) if curv[b] > 0.0 else 1.0
            if not lo[b] < nxt < hi[b]:
                nxt = 0.5 * (lo[b] + min(hi[b], 1.0))
            if nxt != a:  # else the bracket has shrunk to adjacent floats
                alpha[b] = nxt
                moving.append(b)
        live = moving  # the next pass of the loop ends it if no row moved
        x = arc_f + np.array(alpha)[:, None] * h
        tau = arc_eval(x)
        slope = np.vecdot(h, tau).tolist()
    return alpha, tau


_ACTIVE_SHARE = 1e-3  # the epsilon-active set of the used-path Newton step
_RIDGE = 1e-12  # its ridge, relative to the largest diagonal entry


def _two_free(n_used, n_pairs):
    """Whether n_used paths serving n_pairs pairs leave two free directions for the Newton step.

    With one, the swap already is the Newton step.  Asked of all a structure's
    paths and pairs, it is false only if it is false for every flow on it.
    """
    return n_used - n_pairs >= 2


def _used_path_newton(st: Structure, arc_eval, arc_slope, f, arc_f, tau, path_costs, shares,
                      tol, run):
    """(f, arc_f, tau, path_costs) after a Newton step on their used paths U of the rows in `run`.

    Rows are games; a row without two free directions or with its gap at most its tol is
    left as it is.  shares is _descend_batch's: per path, its pair's demand d, _ACTIVE_SHARE d
    and 1 / d, and each row's used-flow floor.  The KKT system [R_U diag(tau') R_U^T, E^T; E,
    0] has identity rows for the paths outside U and the pairs without a used path.
    """
    if not run:
        return f, arc_f, tau, path_costs
    share, active, inverse, floor = shares
    owner, n_s, n = st.path_owner, st.n_paths, st.n_paths + len(st.pair_starts)
    excess = path_costs - np.minimum.reduceat(path_costs, st.pair_starts, axis=1)[:, owner]
    used = (f > floor) & ((f > active) | (excess <= 0.0))
    pairs = np.logical_or.reduceat(used, st.pair_starts, axis=1)
    ok = (_two_free(used.sum(axis=1), pairs.sum(axis=1)) & (_dot(excess, f) > tol)).tolist()
    run = [b for b in run if ok[b]]  # _dot(excess, f) is the gap
    if not run:
        return f, arc_f, tau, path_costs
    dtau = arc_slope(arc_f)
    curv, u, rows = dtau[run], used[run], st.path_arcs
    link = st.pair_paths & u[:, None, :]  # E on U
    kkt = np.zeros((len(u), n, n))
    kkt[:, :n_s, :n_s] = (rows * curv[:, None, :]) @ rows.T * (u[:, :, None] & u[:, None, :])
    kkt[:, n_s:, :n_s], kkt[:, :n_s, n_s:] = link, link.transpose(0, 2, 1)
    diag = kkt.reshape(len(u), -1)[:, ::n + 1]  # a view of each row's diagonal
    top = diag[:, :n_s].max(axis=1, keepdims=True)  # 0: the ridge 1 makes a gradient step
    diag += np.concatenate([np.where(top > 0.0, _RIDGE * top, 1.0) + ~u, ~pairs[run]], axis=1)
    rhs = np.concatenate([-excess[run] * u, np.zeros((len(u), n - n_s))], axis=1)
    d, fr = np.linalg.solve(kkt, rhs[..., None])[:, :n_s, 0], f[run]
    block = -d > fr  # paths a full step would empty: the ratios there lie in [0, 1)
    s = np.zeros(f.shape)
    s[run] = d * np.min(np.where(block, fr / np.where(block, -d, 1.0), 1.0), axis=1)[:, None]
    stop = 0.05 * tol / len(st.pair_starts) * _dot(np.abs(s), inverse)
    h = (st.incidence @ s[..., None])[..., 0]  # trial arc flows along s may round below 0:
    alpha = np.array(_newton_steps(lambda x: arc_eval(np.maximum(x, 0.0)),
                                   lambda x: arc_slope(np.maximum(x, 0.0)), arc_f, h, tau,
                                   stop.tolist(), run, dtau)[0])
    g = np.maximum(f + alpha[:, None] * s, 0.0)  # with each pair's sum set back to its demand:
    g *= share / np.maximum(np.add.reduceat(g, st.pair_starts, axis=1), 1e-300)[:, owner]
    moved = (alpha > 0.0)[:, None]  # rows the step left keep their costs' bits
    f = np.where(moved, g, f)
    return (f, *_price(st, lambda x: np.where(moved, arc_eval(x), tau), f))


def _descend_batch(st: Structure, demands: np.ndarray, arc_eval, arc_slope,
                   tol: np.ndarray, max_iter: int, f0: np.ndarray, objective=None):
    """Frank-Wolfe descent of B games on one structure; with `objective`, a nonconvex search.

    Row b of demands (B, |K|), tol (B,) and the start flows f0 (B, |S|) belongs
    to game b; arc_eval maps (B, |A|) arc flows to per-row gradient values (the
    costs of a WE, the marginal costs of an SO) and arc_slope to their
    derivatives.  Each pass visits the O/D pairs in turn and, on every row,
    swaps mass from the pair's most expensive used path to its cheapest path
    with the step _newton_steps finds, and keeps the costs the step hands
    back; a _used_path_newton step follows.  Where |K| >= 2 and there is no `objective`,
    the swap's search stops at max(tol, _FORCING gap), gap the row's at the pass's start;
    only gap <= tol decides convergence, and while _FORCING < 10 some pair still moves.
    A row's path choice and flow update are made on Python floats, so a row takes the
    same steps alone as among others.  With `objective` (it maps (..., B, |A|) arc flows
    to one value per row, and prices the four trial steps, then the flow itself, as (5, B,
    |A|)) the used-path Newton step is off, and a row's swap step is the first best of the
    Newton step, 1, 1/2 and 2/(it + 2) on pass `it`, taken only if it lowers the objective:
    the directional-derivative root minimizes only a convex slice.

    Each row leaves the loop on its own rule: converged, stalled (no swap
    moved a flow) or out of iterations.  With discontinuous gradients
    (piecewise-linear marginals) the gap can stay positive at the optimum,
    and where tol lies below the float resolution of the costs no
    representable move closes it; spinning on either would never terminate.
    Returns the final flows, each row's gap and the pass at which it left.
    """
    rows, n, pair_demands, tols = st.path_arcs, len(f0), demands.tolist(), tol.tolist()
    floors = [_USED_EPS * max(1.0, sum(d)) for d in pair_demands]  # at or below: unused
    f = f0.copy()
    arc_f, tau, path_costs = _price(st, arc_eval, f)
    passes, live = [0] * n, list(range(n))
    newton = objective is None and _two_free(st.n_paths, demands.shape[1])
    d = demands.take(st.path_owner, axis=1)  # C order: each row's dot has its one-row bits
    shares = d, _ACTIVE_SHARE * d, 1.0 / np.maximum(d, 1e-300), np.array(floors)[:, None]
    forcing = _FORCING if objective is None and demands.shape[1] > 1 else 0.0
    for it in range(1, max_iter + 1):
        gap = _flow_gap(st, path_costs, f)  # every row's: a row that left keeps its flow
        for b in live:
            passes[b] = it
        live = [b for b in live if gap[b] > tols[b]]
        if not live:
            break
        forced = [max(t, forcing * g) for t, g in zip(tols, gap.tolist())]
        progressed, reshaped = set(), set()  # rows a swap moved, rows whose used paths changed
        for k, (lo, hi) in enumerate(st.path_slices):
            stop, swap = [0.0] * n, []
            costs, flows = path_costs[:, lo:hi].tolist(), f[:, lo:hi].tolist()
            for b in live:
                d_k, fb, cb = pair_demands[b][k], flows[b], costs[b]
                if d_k <= 0.0:
                    continue
                j = min(range(hi - lo), key=cb.__getitem__)
                i = -1  # the first of the dearest used paths, if dearer than j
                for s in range(hi - lo):
                    if fb[s] > floors[b] and cb[s] > cb[j if i < 0 else i]:
                        i = s
                if i >= 0:  # Newton stops at a cost difference of 0.1 forced[b] over d_k and |K|
                    stop[b] = 0.1 * forced[b] / demands.shape[1] * fb[i] / d_k
                    swap.append((b, lo + i, lo + j, fb[i], fb[j]))
            if not swap:
                continue
            # h, the arc flows' change, is never zero on a swapping row: its two
            # paths are distinct and carry mass above the floor.  The table runs
            # without its x >= 0 check: every flow here is >= 0, and so is a
            # trial flow x = arc_f + alpha h with alpha in [0, 1], exactly.  h is
            # -mass only on arcs of the source path alone, and rounding is
            # monotone, so fl(alpha mass) <= mass <= arc_f there (a float sum of
            # non-negative path flows is at least each of them).
            h = np.zeros(arc_f.shape)
            for b, i, j, mass, _ in swap:
                h[b] = mass * (rows[j] - rows[i])
            alpha, step_tau = _newton_steps(arc_eval, arc_slope, arc_f, h, tau, stop,
                                            [b for b, *_ in swap])
            if objective is not None and max(alpha) > 0.0:  # the four steps, then no step:
                a, every = np.array(alpha), np.arange(n)
                cands = np.stack(np.broadcast_arrays(a, 1.0, 0.5, 2.0 / (it + 2.0), 0.0))
                vals = objective(arc_f + cands[..., None] * h)
                best = vals[:4].argmin(axis=0)
                a = np.where((a > 0.0) & (vals[best, every] < vals[4] - 1e-15),
                             cands[best, every], 0.0)
                alpha, step_tau = a.tolist(), arc_eval(arc_f + a[:, None] * h)
            stepped = []
            for b, i, j, src, dst in swap:
                moved = alpha[b] * src
                if alpha[b] <= 0.0 or (src - moved == src and dst + moved == dst):
                    continue  # no step, or one below the flows' float resolution
                if src - moved <= floors[b] or dst <= floors[b] < dst + moved:
                    reshaped.add(b)
                f[b, i], f[b, j] = max(src - moved, 0.0), dst + moved
                progressed.add(b)
                stepped.append(b)
            if stepped:  # a row that stepped takes the costs at its step
                tau = tau.copy()
                for b in stepped:
                    tau[b] = step_tau[b]
                arc_f = (st.incidence @ f[..., None])[..., 0]
                path_costs = (st.path_arcs @ tau[..., None])[..., 0]
        if newton:  # a row no swap moved leaves with the gap of the flow the step left
            f, arc_f, tau, path_costs = _used_path_newton(
                st, arc_eval, arc_slope, f, arc_f, tau, path_costs, shares, tol,
                [b for b in live if b not in reshaped])
        live = [b for b in live if b in progressed]
    else:  # out of iterations
        gap = _flow_gap(st, path_costs, f)
    return f, gap, np.array(passes)


def _by_row(table: ArcCostTable, name: str):
    """The table's unchecked method `name` on (B, |A|) arc flows; on (n, B, |A|), tiled n times.

    The table's arcs are the arcs of B games on one structure, game after game.
    """
    fn = table._unchecked(name)
    tiled = lru_cache(maxsize=None)(lambda n: table.tiled(n)._unchecked(name))
    return lambda x: (fn if x.ndim == 2 else tiled(len(x)))(x.ravel()).reshape(x.shape)


def _by_kind(n_we: int, n_so: int, tables, names):
    """The tables' methods `names` by _by_row, one on the first n_we rows, one on the last n_so."""
    if not (n_we and n_so):
        return _by_row(tables[n_we == 0], names[n_we == 0])
    we, so = map(_by_row, tables, names)
    return lambda x: np.concatenate([we(x[:n_we]), so(x[n_we:])])


def _solve_games(games, so, demands: np.ndarray, tol: np.ndarray, max_iter: int,
                 f0: np.ndarray, table: ArcCostTable):
    """(flows, gaps, passes, certified) of B rows on one structure, the WE rows first.

    Row b of demands (B, |K|), tol (B,) and the start flows f0 (B, |S|) is the SO of games[b]
    where so[b] is True, else its WE.  table holds the arcs of the WE rows' games (without WE
    rows, of the SO rows'), game after game; the SO rows repeat the WE rows' games.  Every WE
    and every SO certified convex (_so_certified) is a row of one _descend_batch, with the
    table's values and derivs on its WE rows and marginals and marginal_derivs on its SO rows.
    Each other SO descends from its start and _MULTISTARTS random start flows (seed 0) as 1 +
    _MULTISTARTS rows of a second _descend_batch, each step checked against the total cost,
    and its result is the first of those rows with the least total cost.
    """
    st, n_we = games[0].structure, so.count(False)
    certified = [not s or _so_certified(game) for game, s in zip(games, so)]
    rest = [b for b, c in enumerate(certified) if not c]
    lock = [b for b, c in enumerate(certified) if c] if rest else slice(None)  # all: no copies
    f, gap, passes = f0.copy(), np.zeros(len(games)), np.zeros(len(games), dtype=int)
    if len(rest) < len(games):
        sub = ArcCostTable([c for b in lock[n_we:] for c in games[b].costs]) if rest else table
        grad, slope = (_by_kind(n_we, len(games) - len(rest) - n_we, (table, sub), names)
                       for names in (("values", "marginals"), ("derivs", "marginal_derivs")))
        f[lock], gap[lock], passes[lock] = _descend_batch(
            st, demands[lock], grad, slope, tol[lock], max_iter, f0[lock])
    if rest:
        n = 1 + _MULTISTARTS
        rows = np.repeat(demands[rest], n, axis=0)
        restarts = demands[rest][:, None, st.path_owner] * _restarts(st.path_slices)
        starts = np.concatenate([f0[rest, None], restarts], axis=1).reshape(len(rows), -1)
        sub = ArcCostTable([c for b in rest for c in games[b].costs * n])
        values = _by_row(sub, "values")
        g, g_gap, g_passes = _descend_batch(
            st, rows, _by_row(sub, "marginals"), _by_row(sub, "marginal_derivs"),
            np.repeat(tol[rest], n), max_iter, starts, objective=lambda x: _dot(x, values(x)))
        _check_routed(st, rows, g)
        total = _checked_total(g, *_price(st, values, g)).reshape(len(rest), n)
        best = n * np.arange(len(rest)) + total.argmin(axis=1)
        f[rest], gap[rest], passes[rest] = g[best], g_gap[best], g_passes[best]
    return f, gap, passes, certified


@lru_cache(maxsize=32)
def _restarts(path_slices) -> np.ndarray:
    """The _MULTISTARTS random start flows (seed 0) of unit demands on paths so sliced."""
    rng = np.random.default_rng(0)
    out = np.empty((_MULTISTARTS, path_slices[-1][1]))
    for row in out:
        for lo, hi in path_slices:
            row[lo:hi] = rng.dirichlet(np.ones(hi - lo))
    out.setflags(write=False)
    return out


def _solve_poas(games, tols, max_iter: int, starts, table: ArcCostTable | None = None):
    """(PoAs, solved) of several games on one structure; NaN where a solve does not converge.

    tols and starts hold, per game, its tolerance and its WE and SO start flows.  The WEs,
    then the SOs, are the 2B rows of one _solve_games call on one table of the games' costs,
    game after game (given, or built here), which also prices the a priori bounds; solved
    holds the WE and the SO rows as two results, whose row b _report makes into games[b]'s
    reports.  Each PoA passes _solve_poa's checks; any game's InvariantError propagates.
    """
    st, n = games[0].structure, len(games)
    if table is None:
        table = ArcCostTable([c for game in games for c in game.costs])
    demands, tol = np.array([game.demands for game in games] * 2), np.array([*tols, *tols])
    f0 = np.array([start[so] for so in (False, True) for start in starts])
    _check_routed(st, demands, f0)
    result = _solve_games(games * 2, [False] * n + [True] * n, demands, tol, max_iter, f0, table)
    _check_routed(st, demands, result[0])
    solved = [tuple(a[half] for a in result) for half in (slice(n), slice(n, None))]
    done = (result[1] <= tol).reshape(2, n).all(axis=0)
    values = _by_row(table, "values")  # priced as _report prices, where both converged
    costs = [_checked_total(*(a[done] for a in (f, *_price(st, values, f)))) for f, *_ in solved]
    bounds = _poa_upper_bounds(st, table, [game.total_demand for game in games])
    out = [math.nan] * n
    for i, we_cost, so_cost, bound in zip(done.nonzero()[0], *costs, bounds[done]):
        out[i] = _checked_poa(float(we_cost / so_cost), tols[i], bound)
    return out, solved


def _report(game: Game, solved, b: int, tol: float) -> SolveReport:
    """The report of row b of solved, a _solve_games result; game is that row's game."""
    f, gap, passes, certified = solved
    flow = PathFlow(f[b])
    check_feasible(game, flow)
    arc_f, tau, pc = _price(game.structure, game.arc_cost_values, flow.values)
    user_costs = np.minimum.reduceat(pc, game.structure.pair_starts)
    user_costs.setflags(write=False)  # like flow.values: a report may be shared
    return SolveReport(
        flow=flow, total_cost=_checked_total(flow.values, arc_f, tau, pc),
        user_costs=user_costs,
        duality_gap=float(gap[b]), iterations=int(passes[b]), converged=bool(gap[b] <= tol),
        optimality_certified=certified[b])


def _solve_game(game: Game, so: bool, tol: float, max_iter: int, start) -> SolveReport:
    """The report of the one-game _solve_games on the game's own table."""
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tol must be finite and > 0, got {tol}")
    solved = _solve_games([game], [so], game.demands[None], np.array([tol]), max_iter,
                          _initial_flow(game, start)[None], game.cost_table)
    return _report(game, solved, 0, tol)


def solve_we(game: Game, tol: float = TOL, max_iter: int = MAX_ITER,
             start=None) -> SolveReport:
    """Wardrop equilibrium by potential minimization.

    The returned flow satisfies approximation_threshold(game, flow) <= tol
    when converged; otherwise an unconverged report is returned (no raise).
    """
    return _solve_game(game, False, tol, max_iter, start)


def solve_so(game: Game, tol: float = TOL, max_iter: int = MAX_ITER,
             start=None) -> SolveReport:
    """Social optimum by total-cost minimization with marginal-cost gradients.

    optimality_certified is True iff _so_certified proves the objective convex on the
    feasible set (closed-form rules, never sampled).  Otherwise the result is the best of
    the start and _MULTISTARTS seeded restarts, searched as _solve_games documents, and is
    reported uncertified.
    """
    return _solve_game(game, True, tol, max_iter, start)


def _so_certified(game: Game) -> bool:
    """Whether each cost's rule proves x tau_a(x) convex on [0, T(d)], or else on [0, R_a], the
    most flow arc a can carry (the objective is separable; arc_pairs waits for T(d) to fail)."""
    T = game.total_demand
    if all(c.has_nondecreasing_marginal(T) for c in game.costs):
        return True
    reach = game.structure.arc_pairs @ game.demands
    return all(c.has_nondecreasing_marginal(r) for c, r in zip(game.costs, reach.tolist()))


def approximation_threshold(game: Game, flow: PathFlow) -> float:
    """Smallest eps for which the flow is an eps-approximate equilibrium."""
    return _flow_gap(game.structure, path_cost_vector(game, flow), flow.values)


def potential(game: Game, flow: PathFlow) -> float:
    """Sum over arcs of the cost antiderivative at the arc flow."""
    check_feasible(game, flow)
    arc_f = game.structure.incidence @ flow.values
    return float(game.cost_table.antiderivs(arc_f).sum())


def _cost_range(st: Structure, table: ArcCostTable, totals) -> tuple[np.ndarray, np.ndarray]:
    """(min tau_a(T/|S|), max tau_a(T)) of each game, for the two a priori bounds.

    table holds the arcs of the games on st, game after game (its values are c(x) bit
    for bit), and totals their total demands T.
    """
    x = np.repeat(totals, len(st.arcs))
    return (table.values(x / st.n_paths).reshape(len(totals), -1).min(axis=1),
            table.values(x).reshape(len(totals), -1).max(axis=1))


def _poa_upper_bounds(st: Structure, table: ArcCostTable, totals) -> np.ndarray:
    """poa_upper_bound of each game; the arguments are _cost_range's."""
    lo, hi = _cost_range(st, table, totals)
    return len(st.arcs) * st.n_paths * hi / lo


def poa_upper_bound(game: Game) -> float:
    """Finite a priori PoA bound |A| |S| max tau(T) / min tau(T/|S|)."""
    return float(_poa_upper_bounds(game.structure, game.cost_table, [game.total_demand])[0])


def total_cost_sandwich(game: Game, so_cost: float, we_cost: float) -> tuple[bool, float, float]:
    """Sandwich 0 < (T/|S|) min tau(T/|S|) <= C* <= WE cost <= |A| T max tau(T), to CHECK_SLACK."""
    T = game.total_demand
    lo, hi = (float(v[0]) for v in _cost_range(game.structure, game.cost_table, [T]))
    lower = (T / game.structure.n_paths) * lo
    upper = len(game.structure.arcs) * T * hi
    ok = (0.0 < lower <= so_cost + CHECK_SLACK
          and so_cost <= we_cost + CHECK_SLACK
          and we_cost <= upper + CHECK_SLACK)
    return ok, lower, upper


def poa(game: Game, tol: float = TOL) -> float:
    """PoA = WE total cost over SO total cost.

    Raises UnconvergedError on an unconverged solve, and InvariantError when
    the ratio falls below 1 or above ``poa_upper_bound``.
    """
    return _solve_poa(game, tol)[0]


def _solve_poa(game: Game, tol: float,
               max_iter: int = MAX_ITER) -> tuple[float, SolveReport, SolveReport]:
    """(PoA, WE report, SO report), with the checks ``poa`` documents; an unconverged solve
    or a failed check is not kept, and raises again on the next call."""
    solved = _SOLVED.setdefault(game, {})
    if (tol, max_iter) not in solved:
        we = solve_we(game, tol=tol, max_iter=max_iter)
        if not we.converged:
            raise UnconvergedError(we)
        so = solve_so(game, tol=tol, max_iter=max_iter, start=we.flow)
        if not so.converged:
            raise UnconvergedError(so)
        rho = _checked_poa(we.total_cost / so.total_cost, tol, poa_upper_bound(game))
        solved[tol, max_iter] = rho, we, so
    return solved[tol, max_iter]


def _checked_poa(rho: float, tol: float, bound: float) -> float:
    """rho, checked at solve tolerance tol against 1 and bound, its poa_upper_bound."""
    if not rho >= 1.0 - 10.0 * tol:
        raise InvariantError(f"PoA {rho} fell below 1")
    if not rho <= bound * (1.0 + 1e-9):
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
