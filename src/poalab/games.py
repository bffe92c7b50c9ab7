"""Combinatorial structure, games, and path flows.

A game couples a fixed structure (arcs, O/D pairs, explicit path sets) with
per-arc cost functions and per-O/D demands.  Structures must satisfy: every
arc lies on some path and every O/D pair has at least two paths.  Games must
have positive total demand and costs that are strictly positive away from 0
(probed at T/(4|S|) and propagated by monotonicity).  A game's arc costs
are compiled once, at first use, into an ``ArcCostTable`` that evaluates all
of them per call.  ``total_cost``, ``path_cost_vector`` and the solvers price
path flows through one helper, ``_price``: ``incidence @ f``, then
``path_arcs @ tau``, each a matrix times one column per row, so a batch row
gets its single-game bits.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, partial

import numpy as np

from .costs import CostFunction, _domain, sup_distance

__all__ = [
    "GameValidationError",
    "StructureMismatchError",
    "InfeasibleFlowError",
    "Structure",
    "Game",
    "ArcCostTable",
    "PathFlow",
    "arc_flows",
    "path_cost",
    "total_cost",
    "games_equivalent",
]

FEASIBILITY_ATOL = 1e-9

TOTAL_COST_RTOL = 1e-9

# equivalent games' costs are within EQUIVALENCE_TOL of each other by sup_distance
EQUIVALENCE_TOL = 1e-12


class GameValidationError(ValueError):
    """Invalid input file, structure or game; carries a machine-readable code."""

    def __init__(self, code: str, message: str):
        super().__init__(message)
        self.code = code


class StructureMismatchError(ValueError):
    pass


class InfeasibleFlowError(ValueError):
    pass


@dataclass(frozen=True, eq=True)
class Structure:
    """Arcs, O/D pairs, and explicit per-pair path sets (paths are arc sets)."""

    arcs: tuple[str, ...]
    od_pairs: tuple[str, ...]
    paths: tuple[tuple[tuple[str, ...], ...], ...]  # paths[k][i] = sorted arc tuple

    def __post_init__(self):
        arcs = tuple(str(a) for a in self.arcs)
        if len(set(arcs)) != len(arcs):
            raise GameValidationError("structure", "duplicate arc identifiers")
        ods = tuple(str(k) for k in self.od_pairs)
        if len(set(ods)) != len(ods):
            raise GameValidationError("structure", "duplicate O/D identifiers")
        if len(self.paths) != len(ods):
            raise GameValidationError("structure", "one path set per O/D pair required")
        arc_set = set(arcs)
        norm_paths = []
        seen: set[frozenset] = set()
        for k, plist in zip(ods, self.paths):
            if len(plist) < 2:
                raise GameValidationError(
                    "path_coverage", f"O/D pair {k!r} has fewer than 2 paths")
            norm_k = []
            local: set[frozenset] = set()
            for p in plist:
                fp = frozenset(str(a) for a in p)
                if not fp:
                    raise GameValidationError("structure", f"empty path in O/D pair {k!r}")
                if not fp <= arc_set:
                    raise GameValidationError(
                        "structure", f"path {sorted(fp)} uses unknown arcs in O/D {k!r}")
                if fp in local:
                    raise GameValidationError(
                        "structure", f"duplicate path {sorted(fp)} in O/D pair {k!r}")
                if fp in seen:
                    raise GameValidationError(
                        "structure",
                        f"path {sorted(fp)} appears in two O/D pairs (path sets must be disjoint)")
                local.add(fp)
                norm_k.append(tuple(sorted(fp)))
            seen |= local
            norm_paths.append(tuple(norm_k))
        covered = set().union(*(set(p) for plist in norm_paths for p in plist))
        missing = arc_set - covered
        if missing:
            raise GameValidationError(
                "path_coverage", f"arcs {sorted(missing)} belong to no path")
        object.__setattr__(self, "arcs", arcs)
        object.__setattr__(self, "od_pairs", ods)
        object.__setattr__(self, "paths", tuple(norm_paths))

    @cached_property
    def n_paths(self) -> int:
        return sum(len(p) for p in self.paths)

    @cached_property
    def path_slices(self) -> tuple[tuple[int, int], ...]:
        """Flat [lo, hi) index range of each O/D pair's paths."""
        out, lo = [], 0
        for plist in self.paths:
            out.append((lo, lo + len(plist)))
            lo += len(plist)
        return tuple(out)

    @cached_property
    def flat_paths(self) -> tuple[tuple[str, ...], ...]:
        return tuple(p for plist in self.paths for p in plist)

    @cached_property
    def incidence(self) -> np.ndarray:
        """Arc-path incidence matrix, shape (|A|, |S|)."""
        arc_index = {a: i for i, a in enumerate(self.arcs)}
        inc = np.zeros((len(self.arcs), self.n_paths))
        for j, p in enumerate(self.flat_paths):
            for a in p:
                inc[arc_index[a], j] = 1.0
        inc.setflags(write=False)
        return inc

    @cached_property
    def path_arcs(self) -> np.ndarray:
        """Path-arc incidence, shape (|S|, |A|): row j is path j's arc indicator."""
        rows = np.ascontiguousarray(self.incidence.T)
        rows.setflags(write=False)
        return rows

    @cached_property
    def pair_starts(self) -> np.ndarray:
        """Flat index of each O/D pair's first path."""
        starts = np.array([lo for lo, _hi in self.path_slices])
        starts.setflags(write=False)
        return starts

    @cached_property
    def arc_pairs(self) -> np.ndarray:
        """Arc-pair indicator, shape (|A|, |K|): 1 where some path of pair k uses arc a."""
        pairs = (np.add.reduceat(self.incidence, self.pair_starts, axis=1) > 0).astype(float)
        pairs.setflags(write=False)
        return pairs

    @cached_property
    def path_owner(self) -> np.ndarray:
        """O/D pair index of each flat path."""
        owner = np.repeat(np.arange(len(self.paths)), [len(p) for p in self.paths])
        owner.setflags(write=False)
        return owner

    @cached_property
    def pair_paths(self) -> np.ndarray:
        """Pair-path indicator, shape (|K|, |S|): row k is True on pair k's paths."""
        paths = self.path_owner == np.arange(len(self.paths))[:, None]
        paths.setflags(write=False)
        return paths


class ArcCostTable:
    """Arc costs grouped by ``kernel_key``: one vectorized kernel call per group, none per arc.

    ``values(x)``, ``marginals(x)`` and ``antiderivs(x)`` equal ``[c(x_a)]``,
    ``[MarginalCost(c)(x_a)]`` and ``[c.antiderivative(x_a)]`` over the arcs bit for
    bit; ``derivs`` and ``marginal_derivs`` give every family's Newton curvature in
    closed form.
    """

    def __init__(self, costs):
        groups: dict[tuple, list[int]] = {}
        for i, cost in enumerate(costs):
            groups.setdefault(cost.kernel_key(), []).append(i)
        self.groups = tuple((np.array(idx), key[0]([costs[i] for i in idx]))
                            for key, idx in groups.items())

    @classmethod
    def _of(cls, groups) -> "ArcCostTable":
        table = object.__new__(cls)
        table.groups = tuple(groups)
        return table

    def tiled(self, n: int) -> "ArcCostTable":
        """The table of n copies of these arcs, copy after copy."""
        width = sum(len(idx) for idx, _ in self.groups)
        return self._of(((np.arange(n)[:, None] * width + idx).ravel(), kernel.tiled(n))
                        for idx, kernel in self.groups)

    def perturbed(self, shift, stretch, horizon: float) -> "ArcCostTable":
        """Every arc's cost moved by its family's rule (``CostFunction.perturbed``), with its
        own shift and stretch."""
        return self._of((idx, kernel.perturbed(shift[idx], stretch[idx], horizon))
                        for idx, kernel in self.groups)

    def costs(self) -> list[CostFunction]:
        """The arcs' cost objects."""
        at = {i: c for idx, kernel in self.groups for i, c in zip(idx.tolist(), kernel.costs())}
        return [at[i] for i in range(len(at))]

    def sups(self, moved: "ArcCostTable", hi: np.ndarray) -> np.ndarray:
        """``sup_distance`` of every arc's cost against its moved cost on [0, hi], one hi per
        arc, where the estimate is exact; NaN elsewhere.  moved is a ``perturbed`` table."""
        out = np.empty_like(hi)
        for (idx, kernel), (_, other) in zip(self.groups, moved.groups):
            out[idx] = kernel.sup(other, hi[idx])
        return out

    def values(self, x) -> np.ndarray:
        """Cost of every arc at the arc flows x."""
        return self._evaluate("values", _domain(x))

    def marginals(self, x) -> np.ndarray:
        """Marginal cost x c'(x) + c(x) of every arc at the arc flows x."""
        return self._evaluate("marginals", _domain(x))

    def derivs(self, x) -> np.ndarray:
        """Derivative c'(x) of every arc cost at the arc flows x."""
        return self._evaluate("derivs", _domain(x))

    def marginal_derivs(self, x) -> np.ndarray:
        """Derivative 2 c'(x) + x c''(x) of every arc's marginal cost at the arc flows x."""
        return self._evaluate("marginal_derivs", _domain(x))

    def antiderivs(self, x) -> np.ndarray:
        """Integral of every arc cost from 0 to the arc flows x."""
        return self._evaluate("antiderivs", _domain(x))

    def _unchecked(self, name: str):
        """The method `name` without the x >= 0 check.

        Only for float arrays of flows that are non-negative by construction,
        as the solvers' are.
        """
        if len(self.groups) == 1:
            return getattr(self.groups[0][1], name)
        return partial(self._evaluate, name)

    def _evaluate(self, name: str, x: np.ndarray) -> np.ndarray:
        if len(self.groups) == 1:
            return getattr(self.groups[0][1], name)(x)
        out = np.empty_like(x)
        for idx, kernel in self.groups:
            out[idx] = getattr(kernel, name)(x[idx])
        return out


@dataclass(frozen=True, eq=False)
class Game:
    """A game (tau, d) on a fixed structure."""

    structure: Structure
    costs: tuple[CostFunction, ...]
    demands: np.ndarray

    def __post_init__(self):
        if len(self.costs) != len(self.structure.arcs):
            raise GameValidationError("structure", "one cost function per arc required")
        d = np.array(self.demands, dtype=float).reshape(-1)
        if d.shape[0] != len(self.structure.od_pairs):
            raise GameValidationError("structure", "one demand per O/D pair required")
        if np.any(d < 0) or not np.all(np.isfinite(d)):
            raise GameValidationError("positivity", "demands must be finite and >= 0")
        total = float(d.sum())
        if total <= 0:
            raise GameValidationError("positivity", "total demand must be positive")
        probe = total / (4.0 * self.structure.n_paths)
        for arc, cost in zip(self.structure.arcs, self.costs):
            if float(cost(probe)) <= 0.0:
                raise GameValidationError(
                    "positivity",
                    f"cost of arc {arc!r} is not strictly positive on (0, T(d)]")
        d.setflags(write=False)
        object.__setattr__(self, "costs", tuple(self.costs))
        object.__setattr__(self, "demands", d)

    @staticmethod
    def _valid_rows(structure: Structure, table: ArcCostTable, demands: np.ndarray) -> np.ndarray:
        """Which rows of a (B, |K|) block of float demands pass ``__post_init__``'s demand and
        cost checks, row b with the costs of arcs b |A| to (b + 1) |A| - 1 of table."""
        totals = demands.sum(axis=1)
        ok = ((demands >= 0.0) & (demands < np.inf)).all(axis=1) & (totals > 0.0)  # finite
        at = np.repeat(np.where(ok, totals, 1.0) / (4.0 * structure.n_paths), len(structure.arcs))
        return ok & ~(table._unchecked("values")(at).reshape(len(ok), -1) <= 0.0).any(axis=1)

    @classmethod
    def _rows(cls, structure: Structure, costs, demands: np.ndarray, rows) -> list["Game"]:
        """The games of the given rows of a (B, |K|) block of float demands, row b with
        costs[b |A|:(b + 1) |A|], rows that ``_valid_rows`` passed: no check is made again."""
        n_a, games = len(structure.arcs), []
        for b in rows:
            game, d = object.__new__(cls), demands[b]
            d.setflags(write=False)
            vars(game).update(structure=structure, costs=tuple(costs[b * n_a:(b + 1) * n_a]),
                              demands=d)
            games.append(game)
        return games

    @cached_property  # the demands are read-only
    def total_demand(self) -> float:
        return float(self.demands.sum())

    @cached_property
    def endpoint_costs(self) -> tuple[float, ...]:
        """Each arc's cost at the total demand: the endpoint term of ``metric.dist``."""
        return tuple(c(self.total_demand) for c in self.costs)

    def with_demands(self, demands) -> "Game":
        return Game(self.structure, self.costs, np.asarray(demands, dtype=float))

    def with_costs(self, costs) -> "Game":
        return Game(self.structure, tuple(costs), self.demands.copy())

    @cached_property
    def cost_table(self) -> ArcCostTable:
        """The arc costs compiled for vectorized evaluation, built at first use."""
        return ArcCostTable(self.costs)

    def arc_cost_values(self, arc_flow: np.ndarray) -> np.ndarray:
        return self.cost_table.values(arc_flow)


@dataclass(frozen=True, eq=False)
class PathFlow:
    """Per-path flow values over a structure's flat path indexing."""

    values: np.ndarray

    def __post_init__(self):
        v = np.array(self.values, dtype=float).reshape(-1)
        if np.any(v < -1e-12) or not np.all(np.isfinite(v)):
            raise InfeasibleFlowError("flow entries must be finite and >= 0")
        v = np.maximum(v, 0.0)
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    def __len__(self):
        return self.values.shape[0]


def check_feasible(game: Game, flow: PathFlow) -> None:
    st = game.structure
    if len(flow) != st.n_paths:
        raise InfeasibleFlowError(
            f"flow has {len(flow)} entries, structure has {st.n_paths} paths")
    _check_routed(st, game.demands, flow.values)


def _check_routed(st: Structure, demands: np.ndarray, f: np.ndarray) -> None:
    """Raise InfeasibleFlowError unless every O/D pair routes its demand within FEASIBILITY_ATOL.

    f and demands may carry a leading batch axis, one game per row.
    """
    routed = np.add.reduceat(f, st.pair_starts, axis=-1)
    off = np.abs(routed - demands) > FEASIBILITY_ATOL
    if off.any():
        at = tuple(np.argwhere(np.atleast_1d(off))[0])
        got, want = np.atleast_1d(routed)[at], np.atleast_1d(demands)[at]
        raise InfeasibleFlowError(
            f"O/D pair {st.od_pairs[at[-1]]!r} routes {float(got)}, demand is {float(want)}")


def arc_flows(game: Game, flow: PathFlow) -> np.ndarray:
    """Per-arc flow f_a = sum of f_s over paths containing a."""
    check_feasible(game, flow)
    return game.structure.incidence @ flow.values


def path_cost(game: Game, flow: PathFlow, path_index: int) -> float:
    """Cost of one path: sum of its arcs' costs at the induced arc flows."""
    if not 0 <= path_index < game.structure.n_paths:
        raise KeyError(f"unknown path index {path_index}")
    return float(path_cost_vector(game, flow)[path_index])


def path_cost_vector(game: Game, flow: PathFlow) -> np.ndarray:
    check_feasible(game, flow)
    return _price(game.structure, game.arc_cost_values, flow.values)[2]


def total_cost(game: Game, flow: PathFlow) -> float:
    """Total cost; computes both the path-sum and arc-sum forms and checks they agree."""
    check_feasible(game, flow)
    return _checked_total(flow.values, *_price(game.structure, game.arc_cost_values, flow.values))


def _price(st: Structure, evaluate, f: np.ndarray):
    """(arc flows, arc costs, path costs) of the path flows f, one game or one per row.

    evaluate maps arc flows to arc costs.  Each product is a matrix times one
    column per row, so a row of a batch gets the bits of pricing it alone.
    """
    arc_f = (st.incidence @ f[..., None])[..., 0]
    tau = evaluate(arc_f)
    return arc_f, tau, (st.path_arcs @ tau[..., None])[..., 0]


def _dot(a: np.ndarray, b: np.ndarray):
    """Dot product along the last axis: a float for vectors, one value per row otherwise.

    Each row of C-contiguous arrays gives the same bits as ``a @ b`` on that row's vectors.
    """
    if a.ndim == 1:
        return float(a @ b)
    return np.vecdot(a, b)


def _checked_total(f, arc_f, tau, path_costs):
    """Total cost sum_a x_a tau_a, checked against the path sum sum_s f_s c_s.

    The arguments are the path flows and what ``_price`` returns for them,
    of one game or of one game per row.
    """
    by_arc = _dot(arc_f, tau)
    by_path = _dot(f, path_costs)
    off = abs(by_arc - by_path)  # > TOTAL_COST_RTOL * max(1, |by_arc|), one numpy call on floats
    if np.logical_and(off > TOTAL_COST_RTOL, off > TOTAL_COST_RTOL * abs(by_arc)).any():
        raise AssertionError(
            f"total cost forms disagree: arc sum {by_arc}, path sum {by_path}")
    return by_arc


def games_equivalent(g1: Game, g2: Game) -> bool:
    """Same demands and cost functions agreeing on [0, T(d)] within EQUIVALENCE_TOL.

    Each pair of costs is judged by ``sup_distance``'s estimate, the one the
    metric takes: exact where a closed form applies, else the max on its grid.
    """
    if g1.structure != g2.structure:
        raise StructureMismatchError("games have different structures")
    if not np.array_equal(g1.demands, g2.demands):
        return False
    hi = g1.total_demand
    return all(sup_distance(c1, c2, hi)[0] <= EQUIVALENCE_TOL
               for c1, c2 in zip(g1.costs, g2.costs))
