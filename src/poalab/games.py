"""Combinatorial structure, games, and path flows.

A game couples a fixed structure (arcs, O/D pairs, explicit path sets) with
per-arc cost functions and per-O/D demands.  Structures must satisfy: every
arc lies on some path and every O/D pair has at least two paths.  Games must
have positive total demand and costs that are strictly positive away from 0
(probed at T/(4|S|) and propagated by monotonicity).  A game's arc costs
are compiled once, at first use, into an ``ArcCostTable`` that evaluates all
of them per call.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, partial

import numpy as np

from .costs import CostFunction, _domain

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


class GameValidationError(ValueError):
    """Structure or game invariant violated; carries a machine-readable code."""

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
    def path_owner(self) -> np.ndarray:
        """O/D pair index of each flat path."""
        owner = np.repeat(np.arange(len(self.paths)), [len(p) for p in self.paths])
        owner.setflags(write=False)
        return owner


class ArcCostTable:
    """Arc costs grouped by ``kernel_key``, each group evaluated by one vectorized kernel.

    ``values(x)`` and ``marginals(x)`` equal ``[c(x_a)]`` and
    ``[MarginalCost(c)(x_a)]`` over the arcs bit for bit.  ``derivs`` and
    ``marginal_derivs`` are None unless every group's kernel has them.
    """

    def __init__(self, costs):
        groups: dict[tuple, list[int]] = {}
        for i, cost in enumerate(costs):
            groups.setdefault(cost.kernel_key(), []).append(i)
        self.groups = tuple((np.array(idx), key[0]([costs[i] for i in idx]))
                            for key, idx in groups.items())
        if not all(kernel.derivs for _, kernel in self.groups):
            self.derivs = self.marginal_derivs = None

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

    def _unchecked(self, name: str):
        """The method `name` without the x >= 0 check, or None where the table lacks it.

        Only for float arrays of flows that are non-negative by construction,
        as the solvers' are.
        """
        if getattr(self, name) is None:
            return None
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

    @property
    def total_demand(self) -> float:
        return float(self.demands.sum())

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


def check_feasible(game: Game, flow: PathFlow, atol: float = FEASIBILITY_ATOL) -> None:
    st = game.structure
    if len(flow) != st.n_paths:
        raise InfeasibleFlowError(
            f"flow has {len(flow)} entries, structure has {st.n_paths} paths")
    _check_routed(st, game.demands, flow.values, atol)


def _check_routed(st: Structure, demands: np.ndarray, f: np.ndarray,
                  atol: float = FEASIBILITY_ATOL) -> None:
    """Raise InfeasibleFlowError unless every O/D pair routes its demand within atol.

    f and demands may carry a leading batch axis, one game per row.
    """
    routed = np.add.reduceat(f, st.pair_starts, axis=-1)
    off = np.abs(routed - demands) > atol
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
    st = game.structure
    if not 0 <= path_index < st.n_paths:
        raise KeyError(f"unknown path index {path_index}")
    f_arc = arc_flows(game, flow)
    costs = game.arc_cost_values(f_arc)
    return float(st.incidence[:, path_index] @ costs)


def path_cost_vector(game: Game, flow: PathFlow) -> np.ndarray:
    f_arc = arc_flows(game, flow)
    costs = game.arc_cost_values(f_arc)
    return game.structure.incidence.T @ costs


def total_cost(game: Game, flow: PathFlow) -> float:
    """Total cost; computes both the path-sum and arc-sum forms and checks they agree."""
    f_arc = arc_flows(game, flow)
    costs = game.arc_cost_values(f_arc)
    return _checked_total(f_arc, costs, flow.values, game.structure.incidence.T @ costs)


def _dot(a: np.ndarray, b: np.ndarray):
    """Dot product along the last axis: a float for vectors, one value per row otherwise.

    Each row gives the same bits as ``a @ b`` on that row's vectors.
    """
    if a.ndim == 1:
        return float(a @ b)
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


def _checked_total(arc_f, tau, f, path_costs):
    """Total cost sum_a x_a tau_a, checked against the path sum sum_s f_s c_s.

    The arguments are the arc flows, their costs, the path flows and their
    costs, of one game or of one game per row.
    """
    by_arc = _dot(arc_f, tau)
    by_path = _dot(f, path_costs)
    if np.any(np.abs(by_arc - by_path) > TOTAL_COST_RTOL * np.maximum(1.0, np.abs(by_arc))):
        raise AssertionError(
            f"total cost forms disagree: arc sum {by_arc}, path sum {by_path}")
    return by_arc


def games_equivalent(g1: Game, g2: Game, samples: int = 257, tol: float = 1e-12) -> bool:
    """Same demands and cost functions agreeing on [0, T(d)].

    Identical parametric forms are detected analytically; otherwise the costs
    are compared on a grid of `samples` points.
    """
    if g1.structure != g2.structure:
        raise StructureMismatchError("games have different structures")
    if not np.array_equal(g1.demands, g2.demands):
        return False
    hi = g1.total_demand
    xs = np.linspace(0.0, hi, samples)
    for c1, c2 in zip(g1.costs, g2.costs):
        if c1 == c2:
            continue
        v1 = np.asarray(c1(xs), dtype=float)
        v2 = np.asarray(c2(xs), dtype=float)
        if np.max(np.abs(v1 - v2)) > tol:
            return False
    return True
