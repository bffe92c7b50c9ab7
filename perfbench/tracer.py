"""Per-layer tracing by wrapping poalab's public functions from outside.

``Tracer.install`` replaces each public function of the layer modules with a
wrapper at every place it is bound: poalab modules import names directly
(``from .solvers import poa``), so ``poalab.sensitivity.poa`` and
``poalab.cli.solve_so`` are patched alongside ``poalab.solvers.poa``.
``uninstall`` puts every original back.

Coarse calls record a span (name, start, end, parent span, item id) in memory.
The three hot calls -- ``Game.arc_cost_values``, ``MarginalCost.__call__`` and
``sup_distance`` -- are only counted: timing each of them would inflate the
traced run far more than the spans do.  Their counts are attributed to the
innermost open WE or SO solve, if any.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time

LAYERS = ("costs", "games", "solvers", "metric", "sensitivity", "transforms", "io", "cli")
ITEM_SPAN = "bench.item"
_SOLVES = ("solvers.solve_we", "solvers.solve_so")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, item id]
        self.hot: dict[tuple[str, str | None], int] = {}
        self.counts: dict[str, int] = {}
        self.item = -1
        self._stack: list[int] = []
        self._owner: str | None = None  # innermost open solve
        self._sweep_base = None
        self._patched: list[tuple[object, str, object]] = []

    # -- counters -------------------------------------------------------
    def add(self, name: str, n: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def hot_calls(self, name: str, owner: str | None = "*") -> int:
        return sum(v for (h, o), v in self.hot.items()
                   if h == name and (owner == "*" or o == owner))

    # -- spans ------------------------------------------------------------
    def _open(self, name: str) -> list:
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.item]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = time.perf_counter()
        return rec

    def _close(self, rec: list) -> None:
        rec[2] = time.perf_counter()
        self._stack.pop()

    def begin_item(self, item_id: int) -> list:
        self.item = item_id
        return self._open(ITEM_SPAN)

    def end_item(self, rec: list) -> None:
        self._close(rec)

    def self_times(self) -> dict[str, float]:
        """Seconds per layer spent in its own spans and not in child spans."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _item in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = {}
        for i, (name, start, end, _parent, _item) in enumerate(self.spans):
            layer = name.split(".")[0]
            out[layer] = out.get(layer, 0.0) + (end - start) - child[i]
        return out

    def busy(self, name: str) -> float:
        """Inclusive seconds in outermost spans of `name` (recursion counted once)."""
        total = 0.0
        for name_i, start, end, parent, _item in self.spans:
            if name_i == name and not self._has_ancestor(parent, name):
                total += end - start
        return total

    def _has_ancestor(self, index: int, name: str) -> bool:
        while index >= 0:
            if self.spans[index][0] == name:
                return True
            index = self.spans[index][3]
        return False

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for name, start, end, parent, item in self.spans:
                handle.write(json.dumps({"name": name, "start": start, "end": end,
                                         "parent": parent, "item": item}) + "\n")

    # -- wrappers ---------------------------------------------------------
    def _span_wrapper(self, fn, name: str):
        observe = _OBSERVERS.get(name)
        is_solve = name in _SOLVES
        is_sweep = name == "sensitivity.sweep"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.add(name + ".calls")
            owner, base = self._owner, self._sweep_base
            if is_solve:
                self._owner = name
            if is_sweep:
                self._sweep_base = args[0] if args else kwargs["base"]
            rec = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(rec)
                self._owner, self._sweep_base = owner, base
            if observe is not None:
                observe(self, args, kwargs, result)
            return result

        return wrapper

    def _hot_wrapper(self, fn, name: str):
        hot = self.hot
        grid = name == "costs.sup_distance"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            key = (name, self._owner)
            hot[key] = hot.get(key, 0) + 1
            result = fn(*args, **kwargs)
            if grid and result[1] > 0.0:  # only the grid path carries an error
                self.add("costs.sup_distance.grid")
            return result

        return wrapper

    def install(self) -> None:
        from poalab import costs, games

        targets: dict[int, tuple[object, str]] = {}
        for layer in LAYERS:
            module = importlib.import_module(f"poalab.{layer}")
            names = getattr(module, "__all__", None) or ["main"]
            for attr in names:
                obj = getattr(module, attr)
                if inspect.isfunction(obj) and obj.__module__ == module.__name__:
                    targets[id(obj)] = (obj, f"{layer}.{attr}")
        wrapped = {}
        for key, (fn, name) in targets.items():
            make = self._hot_wrapper if name == "costs.sup_distance" else self._span_wrapper
            wrapped[key] = make(fn, name)
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "poalab" and not mod_name.startswith("poalab."):
                continue
            for attr, value in list(vars(module).items()):
                if id(value) in wrapped and value is targets[id(value)][0]:
                    self._patch(module, attr, wrapped[id(value)])
        self._patch(games.Game, "arc_cost_values",
                    self._hot_wrapper(games.Game.arc_cost_values, "games.arc_cost_values"))
        self._patch(costs.MarginalCost, "__call__",
                    self._hot_wrapper(costs.MarginalCost.__call__, "costs.MarginalCost"))

    def _patch(self, owner, attr: str, value) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)


def _observe_solve(kind: str):
    def observe(tracer: Tracer, args, kwargs, report) -> None:
        tracer.add(f"solvers.{kind}.iterations", report.iterations)
        if not report.converged:
            tracer.add("solvers.unconverged")
        if kind == "solve_so" and not report.optimality_certified:
            tracer.add("solvers.solve_so.uncertified")
        game = args[0] if args else kwargs["game"]
        if tracer._sweep_base is not None and game is tracer._sweep_base:
            tracer.add("sensitivity.base_solves")
    return observe


def _observe_sample_ball(tracer: Tracer, args, kwargs, pert) -> None:
    if pert.shrunk:
        tracer.add("metric.sample_ball.shrunk")


def _observe_sweep(tracer: Tracer, args, kwargs, records) -> None:
    tracer.add("sensitivity.sweep.records", len(records))


def _observe_main(tracer: Tracer, args, kwargs, code) -> None:
    if code != 0:
        tracer.add("cli.main.exit_nonzero")


_OBSERVERS = {
    "solvers.solve_we": _observe_solve("solve_we"),
    "solvers.solve_so": _observe_solve("solve_so"),
    "metric.sample_ball": _observe_sample_ball,
    "sensitivity.sweep": _observe_sweep,
    "cli.main": _observe_main,
}
