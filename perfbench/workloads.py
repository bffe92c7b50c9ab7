"""The four benchmark workloads: seeded inputs, the timed call, and its oracle.

Each workload hands the timing loop passes of items.  ``pass_items(p)``
prepares the inputs of pass p outside the timed region; ``run(item)`` is the
timed call into poalab; ``check(item, result)`` compares the output with an
oracle that does not use the code under test where that is possible.
A check returns an ``Outcome``: units of work (records for sweep-c07, one
otherwise), how many of them failed (an unconverged solve, a NaN record, a
nonzero ``check`` exit or an axiom report that is not all_ok), and how many
were wrong (an oracle violation).
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
from dataclasses import dataclass

import numpy as np
from poalab import BPR, Affine, Constant, Game, Polynomial, Structure
# modules, not functions: the tracer patches the functions inside them
from poalab import cli, metric, sensitivity, solvers
from poalab.io import game_from_dict

import netgen

ALPHA_4 = 1.0 / (1.0 - 4.0 * 5.0 ** (-5.0 / 4.0))  # PoA bound, degree-4 polynomials


@dataclass
class Outcome:
    units: int
    failed: int = 0
    wrong: int = 0
    note: str = ""


def _rng(*key) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=key))


def _structures():
    return {
        "two-link": Structure(("u", "l"), ("od0",), ((("u",), ("l",)),)),
        "three-link": Structure(("x", "y", "z"), ("od0",), ((("x",), ("y",), ("z",)),)),
        "shared-arc": Structure(("a", "b", "c", "d"), ("k1", "k2"),
                                ((("a",), ("c", "d")), (("b",), ("c",)))),
    }


class Workload:
    name = ""
    unit = "item"
    # percentile of the tail latency, fixed so that runs compare the same
    # one: >= 10 items lie beyond it in a run at the calibration machine's
    # speed, and it falls inside a cluster of item latencies, not between two
    # (sweep-c07 clusters by base game, check-mixed by game)
    tail_pct = 90

    def pass_items(self, index: int) -> list:
        raise NotImplementedError

    def run(self, item):
        raise NotImplementedError

    def check(self, item, result) -> Outcome:
        raise NotImplementedError

    def sizes(self) -> dict:
        """Largest |A|, |S| and |K| among the games the workload solves."""
        raise NotImplementedError

    def item_key(self, item):
        """Identity of an input that recurs in every pass; None when inputs are new."""
        return None


# --------------------------------------------------------------------------
class SweepC07(Workload):
    """``sensitivity.sweep`` around the five criterion-07 base games.

    One item is one sweep call (one base, one kind, four radii); its latency
    is reported per record.  Sample draws come from the run seed and the pass.
    """

    name = "sweep-c07"
    unit = "record"
    tail_pct = 83
    RADII = (1e-1, 1e-2, 1e-3, 1e-4)
    KINDS = ("cost", "demand")
    SAMPLES = 4  # per radius

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.bases = self._bases()  # built once so set-up covers them

    @staticmethod
    def _bases():
        st = _structures()
        return {
            "pigou": Game(st["two-link"], (BPR(1, 1, 0), Constant(1)), np.array([1.0])),
            "near-tie": Game(st["two-link"], (BPR(1, 1, 0), Affine(1, 0.01)), np.array([1.0])),
            "bpr2": Game(st["two-link"], (BPR(1, 2, 0.1), Affine(0.5, 0.4)), np.array([1.0])),
            "three-link": Game(st["three-link"], (Affine(1, 0.1), Affine(0.5, 0.3),
                                                  Polynomial((0.05, 0.2, 1.0))),
                               np.array([2.0])),
            "shared-arc": Game(st["shared-arc"], (Affine(1, 0.5), Affine(2, 0.2),
                                                  BPR(1, 2, 0.1), Affine(0.5, 0.05)),
                               np.array([1.0, 1.5])),
        }

    def pass_items(self, index):
        # fresh game objects each pass, so nothing keyed on identity carries over
        bases = self._bases() if index else self.bases
        seeds = _rng(self.seed, index, 7).integers(0, 2**31, size=len(bases) * len(self.KINDS))
        items, j = [], 0
        for name, base in bases.items():
            for kind in self.KINDS:
                items.append((name, base, kind, int(seeds[j])))
                j += 1
        return items

    def run(self, item):
        _name, base, kind, seed = item
        return sensitivity.sweep(base, kind, self.RADII, self.SAMPLES, seed=seed)

    def check(self, item, records):
        name = item[0]
        failed = sum(1 for r in records if not math.isfinite(r.pert_poa))
        wrong = sum(1 for r in records
                    if r.certificate_bound is not None and math.isfinite(r.delta)
                    and r.delta > r.certificate_bound + 20.0 * r.solve_tol)
        note = f"{wrong} certificate violations" if wrong else ""
        if name == "pigou" and abs(records[0].base_poa - 4.0 / 3.0) > 1e-6:
            wrong += 1
            note = f"pigou PoA {records[0].base_poa}"
        expected = len(self.RADII) * self.SAMPLES
        if len(records) != expected:
            wrong += 1
            note = f"{len(records)} records, expected {expected}"
        return Outcome(len(records), failed, wrong, note)

    def sizes(self):
        return _sizes(self.bases.values())


# --------------------------------------------------------------------------
class LadderBpr4(Workload):
    """WE and SO at tol 1e-8 on a fixed ladder of synthetic BPR-4 networks.

    One item is one PoA (a WE and an SO solve).  The ladder's networks come
    from fixed generator seeds and the run seed only orders them: the solve
    time of one network ranges over 20x with its iteration count, so a run
    holds too few networks for a seeded draw of them to give steady figures.
    """

    name = "ladder-bpr4"
    unit = "poa"
    tail_pct = 70
    TOL = 1e-8
    # (O/D pairs, paths per pair, arcs per path, arcs, networks)
    RUNGS = ((2, 3, 2, 6, 12), (3, 3, 3, 9, 4), (4, 3, 3, 12, 2))

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.specs = [netgen.generate(1000 * r + i, k, p, l, a)
                      for r, (k, p, l, a, n) in enumerate(self.RUNGS) for i in range(n)]

    def pass_items(self, index):
        order = _rng(self.seed, index, 11).permutation(len(self.specs))
        return [(self.specs[i], netgen.to_game(self.specs[i])) for i in order]

    def run(self, item):
        game = item[1]
        return (solvers.solve_we(game, tol=self.TOL), solvers.solve_so(game, tol=self.TOL))

    def check(self, item, result):
        spec = item[0]
        we, so = result
        if not (we.converged and so.converged):
            return Outcome(1, failed=1)
        notes = []
        gap_we = _bpr_gap(spec, we.flow.values, marginal=False)
        gap_so = _bpr_gap(spec, so.flow.values, marginal=True)
        if gap_we > self.TOL * (1.0 + 1e-6) + 1e-13:
            notes.append(f"WE gap {gap_we:.3e}")
        if gap_so > self.TOL * (1.0 + 1e-6) + 1e-13:
            notes.append(f"SO gap {gap_so:.3e}")
        rho = _bpr_total_cost(spec, we.flow.values) / _bpr_total_cost(spec, so.flow.values)
        if not 1.0 - 1e-9 <= rho <= ALPHA_4:
            notes.append(f"PoA {rho}")
        return Outcome(1, failed=int(bool(notes)), wrong=int(bool(notes)),
                       note="; ".join(notes))

    def item_key(self, item):
        return item[0].seed

    def sizes(self):
        return {"arcs": max(s.n_arcs for s in self.specs),
                "paths": max(s.n_paths for s in self.specs),
                "od_pairs": max(s.n_od for s in self.specs)}


def _incidence(spec: netgen.NetworkSpec) -> np.ndarray:
    index = {a: i for i, a in enumerate(spec.arcs)}
    flat = [p for plist in spec.paths for p in plist]
    inc = np.zeros((len(spec.arcs), len(flat)))
    for j, path in enumerate(flat):
        for a in path:
            inc[index[a], j] = 1.0
    return inc


def _bpr_gap(spec, flow: np.ndarray, marginal: bool) -> float:
    """Approximation threshold of a path flow, from the BPR parameters alone."""
    inc = _incidence(spec)
    x = inc @ flow
    q, p = np.asarray(spec.q), np.asarray(spec.p)
    scale = netgen.BETA + 1.0 if marginal else 1.0
    path_cost = inc.T @ (scale * q * x**netgen.BETA + p)
    gap, lo = 0.0, 0
    for plist in spec.paths:
        hi = lo + len(plist)
        seg = path_cost[lo:hi]
        gap += float((seg - seg.min()) @ flow[lo:hi])
        lo = hi
    return gap


def _bpr_total_cost(spec, flow: np.ndarray) -> float:
    x = _incidence(spec) @ flow
    return float(x @ (np.asarray(spec.q) * x**netgen.BETA + np.asarray(spec.p)))


# --------------------------------------------------------------------------
MIXED = ("affine", "bpr", "poly", "pwl", "monolog", "constant")


def _mixed_cost_doc(rng: np.random.Generator) -> dict:
    """JSON cost definition of one family drawn uniformly from MIXED."""
    family = MIXED[int(rng.integers(len(MIXED)))]
    if family == "affine":
        return {"family": "affine", "params": {"slope": rng.uniform(0.2, 2.0),
                                               "intercept": rng.uniform(0.1, 1.5)}}
    if family == "bpr":
        return {"family": "bpr", "params": {"q": rng.uniform(0.2, 2.0),
                                            "beta": float(rng.integers(1, 4)),
                                            "p": rng.uniform(0.1, 1.0)}}
    if family == "poly":
        return {"family": "polynomial",
                "params": {"coefficients": [rng.uniform(0.1, 1.0), rng.uniform(0.0, 1.0),
                                            rng.uniform(0.0, 1.0)]}}
    if family == "pwl":
        steps = rng.uniform(0.0, 1.0, size=3)
        start = rng.uniform(0.1, 0.5)
        values = start + np.concatenate([[0.0], np.cumsum(steps)])
        return {"family": "piecewise_linear",
                "params": {"breakpoints": [0.0, 0.7, 1.6, 2.5],
                           "values": [float(v) for v in values]}}
    if family == "monolog":
        return {"family": "monomial_log", "params": {"zeta": rng.uniform(0.3, 2.0),
                                                     "beta": float(rng.integers(1, 3)),
                                                     "alpha": 1.0}}
    return {"family": "constant", "params": {"c": rng.uniform(0.2, 2.0)}}


def _game_doc(structure, rng: np.random.Generator) -> dict:
    return {
        "schema": 1,
        "structure": {
            "arcs": list(structure.arcs),
            "od_pairs": [{"id": k, "demand": float(rng.uniform(0.4, 1.6)),
                          "paths": [list(p) for p in plist]}
                         for k, plist in zip(structure.od_pairs, structure.paths)],
        },
        "costs": {a: _mixed_cost_doc(rng) for a in structure.arcs},
    }


class MetricMixed(Workload):
    """``check_metric_axioms`` on seeded triples of mixed-family games.

    All games share the shared-arc structure; no solver runs.  Each pass draws
    new triples from the run seed.
    """

    name = "metric-mixed"
    unit = "triple"
    tail_pct = 90
    TRIPLES = 500  # per pass

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.structure = _structures()["shared-arc"]
        self.first = self._triples(0)

    def _triples(self, index):
        rng = _rng(self.seed, index, 13)
        return [tuple(game_from_dict(_game_doc(self.structure, rng)) for _ in range(3))
                for _ in range(self.TRIPLES)]

    def pass_items(self, index):
        return self.first if index == 0 else self._triples(index)

    def run(self, item):
        return metric.check_metric_axioms(*item)

    def check(self, item, report):
        if report.all_ok:
            return Outcome(1)
        return Outcome(1, failed=1, wrong=1, note=f"axioms failed: {report}")

    def sizes(self):
        return _sizes([self.first[0][0]])


class CheckMixed(Workload):
    """``poalab check`` run in-process over a corpus of mixed-family JSON games.

    The corpus is fixed (corpus seed 0) and the run seed only orders it, for
    the same reason as the ladder: one check takes from a few ms to over a
    second, depending on the game.
    """

    name = "check-mixed"
    unit = "check"
    tail_pct = 83
    GAMES = 60
    CORPUS_SEED = 0

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        structures = list(_structures().values())
        rng = _rng(self.CORPUS_SEED, 17)
        corpus_dir = os.path.join(workdir, "corpus")
        os.makedirs(corpus_dir, exist_ok=True)
        self.paths = []
        self.max_sizes = _sizes(structures)
        for i in range(self.GAMES):
            doc = _game_doc(structures[i % len(structures)], rng)
            path = os.path.join(corpus_dir, f"game-{i:03d}.json")
            with open(path, "w", encoding="utf-8") as handle:
                json.dump(doc, handle)
            self.paths.append(path)

    def pass_items(self, index):
        order = _rng(self.seed, index, 19).permutation(len(self.paths))
        return [self.paths[i] for i in order]

    def run(self, path):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(["check", "--game", path])
        return code, out.getvalue(), err.getvalue()

    def check(self, path, result):
        code, out, err = result
        if code == 3:
            return Outcome(1, failed=1)
        if code != 0:
            return Outcome(1, failed=1, wrong=1, note=f"exit {code}: {err.strip()}")
        try:
            ok = json.loads(out)["ok"] is True
        except (ValueError, KeyError, TypeError) as exc:
            return Outcome(1, failed=1, wrong=1, note=f"bad output: {exc}")
        if not ok:
            return Outcome(1, failed=1, wrong=1, note="exit 0 without ok")
        return Outcome(1)

    def item_key(self, path):
        return path

    def sizes(self):
        return self.max_sizes


def _sizes(games_or_structures) -> dict:
    sts = [getattr(g, "structure", g) for g in games_or_structures]
    return {"arcs": max(len(s.arcs) for s in sts),
            "paths": max(s.n_paths for s in sts),
            "od_pairs": max(len(s.od_pairs) for s in sts)}


WORKLOADS = {cls.name: cls for cls in (SweepC07, LadderBpr4, MetricMixed, CheckMixed)}
