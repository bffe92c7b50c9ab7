"""poalab benchmark: one workload, one process, one thread.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload sweep-c07 --seed 0 --seconds 20 --trace 0

The benchmark imports poalab from ``src/`` of the checkout it lives in and
exits with code 2 when there is none.  It builds the workload's inputs from
the seed, then runs whole passes over them until ``--seconds`` have passed,
checking every output against an oracle.  With ``--trace 0`` it reports the
end-to-end metrics; with ``--trace 1`` it runs the first pass untraced and
traced, in turn, until ``--seconds`` have passed, and reports the per-layer
metrics.  The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics; the line before it holds the run's
environment and raw wall-clock figures.  Results and traced spans are also
written under ``perfbench/out/``.

Timings are scaled to a reference machine speed (see ``clock.py``).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

from clock import REF_NOMINAL_S, SpeedClock

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
SETUP_PROBES = 5
KERNEL_ARCS = 100


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="only import and build the inputs, report the time and exit")
    return parser.parse_args(argv)


def _bootstrap():
    """Put the checkout's src/ first on sys.path; None when it has no poalab."""
    if not os.path.isfile(os.path.join(SRC, "poalab", "__init__.py")):
        return None
    sys.path.insert(0, SRC)
    import poalab

    if os.path.dirname(os.path.dirname(os.path.abspath(poalab.__file__))) != SRC:
        return None
    return poalab


def _percentile(values, pct):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * pct // 100))
    return ordered[int(rank) - 1]


def _environment(args, workload):
    import numpy
    import scipy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": _commit(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "unit": workload.unit,
        "sizes": workload.sizes(),
    }


def _commit():
    """HEAD of the checkout's git metadata when present, read without git."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as handle:
            ref = handle.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:]), encoding="utf-8") as handle:
                return handle.read().strip()
        return ref
    except OSError:
        return "unknown"


def _setup_times(args):
    """Set-up time of fresh processes: start until the first call is ready.

    Each probe samples the reference kernel on its own timer while it sets
    up, since it may run on another core than this process; its time less
    those samples is scaled like a timed call.
    """
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--setup-probe"]
    scaled, raw = [], []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline().split()
            end = time.perf_counter()
            proc.stdout.read()
        if proc.returncode != 0 or len(line) != 3 or line[0] != "ready":
            raise RuntimeError(f"setup probe failed with exit {proc.returncode}")
        kernel_s, ref_s = float(line[1]), float(line[2])
        raw.append(end - start - kernel_s)
        scaled.append(raw[-1] * REF_NOMINAL_S / ref_s)
    return statistics.median(scaled), statistics.median(raw)


def _setup_probe(args) -> int:
    """Probe side: import poalab and build the inputs, then report to the parent."""
    clock = SpeedClock()
    with clock:
        if _bootstrap() is None:
            return 2
        from workloads import WORKLOADS

        os.makedirs(OUT, exist_ok=True)
        workdir = tempfile.mkdtemp(prefix=f"probe-{args.workload}-", dir=OUT)
        try:
            WORKLOADS[args.workload](args.seed, workdir)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    print(f"ready {clock.kernel_s!r} {statistics.median(clock.samples)!r}", flush=True)
    return 0


class Ledger:
    """Per-item timings and outcomes of one run."""

    def __init__(self):
        self.raw: list[float] = []      # seconds per timed item, less kernel runs
        self.spans: list[tuple[float, float]] = []  # (start, end) wall time of each
        self.scaled: list[float] = []   # seconds at reference speed, after finish()
        self.units: list[int] = []
        self.keys: list = []            # input identity, equal across passes
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.notes: list[str] = []

    def add(self, outcome, clock, begin, end, key):
        self.attempted += outcome.units
        self.failed += outcome.failed
        self.wrong += outcome.wrong
        if outcome.note and len(self.notes) < 20:
            self.notes.append(outcome.note)
        if outcome.wrong:
            return  # a wrong output is reported as failed, not timed
        self.raw.append(clock.elapsed(begin, end))
        self.spans.append((begin[0], end[0]))
        self.units.append(outcome.units)
        self.keys.append(key)

    def finish(self, clock):
        self.scaled = [t * clock.scale(*span) for t, span in zip(self.raw, self.spans)]

    def merge(self, other):
        self.attempted += other.attempted
        self.failed += other.failed
        self.wrong += other.wrong
        self.notes += other.notes

    def rate(self, scaled=True):
        total = sum(self.scaled if scaled else self.raw)
        return sum(self.units) / total if total > 0 else 0.0

    def latencies_ms(self, scaled=True):
        """Per-unit latency of each timed item.

        An input that recurs in every pass (``Workload.item_key``) gets the
        median of its repeats, so one disturbed repeat does not move it.
        """
        times = self.scaled if scaled else self.raw
        per_item = [1e3 * t / u for t, u in zip(times, self.units)]
        repeats: dict = {}
        for key, value in zip(self.keys, per_item):
            if key is not None:
                repeats.setdefault(key, []).append(value)
        return [per_item[i] if key is None else statistics.median(repeats[key])
                for i, key in enumerate(self.keys)]


def _run_pass(workload, index, clock, ledger, tracer=None):
    """Time every item of one pass; returns the number of items."""
    items = workload.pass_items(index)
    for k, item in enumerate(items):
        span = tracer.begin_item(k) if tracer else None
        begin = clock.mark()
        try:
            result = workload.run(item)
        except Exception:  # an item that raises is a wrong output; keep measuring
            from workloads import Outcome

            outcome = Outcome(1, failed=1, wrong=1, note=traceback.format_exc(limit=3))
        else:
            outcome = None
        end = clock.mark()
        if span is not None:
            tracer.end_item(span)
        ledger.add(outcome or workload.check(item, result), clock, begin, end,
                   workload.item_key(item))
    return len(items)


def timed_run(args, workload, clock):
    ledger = Ledger()
    start = time.perf_counter()
    passes = items = 0
    with clock:
        while passes == 0 or time.perf_counter() - start < args.seconds:
            items += _run_pass(workload, passes, clock, ledger)
            passes += 1
    wall = time.perf_counter() - start
    ledger.finish(clock)
    lat, raw_lat = ledger.latencies_ms(), ledger.latencies_ms(scaled=False)
    pct = workload.tail_pct
    tail = _percentile(lat, pct)
    metrics = {
        "items_per_s": (ledger.rate(), "1/s"),
        "item_p50_ms": (statistics.median(lat), "ms"),
        "item_tail_ms": (tail, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "ok_frac": ((ledger.attempted - ledger.failed) / ledger.attempted, "frac"),
    }
    info = {
        "passes": passes, "items": items, "timed_items": len(lat), "wall_s": wall,
        "tail_pct": pct, "items_beyond_tail": sum(1 for v in lat if v > tail),
        "raw": {"items_per_s": ledger.rate(scaled=False),
                "item_p50_ms": statistics.median(raw_lat),
                "item_tail_ms": _percentile(raw_lat, pct)},
        "ref_samples": len(clock.samples),
        "ref_median_s": statistics.median(clock.samples),
    }
    return ledger, metrics, info


def kernel_us(repeats=300):
    """Median microseconds of Game.arc_cost_values and of numpy's q*x**4+p, 100 BPR arcs."""
    import numpy as np
    from poalab import BPR, Game, Structure

    rng = np.random.default_rng(0)
    arcs = tuple(f"a{i}" for i in range(KERNEL_ARCS))
    structure = Structure(arcs, ("k0",), (tuple((a,) for a in arcs),))
    q, p = rng.uniform(0.5, 2.0, KERNEL_ARCS), rng.uniform(0.5, 2.0, KERNEL_ARCS)
    game = Game(structure, tuple(BPR(qi, 4.0, pi) for qi, pi in zip(q, p)), np.array([1.0]))
    x = rng.uniform(0.0, 1.0, KERNEL_ARCS)

    def median_us(fn, n):
        times = []
        for _ in range(n):
            start = time.perf_counter()
            fn()
            times.append(time.perf_counter() - start)
        return 1e6 * statistics.median(times)

    program = median_us(lambda: game.arc_cost_values(x), repeats)
    expression = median_us(lambda: q * x**4.0 + p, repeats * 10)
    if not np.allclose(game.arc_cost_values(x), q * x**4.0 + p, rtol=1e-12):
        raise RuntimeError("arc_cost_values disagrees with q*x**4+p")
    return program, expression


def trace_run(args, workload, clock):
    """Pairs of untraced and traced runs of pass 0 until --seconds have passed.

    Counts come from the first traced pass; every later traced pass must
    repeat them exactly.  Tracing overhead is the traced against the
    untraced rate over all pairs.
    """
    from tracer import ITEM_SPAN, LAYERS, Tracer

    untraced, traced = Ledger(), Ledger()
    tracer, repeats, mismatches = None, 0, 0
    start = time.perf_counter()
    with clock:
        while repeats == 0 or time.perf_counter() - start < args.seconds:
            n_items = _run_pass(workload, 0, clock, untraced)
            current = Tracer()
            current.install()
            try:
                _run_pass(workload, 0, clock, traced, tracer=current)
            finally:
                current.uninstall()
            if tracer is None:
                tracer = current
            elif (current.counts, current.hot) != (tracer.counts, tracer.hot):
                mismatches += 1
            repeats += 1
    untraced.finish(clock)
    traced.finish(clock)
    kernel, expression = kernel_us()

    c = tracer.counts
    busy = tracer.busy(ITEM_SPAN)
    we_iters = c.get("solvers.solve_we.iterations", 0)
    ball_calls = c.get("metric.sample_ball.calls", 0)
    sup_calls = tracer.hot_calls("costs.sup_distance")
    dist_in_ball = sum(1 for s in tracer.spans
                       if s[0] == "metric.dist" and s[3] >= 0
                       and tracer.spans[s[3]][0] == "metric.sample_ball")
    selfs = tracer.self_times()
    sizes = workload.sizes()

    def frac(seconds):
        return seconds / busy if busy > 0 else 0.0

    def certificates_busy():
        return sum(tracer.busy(f"sensitivity.certificate_{k}")
                   for k in ("demand_slice", "cost_slice", "exponent_one"))

    m = {
        "trace.items": (n_items, "count"),
        "trace.repeats": (repeats, "count"),
        "trace.count_mismatches": (mismatches, "count"),
        "trace.busy_s": (busy, "s"),
        "trace.items_per_s": (traced.rate(), "1/s"),
        "trace.untraced_items_per_s": (untraced.rate(), "1/s"),
        "trace.overhead_frac": (untraced.rate() / traced.rate() - 1.0 if traced.rate() else 0.0,
                                "frac"),
        "input.arcs_max": (sizes["arcs"], "count"),
        "input.paths_max": (sizes["paths"], "count"),
        "input.od_pairs_max": (sizes["od_pairs"], "count"),
        "games.arc_cost_values.calls": (tracer.hot_calls("games.arc_cost_values"), "count"),
        "games.arc_cost_values.per_we_iter": (
            tracer.hot_calls("games.arc_cost_values", "solvers.solve_we") / we_iters
            if we_iters else 0.0, "calls/iter"),
        "games.arc_cost_values.us_100": (kernel, "us"),
        "numpy.bpr4_expression.us_100": (expression, "us"),
        "costs.MarginalCost.calls": (tracer.hot_calls("costs.MarginalCost"), "count"),
        "costs.sup_distance.calls": (sup_calls, "count"),
        "costs.sup_distance.grid_frac": (
            c.get("costs.sup_distance.grid", 0) / sup_calls if sup_calls else 0.0, "frac"),
    }
    for name in ("solve_we", "solve_so"):
        m[f"solvers.{name}.calls"] = (c.get(f"solvers.{name}.calls", 0), "count")
        m[f"solvers.{name}.iterations"] = (c.get(f"solvers.{name}.iterations", 0), "count")
        m[f"solvers.{name}.busy_frac"] = (frac(tracer.busy(f"solvers.{name}")), "frac")
    m["solvers.solve_so.uncertified"] = (c.get("solvers.solve_so.uncertified", 0), "count")
    m["solvers.unconverged"] = (c.get("solvers.unconverged", 0), "count")
    m["solvers.poa.calls"] = (c.get("solvers.poa.calls", 0), "count")
    m["solvers.poa.busy_frac"] = (frac(tracer.busy("solvers.poa")), "frac")
    m["metric.dist.calls"] = (c.get("metric.dist.calls", 0), "count")
    m["metric.dist.busy_frac"] = (frac(tracer.busy("metric.dist")), "frac")
    m["metric.sample_ball.calls"] = (ball_calls, "count")
    m["metric.sample_ball.busy_frac"] = (frac(tracer.busy("metric.sample_ball")), "frac")
    m["metric.sample_ball.dist_per_call"] = (dist_in_ball / ball_calls if ball_calls else 0.0,
                                             "calls/call")
    m["metric.sample_ball.shrunk_frac"] = (
        c.get("metric.sample_ball.shrunk", 0) / ball_calls if ball_calls else 0.0, "frac")
    m["sensitivity.sweep.records"] = (c.get("sensitivity.sweep.records", 0), "count")
    m["sensitivity.base_solves"] = (c.get("sensitivity.base_solves", 0), "count")
    m["sensitivity.certificates.busy_frac"] = (frac(certificates_busy()), "frac")
    m["transforms.busy_frac"] = (frac(tracer.busy("transforms.cost_normalize")
                                      + tracer.busy("transforms.demand_normalize")), "frac")
    m["io.load_game.calls"] = (c.get("io.load_game.calls", 0), "count")
    m["io.load_game.busy_frac"] = (frac(tracer.busy("io.load_game")), "frac")
    m["cli.main.calls"] = (c.get("cli.main.calls", 0), "count")
    m["cli.main.exit_nonzero"] = (c.get("cli.main.exit_nonzero", 0), "count")
    for layer in LAYERS + ("bench",):
        m[f"layer.{layer}.self_frac"] = (frac(selfs.get(layer, 0.0)), "frac")

    os.makedirs(OUT, exist_ok=True)
    tracer.write_spans(os.path.join(OUT, f"spans-{args.workload}-s{args.seed}.jsonl"))
    info = {"items": n_items, "spans": len(tracer.spans),
            "raw": {"traced_items_per_s": traced.rate(scaled=False),
                    "untraced_items_per_s": untraced.rate(scaled=False)}}
    untraced.merge(traced)
    return untraced, m, info


def main(argv=None) -> int:
    args = _parse(argv)
    if args.setup_probe:
        return _setup_probe(args)
    if _bootstrap() is None:
        sys.stderr.write(f"no poalab package under {SRC}; run from a poalab checkout\n")
        return 2
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        sys.stderr.write(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}\n")
        return 2
    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"work-{args.workload}-", dir=OUT)
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir)
        clock = SpeedClock()
        if args.trace:
            ledger, metrics, info = trace_run(args, workload, clock)
        else:
            setup, setup_raw = _setup_times(args)
            ledger, metrics, info = timed_run(args, workload, clock)
            metrics["setup_s"] = (setup, "s")
            info["raw"]["setup_s"] = setup_raw
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    info = {**_environment(args, workload), **info, "notes": ledger.notes}
    result = {
        "correct": ledger.wrong == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    with open(os.path.join(OUT, f"result-{args.workload}-s{args.seed}-t{args.trace}.json"),
              "w", encoding="utf-8") as handle:
        json.dump({"info": info, "result": result}, handle, indent=1)
    print(json.dumps({"info": info}))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
