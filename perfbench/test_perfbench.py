"""Self-checks of the benchmark: seeded inputs and traced counts are deterministic.

Run with ``python3 -m pytest perfbench`` from the repository root.
"""

import pytest

import run

if run._bootstrap() is None:
    raise ImportError("poalab must be importable from src/")

import netgen  # noqa: E402  (needs poalab on the path)
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _reduced_items(workload):
    """A few cheap items of the workload's first pass."""
    items = workload.pass_items(0)
    if workload.name == "sweep-c07":
        return [it for it in items if it[0] == "pigou"]
    if workload.name == "ladder-bpr4":
        return [it for it in items if it[0].n_arcs == 6][:2]
    if workload.name == "metric-mixed":
        return items[:20]
    return items[:3]


def _traced_counts(name, seed, tmp_path):
    workload = WORKLOADS[name](seed, str(tmp_path))
    items = _reduced_items(workload)
    tracer = Tracer()
    tracer.install()
    try:
        outcomes = [workload.check(item, workload.run(item)) for item in items]
    finally:
        tracer.uninstall()
    return {
        "counts": dict(tracer.counts),
        "hot": dict(tracer.hot),
        "spans": [s[0] for s in tracer.spans],
        "units": sum(o.units for o in outcomes),
        "failed": sum(o.failed for o in outcomes),
        "wrong": sum(o.wrong for o in outcomes),
    }


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_same_counts(name, tmp_path):
    first = _traced_counts(name, 3, tmp_path / "a")
    second = _traced_counts(name, 3, tmp_path / "b")
    assert first == second
    assert first["units"] > 0 and first["wrong"] == 0
    assert first["counts"], "tracing recorded nothing"


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_other_seed_other_inputs(name, tmp_path):
    def fingerprint(seed):
        workload = WORKLOADS[name](seed, str(tmp_path / str(seed)))
        return [repr(item).replace(str(tmp_path / str(seed)), "") for item in
                workload.pass_items(0)]

    assert fingerprint(3) == fingerprint(3)
    assert fingerprint(3) != fingerprint(4)


def test_tracer_restores_every_binding():
    from poalab import cli, games, sensitivity, solvers

    before = (solvers.poa, sensitivity.poa, cli.solve_so, games.Game.arc_cost_values)
    tracer = Tracer()
    tracer.install()
    assert sensitivity.poa is not before[1] and cli.solve_so is not before[2]
    tracer.uninstall()
    assert (solvers.poa, sensitivity.poa, cli.solve_so, games.Game.arc_cost_values) == before


def test_network_generator_is_seeded_and_valid():
    spec = netgen.generate(5, n_od=3, paths_per_od=3, arcs_per_path=3, n_arcs=9)
    assert spec == netgen.generate(5, n_od=3, paths_per_od=3, arcs_per_path=3, n_arcs=9)
    assert spec != netgen.generate(6, n_od=3, paths_per_od=3, arcs_per_path=3, n_arcs=9)
    game = netgen.to_game(spec)  # Structure enforces coverage and disjoint path sets
    assert (spec.n_arcs, spec.n_paths, spec.n_od) == (9, 9, 3)
    assert all(0.5 <= q <= 2.0 for q in spec.q) and all(0.5 <= p <= 2.0 for p in spec.p)
    assert all(0.5 <= d <= 1.5 for d in spec.demands)
    assert all(c.beta == 4.0 for c in game.costs)
