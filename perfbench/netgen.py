"""Seeded synthetic networks for the size ladder.

A network has K O/D pairs, each with P explicit paths of L distinct arcs
drawn from |A| arcs, BPR costs q * x**4 + p with q, p uniform on [0.5, 2],
and demands uniform on [0.5, 1.5].  The path sets follow the rules that
``poalab.Structure`` enforces: every arc lies on some path, every O/D pair
has at least two paths, and no path (as an arc set) appears twice, within or
across O/D pairs.  The same seed always gives the same network; nothing is
downloaded.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from poalab import BPR, Game, Structure

BETA = 4.0
Q_RANGE = (0.5, 2.0)
P_RANGE = (0.5, 2.0)
DEMAND_RANGE = (0.5, 1.5)
MAX_TRIES = 1000  # redraws until all paths are distinct arc sets


@dataclass(frozen=True)
class NetworkSpec:
    """Plain-data description of one synthetic network (no poalab objects)."""

    seed: int
    arcs: tuple[str, ...]
    od_pairs: tuple[str, ...]
    paths: tuple[tuple[tuple[str, ...], ...], ...]
    q: tuple[float, ...]
    p: tuple[float, ...]
    demands: tuple[float, ...]

    @property
    def n_arcs(self) -> int:
        return len(self.arcs)

    @property
    def n_paths(self) -> int:
        return sum(len(plist) for plist in self.paths)

    @property
    def n_od(self) -> int:
        return len(self.od_pairs)


def generate(seed: int, n_od: int, paths_per_od: int, arcs_per_path: int,
             n_arcs: int) -> NetworkSpec:
    """Draw one network; raises ValueError when the sizes cannot be met."""
    n_slots = n_od * paths_per_od
    if paths_per_od < 2:
        raise ValueError("every O/D pair needs at least 2 paths")
    if not 1 <= arcs_per_path <= n_arcs:
        raise ValueError("arcs_per_path must lie in [1, n_arcs]")
    if n_slots * arcs_per_path < n_arcs:
        raise ValueError("too few path slots to cover every arc")
    rng = np.random.default_rng(np.random.SeedSequence(entropy=(seed, 0x1ADD3)))
    for _ in range(MAX_TRIES):
        slots: list[set[int]] = [set() for _ in range(n_slots)]
        # cover every arc first, spreading them over the paths, then fill up
        for j, arc in enumerate(rng.permutation(n_arcs)):
            slots[j % n_slots].add(int(arc))
        for s in slots:
            while len(s) < arcs_per_path:
                s.add(int(rng.integers(n_arcs)))
        if len({frozenset(s) for s in slots}) == n_slots:
            break
    else:
        raise ValueError("could not draw distinct paths; enlarge n_arcs")
    arcs = tuple(f"a{i}" for i in range(n_arcs))
    paths = tuple(
        tuple(tuple(arcs[a] for a in sorted(slots[k * paths_per_od + i]))
              for i in range(paths_per_od))
        for k in range(n_od))
    return NetworkSpec(
        seed=seed,
        arcs=arcs,
        od_pairs=tuple(f"k{k}" for k in range(n_od)),
        paths=paths,
        q=tuple(float(v) for v in rng.uniform(*Q_RANGE, size=n_arcs)),
        p=tuple(float(v) for v in rng.uniform(*P_RANGE, size=n_arcs)),
        demands=tuple(float(v) for v in rng.uniform(*DEMAND_RANGE, size=n_od)),
    )


def to_game(spec: NetworkSpec):
    """Build a fresh ``poalab.Game`` (new structure and cost objects)."""
    structure = Structure(spec.arcs, spec.od_pairs, spec.paths)
    costs = tuple(BPR(q, BETA, p) for q, p in zip(spec.q, spec.p))
    return Game(structure, costs, np.asarray(spec.demands))
