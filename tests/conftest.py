import os

import numpy as np
import pytest

import poalab
from poalab import (
    BPR,
    Affine,
    Constant,
    Game,
    MonomialLog,
    PiecewiseLinear,
    Polynomial,
    Structure,
    cost_normalize,
)


@pytest.fixture(scope="session")
def two_link():
    return Structure(("u", "l"), ("od0",), ((("u",), ("l",)),))


@pytest.fixture(scope="session")
def three_link():
    return Structure(("x", "y", "z"), ("od0",), ((("x",), ("y",), ("z",)),))


@pytest.fixture(scope="session")
def shared_arc():
    return Structure(
        ("a", "b", "c", "d"),
        ("k1", "k2"),
        ((("a",), ("c", "d")), (("b",), ("c",))),
    )


@pytest.fixture()
def pigou(two_link):
    """Upper arc costs x, lower arc costs 1, one unit of demand."""
    return Game(two_link, (BPR(1.0, 1.0, 0.0), Constant(1.0)), np.array([1.0]))


def make_two_link_affine(two_link, eps):
    return Game(two_link, (BPR(1.0, 1.0, 0.0), Affine(1.0, eps)), np.array([1.0]))


@pytest.fixture()
def fig3a(two_link):
    """x versus x + 0.01: both arcs strictly increasing, near-degenerate."""
    return make_two_link_affine(two_link, 0.01)


@pytest.fixture()
def fig3b(two_link):
    """Two identical x links."""
    return Game(two_link, (BPR(1.0, 1.0, 0.0), BPR(1.0, 1.0, 0.0)), np.array([1.0]))


# default draw pool for games that get solved; piecewise-linear costs have
# discontinuous marginals (the SO gap need not vanish at kink optima), so
# they are opt-in via an explicit family list
_FAMILIES = ("affine", "bpr", "poly", "monolog", "constant")

MIXED_FAMILIES = ("affine", "bpr", "poly", "pwl", "monolog", "constant")


def random_cost(rng, family=None):
    family = family or rng.choice(_FAMILIES)
    if family == "affine":
        return Affine(rng.uniform(0.2, 2.0), rng.uniform(0.1, 1.5))
    if family == "bpr":
        return BPR(rng.uniform(0.2, 2.0), float(rng.integers(1, 4)), rng.uniform(0.1, 1.0))
    if family == "poly":
        return Polynomial((rng.uniform(0.1, 1.0), rng.uniform(0.0, 1.0),
                           rng.uniform(0.0, 1.0)))
    if family == "pwl":
        jumps = np.cumsum(rng.uniform(0.0, 1.0, size=3))
        return PiecewiseLinear((0.0, 0.7, 1.6, 2.5),
                               tuple(rng.uniform(0.1, 0.5) + jumps[0] + np.concatenate([[0], jumps])[:4]))
    if family == "monolog":
        return MonomialLog(rng.uniform(0.3, 2.0), float(rng.integers(1, 3)), 1.0)
    return Constant(rng.uniform(0.2, 2.0))


def random_game(structure, rng, families=None):
    n_arcs = len(structure.arcs)
    costs = tuple(random_cost(rng, families[i] if families else None)
                  for i in range(n_arcs))
    demands = rng.uniform(0.4, 1.6, size=len(structure.od_pairs))
    return Game(structure, costs, demands)


def criterion7_bases(two_link, three_link, shared_arc):
    """The five base games of acceptance criterion 7, by name."""
    return {
        "pigou": Game(two_link, (BPR(1, 1, 0), Constant(1)), np.array([1.0])),
        "near-tie": Game(two_link, (BPR(1, 1, 0), Affine(1, 0.01)), np.array([1.0])),
        "bpr2": Game(two_link, (BPR(1, 2, 0.1), Affine(0.5, 0.4)), np.array([1.0])),
        "three-link": Game(three_link, (Affine(1, 0.1), Affine(0.5, 0.3),
                                        Polynomial((0.05, 0.2, 1.0))), np.array([2.0])),
        "shared-arc": Game(shared_arc, (Affine(1, 0.5), Affine(2, 0.2),
                                        BPR(1, 2, 0.1), Affine(0.5, 0.05)),
                           np.array([1.0, 1.5])),
    }


def unit_scale(game):
    """The game with its costs divided by the a priori total-cost scale T max_a tau_a(T).

    Cost normalization leaves flows and the PoA unchanged.  With totals of
    order 1 an absolute solve tol such as 1e-12 stays far above their float
    resolution; on drawn games with totals near 1e5 it does not, and a solve
    can stop short of it, because the solvers' gap tolerance is absolute.
    """
    t = game.total_demand
    return cost_normalize(game, t * max(float(c(t)) for c in game.costs))


def child_env():
    """Environment for a child python that imports this poalab from any working directory."""
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(os.path.abspath(poalab.__file__)))
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return env
