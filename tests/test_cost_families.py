"""Each cost family's rules live in its class: JSON, kinks, and the design guard."""

import ast
import pathlib

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
    ScaledCost,
    TangentCost,
    TruncatedCost,
    certificate_exponent_one,
    truncate_extend,
)
from poalab import costs
from poalab.costs import FAMILIES, MarginalCost
from poalab.games import ArcCostTable
from poalab.io import InputError, cost_from_dict, cost_to_dict

KINKED = PiecewiseLinear((0.0, 0.5, 2.0), (0.2, 0.4, 2.0))

EVERY_FAMILY = (
    Constant(1.5),
    Affine(0.5, 0.25),
    Polynomial((0.1, 0.0, 2.0)),
    BPR(0.15, 4.0, 1.0),
    MonomialLog(2.0, 1.0, 0.5),
    KINKED,
    ScaledCost(MonomialLog(1.0, 1.5, 1.0), 3.0),
    TruncatedCost(BPR(1.0, 2.0, 0.1), 0.75),
    TangentCost(Polynomial((0.2, 1.0, 1.0)), 1.25),
    ScaledCost(TangentCost(TruncatedCost(KINKED, 1.5), 1.0), 0.5),
)


# a float, an int, a numpy scalar and a 0-d array; 0.75 is TruncatedCost's anchor
SCALARS = (0.75, 2, np.float64(1.3), np.array(0.4))


def _methods(cost):
    if isinstance(cost, MarginalCost):
        return {"call": cost}
    return {"call": cost, "derivative": cost.derivative, "antiderivative": cost.antiderivative}


def _cost_id(cost):
    return (f"marginal-{type(cost.cost).__name__}" if isinstance(cost, MarginalCost)
            else type(cost).__name__)


WITH_MARGINALS = EVERY_FAMILY + tuple(MarginalCost(c) for c in EVERY_FAMILY)


@pytest.mark.parametrize("cost", WITH_MARGINALS, ids=_cost_id)
def test_scalar_and_array_rule(cost):
    """A scalar gives a Python float with the bits of the 1-element array call;
    an array gives an array of its shape."""
    for name, method in _methods(cost).items():
        for x in SCALARS:
            value = method(x)
            assert type(value) is float, (name, x)
            assert np.float64(value).tobytes() == method(np.array([x]))[0].tobytes(), (name, x)
        for xs in (np.linspace(0.0, 3.0, 7), np.linspace(0.0, 3.0, 6).reshape(2, 3)):
            out = method(xs)
            assert isinstance(out, np.ndarray) and out.shape == xs.shape, name


@pytest.mark.parametrize("cost", WITH_MARGINALS, ids=_cost_id)
def test_negative_flow_rejected(cost):
    """The cost, its derivative, its antiderivative and its marginal are defined for
    x >= 0 only."""
    for name, method in _methods(cost).items():
        for x in (-1.0, np.array([0.5, -1e-300]), np.array([[0.0], [-2.0]])):
            with pytest.raises(ValueError):
                method(x)


# tau'(0+) is infinite for these: their Newton curvature at a zero flow is 0
INFINITE_SLOPE_AT_ZERO = (BPR(1.0, 0.25, 0.0), MonomialLog(1.0, 0.2, 0.3),
                          ScaledCost(TruncatedCost(BPR(2.0, 0.5, 0.1), 1.0), 2.0))


@pytest.mark.parametrize("cost", EVERY_FAMILY + INFINITE_SLOPE_AT_ZERO, ids=_cost_id)
def test_newton_curvature_is_finite_at_zero_flow(cost):
    """Every family's table gives tau' and the marginal's slope at x = 0 as finite numbers."""
    table = ArcCostTable([cost, cost])
    for name in ("derivs", "marginal_derivs"):
        at_zero = getattr(table, name)(np.zeros(2))
        assert np.all(np.isfinite(at_zero)), name
        if cost in INFINITE_SLOPE_AT_ZERO:
            assert np.all(at_zero == 0.0), name


def test_polynomial_lipschitz_bound_has_the_derivative_bits():
    """lipschitz_on evaluates the derivative on floats, apart from derivative()."""
    rng = np.random.default_rng(7)
    costs = [Constant(1.5), Affine(0.5, 0.25)] + [
        Polynomial(tuple(rng.uniform(0.0, 3.0, n))) for n in range(1, 7) for _ in range(5)]
    for cost in costs:
        for hi in (0.0, *rng.uniform(0.0, 10.0, 20)):
            assert cost.lipschitz_on(hi) == cost.derivative(hi), (cost, hi)
        assert cost.deriv_min_on(2.0) == cost.derivative(0.0)


class TestKinks:
    @pytest.mark.parametrize("wrapped", [ScaledCost(KINKED, 1.0), TangentCost(KINKED, 0.5)],
                             ids=["scaled", "tangent"])
    def test_wrapped_kink_gets_no_exponent_one_certificate(self, two_link, wrapped):
        game = Game(two_link, (wrapped, Affine(1.0, 0.1)), np.array([1.0]))
        assert wrapped.has_kinks()
        assert certificate_exponent_one(game, tol=1e-10) is None

    @pytest.mark.parametrize("wrapped", [ScaledCost(KINKED, 1.0), TangentCost(KINKED, 0.5)],
                             ids=["scaled", "tangent"])
    def test_tangent_extension_refuses_wrapped_kink(self, two_link, wrapped):
        game = Game(two_link, (wrapped, Affine(1.0, 0.1)), np.array([1.0]))
        with pytest.raises(ValueError, match="differentiable"):
            truncate_extend(game, 2.0, mode="tangent")

    def test_smooth_wrappers_are_not_kinked(self):
        assert not ScaledCost(BPR(1.0, 2.0, 0.1), 2.0).has_kinks()
        assert not TangentCost(Polynomial((0.2, 1.0, 1.0)), 1.0).has_kinks()
        assert TruncatedCost(BPR(1.0, 2.0, 0.1), 1.0).has_kinks()


class TestJson:
    def test_every_family_is_covered(self):
        covered = set()
        for cost in EVERY_FAMILY:
            while cost is not None:
                covered.add(cost.family)
                cost = getattr(cost, "inner", None)
        assert covered == set(FAMILIES)

    @pytest.mark.parametrize("cost", EVERY_FAMILY, ids=lambda c: type(c).__name__)
    def test_round_trip(self, cost):
        doc = cost_to_dict(cost)
        back = cost_from_dict(doc)
        assert back == cost
        assert cost_to_dict(back) == doc

    def test_nested_document_shape(self):
        doc = cost_to_dict(ScaledCost(TruncatedCost(Constant(2.0), 1.0), 0.5))
        assert doc == {"family": "scaled", "params": {
            "inner": {"family": "truncated", "params": {
                "inner": {"family": "constant", "params": {"c": 2.0}}, "anchor": 1.0}},
            "factor": 0.5}}

    @pytest.mark.parametrize("doc", [
        {"family": "bpr", "params": {"q": 1.0, "beta": 2.0}},
        {"family": "no_such_family", "params": {}},
        {"family": "scaled", "params": {"inner": 3.0, "factor": 2.0}},
        {"family": "tangent", "params": {"inner": [], "anchor": 1.0}},
        {"family": "scaled", "params": {"inner": {"family": "affine", "params": {}},
                                        "factor": 1.0}},
        {"params": {"c": 1.0}},
        ["constant"],
    ], ids=["missing-param", "unknown-family", "number-inner", "list-inner",
            "bad-nested", "no-family", "not-a-dict"])
    def test_malformed_documents_are_schema_errors(self, doc):
        with pytest.raises(InputError) as err:
            cost_from_dict(doc)
        assert err.value.code == "schema"

    def test_extra_params_are_ignored(self):
        doc = {"family": "affine", "params": {"slope": 1.0, "intercept": 0.5, "note": "x"}}
        assert cost_from_dict(doc) == Affine(1.0, 0.5)


def _family_type_tests(tree):
    """(line, name) of each isinstance/issubclass call or ``type(_) is F`` comparison that
    names a cost family F outside F's own class body."""
    families = {cls.__name__ for cls in FAMILIES.values()}
    owner = {id(sub): node.name for node in ast.walk(tree)
             if isinstance(node, ast.ClassDef) for sub in ast.walk(node)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id in ("isinstance", "issubclass") and len(node.args) == 2):
            targets = [node.args[1]]
        elif isinstance(node, ast.Compare) and all(
                isinstance(op, (ast.Is, ast.IsNot, ast.Eq, ast.NotEq)) for op in node.ops):
            operands = [node.left, *node.comparators]
            if not any(isinstance(o, ast.Call) and isinstance(o.func, ast.Name)
                       and o.func.id == "type" for o in operands):
                continue
            targets = operands
        else:
            continue
        for sub in (s for t in targets for s in ast.walk(t)):
            name = sub.id if isinstance(sub, ast.Name) else \
                sub.attr if isinstance(sub, ast.Attribute) else None
            if name in families and name != owner.get(id(node)):
                yield node.lineno, name


def test_only_costs_module_tests_cost_families():
    """A family's type is tested only inside its own class, by its own rules."""
    src = pathlib.Path(poalab.__file__).parent
    found = []
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        found += [f"{path.name}:{line} {name}" for line, name in _family_type_tests(tree)]
    assert not found, f"ask the cost instead of testing its family: {found}"


def test_family_guard_sees_a_ladder():
    tree = ast.parse("if isinstance(c, (Affine, costs.BPR)) or type(c) is MonomialLog:\n"
                     "    pass\n"
                     "class BPR:\n"
                     "    def same(self, other):\n"
                     "        return isinstance(other, BPR) and type(other) != Affine\n")
    assert [name for _, name in _family_type_tests(tree)] == [
        "Affine", "BPR", "MonomialLog", "Affine"]


# the inlined hot-path __call__s, and PiecewiseLinear's np.interp; the kernels are tested
# against them
OWN_CALL = {"Constant", "Affine", "Polynomial", "BPR", "PiecewiseLinear"}


def _own_calculus(tree, cost_classes):
    """(class, method) of each ``derivative`` and ``antiderivative``, and of each ``__call__``
    outside OWN_CALL, defined in the body of a class named in cost_classes."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and node.name in cost_classes:
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and (
                        item.name in ("derivative", "antiderivative")
                        or item.name == "__call__" and node.name not in OWN_CALL):
                    yield node.name, item.name


def test_cost_classes_read_their_kernel():
    """tau', its antiderivative and the marginal are written only in the kernels: no cost
    class has its own ``derivative`` or ``antiderivative``, and only OWN_CALL have their
    own ``__call__``."""
    tree = ast.parse(pathlib.Path(costs.__file__).read_text(encoding="utf-8"))
    subclasses = {name for name, obj in vars(costs).items() if isinstance(obj, type)
                  and issubclass(obj, costs.CostFunction) and obj is not costs.CostFunction}
    assert {"_PolynomialCost", "_Extension", "ScaledCost"} <= subclasses
    assert not list(_own_calculus(tree, subclasses))


def test_calculus_guard_sees_a_copy():
    tree = ast.parse("class BPR:\n"
                     "    def __call__(self, x): pass\n"
                     "    def derivative(self, x): pass\n"
                     "class ScaledCost:\n"
                     "    def __call__(self, x): pass\n"
                     "    def antiderivative(self, x): pass\n"
                     "class MarginalCost:\n"
                     "    def __call__(self, x): pass\n")
    assert list(_own_calculus(tree, {"BPR", "ScaledCost"})) == [
        ("BPR", "derivative"), ("ScaledCost", "__call__"), ("ScaledCost", "antiderivative")]


@pytest.mark.parametrize("anchor", [0.75, 3.0], ids=["anchor-below", "anchor-above"])
def test_truncated_perturbation_stays_in_its_ball(anchor):
    """A truncated cost moves by inner's rule on [0, min(horizon, anchor)]; beyond the
    anchor both costs are frozen, so the sup distance on [0, horizon] stays in the ball,
    and at min(horizon, anchor) the BPR inner moves by shift + stretch."""
    cost, horizon = TruncatedCost(BPR(1.0, 2.0, 0.1), anchor), 2.0
    for shift, stretch in ((0.05, 0.0), (0.0, 0.05), (-0.03, 0.04), (0.02, -0.05)):
        moved = cost.perturbed(shift, stretch, horizon)
        assert isinstance(moved, TruncatedCost) and moved.anchor == anchor
        est, err = costs.sup_distance(cost, moved, horizon)
        assert abs(shift + stretch) - 1e-12 <= est, (shift, stretch)
        assert est <= abs(shift) + abs(stretch) + err + 1e-12, (shift, stretch)


def test_tangent_cost_refuses_to_perturb():
    """Beyond the anchor a tangent's slope follows inner's, so no rule is sound."""
    with pytest.raises(ValueError, match="tangent"):
        TangentCost(BPR(1.0, 2.0, 0.1), 1.0).perturbed(0.01, 0.01, 2.0)
