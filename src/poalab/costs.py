"""Parametric arc-cost families.

Every family is a non-decreasing, non-negative, continuous function on
[0, inf), guaranteed by parameter sign constraints at construction time (one
rule, ``CostFunction.__post_init__``, for the float params).  Each family exposes
evaluation, the (right-)derivative, the antiderivative from 0, an interval
Lipschitz constant that is never an underestimate, a lower bound on the
derivative, and marginal costs for social-optimum gradients.  ``sup_distance``
computes certified sup-norm distances between two costs on a compact interval.

Each family's rules live in its class, and other modules ask the cost rather
than test its type: its JSON name (``family``; the dataclass fields are the
params), whether it can move inside a metric ball (``perturbable``; the move,
``perturbed``, is its kernel's), ``regular_variation``, ``has_kinks``, ``sup_points(other, hi)``,
where |f - g| peaks against its own family (a piecewise-linear cost also against a
cubic, a convex MonomialLog against any cost whose ``linear_pieces(hi)`` it can read),
and ``has_nondecreasing_marginal(hi)``, a closed-form proof, never a sample, that x f(x) is
convex on [0, hi].  Two bases write rules once for several families: ``_PolynomialCost``
derives the Lipschitz bounds and kernel of Constant, Affine and Polynomial from
``as_polynomial()``, and ``_Wrapper`` those of ScaledCost, TruncatedCost and TangentCost
from their one map, inner(factor min(x, anchor)) + slope max(x - anchor, 0).

Every cost method rejects a negative flow and maps a scalar to a Python float and
an array to an array of its shape, through one decorator, ``_pointwise``; the
``__call__`` of Constant, Affine, Polynomial and BPR inline that rule for speed (see
``_pointwise``).

Each family names a kernel over parameter arrays by ``kernel_key``: ``PolynomialKernel``
(constant, affine, polynomial and linear BPR), ``BPRKernel`` (per other BPR exponent),
``MonomialLogKernel`` (per (beta, alpha)), ``PiecewiseLinearKernel``, and ``WrapperKernel``
(the three wrappers, per inner kernel).  Only the kernel writes a family's
tau' (``derivative``), integral from 0 (``antiderivs``) and marginal x tau' + tau
(``marginals``): a cost's ``derivative`` and ``antiderivative``, its ``MarginalCost`` and
the ``__call__`` of MonomialLog and the wrappers read the cost's cached one-row kernel,
``_row``.  The kernels' ``values`` are tested against the other ``__call__``s, the inlined
four and ``PiecewiseLinear``'s ``np.interp``.  Every kernel also gives the Newton step's
curvature in closed form: ``derivs`` (tau', read as 0 at a zero flow where tau'(0+) is
infinite) and ``marginal_derivs`` (2 tau' + x tau'').  A kernel also writes the family's move
inside a metric ball over rows (``perturbed``, scaling by one rule, ``_stretch``), whose
one-row call is ``CostFunction.perturbed``, and ``sup``, the exact ``sup_distance`` of its rows
against the same rows moved, for a polynomial difference of degree <= 3 and same-shape BPR,
MonomialLog and piecewise-linear rows: ``metric._sample_balls`` draws by them.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, fields, replace
from itertools import zip_longest
from typing import ClassVar

import numpy as np

__all__ = [
    "CostFunction",
    "FAMILIES",
    "Constant",
    "Affine",
    "Polynomial",
    "BPR",
    "MonomialLog",
    "PiecewiseLinear",
    "ScaledCost",
    "TruncatedCost",
    "TangentCost",
    "MarginalCost",
    "PolynomialKernel",
    "BPRKernel",
    "MonomialLogKernel",
    "PiecewiseLinearKernel",
    "WrapperKernel",
    "sup_distance",
]

_TINY = 1e-300

GRID_N = 4097  # grid points of a sup distance without closed form: the metric's grid


def _domain(x):
    """Common argument handling: costs are defined for x >= 0."""
    xs = np.asarray(x, dtype=float)
    # a scalar's .item() is about 1.5 us cheaper than .min(), on every per-object call
    if (xs.item() if xs.size == 1 else xs.min(initial=0.0)) < 0.0:
        raise ValueError("cost functions are defined for x >= 0")
    return xs


def _pointwise(method):
    """The scalar/array rule of a cost method: its body runs on a 1-d float array,
    after ``_domain`` has rejected a negative flow.

    A scalar argument (a Python float or int, a numpy scalar or a 0-d array)
    returns a Python float, and an array returns an array of its shape.

    The base ``__call__`` and ``derivative`` apply it to the one-row kernel.  The
    ``__call__`` of Constant, Affine, Polynomial and BPR inlines the rule (``val if
    xs.ndim else float(val)``): those per-object scalar calls are on the sweep's hot
    path (``Game`` validation probes inside ``sample_ball``, the ``dist`` endpoints),
    where this wrapper cost 5-10% of a criterion-07 sweep's records per second in 4
    of 4 benchmark pairs.
    """

    @functools.wraps(method)
    def pointwise(self, x):
        xs = _domain(x)
        out = method(self, xs.reshape(-1))
        return out.reshape(xs.shape) if xs.ndim else float(out[0])

    return pointwise


def _marginal(x, value, slope):
    """x * f'(x) + f(x), taking its right limit f(0) at x = 0.

    x * f'(x) -> 0 as x -> 0+ for every family, also where f'(0) is infinite
    (BPR and MonomialLog with exponents below 1): the inner where masks 0 * inf.
    """
    return np.where(x > 0.0, x * np.where(x > 0.0, slope, 0.0), 0.0) + value


def _require_nonneg(name: str, value: float) -> float:
    value = float(value)
    if not math.isfinite(value) or value < 0:
        raise ValueError(f"{name} must be finite and >= 0, got {value}")
    return value


@functools.cache
def _float_fields(cls) -> tuple[str, ...]:  # in field order
    return tuple(f.name for f in fields(cls) if f.type == "float")


def _stretch(change, height):
    """The factors that move parts of heights `height` by `change`, clipped at 0; 1 where flat."""
    return np.where(height > 0, np.maximum(1.0 + change / np.maximum(height, 1e-12), 0.0), 1.0)


FAMILIES: dict[str, type] = {}  # JSON family name -> class


class CostFunction:
    """Base class for arc cost functions.

    A family class names itself in its header, ``class Affine(CostFunction,
    family="affine")``; its dataclass fields are its JSON params.
    """

    family: ClassVar[str | None] = None
    perturbable: ClassVar[bool] = True  # whether ``perturbed`` has a sound rule

    def __init_subclass__(cls, family: str | None = None, **kwargs):
        super().__init_subclass__(**kwargs)
        if family is not None:
            cls.family = family
            FAMILIES[family] = cls

    def __post_init__(self):
        """The families' sign rule: each float param is stored as a float, finite and >= 0."""
        for name in _float_fields(type(self)):
            object.__setattr__(self, name, _require_nonneg(name, getattr(self, name)))

    @functools.cached_property
    def _row(self):
        """This cost as a one-row kernel, built at the first call that needs it."""
        return self.kernel_key()[0]([self])

    @_pointwise
    def __call__(self, x):
        return self._row.values(x)

    @_pointwise
    def derivative(self, x):
        """Right-derivative; at kinks and at 0 the right limit is used."""
        slope = self._row.derivative(x)
        # _horner, on the solvers' hot path, leaves a degree <= 1 row's tau' unbroadcast
        return slope if slope.shape == x.shape else np.repeat(slope, x.size)

    @_pointwise
    def antiderivative(self, x):
        """Integral of the cost from 0 to x."""
        return self._row.antiderivs(x)

    def lipschitz_on(self, hi: float) -> float:
        """Upper bound on sup |f'| over [0, hi]; math.inf if not Lipschitz."""
        raise NotImplementedError

    def deriv_min_on(self, hi: float) -> float:
        """Lower bound on inf f' over [0, hi]."""
        raise NotImplementedError

    def as_polynomial(self) -> np.ndarray | None:
        """Ascending coefficients if the cost is a polynomial, else None."""
        return None

    def linear_pieces(self, hi: float):
        """(knots, slopes) with 0 = knots[0] < ... < knots[-1] = hi and the cost linear of slope
        slopes[i] on [knots[i], knots[i + 1]], if it is piecewise linear on [0, hi]; else None."""
        c = self.as_polynomial()
        if c is None or c[2:].any():
            return None
        return [0.0, hi], [float(c[1]) if len(c) > 1 else 0.0]

    def scaled_by(self, factor: float) -> "CostFunction":
        """The cost with all values multiplied by factor > 0."""
        raise NotImplementedError

    def with_argument_scale(self, factor: float) -> "CostFunction":
        """The cost x -> f(factor * x) for factor > 0.

        Families closed under argument scaling override this; the default
        stores the composition in a wrapper.
        """
        return ScaledCost(self, factor)

    def kernel_key(self) -> tuple:
        """Costs with equal keys share one kernel, built as ``key[0](costs)``."""
        raise NotImplementedError

    def perturbed(self, shift: float, stretch: float, horizon: float) -> "CostFunction":
        """A cost at sup distance <= |shift| + |stretch| on [0, horizon].

        `shift` moves the intercept-like parameter, `stretch` scales the flow-
        dependent part so that its value change at the horizon is |stretch|.
        Monotonicity is preserved by construction.  A family without a sound
        rule (TangentCost: its slope beyond the anchor would move; see ``perturbable``)
        raises ValueError.  This is the one-row call of the kernel's rule.
        """
        return self._row.perturbed(np.array([shift]), np.array([stretch]), horizon).costs()[0]

    def regular_variation(self) -> tuple[float, float, float] | None:
        """(beta, alpha, coefficient) of the growth x**beta ln(x+1)**alpha, or None."""
        return None

    def has_nondecreasing_marginal(self, hi: float) -> bool:
        """True iff a closed-form rule proves x f' + f non-decreasing on [0, hi], hi included."""
        raise NotImplementedError

    def has_kinks(self) -> bool:
        """True when the cost may fail to be continuously differentiable."""
        return False

    def sup_points(self, other: "CostFunction", hi: float):
        """Points of [0, hi] that hold the max of |self - other| by a closed form, else None."""


class _PolynomialCost(CostFunction):
    """Base of Constant, Affine and Polynomial: bounds and kernel from ``as_polynomial()``."""

    def lipschitz_on(self, hi):
        c = self.as_polynomial()
        slope = 0.0  # derivative(hi) on floats: same bits, 2.2x faster (Affine 1.6x), for the grid
        for n in range(len(c) - 1, 0, -1):
            slope = slope * hi + n * c[n]
        return float(slope)  # derivative is non-decreasing

    def deriv_min_on(self, hi):
        return self.derivative(0.0)

    def kernel_key(self):
        return (PolynomialKernel,)

    def has_nondecreasing_marginal(self, hi):
        return True  # sum (n+1) c_n x**n with c_n >= 0


@dataclass(frozen=True)
class Constant(_PolynomialCost, family="constant"):
    c: float

    def __call__(self, x):
        x = _domain(x)
        return np.full_like(x, self.c) if x.ndim else float(self.c)

    def as_polynomial(self):
        return np.array([self.c])

    def scaled_by(self, factor):
        return Constant(self.c * factor)

    def with_argument_scale(self, factor):
        return Constant(self.c)


@dataclass(frozen=True)
class Affine(_PolynomialCost, family="affine"):
    slope: float
    intercept: float

    def __call__(self, x):
        xs = _domain(x)
        val = self.slope * xs + self.intercept
        return val if xs.ndim else float(val)

    def as_polynomial(self):
        return np.array([self.intercept, self.slope])

    def scaled_by(self, factor):
        return Affine(self.slope * factor, self.intercept * factor)

    def with_argument_scale(self, factor):
        return Affine(self.slope * factor, self.intercept)

    def regular_variation(self):
        return 1.0, 0.0, self.slope


@dataclass(frozen=True)
class Polynomial(_PolynomialCost, family="polynomial"):
    """Polynomial with non-negative ascending coefficients (monotone on [0, inf))."""

    coefficients: tuple[float, ...]

    def __post_init__(self):
        coeffs = tuple(_require_nonneg(f"coefficients[{i}]", c)
                       for i, c in enumerate(self.coefficients))
        if not coeffs:
            raise ValueError("polynomial needs at least one coefficient")
        object.__setattr__(self, "coefficients", coeffs)

    def __call__(self, x):
        xs = _domain(x)
        val = np.polyval(self.as_polynomial()[::-1], xs)
        return val if xs.ndim else float(val)

    def as_polynomial(self):
        return np.array(self.coefficients)

    def scaled_by(self, factor):
        return Polynomial(tuple(c * factor for c in self.coefficients))

    def with_argument_scale(self, factor):
        return Polynomial(tuple(c * factor**n for n, c in enumerate(self.coefficients)))

    def regular_variation(self):
        arr = np.trim_zeros(np.asarray(self.coefficients), "b")
        return float(arr.size - 1), 0.0, float(arr[-1]) if arr.size else 0.0


def _horner(coeffs, x):
    """Row i of `coeffs` (descending powers) evaluated at x[i], as np.polyval does."""
    y = coeffs[:, 0]
    for j in range(1, coeffs.shape[1]):
        y = y * x + coeffs[:, j]
    return y


class _Kernel:
    """Costs over parameter arrays, built from cost objects or by ``_of`` from arrays; ``costs()``
    gives the objects back.  The subclass gives values, derivative, marginal_derivs, ``tiled``
    (n copies of the rows) and the family's move in a metric ball (``perturbed``)."""

    coeffs = None  # the rows' descending coefficients, if the costs are polynomials

    @classmethod
    def _of(cls, *params):
        kernel = object.__new__(cls)
        kernel._setup(*params)
        return kernel

    def marginals(self, x):
        return _marginal(x, self.values(x), self.derivative(x))

    def derivs(self, x):  # tau', read as 0 where infinite: a zero flow, an exponent below 1
        slope = self.derivative(x)
        return np.where(slope < np.inf, slope, 0.0)

    def sup(self, other, hi):
        """``sup_distance`` of each row against other's on [0, hi], other this kernel moved
        (``perturbed``), where a rule makes it exact, else NaN.  Here same-shape BPR and
        MonomialLog rows: their difference is monotone, so its max is at 0 or hi, unless it is a
        polynomial of degree <= 3 (an integer BPR exponent), which ``sup_distance`` takes first."""
        at = np.maximum(*(np.abs(self.values(x) - other.values(x)) for x in (0.0 * hi, hi)))
        if self.coeffs is None:
            return at
        exact = _poly_sups(self.coeffs - other.coeffs, hi)
        return np.where(np.isnan(exact), at, exact)


class PolynomialKernel(_Kernel):
    """Constant, Affine, Polynomial and linear BPR costs as rows of one zero-padded coefficient matrix.

    Leading zero coefficients keep Horner's recurrence at exactly 0, so each
    row gives the same bits as ``np.polyval`` on its own coefficients.  ``classes`` holds each
    row's family, which picks its ``perturbed`` rule, and ``sizes`` its number of coefficients.
    """

    def __init__(self, costs):
        rows = [c.as_polynomial() for c in costs]
        width = max(2, max(len(r) for r in rows))
        coeffs = np.zeros((len(rows), width))
        for i, row in enumerate(rows):
            coeffs[i, width - len(row):] = row[::-1]
        self._setup(coeffs, [type(c) for c in costs], [len(r) for r in rows])

    def _setup(self, coeffs, classes, sizes):
        self.coeffs, self.classes, self.sizes = coeffs, classes, sizes
        width = coeffs.shape[1]
        self.slopes = coeffs[:, :-1] * np.arange(width - 1, 0, -1)
        # second derivatives; a zero column when every row is affine
        self.bends = (self.slopes[:, :-1] * np.arange(width - 2, 0, -1) if width > 2
                      else np.zeros((len(coeffs), 1)))

    def tiled(self, n):
        return self._of(np.tile(self.coeffs, (n, 1)), self.classes * n, self.sizes * n)

    def costs(self):
        out = []
        for cls, n, row in zip(self.classes, self.sizes, self.coeffs[:, ::-1].tolist()):
            out.append(Polynomial(tuple(row[:n])) if cls is Polynomial
                       else BPR(row[1], 1.0, row[0]) if cls is BPR
                       else Affine(row[1], row[0]) if cls is Affine else Constant(row[0]))
        return out

    def perturbed(self, shift, stretch, horizon):
        """Polynomial and BPR(., 1, .) scale their flow-dependent part by its ``_stretch`` at the
        horizon; Affine moves its slope by stretch / horizon; a Constant grows the slope
        |stretch| / horizon (no degenerate ball) and moves by shift, down by at most half; the
        others' constant term moves by shift; each clipped at 0."""
        c, h = self.coeffs, np.maximum(horizon, 1e-12)
        rest = c.copy()
        rest[:, -1] = 0.0
        new = c * _stretch(stretch, _horner(rest, horizon))[:, None]
        new[:, -1] = np.maximum(c[:, -1] + shift, 0.0)
        affine, constant = ([cls is k for cls in self.classes] for k in (Affine, Constant))
        new[:, -2] = np.where(affine, np.maximum(c[:, -2] + stretch / h, 0.0), new[:, -2])
        new[:, -2] = np.where(constant, np.abs(stretch) / h, new[:, -2])
        new[:, -1] = np.where(constant, np.maximum(c[:, -1] + shift, c[:, -1] * 0.5), new[:, -1])
        classes = [Affine if cls is Constant and slope else cls  # a constant that grew a slope
                   for cls, slope in zip(self.classes, new[:, -2].tolist())]
        return self._of(new, classes, self.sizes)

    def sup(self, other, hi):  # NaN in a row of degree > 3: dist's grid or other rules take it
        return _poly_sups(self.coeffs - other.coeffs, hi)

    def values(self, x):
        return _horner(self.coeffs, x)

    def marginals(self, x):
        return x * _horner(self.slopes, x) + self.values(x)

    def derivative(self, x):
        return _horner(self.slopes, x)

    derivs = derivative

    def marginal_derivs(self, x):
        return 2.0 * self.derivs(x) + x * _horner(self.bends, x)

    def antiderivs(self, x):  # Horner on each row's c_k / (k + 1), padded like coeffs, then 0
        integrals = self.coeffs / np.arange(self.coeffs.shape[1], 0, -1)
        return _horner(np.pad(integrals, ((0, 0), (0, 1))), x)


@dataclass(frozen=True)
class BPR(CostFunction, family="bpr"):
    """q * x**beta + p, the standard traffic latency family."""

    q: float
    beta: float
    p: float

    def __call__(self, x):
        xs = _domain(x)
        val = self.q * xs**self.beta + self.p
        return val if xs.ndim else float(val)

    def lipschitz_on(self, hi):
        b = self.beta
        if b == 0 or self.q == 0:
            return 0.0
        if b < 1:
            return math.inf
        try:
            return float(self.q * b * hi ** (b - 1.0))
        except OverflowError:  # a power past the float range, as MonomialLog._slope
            return math.inf

    def deriv_min_on(self, hi):
        b = self.beta
        if b == 0 or self.q == 0 or b > 1:
            return 0.0
        if b == 1:
            return float(self.q)
        return float(self.q * b * hi ** (b - 1.0))  # decreasing derivative

    def as_polynomial(self):
        b = self.beta
        if b != int(b):
            return None
        coeffs = np.zeros(int(b) + 1)
        coeffs[0] = self.p
        coeffs[int(b)] += self.q
        return coeffs

    def scaled_by(self, factor):
        return BPR(self.q * factor, self.beta, self.p * factor)

    def with_argument_scale(self, factor):
        return BPR(self.q * factor**self.beta, self.beta, self.p)

    def kernel_key(self):
        if self.beta == 1.0:
            return (PolynomialKernel,)  # Horner's q * x + p is this cost's arithmetic
        return (BPRKernel, self.beta)

    def regular_variation(self):
        return self.beta, 0.0, self.q

    def has_nondecreasing_marginal(self, hi):
        return True  # (beta+1) q x**beta + p

    def sup_points(self, other, hi):
        same = isinstance(other, BPR) and other.beta == self.beta
        return (0.0, hi) if same else None  # then dq x**beta + dp is monotone


class BPRKernel(_Kernel):
    """BPR costs with one shared exponent, over arrays of q and p.

    The exponent stays a Python float: numpy raises an array to a scalar
    power on the same path as the scalar call, but to an array of powers on
    another one, which differs in the last bit for some exponents (2 is one).
    """

    def __init__(self, costs):
        self._setup(costs[0].beta, np.array([c.q for c in costs]), np.array([c.p for c in costs]))

    def _setup(self, beta, q, p):
        self.beta, self.q, self.p = beta, q, p
        self.qb = self.q * self.beta
        if beta == int(beta):  # as_polynomial's rows: p, then q added at x**beta
            self.coeffs = np.zeros((len(q), int(beta) + 1))
            self.coeffs[:, 0] = q
            self.coeffs[:, -1] += p
        if 0.0 < self.beta < 1.0:  # tau'(0) is infinite, and _Kernel's derivs reads it as 0
            self.slope0 = np.where(self.q == 0.0, 0.0, np.inf)  # the right limit at 0
            self.derivs = super().derivs

    def tiled(self, n):
        return self._of(self.beta, np.tile(self.q, n), np.tile(self.p, n))

    def costs(self):
        return [BPR(q, self.beta, p) for q, p in zip(self.q.tolist(), self.p.tolist())]

    def perturbed(self, shift, stretch, horizon):
        """Scale q by ``_stretch`` of q horizon**beta and move p by shift, clipped at 0; by Python's
        power, as numpy's differs in the last bit for some arguments."""
        powers = [h**self.beta for h in np.broadcast_to(horizon, self.q.shape).tolist()]
        return self._of(self.beta, self.q * _stretch(stretch, self.q * np.array(powers)),
                        np.maximum(self.p + shift, 0.0))

    def values(self, x):
        return self.q * x**self.beta + self.p

    def derivative(self, x):
        if self.beta == 0.0:
            return np.zeros_like(x)
        if self.beta >= 1.0:
            return self.qb * x ** (self.beta - 1.0)
        return np.where(x > 0.0, self.qb * np.maximum(x, _TINY) ** (self.beta - 1.0), self.slope0)

    derivs = derivative

    def marginal_derivs(self, x):
        """(beta + 1) beta q x**(beta - 1), the slope of (beta + 1) q x**beta + p."""
        return (self.beta + 1.0) * self.derivs(x)

    def marginals(self, x):
        b = self.beta
        if b >= 1.0:
            return x * (self.qb * x ** (b - 1.0)) + self.values(x)
        return super().marginals(x)  # tau'(0) may be infinite

    def antiderivs(self, x):
        return self.q * x ** (self.beta + 1.0) / (self.beta + 1.0) + self.p * x


@dataclass(frozen=True)
class MonomialLog(CostFunction, family="monomial_log"):
    """zeta * x**beta * ln(x+1)**alpha, a regularly varying non-polynomial; convex on [0, inf)
    for beta >= 1 (proof at ``_slope``), so tau'(hi) bounds its slope on [0, hi], and against a
    cost linear on pieces |tau - other| peaks at a knot or where tau' meets a slope there."""

    zeta: float
    beta: float
    alpha: float

    def _slope(self, x):
        """tau'(x) on Python floats in the kernel's order, read at 1e-300 at 0; non-decreasing for
        beta >= 1: with L = ln(1+x) >= u = x/(1+x), tau'' = zeta x**(b-2) L**(a-2) [b (b-1) L**2
        + a u L (2b - u) + a (a-1) u**2] for x > 0, and the bracket is >= 0: each term is for
        a >= 1, and for a < 1, as 2b - u > 1 and a (a-1) >= -a, the last two are >= a u (L - u)."""
        b, a, pos = self.beta, self.alpha, max(x, _TINY)
        lg = math.log1p(pos)
        try:
            return self.zeta * (b * pos ** (b - 1.0) * lg**a
                                + a * pos**b * lg ** (a - 1.0) / (pos + 1.0))
        except OverflowError:  # a power past the float range, where numpy's gives inf
            return math.inf

    def lipschitz_on(self, hi):
        """tau'(hi) for beta >= 1 (convex); else zeta (a+b) hi**(a+b-1) if a + b >= 1: as
        L = ln(1+x) <= x, b x**(b-1) L**a <= b x**(a+b-1); for a >= 1, L**(a-1) <= x**(a-1), and
        for a < 1, L >= x/(1+x) gives a x**b L**(a-1)/(1+x) <= a x**(a+b-1) (1+x)**-a.  fsum takes
        the sign of e = a + b - 1 exactly; 1 + 2**-50 (1 + e |ln hi|) covers the roundings, the
        exponent's magnified by ln hi.  If a + b < 1, tau'(0+) is infinite."""
        if self.zeta == 0.0 or hi == 0.0 or self.beta == self.alpha == 0.0:
            return 0.0
        if self.beta >= 1.0:
            return self._slope(hi)
        e = math.fsum((self.alpha, self.beta, -1.0))
        if e < 0.0:
            return math.inf
        try:
            return self.zeta * (e + 1.0) * hi**e * (1.0 + 2.0**-50 * (1.0 + e * abs(math.log(hi))))
        except OverflowError:
            return math.inf

    def deriv_min_on(self, hi):
        if self.alpha == 0:
            return BPR(self.zeta, self.beta, 0.0).deriv_min_on(hi)
        return 0.0  # derivative vanishes at 0 for beta >= 1, and we never certify b < 1

    def scaled_by(self, factor):
        return MonomialLog(self.zeta * factor, self.beta, self.alpha)

    def kernel_key(self):
        return (MonomialLogKernel, self.beta, self.alpha)

    def regular_variation(self):
        return self.beta, self.alpha, self.zeta

    def has_nondecreasing_marginal(self, hi):
        # L = ln(1+x) >= u = x/(1+x), R = (b+1) L + a u; the marginal is m = z x**b L**(a-1) R.
        # For x > 0, (1+x) L R (ln m)' = b (L/u) R + a ((b+1) L + L (1-u) - (1-a) u) >= 0,
        # as (b+1) L >= u >= (1-a) u: true for every zeta, beta, alpha >= 0.
        return True

    def sup_points(self, other, hi):
        if isinstance(other, MonomialLog) and (other.beta, other.alpha) == (self.beta, self.alpha):
            return (0.0, hi)  # then |dzeta| x**beta ln(x+1)**alpha is monotone
        pieces = other.linear_pieces(hi) if self.beta >= 1.0 else None
        if pieces is None:
            return None
        # tau - other is convex on a piece of slope s: it peaks at the ends, and its min is at an
        # end or where tau' crosses s, which lies inside only if tau'(lo) < s < tau'(up)
        knots, slopes = pieces
        ds = [self._slope(x) for x in knots]
        return knots + [x for lo, up, s, dlo, dup in zip(knots, knots[1:], slopes, ds, ds[1:])
                        if dlo < s < dup for x in _crossing(self._slope, s, lo, up, dlo, dup)]


@functools.cache
def _geometric_rule():
    """Nodes t and weights w, sum w f(t) ~ the integral of f over (0, 1]: 12-node Gauss-Legendre on
    each panel [2**-(k+1), 2**-k], k < 64.  f(t) = (x t)**b ln(1 + x t)**a is analytic on a panel,
    its singularities (t = 0, -1/x) a panel length away, at -3 mapped to [-1, 1]: the error falls
    like (3 + 8**0.5)**-24, 1e-18 (Trefethen, SIAM Rev. 50, 2008).  The geometric panels take
    t**(a+b) at 0 (Davis and Rabinowitz, 1984); f grows, so the dropped (0, 2**-64] is < 2**-64."""
    u, v = np.polynomial.legendre.leggauss(12)
    half = 2.0 ** -np.arange(2, 66)[:, None]  # panel k's half length; its midpoint is 3 half
    return (half * (3.0 + u)).ravel(), (half * v).ravel()


class MonomialLogKernel(_Kernel):
    """MonomialLog costs with one (beta, alpha), kept Python floats, over an array of zeta."""

    def __init__(self, costs):
        self._setup(costs[0].beta, costs[0].alpha, np.array([c.zeta for c in costs]))

    def _setup(self, beta, alpha, zeta):
        self.beta, self.alpha, self.zeta = beta, alpha, zeta
        if self.alpha == 0.0:  # zeta x**beta: BPR's tau' and marginal slope
            bpr = BPRKernel._of(beta, zeta, np.zeros_like(zeta))
            self.derivative, self.marginal_derivs = bpr.derivative, bpr.marginal_derivs
        else:  # tau'(0) is the right limit: x**(b-1) ln(x+1)**a ~ x**(a+b-1)
            ab = self.alpha + self.beta
            self.slope0 = (0.0 if ab > 1.0 else self.zeta * ab if ab == 1.0
                           else np.where(self.zeta == 0.0, 0.0, np.inf))  # zeta = 0: flat

    def tiled(self, n):
        return self._of(self.beta, self.alpha, np.tile(self.zeta, n))

    def costs(self):
        return [MonomialLog(z, self.beta, self.alpha) for z in self.zeta.tolist()]

    def perturbed(self, shift, stretch, horizon):
        """Scale zeta by ``_stretch`` of the cost at the horizon, by shift + stretch."""
        at = np.full(self.zeta.shape, horizon)
        scale = _stretch(shift + stretch, self.values(at))
        return self._of(self.beta, self.alpha, self.zeta * scale)

    def values(self, x):
        return self.zeta * x**self.beta * np.log1p(x) ** self.alpha

    def derivative(self, x):
        b, a = self.beta, self.alpha
        pos = np.maximum(x, _TINY)
        lg = np.log1p(pos)
        out = self.zeta * (b * pos ** (b - 1.0) * lg**a + a * pos**b * lg ** (a - 1.0) / (pos + 1.0))
        return np.where(x > 0.0, out, self.slope0)

    def marginal_derivs(self, x):
        """(2 + s - (b + a w**2 (1 + L)) / s) tau' = 2 tau' + x tau'', from the log-derivative
        s = x (ln tau)' = b + a w, where L = ln(x + 1) and w = x / ((x + 1) L) lies in (0, 1]."""
        b, a = self.beta, self.alpha
        pos = np.maximum(x, _TINY)
        lg = np.log1p(pos)
        w = pos / ((pos + 1.0) * lg)
        s = b + a * w
        return (2.0 + s - (b + a * w * w * (1.0 + lg)) / s) * self.derivs(x)

    def antiderivs(self, x):
        """x times the integral over (0, 1] of tau(x t), by ``_geometric_rule``; each row is one
        ``np.vecdot``, so a table's row has its one-row call's bits."""
        t, w = _geometric_rule()
        s = x[:, None] * t
        return self.zeta * x * np.vecdot(s**self.beta * np.log1p(s) ** self.alpha, w)


@dataclass(frozen=True)
class PiecewiseLinear(CostFunction, family="piecewise_linear"):
    """Linear interpolation through (breakpoints, values), constant beyond the last one."""

    breakpoints: tuple[float, ...]
    values: tuple[float, ...]

    def __post_init__(self):
        bps = tuple(float(b) for b in self.breakpoints)
        vals = tuple(_require_nonneg(f"values[{i}]", v) for i, v in enumerate(self.values))
        if len(bps) != len(vals) or len(bps) < 1:
            raise ValueError("breakpoints and values must match and be non-empty")
        if bps[0] != 0.0:
            raise ValueError("first breakpoint must be 0")
        if not all(math.isfinite(b) for b in bps):
            raise ValueError(f"breakpoints must be finite, got {bps}")
        if any(b2 <= b1 for b1, b2 in zip(bps, bps[1:])):
            raise ValueError("breakpoints must be strictly increasing")
        if any(v2 < v1 for v1, v2 in zip(vals, vals[1:])):
            raise ValueError("values must be non-decreasing")
        object.__setattr__(self, "breakpoints", bps)
        object.__setattr__(self, "values", vals)

    @functools.cached_property
    def _breakpoints(self):
        return np.asarray(self.breakpoints)

    @functools.cached_property
    def _slopes(self):
        """Slope of each segment, then 0 for the constant extension, so any index
        ``searchsorted(x, side="right") - 1`` >= 0 is valid; computed once."""
        b, v = self._breakpoints, np.asarray(self.values)
        return np.concatenate([np.diff(v) / np.diff(b), [0.0]])

    @_pointwise
    def __call__(self, x):
        return np.interp(x, self.breakpoints, self.values)

    def lipschitz_on(self, hi):
        return float(np.max(self._slopes[self._breakpoints < hi], initial=0.0))  # slopes are >= 0

    def deriv_min_on(self, hi):
        return float(np.min(self._slopes[self._breakpoints < hi])) if hi > 0.0 else 0.0

    def scaled_by(self, factor):
        return PiecewiseLinear(self.breakpoints, tuple(v * factor for v in self.values))

    def with_argument_scale(self, factor):
        return PiecewiseLinear(tuple(b / factor for b in self.breakpoints), self.values)

    def kernel_key(self):
        return (PiecewiseLinearKernel,)

    def has_nondecreasing_marginal(self, hi):
        # the marginal rises 2 s in a piece and jumps by b (s_right - s_left) at a breakpoint b
        return not np.any((np.diff(self._slopes) < 0.0)[self._breakpoints[1:] <= hi])

    def has_kinks(self):
        return True

    def linear_pieces(self, hi):
        knots = [*(b for b in self.breakpoints if b < hi), hi]
        return knots, self._slopes[:len(knots) - 1].tolist()

    def sup_points(self, other, hi):
        if isinstance(other, PiecewiseLinear):
            knots = np.unique(np.concatenate([self._breakpoints, other._breakpoints, [0.0, hi]]))
            return knots[knots <= hi]  # |self - other| is linear between them; breakpoints are >= 0
        c = other.as_polynomial()
        if c is None or len(c) > 4:
            return None
        # on a piece of slope s, other - self is a cubic: it peaks at an end or where other' = s
        c1, c2, c3 = [*c.tolist(), 0.0, 0.0, 0.0][1:4]
        knots, slopes = self.linear_pieces(hi)
        return knots + [r for lo, up, s in zip(knots, knots[1:], slopes)
                        for r in _critical_points(c1 - s, c2, c3) if lo < r < up]


class PiecewiseLinearKernel(_Kernel):
    """PiecewiseLinear costs as rows of one +inf-padded breakpoint matrix; x's segment
    counts its row's breakpoints <= x, and s (x - b) + v there has ``np.interp``'s bits."""

    def __init__(self, costs):
        breakpoints = np.full((len(costs), max(len(c.breakpoints) for c in costs)), np.inf)
        heights = np.zeros_like(breakpoints)
        for i, c in enumerate(costs):
            k = len(c.breakpoints)
            breakpoints[i, :k], heights[i, :k] = c._breakpoints, c.values
        self._setup(breakpoints, heights)

    def _setup(self, breakpoints, heights):
        self.breakpoints, self.heights = breakpoints, heights
        self.sizes = (breakpoints < np.inf).sum(axis=1)
        # each piece's slope, as PiecewiseLinear._slopes, then 0 for the constant extension
        self.rates = np.zeros_like(heights)
        with np.errstate(invalid="ignore"):  # inf - inf in the padding
            rates = np.diff(heights, axis=1) / np.diff(breakpoints, axis=1)
        self.rates[:, :-1] = np.where(breakpoints[:, 1:] < np.inf, rates, 0.0)
        self.rows = np.arange(len(breakpoints))

    def tiled(self, n):
        return self._of(np.tile(self.breakpoints, (n, 1)), np.tile(self.heights, (n, 1)))

    def costs(self):
        return [PiecewiseLinear(tuple(b[:k]), tuple(v[:k])) for b, v, k in
                zip(self.breakpoints.tolist(), self.heights.tolist(), self.sizes.tolist())]

    def perturbed(self, shift, stretch, horizon):
        """Move the first value by shift, clipped at 0, and scale the rises above it by
        ``_stretch`` of the last one."""
        first = self.heights[:, :1]
        scale = _stretch(stretch, self.heights[self.rows, self.sizes - 1] - first[:, 0])
        new = np.maximum(first + shift[:, None], 0.0) + (self.heights - first) * scale[:, None]
        return self._of(self.breakpoints, np.where(self.breakpoints < np.inf, new, 0.0))

    def sup(self, other, hi):  # |self - other| is linear between the breakpoints below hi and hi
        gaps = np.abs(self.heights - other.heights)  # at a breakpoint a value is its height
        below = np.max(gaps, axis=1, where=self.breakpoints < hi[:, None], initial=0.0)
        return np.maximum(below, np.abs(self.values(hi) - other.values(hi)))

    def _segments(self, x):
        return self.rows, (self.breakpoints <= x[:, None]).sum(axis=1) - 1

    def values(self, x):
        at = self._segments(x)
        return self.rates[at] * (x - self.breakpoints[at]) + self.heights[at]

    def derivative(self, x):
        return self.rates[self._segments(x)]

    derivs = derivative

    def marginal_derivs(self, x):  # tau'' is 0 inside a piece
        return 2.0 * self.derivative(x)

    def marginals(self, x):  # tau' is finite: x tau' + tau has _marginal's bits, one search
        at = self._segments(x)
        rate = self.rates[at]
        return x * rate + (rate * (x - self.breakpoints[at]) + self.heights[at])

    def antiderivs(self, x):
        """The trapezoids up to x's segment, 0-wide in the padding, and that segment's part."""
        last = np.max(self.breakpoints, axis=1, where=self.breakpoints < np.inf, initial=0.0)
        widths = np.diff(np.minimum(self.breakpoints, last[:, None]), axis=1)
        areas = np.cumsum(0.5 * (self.heights[:, :-1] + self.heights[:, 1:]) * widths, axis=1)
        at = self._segments(x)
        dx = x - self.breakpoints[at]
        part = (self.heights[at] + 0.5 * self.rates[at] * dx) * dx
        return np.pad(areas, ((0, 0), (1, 0)))[at] + part


@dataclass(frozen=True)
class _Wrapper(CostFunction):
    """The one wrapper rule, inner(factor min(x, anchor)) + slope max(x - anchor, 0): ScaledCost
    is (factor, inf, 0), TruncatedCost (1, anchor, 0) and TangentCost (1, anchor,
    tau'_inner(anchor+)); the numbers a class fixes are ``ClassVar``s, not JSON fields."""

    inner: CostFunction
    slope: ClassVar[float] = 0.0  # of the line beyond the anchor

    def _top(self, hi):  # the inner's argument at min(hi, anchor)
        return self.factor * min(hi, self.anchor)

    # past the anchor the slope is the line's: for a tangent, a kinked inner's tau'(anchor+)
    def lipschitz_on(self, hi):
        bound = self.factor * self.inner.lipschitz_on(self._top(hi))
        return max(bound, self.slope) if hi > self.anchor else bound

    def deriv_min_on(self, hi):
        low = self.factor * self.inner.deriv_min_on(self._top(hi))
        return min(self.slope, low) if hi > self.anchor else low

    def as_polynomial(self):
        inner = None if self.anchor < math.inf else self.inner.as_polynomial()
        return None if inner is None else inner * self.factor ** np.arange(len(inner))

    def scaled_by(self, factor):
        return replace(self, inner=self.inner.scaled_by(factor))

    def kernel_key(self):
        return (WrapperKernel, *self.inner.kernel_key())

    @property
    def perturbable(self):
        return self.inner.perturbable

    def has_nondecreasing_marginal(self, hi):
        # the marginal of inner(factor x) is m(factor x); at the anchor a tangent takes the
        # inner right-derivative, and beyond it its marginal 2 slope x + inner(anchor) rises
        return self.inner.has_nondecreasing_marginal(self._top(hi))

    def has_kinks(self):
        return self.inner.has_kinks()

    def sup_points(self, other, hi):
        # with one factor and one anchor, whatever the classes, |self - other| on
        # [0, min(hi, anchor)] is the inners' on [0, top], and past the anchor it is linear:
        # its max there is at the anchor or at hi
        if not (isinstance(other, _Wrapper) and (other.factor, other.anchor)
                == (self.factor, self.anchor)):
            return None
        if self.inner == other.inner:  # then they differ only past the anchor
            return [hi]
        top = self._top(hi)  # the bits self(min(hi, anchor)) evaluates the inner at
        d = _poly_difference(self.inner, other.inner)  # sup_distance's first rule, on [0, top]
        points = self.inner.sup_points(other.inner, top) if d is None else _poly_points(d, top)
        if points is None:
            return None
        ps = np.asarray(points, dtype=float).tolist()
        xs = [0.0 if p <= 0.0 else min(hi, self.anchor) if p >= top else p / self.factor
              for p in ps]
        if any(x * self.factor != p for x, p in zip(xs, ps) if 0.0 < p < top):
            return None  # an image off its inner point may miss an inner kink by an ulp
        return [*xs, hi]


@dataclass(frozen=True)
class ScaledCost(_Wrapper, family="scaled"):
    """Argument-scaled wrapper x -> inner(factor * x) for families not closed under it."""

    factor: float
    anchor: ClassVar[float] = math.inf

    def __post_init__(self):
        if not 0.0 < self.factor < math.inf:
            raise ValueError(f"argument scale factor must be finite and > 0, got {self.factor}")

    def with_argument_scale(self, factor):
        return ScaledCost(self.inner, self.factor * factor)


@dataclass(frozen=True)
class _Extension(_Wrapper):
    """inner on [0, anchor], continued beyond the anchor by a line of slope ``slope``."""

    anchor: float
    factor: ClassVar[float] = 1.0

    def __post_init__(self):
        if not 0.0 < self.anchor < math.inf:
            raise ValueError(f"anchor must be finite and > 0, got {self.anchor}")

    def with_argument_scale(self, factor):
        return type(self)(self.inner.with_argument_scale(factor), self.anchor / factor)


@dataclass(frozen=True)
class TruncatedCost(_Extension, family="truncated"):
    """inner on [0, anchor], frozen at inner(anchor) beyond."""

    def has_nondecreasing_marginal(self, hi):
        # beyond the anchor the marginal is inner(anchor): it falls there unless inner is flat
        return (super().has_nondecreasing_marginal(hi)
                and (hi < self.anchor or self.inner.lipschitz_on(self.anchor) == 0.0))

    def has_kinks(self):
        return True  # the slope drops to 0 at the anchor


@dataclass(frozen=True)
class TangentCost(_Extension, family="tangent"):
    """inner on [0, anchor], extended by its tangent line at the anchor beyond."""

    perturbable = False  # no sound rule: the slope beyond the anchor would move

    @functools.cached_property
    def slope(self):
        return self.inner.derivative(self.anchor)


class WrapperKernel(_Kernel):
    """The wrapper map over arrays of factors, anchors and slopes, around the inners' kernel."""

    def __init__(self, costs):
        self._setup(costs[0].kernel_key()[1]([c.inner for c in costs]), costs)  # key[1:]: inner's

    def _setup(self, inner, wrappers):
        self.inner, self.wrappers = inner, wrappers  # the rows' costs, whose inners inner replaces
        self.factor, self.anchor, self.slope = np.array(
            [(c.factor, c.anchor, c.slope) for c in wrappers], dtype=float).T

    def tiled(self, n):
        return self._of(self.inner.tiled(n), self.wrappers * n)

    def costs(self):
        return [replace(c, inner=inner) for c, inner in zip(self.wrappers, self.inner.costs())]

    def perturbed(self, shift, stretch, horizon):
        """The inners move on [0, factor min(horizon, anchor)]; past it a truncation is frozen."""
        inner = self.inner.perturbed(shift, stretch, self.factor * np.minimum(horizon, self.anchor))
        for c in self.wrappers:  # its inner's rule held, so a row's own class decides
            if not c.perturbable:
                raise ValueError(f"cannot perturb cost family {c.family!r}: it has no sound rule")
        return self._of(inner, self.wrappers)

    def sup(self, other, hi):  # wrapper rows take dist's rules
        return np.full_like(hi, np.nan)

    def _inner_at(self, x):
        return np.minimum(x, self.anchor) * self.factor

    def values(self, x):
        return self.inner.values(self._inner_at(x)) + np.maximum(x - self.anchor, 0.0) * self.slope

    def derivative(self, x):
        return np.where(x < self.anchor, self.factor * self.inner.derivative(self._inner_at(x)),
                        self.slope)

    def marginal_derivs(self, x):  # beyond the anchor the marginal is 2 slope x + a constant
        return np.where(x < self.anchor,
                        self.factor * self.inner.marginal_derivs(self._inner_at(x)),
                        2.0 * self.slope)

    def antiderivs(self, x):  # past the anchor, min(x, anchor) is the anchor
        at, dx = self._inner_at(x), np.maximum(x - self.anchor, 0.0)
        return (self.inner.antiderivs(at) / self.factor + dx * self.inner.values(at)
                + 0.5 * self.slope * dx * dx)


class MarginalCost:
    """Marginal cost x * f'(x) + f(x) of a cost f, from f's one-row kernel."""

    def __init__(self, cost: CostFunction):
        self.cost = cost

    @_pointwise
    def __call__(self, x):
        return self.cost._row.marginals(x)


def _critical_points(d1=0.0, d2=0.0, d3=0.0) -> tuple[float, ...]:
    """The points where p' = d1 + 2 d2 x + 3 d3 x**2 changes sign: the root of a linear p'
    or, by the sign-stable quadratic formula, q/a and c/q with q = -(b + sgn(b)
    sqrt(b^2 - 4ac)) / 2 and sgn(-0.0) = +1, so a signed zero cannot flip the branch;
    a double root of p' is no extremum of p."""
    a, b, c = 3.0 * d3, 2.0 * d2, d1
    if a == 0.0:
        return (-c / b,) if b != 0.0 else ()
    disc = b * b - 4.0 * a * c
    if disc <= 0.0:
        return ()
    q = -0.5 * (b + math.sqrt(disc)) if b >= 0.0 else -0.5 * (b - math.sqrt(disc))
    return q / a, c / q


def _crossing(slope, s, a, b, fa, fb) -> tuple[float, ...]:
    """Where a non-decreasing ``slope`` crosses s, given fa = slope(a) < s < fb = slope(b): the
    point, or a bracket no wider than 1e-9 b or with no float inside, by false position with the
    Illinois rule (an end kept twice has its distance to s halved), bisecting where it rounds."""
    ga, gb, kept, tol = fa - s, fb - s, 0, 1e-9 * b
    while b - a > tol:
        x = a - (b - a) * (ga / (gb - ga))
        x = x if a < x < b else 0.5 * (a + b)
        if not a < x < b:
            break
        gx = slope(x) - s
        if gx == 0.0:
            return (x,)
        if gx < 0.0:
            a, ga, gb, kept = x, gx, gb * (0.5 if kept < 0 else 1.0), -1  # b kept
        else:
            b, gb, ga, kept = x, gx, ga * (0.5 if kept > 0 else 1.0), 1
    return a, b


def _poly_difference(f: CostFunction, g: CostFunction) -> list[float] | None:
    """f - g as ascending coefficients, trimmed and led by a positive coefficient (exact, and
    |p| = |-p|, so a pair gives the same bits in either order), if both are polynomials and
    the difference has degree <= 3; else None."""
    pg = g.as_polynomial()
    pf = None if pg is None else f.as_polynomial()
    if pf is None:
        return None
    d = [a - b for a, b in zip_longest(pf.tolist(), pg.tolist(), fillvalue=0.0)]
    while len(d) > 1 and d[-1] == 0.0:
        d.pop()
    return None if len(d) > 4 else [-c for c in d] if d[-1] < 0.0 else d


def _poly_points(d: list[float], hi: float) -> tuple[float, ...]:
    """0, hi and the critical points inside, where |p| peaks on [0, hi] (``_poly_difference``)."""
    return (0.0, hi, *(r for r in _critical_points(*d[1:]) if 0.0 < r < hi))


def _poly_sup(d: list[float], hi: float) -> float:
    """Exact max of |p| on [0, hi] for p(x) = sum(d[k] x**k) of ``_poly_difference``, by
    Horner's rule at ``_poly_points`` in np.polyval's order."""
    best = 0.0
    for x in _poly_points(d, hi):
        y = d[-1]
        for coef in d[-2::-1]:
            y = y * x + coef
        best = max(best, abs(y))
    return best


def _poly_sups(d: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """``_poly_sup`` over rows of descending coefficients d, one hi per row; NaN in a row of
    degree > 3.  p' has ``_critical_points``' roots, a cubic led positive as there."""
    d3, d2, d1 = (d[:, -k] if d.shape[1] >= k else np.zeros(len(d)) for k in (4, 3, 2))
    with np.errstate(all="ignore"):  # a NaN, 0 or inf root lies outside (0, hi)
        roots = [-d1 / (2.0 * d2)]  # where p' is linear
        if ((d3 != 0.0) & ((d2 != 0.0) | (d1 != 0.0))).any():  # else p' = a x**2 or 0
            a, b, c = (np.where(d3 < 0.0, -v, v) for v in (3.0 * d3, 2.0 * d2, d1))
            disc = b * b - 4.0 * a * c
            q = -0.5 * np.where(b >= 0.0, b + np.sqrt(disc), b - np.sqrt(disc))
            quadratic = (a != 0.0) & (disc > 0.0)
            roots = [np.where(quadratic, q / a, np.where(a == 0.0, roots[0], np.nan)),
                     np.where(quadratic, c / q, np.nan)]
        points = [hi, *(np.where((0.0 < r) & (r < hi), r, 0.0) for r in roots)]
    best = np.abs(d[:, -1])  # at 0
    for x in points:
        best = np.maximum(best, np.abs(_horner(d, x)))
    return np.where((d[:, :-4] != 0.0).any(axis=1), np.nan, best) if d.shape[1] > 4 else best


@functools.lru_cache(maxsize=8)
def _grid(hi: float) -> np.ndarray:
    """np.linspace(0, hi, GRID_N), read-only: one grid serves every arc pair of a distance."""
    xs = np.linspace(0.0, hi, GRID_N)
    xs.flags.writeable = False
    return xs


def sup_distance(f: CostFunction, g: CostFunction, hi: float) -> tuple[float, float]:
    """Max of |f - g| on [0, hi] with a certified error bound.

    Returns (estimate, error_bound) so that the true sup lies in
    [estimate, estimate + error_bound].  Exact (error 0) for polynomial differences
    of degree <= 3; where a family rule, ``f.sup_points(g, hi)`` or else
    ``g.sup_points(f, hi)``, names the points of the max: piecewise-linear pairs, a
    piecewise-linear cost against a polynomial of degree <= 3 (its critical points in
    each piece), same-shape BPR and MonomialLog pairs, a MonomialLog with beta >= 1 against
    a cost linear on pieces of [0, hi] (piecewise-linear, or a polynomial of degree <= 1:
    the knots and where its convex tau' crosses a piece's slope), and two wrappers of one
    factor and one anchor, whatever their classes, around equal inners or inners that one of
    these rules serves; and where one side is flat on [0, hi] (Lipschitz bound 0), at 0 and
    hi.  Other pairs take the GRID_N-point grid with a Lipschitz error bound: a MonomialLog
    against a curved polynomial, a BPR with beta > 1 or a MonomialLog of another shape, one
    with beta < 1, and wrappers of different factors or anchors.  The result does not depend
    on the order of f and g, bit for bit: the rules' points do not, and the polynomial one
    fixes the sign of f - g.
    """
    if not 0.0 <= hi < math.inf:  # NaN fails both
        raise ValueError(f"hi must be finite and >= 0, got {hi}")
    if f == g:
        return 0.0, 0.0
    if hi == 0:
        return float(abs(f(0.0) - g(0.0))), 0.0

    d = _poly_difference(f, g)
    if d is not None:
        return _poly_sup(d, hi), 0.0

    points = f.sup_points(g, hi)
    if points is None:
        points = g.sup_points(f, hi)
    if points is None:
        lf = f.lipschitz_on(hi)
        lg = g.lipschitz_on(hi) if lf > 0.0 else 0.0
        if lg > 0.0:
            xs = _grid(hi)
            est = float(np.max(np.abs(f(xs) - g(xs))))
            return est, float((lf + lg) * hi / (2.0 * (GRID_N - 1)))
        points = (0.0, hi)  # one side is flat and the other non-decreasing: |f - g| is monotone
    xs = np.asarray(points, dtype=float)
    return float(np.max(np.abs(f(xs) - g(xs)))), 0.0
