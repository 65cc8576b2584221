"""Arithmetic expression trees with exact and interval evaluation.

An expression is an immutable tree over named variables with the node kinds
constant, variable, neg, add, sub, mul, div, integer power, and binary
min/max.  A recursive walker evaluates a tree over floats (``evaluate``) and
over numpy arrays (``evaluate_array``); it takes its domain's value of a
constant, division, power and min and max as arguments, and every other
operation is a Python operator.  Over intervals, ``interval_eval`` (the
natural interval extension) runs the tree's generated interval kernel, the
package's one interval evaluator.  The grid oracle runs one generated kernel
per grid (``gsiplab.arrays``), over an open grid, and lets broadcasting
build the full grid.  Arrays are raised to a power with ``np.float_power``,
whose float64 loop calls C's ``pow`` per element, as Python's ``**`` does:
numpy's ``**`` may run SIMD code that differs from ``pow`` in the last bit,
which would tie the oracle's values to the CPU.  ``evaluate_array`` imports
numpy at its first call, and the grid oracle imports ``gsiplab.arrays``
when called, so the rest of the package loads, and compiles, without
either.

``compile_expr`` gives a tree's point and interval kernels over a variable
order, and ``compile_gradient`` its interval gradient kernel: generated
Python functions of straight-line code, which share no code with the walker
and whose results are the walk's bit for bit (up to the sign bit of a NaN).
They are kept on the tree, keyed by the variable order (``immutable.kept``),
so a tree compiles each once however many solves use it.
``gsiplab.kernels`` generates them, and is imported at the first kernel
that is not kept yet, so ``gsiplab list`` and ``fmt``, which evaluate no
tree, load and compile none of it.
"""
from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Mapping, Sequence

from .immutable import frozen, kept

if TYPE_CHECKING:
    import numpy as np


class EvaluationError(ValueError):
    """Unknown variable or division by zero while evaluating an expression."""


class EmptyIntervalError(ValueError):
    """An interval whose bounds are out of order or NaN, as inf - inf or
    inf * 0 in interval arithmetic produce."""


@frozen
class Interval:
    """Closed interval [lo, hi] of reals: a bracket, with no arithmetic (the
    interval kernels compute on bare ``(lo, hi)`` pairs)."""

    lo: float
    hi: float

    def __post_init__(self):
        if not self.lo <= self.hi:
            raise EmptyIntervalError(f"empty interval [{self.lo}, {self.hi}]")

    @property
    def width(self) -> float:
        return self.hi - self.lo

    def contains(self, x: float, slack: float = 0.0) -> bool:
        return self.lo - slack <= x <= self.hi + slack

    def encloses(self, other: "Interval", slack: float = 0.0) -> bool:
        return self.lo - slack <= other.lo and other.hi <= self.hi + slack


_ARITIES = {
    "const": 0, "var": 0, "neg": 1, "add": 2, "sub": 2,
    "mul": 2, "div": 2, "pow": 1, "min": 2, "max": 2,
}


@frozen
class Expr:
    """Immutable expression node.  Build via the constructor helpers below."""

    kind: str
    value: float = 0.0
    name: str = ""
    exponent: int = 0
    children: tuple["Expr", ...] = ()

    def __post_init__(self):
        if self.kind not in _ARITIES:
            raise ValueError(f"unknown expression kind {self.kind!r}")
        if len(self.children) != _ARITIES[self.kind]:
            raise ValueError(f"{self.kind} expects {_ARITIES[self.kind]} children, "
                             f"got {len(self.children)}")
        if self.kind == "pow" and (not isinstance(self.exponent, int) or self.exponent < 0):
            raise ValueError("integer power exponent must be a nonnegative integer")

    # -- convenience operators ------------------------------------------
    def __add__(self, other): return add(self, as_expr(other))
    def __radd__(self, other): return add(as_expr(other), self)
    def __sub__(self, other): return sub(self, as_expr(other))
    def __rsub__(self, other): return sub(as_expr(other), self)
    def __mul__(self, other): return mul(self, as_expr(other))
    def __rmul__(self, other): return mul(as_expr(other), self)
    def __truediv__(self, other): return div(self, as_expr(other))
    def __rtruediv__(self, other): return div(as_expr(other), self)
    def __neg__(self): return neg(self)
    def __pow__(self, n): return ipow(self, n)

    def variables(self) -> frozenset:
        if self.kind == "var":
            return frozenset((self.name,))
        out = frozenset()
        for c in self.children:
            out |= c.variables()
        return out


def as_expr(x) -> Expr:
    if isinstance(x, Expr):
        return x
    if isinstance(x, (int, float)):
        return const(float(x))
    raise TypeError(f"cannot coerce {type(x).__name__} to Expr")


def const(v: float) -> Expr:
    return Expr("const", value=float(v))


def var(name: str) -> Expr:
    if not name:
        raise ValueError("variable name must be nonempty")
    return Expr("var", name=name)


def neg(e: Expr) -> Expr:
    # fold so that canonical trees never contain neg(const)
    if e.kind == "const":
        return const(-e.value)
    return Expr("neg", children=(e,))


def add(a: Expr, b: Expr) -> Expr:
    return Expr("add", children=(a, b))


def sub(a: Expr, b: Expr) -> Expr:
    return Expr("sub", children=(a, b))


def mul(a: Expr, b: Expr) -> Expr:
    return Expr("mul", children=(a, b))


def div(a: Expr, b: Expr) -> Expr:
    return Expr("div", children=(a, b))


def ipow(base: Expr, n: int) -> Expr:
    """``base`` to the power ``n``; ``base`` itself for ``n == 1``, as ``u **
    1`` is ``u`` bit for bit over floats, intervals and arrays, so that no
    kernel spends a line on it."""
    if not isinstance(n, int) or n < 0:
        raise ValueError("exponent must be a nonnegative integer")
    if n == 1:
        return base
    return Expr("pow", exponent=n, children=(base,))


def emin(a: Expr, b: Expr) -> Expr:
    return Expr("min", children=(a, b))


def emax(a: Expr, b: Expr) -> Expr:
    return Expr("max", children=(a, b))


def _walker(constant: Callable, divide: Callable, power: Callable,
            minimum: Callable, maximum: Callable) -> Callable:
    """The one recursive evaluator, over one domain of values: floats for
    ``evaluate`` and numpy arrays for ``evaluate_array``; the tests walk
    intervals with it, as the interval kernels' reference, and arrays under
    the grid kernel's rule, as its reference.

    neg, add, sub and mul are the domain's Python operators; the arguments
    supply the rest: the value of a constant, division (with its zero
    check), integer power, and min and max.  Children are evaluated left to
    right before their parent, so a domain sees its operations in the same
    order as every other.
    """
    def walk(e: Expr, env: Mapping):
        k = e.kind
        if k == "const":
            return constant(e.value)
        if k == "var":
            try:
                return env[e.name]
            except KeyError:
                raise EvaluationError(f"unknown variable {e.name!r}") from None
        if k == "neg":
            return -walk(e.children[0], env)
        if k == "pow":
            return power(walk(e.children[0], env), e.exponent)
        a = walk(e.children[0], env)
        b = walk(e.children[1], env)
        if k == "add":
            return a + b
        if k == "sub":
            return a - b
        if k == "mul":
            return a * b
        if k == "div":
            return divide(a, b)
        if k == "min":
            return minimum(a, b)
        return maximum(a, b)
    return walk


def _same(v):
    return v


def _float_div(a: float, b: float) -> float:
    if b == 0.0:
        raise EvaluationError("division by zero")
    return a / b


_evaluate = _walker(_same, _float_div, pow, min, max)


def evaluate(e: Expr, point: Mapping[str, float]) -> float:
    """Exact recursive evaluation at a point (name -> value)."""
    return _evaluate(e, point)


_evaluate_array = None   # the walk over arrays, made at the first call


def evaluate_array(e: Expr, point: Mapping[str, np.ndarray]):
    """Vectorized evaluation over numpy arrays (broadcasting applies): the
    walk over arrays, with ``np.float_power``, ``np.minimum`` and
    ``np.maximum``, and a division that raises ``EvaluationError`` where any
    divisor is zero.  It imports numpy at its first call.  Its values are
    fresh arrays, except a variable's, which is the caller's own."""
    global _evaluate_array
    if _evaluate_array is None:
        import numpy as np

        def divide(a, b):
            if np.any(b == 0.0):
                raise EvaluationError("division by zero")
            return a / b
        _evaluate_array = _walker(_same, divide, np.float_power, np.minimum, np.maximum)
    return _evaluate_array(e, point)


def interval_eval(e: Expr, box) -> Interval:
    """Natural interval extension over a box, by ``e``'s interval kernel
    (``compile_expr``) over the box's names.

    ``box`` is a ``BoxDomain``, whose names and bounds the kernel takes as
    they are, or a mapping name -> Interval, whose names it takes in the
    mapping's order.
    """
    if isinstance(box, Mapping):
        names = tuple(box)
        bounds = tuple((v.lo, v.hi) for v in box.values())
    else:
        names, bounds = box.names, box.bounds
    return Interval(*compile_expr(e, names)[1](bounds))


def substitute(e: Expr, bindings: Mapping[str, float]) -> Expr:
    """Replace variables by constants and fold constant subtrees."""
    k = e.kind
    if k == "const":
        return e
    if k == "var":
        if e.name in bindings:
            return const(bindings[e.name])
        return e
    children = tuple(substitute(c, bindings) for c in e.children)
    node = Expr(k, value=e.value, name=e.name, exponent=e.exponent, children=children)
    if all(c.kind == "const" for c in children):
        if k == "div" and children[1].value == 0.0:
            return node  # leave the error to evaluation time
        return const(evaluate(node, {}))
    return node


# -- kept kernels -------------------------------------------------------------

def compile_expr(e: Expr, names: Sequence[str]) -> tuple[Callable, Callable]:
    """Compile ``e`` into a point kernel and an interval kernel over ``names``.

    The point kernel maps a tuple of floats (one per name) to a float, like
    ``evaluate``.  The interval kernel maps a tuple of ``(lo, hi)`` pairs to
    the ``(lo, hi)`` pair of the natural interval extension, without
    building ``Interval`` objects (``interval_eval`` wraps its pair in one).
    Each kernel is one generated function of straight-line code
    (``gsiplab.kernels``).  A variable outside ``names`` compiles to a line
    that raises ``EvaluationError`` when it is reached, as ``evaluate``
    would.

    The kernels are kept on ``e``, keyed by the order of ``names``
    (``immutable.kept``): compiling the same tree over the same names again
    returns them without compiling.
    """
    return kept(e, _KERNELS, ("expr", tuple(names)), _point_and_interval)


def compile_gradient(e: Expr, names: Sequence[str],
                     bound: Sequence[str] = ()) -> Callable:
    """Compile ``e`` into a forward-mode interval gradient kernel over ``names``.

    The kernel maps a tuple of ``(lo, hi)`` pairs, one per name of ``names``
    and then one per name of ``bound``, to ``(value, gradient)``: ``value``
    is the interval kernel's pair over ``(*names, *bound)``, bit for bit, and
    ``gradient`` holds one pair per name of ``names`` (none for ``bound``,
    the bound values a solver never bisects), enclosing the partial
    derivative of ``e`` along that name at every point of the box where
    ``e`` is differentiable.  At a kink of ``min``/``max`` it encloses both
    sides' derivatives: the kernel returns one child's gradient when the
    children's value intervals do not overlap, and the hull of both
    otherwise.  Its value lines are the interval kernel's, so it raises
    exactly where the interval kernel raises; a NaN in a derivative, as
    inf * 0 or inf - inf produce, widens it to (-inf, inf) instead.

    A node's derivative along a name is absent where its subtree reads no
    variable of that name (a constant, a zeroth power, another name, a bound
    value): it is exactly 0 and takes no line.  An operation on an absent
    derivative is absent (``neg``, ``pow``) or takes its other side's
    terms: a sum passes the live side through, a difference negates it on
    the right, a product keeps ``c da`` or ``a dc``, a quotient ``da / c``
    where ``dc`` is absent, and ``min``/``max`` is absent only where both
    sides are, an absent side being 0 in the rule above.  So a derivative
    absent along a name is ``(0.0, 0.0)`` in the result, never widened by
    an infinite factor.  It is kept on ``e`` as the kernels of
    ``compile_expr`` are.
    """
    return kept(e, _KERNELS, (("gradient", len(names)), (*names, *bound)), _gradient)


# the attribute of a tree that holds its compiled kernels, keyed by their
# kind and names
_KERNELS = "_kernels"


# the generator is imported at the first kernel that is not kept yet, so a
# command that compiles none loads none of it
def _point_and_interval(e: Expr, key) -> tuple[Callable, Callable]:
    from . import kernels
    return kernels._point_and_interval(e, key)


def _gradient(e: Expr, key) -> Callable:
    from . import kernels
    return kernels._gradient(e, key)
