"""Arithmetic expression trees with exact and interval evaluation.

An expression is an immutable tree over named variables with the node kinds
constant, variable, neg, add, sub, mul, div, integer power, and binary
min/max.  One recursive walker evaluates a tree over three domains: floats
(``evaluate``), numpy arrays (``evaluate_array``, used by the grid oracle,
which passes an open grid and lets broadcasting build the full grid) and
intervals (``interval_eval``, the natural interval extension).  The domains
differ only in the value of a constant, in division, in power and in min and
max; every other operation is a Python operator.  Arrays are raised to a power
with ``np.float_power``, whose float64 loop calls C's ``pow`` per element, as
Python's ``**`` does: numpy's ``**`` may run SIMD code that differs from
``pow`` in the last bit, which would tie the oracle's values to the CPU.  Only
``evaluate_array`` needs numpy, and it imports numpy when called, so the rest
of the package loads without it.

``compile_expr`` turns a tree into two closure kernels over one variable
order, for callers that evaluate the same expression many times (the
branch-and-bound solver compiles its objective and constraints once per
solve).  The kernels do the float operations of ``evaluate`` and
``interval_eval`` in the same order and raise the same exceptions, so their
results are bit-identical; they only drop the per-node kind dispatch, the
name lookups and the ``Interval`` allocations.  They share no code with the
walker, which the tests use as their reference.  ``compile_gradient`` adds a
third kernel from the same compiler: a forward-mode interval gradient, whose
values are the interval kernel's.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from operator import itemgetter
from typing import TYPE_CHECKING, Callable, Mapping, Sequence

if TYPE_CHECKING:
    import numpy as np


class EvaluationError(ValueError):
    """Unknown variable or division by zero while evaluating an expression."""


class EmptyIntervalError(ValueError):
    """An interval whose bounds are out of order or NaN, as inf - inf or
    inf * 0 in interval arithmetic produce."""


@dataclass(frozen=True)
class Interval:
    """Closed interval [lo, hi] of reals."""

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

    def __add__(self, other: "Interval") -> "Interval":
        return Interval(self.lo + other.lo, self.hi + other.hi)

    def __sub__(self, other: "Interval") -> "Interval":
        return Interval(self.lo - other.hi, self.hi - other.lo)

    def __neg__(self) -> "Interval":
        return Interval(-self.hi, -self.lo)

    def __mul__(self, other: "Interval") -> "Interval":
        p = (self.lo * other.lo, self.lo * other.hi,
             self.hi * other.lo, self.hi * other.hi)
        return Interval(min(p), max(p))

    def divide(self, other: "Interval") -> "Interval":
        if other.lo <= 0.0 <= other.hi:
            raise EvaluationError("division by an interval containing zero")
        return self * Interval(1.0 / other.hi, 1.0 / other.lo)

    def __pow__(self, n: int) -> "Interval":
        if n == 0:
            return Interval(1.0, 1.0)
        if n % 2 == 1:
            return Interval(self.lo ** n, self.hi ** n)
        # even power: tighten to [0, max^n] when the interval straddles zero
        hi_abs = max(abs(self.lo), abs(self.hi))
        if self.lo <= 0.0 <= self.hi:
            return Interval(0.0, hi_abs ** n)
        lo_abs = min(abs(self.lo), abs(self.hi))
        return Interval(lo_abs ** n, hi_abs ** n)

    def min_with(self, other: "Interval") -> "Interval":
        return Interval(min(self.lo, other.lo), min(self.hi, other.hi))

    def max_with(self, other: "Interval") -> "Interval":
        return Interval(max(self.lo, other.lo), max(self.hi, other.hi))


_ARITIES = {
    "const": 0, "var": 0, "neg": 1, "add": 2, "sub": 2,
    "mul": 2, "div": 2, "pow": 1, "min": 2, "max": 2,
}


@dataclass(frozen=True)
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
    if not isinstance(n, int) or n < 0:
        raise ValueError("exponent must be a nonnegative integer")
    return Expr("pow", exponent=n, children=(base,))


def emin(a: Expr, b: Expr) -> Expr:
    return Expr("min", children=(a, b))


def emax(a: Expr, b: Expr) -> Expr:
    return Expr("max", children=(a, b))


def _walker(constant: Callable, divide: Callable, power: Callable,
            minimum: Callable, maximum: Callable) -> Callable:
    """The one recursive evaluator, over one domain of values.

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
_interval_eval = _walker(lambda v: Interval(v, v), Interval.divide, pow,
                         Interval.min_with, Interval.max_with)


def evaluate(e: Expr, point: Mapping[str, float]) -> float:
    """Exact recursive evaluation at a point (name -> value)."""
    return _evaluate(e, point)


def evaluate_array(e: Expr, point: Mapping[str, np.ndarray]):
    """Vectorized evaluation over numpy arrays (broadcasting applies)."""
    import numpy as np

    def div(a, b):
        if np.any(b == 0.0):
            raise EvaluationError("division by zero")
        return a / b
    return _walker(_same, div, np.float_power, np.minimum, np.maximum)(e, point)


def interval_eval(e: Expr, box) -> Interval:
    """Natural interval extension over a box.

    `box` is either a mapping name -> Interval or an object exposing
    ``intervals()`` returning such a mapping (e.g. BoxDomain).
    """
    if not isinstance(box, Mapping):
        box = box.intervals()
    return _interval_eval(e, box)


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


# -- compiled kernels ---------------------------------------------------------

def compile_expr(e: Expr, names: Sequence[str]) -> tuple[Callable, Callable]:
    """Compile ``e`` into a point kernel and an interval kernel over ``names``.

    The point kernel maps a tuple of floats (one per name) to a float, like
    ``evaluate``.  The interval kernel maps a tuple of ``(lo, hi)`` pairs to
    a ``(lo, hi)`` pair, like ``interval_eval``, without building
    ``Interval`` objects.  A variable outside ``names`` compiles to a kernel
    that raises ``EvaluationError`` when it is reached, as ``evaluate`` would.
    """
    index = {n: i for i, n in enumerate(names)}
    return (_compile(e, index, {}, _point_node),
            _compile(e, index, {}, _interval_node))


def compile_gradient(e: Expr, names: Sequence[str]) -> Callable:
    """Compile ``e`` into a forward-mode interval gradient kernel over ``names``.

    The kernel maps a tuple of ``(lo, hi)`` pairs to ``(value, gradient)``:
    ``value`` is the interval kernel's pair, bit for bit, and ``gradient``
    holds one pair per name, enclosing the partial derivative of ``e`` along
    that name at every point of the box where ``e`` is differentiable.  At a
    kink of ``min``/``max`` it encloses both sides' derivatives: the kernel
    returns one child's gradient when the children's value intervals do not
    overlap, and the hull of both otherwise.  Each node's value comes from
    its interval kernel, so the kernel raises exactly where the interval
    kernel raises; a NaN in a derivative, as inf * 0 or inf - inf produce,
    widens it to (-inf, inf) instead.
    """
    return _compile(e, {n: i for i, n in enumerate(names)}, {}, _gradient_node)


def _compile(e: Expr, index, memo, node):
    # shared subtrees compile once.  The memo is keyed by id because Expr
    # hashes its whole subtree; ids are not reused while the tree compiles.
    f = memo.get(id(e))
    if f is None:
        f = node(e, index, lambda c: _compile(c, index, memo, node))
        memo[id(e)] = f
    return f


def _variable(e: Expr, index):
    """A variable's point and interval kernel: its entry of the tuple."""
    i = index.get(e.name)
    return _unknown(e.name) if i is None else itemgetter(i)


def _unknown(name: str):
    def kernel(_):
        raise EvaluationError(f"unknown variable {name!r}")
    return kernel


def _empty(lo, hi):
    raise EmptyIntervalError(f"empty interval [{lo}, {hi}]")


def _point_node(e: Expr, index, sub):
    k = e.kind
    if k == "var":
        return _variable(e, index)
    if k == "const":
        v = e.value
        return lambda x: v
    if k == "neg":
        f = sub(e.children[0])
        return lambda x: -f(x)
    if k == "pow":
        n = e.exponent
        c = e.children[0]
        if c.kind == "var" and c.name in index:
            i = index[c.name]
            return lambda x: x[i] ** n
        f = sub(c)
        return lambda x: f(x) ** n
    a, b = e.children
    fa, fb = sub(a), sub(b)
    if k == "add":
        if b.kind == "const":
            cb = b.value
            return lambda x: fa(x) + cb
        return lambda x: fa(x) + fb(x)
    if k == "sub":
        if b.kind == "const":
            cb = b.value
            return lambda x: fa(x) - cb
        return lambda x: fa(x) - fb(x)
    if k == "mul":
        if a.kind == "const":
            ca = a.value
            return lambda x: ca * fb(x)
        return lambda x: fa(x) * fb(x)
    if k == "div":
        def div_(x):
            u = fa(x)
            v = fb(x)
            if v == 0.0:
                raise EvaluationError("division by zero")
            return u / v
        return div_
    # min(u, v) returns u unless v < u; max(u, v) returns u unless v > u
    if k == "min":
        def min_(x):
            u = fa(x)
            v = fb(x)
            return v if v < u else u
        return min_

    def max_(x):
        u = fa(x)
        v = fb(x)
        return v if v > u else u
    return max_


def _mul_pairs(al, ah, bl, bh):
    """Interval.__mul__ on bare floats: min and max of the four products,
    scanned in the same order as the builtins, so ties and NaNs resolve
    identically."""
    p = al * bl
    lo = hi = p
    p = al * bh
    if p < lo:
        lo = p
    if p > hi:
        hi = p
    p = ah * bl
    if p < lo:
        lo = p
    if p > hi:
        hi = p
    p = ah * bh
    if p < lo:
        lo = p
    if p > hi:
        hi = p
    if not lo <= hi:
        _empty(lo, hi)
    return lo, hi


# Every pair a kernel returns is a valid interval (lo <= hi, no NaN), the
# invariant Interval.__post_init__ enforces.  neg, min and max map valid
# intervals to valid ones; every other node checks its result wherever the
# Interval constructor would (add, sub, mul and div can meet inf - inf or
# inf * 0).
def _interval_node(e: Expr, index, sub):
    k = e.kind
    if k == "var":
        return _variable(e, index)
    if k == "const":
        v = e.value
        if not v <= v:  # NaN
            return lambda b: _empty(v, v)
        pair = (v, v)
        return lambda b: pair
    if k == "neg":
        f = sub(e.children[0])

        def neg_(b):
            lo, hi = f(b)
            return -hi, -lo
        return neg_
    if k == "pow":
        return _interval_pow(e.exponent, sub(e.children[0]))
    a, c = e.children
    fa, fc = sub(a), sub(c)
    if k == "add":
        def add_(b):
            al, ah = fa(b)
            cl, ch = fc(b)
            lo = al + cl
            hi = ah + ch
            if not lo <= hi:
                _empty(lo, hi)
            return lo, hi
        return add_
    if k == "sub":
        def sub_(b):
            al, ah = fa(b)
            cl, ch = fc(b)
            lo = al - ch
            hi = ah - cl
            if not lo <= hi:
                _empty(lo, hi)
            return lo, hi
        return sub_
    if k == "mul":
        if a.kind == "const" and a.value <= a.value:
            # [v, v] * [cl, ch]: the third and fourth products repeat the
            # first two, so they can change neither the min nor the max (a
            # NaN constant takes the generic path, where its kernel raises)
            v = a.value

            def scale_(b):
                cl, ch = fc(b)
                lo = hi = v * cl
                p = v * ch
                if p < lo:
                    lo = p
                if p > hi:
                    hi = p
                if not lo <= hi:
                    _empty(lo, hi)
                return lo, hi
            return scale_

        def mul_(b):
            al, ah = fa(b)
            cl, ch = fc(b)
            return _mul_pairs(al, ah, cl, ch)
        return mul_
    if k == "div":
        def div_(b):
            al, ah = fa(b)
            cl, ch = fc(b)
            if cl <= 0.0 <= ch:
                raise EvaluationError("division by an interval containing zero")
            return _mul_pairs(al, ah, 1.0 / ch, 1.0 / cl)
        return div_
    if k == "min":
        def min_(b):
            al, ah = fa(b)
            cl, ch = fc(b)
            return (cl if cl < al else al), (ch if ch < ah else ah)
        return min_

    def max_(b):
        al, ah = fa(b)
        cl, ch = fc(b)
        return (cl if cl > al else al), (ch if ch > ah else ah)
    return max_


def _interval_pow(n: int, f):
    """The kernel of ``f(b) ** n``."""
    if n == 0:
        def pow0(b):
            f(b)
            return 1.0, 1.0
        return pow0
    if n % 2 == 1:
        def odd(b):
            lo, hi = f(b)
            lo = lo ** n
            hi = hi ** n
            if not lo <= hi:
                _empty(lo, hi)
            return lo, hi
        return odd

    def even(b):
        lo, hi = f(b)
        if lo <= 0.0 <= hi:
            # max(abs(lo), abs(hi)) keeps abs(lo) unless abs(hi) is larger
            return 0.0, (hi if hi > -lo else -lo) ** n
        if lo > 0.0:
            lo = lo ** n
            hi = hi ** n
        else:
            lo, hi = (-hi) ** n, (-lo) ** n
        if not lo <= hi:
            _empty(lo, hi)
        return lo, hi
    return even


# -- the gradient kernel --------------------------------------------------------
# A node's value is its interval kernel applied to its children's values, so it
# is the interval kernel's pair and raises where that kernel raises.  The
# derivative arithmetic below never raises: a NaN, from inf * 0 or inf - inf,
# means the sign is unknown, so it widens to the entire line.

_ENTIRE = (-math.inf, math.inf)


def _dadd(p, q):
    lo = p[0] + q[0]
    hi = p[1] + q[1]
    return (lo, hi) if lo <= hi else _ENTIRE


def _dneg(p):
    return -p[1], -p[0]


def _dmul(p, q):
    a, b = p
    c, d = q
    w, x, y, z = a * c, a * d, b * c, b * d
    s = w + x + y + z
    if s != s:  # a NaN product, or products of both infinite signs
        return _ENTIRE
    return min(w, x, y, z), max(w, x, y, z)


def _hull(p, q):
    return (p[0] if p[0] < q[0] else q[0]), (p[1] if p[1] > q[1] else q[1])


def _derivative(e: Expr):
    """The rule mapping a node's value and its children's (value, gradient)
    pairs to the node's gradient."""
    k = e.kind
    if k == "neg":
        return lambda v, a: tuple(map(_dneg, a[1]))
    if k == "add":
        return lambda v, a, c: tuple(map(_dadd, a[1], c[1]))
    if k == "sub":
        return lambda v, a, c: tuple(_dadd(p, _dneg(q)) for p, q in zip(a[1], c[1]))
    if k == "mul":
        # d(a c) = c da + a dc
        return lambda v, a, c: tuple(_dadd(_dmul(c[0], p), _dmul(a[0], q))
                                     for p, q in zip(a[1], c[1]))
    if k == "div":
        # d(a / c) = (da - (a / c) dc) / c; the value check excluded 0 from c
        def div_(v, a, c):
            inverse = (1.0 / c[0][1], 1.0 / c[0][0])
            return tuple(_dmul(_dadd(p, _dneg(_dmul(v, q))), inverse)
                         for p, q in zip(a[1], c[1]))
        return div_
    if k == "pow":
        # d(u^n) = n u^(n-1) du; u^(n-1) cannot overflow where u^n did not
        n = e.exponent
        if n == 0:
            return lambda v, a: tuple((0.0, 0.0) for _ in a[1])
        power = _interval_pow(n - 1, _same)

        def pow_(v, a):
            lo, hi = power(a[0])
            factor = (n * lo, n * hi)
            return tuple(_dmul(factor, p) for p in a[1])
        return pow_
    if k == "min":
        def min_(v, a, c):
            if a[0][1] < c[0][0]:
                return a[1]
            if c[0][1] < a[0][0]:
                return c[1]
            return tuple(map(_hull, a[1], c[1]))
        return min_

    def max_(v, a, c):
        if a[0][0] > c[0][1]:
            return a[1]
        if c[0][0] > a[0][1]:
            return c[1]
        return tuple(map(_hull, a[1], c[1]))
    return max_


def _gradient_node(e: Expr, index, sub):
    k = e.kind
    if k == "var":
        i = index.get(e.name)
        if i is None:
            return _unknown(e.name)
        unit = tuple((1.0, 1.0) if j == i else (0.0, 0.0) for j in range(len(index)))
        return lambda b: (b[i], unit)
    # the node's interval kernel, over the tuple of its children's values
    slots = {id(c): itemgetter(j) for j, c in enumerate(e.children)}
    value = _interval_node(e, index, lambda c: slots[id(c)])
    if k == "const":
        zero = ((0.0, 0.0),) * len(index)
        return lambda b: (value(()), zero)
    rule = _derivative(e)
    if len(e.children) == 1:
        fa = sub(e.children[0])

        def unary(b):
            a = fa(b)
            v = value((a[0],))
            return v, rule(v, a)
        return unary
    fa, fc = map(sub, e.children)

    def binary(b):
        a = fa(b)
        c = fc(b)
        v = value((a[0], c[0]))
        return v, rule(v, a, c)
    return binary
