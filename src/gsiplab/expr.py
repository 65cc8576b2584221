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

``compile_expr`` turns a tree into two kernels over one variable order, for
callers that evaluate the same expression many times: a point kernel and an
interval kernel, each one generated Python function of straight-line code,
compiled once with ``compile``.  The kernels are kept on the tree, keyed by
the variable order, so a tree that lives for a whole run compiles once
however many solves use it (``gsip`` builds one tree per problem function,
and its subproblems pass the outer point as extra kernel arguments).  The
kernels do the float operations of ``evaluate`` and ``interval_eval`` in
the same order and raise the same exceptions, so their results are
bit-identical (up to the sign bit of a NaN: when both operands of a float
``+`` or ``*`` are NaNs, CPython 3.11 returns one or the other depending on
whether it has specialized the instruction yet, in the walker too); they
only drop the per-node calls and kind dispatch, the name lookups and the
``Interval`` allocations, and compute a shared subtree once.  They share
no code with the walker, which the tests use as their reference.  Nothing
from the tree enters a kernel's source text: constants, exponents and the
names of unknown variables reach it through its namespace, and variables
are indices into its argument tuple.  ``compile_gradient`` generates a
third kernel the same way: a forward-mode interval gradient, whose value
lines are the interval kernel's and whose derivative lines are straight-line
code too, each node's rule written out coordinate by coordinate, along the
coordinates of a box only, not along the bound values that follow them.  An
integer power is written out for its exponent, and so is its derivative's
factor, so a kernel calls nothing but the error raisers.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
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

    def __getstate__(self):
        # the kernels compile_expr keeps on the tree are generated functions,
        # not state: copies and pickles leave them out
        state = dict(self.__dict__)
        state.pop(_KERNELS, None)
        return state

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


# -- generated kernels --------------------------------------------------------

def compile_expr(e: Expr, names: Sequence[str]) -> tuple[Callable, Callable]:
    """Compile ``e`` into a point kernel and an interval kernel over ``names``.

    The point kernel maps a tuple of floats (one per name) to a float, like
    ``evaluate``.  The interval kernel maps a tuple of ``(lo, hi)`` pairs to
    a ``(lo, hi)`` pair, like ``interval_eval``, without building
    ``Interval`` objects.  Each kernel is one generated function of
    straight-line code (``_generate``).  A variable outside ``names``
    compiles to a line that raises ``EvaluationError`` when it is reached,
    as ``evaluate`` would.

    The kernels are kept on ``e``, keyed by the order of ``names``: compiling
    the same tree over the same names again returns them without compiling.
    The tree's fields do not change, so equality, hashing and ``repr``
    ignore them, and copies and pickles leave them out.
    """
    return _cached(e, names, "expr", lambda index: (
        _generate(e, index, _POINT), _generate(e, index, _INTERVAL)))


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
    inf * 0 or inf - inf produce, widens it to (-inf, inf) instead.  It is
    kept on ``e`` as the kernels of ``compile_expr`` are.
    """
    dims = len(names)
    return _cached(e, (*names, *bound), (_GRADIENT, dims),
                   lambda index: _generate(e, index, _GRADIENT, dims))


_KERNELS = "_kernels"  # the attribute of a tree that holds its compiled kernels


def _cached(e: Expr, names: Sequence[str], kind, build: Callable):
    """The kernels of ``kind`` of ``e`` over ``names``, built from the name
    index at the first request and kept on ``e`` (a frozen dataclass: the
    attribute goes straight into its ``__dict__``, outside its fields)."""
    kernels = e.__dict__.setdefault(_KERNELS, {})
    key = (kind, tuple(names))
    k = kernels.get(key)
    if k is None:
        k = kernels[key] = build({n: i for i, n in enumerate(key[1])})
    return k


_POINT, _INTERVAL, _GRADIENT = "point", "interval", "gradient"


def _generate(e: Expr, index: Mapping[str, int], kind: str,
              dims: int = 0) -> Callable:
    """The kernel of ``kind`` of ``e``, written out as the source of one
    Python function and compiled once; a gradient kernel differentiates
    along the first ``dims`` names of ``index``.

    The body is straight-line code: one assignment (a few for an interval
    product) per node, children before their parent and left to right, as
    the walker evaluates them, and each shared subtree once.  The source
    holds only names the emitter makes up and its own literals: every value
    taken from the tree (a constant, an exponent, the error of an unknown
    variable) reaches the function through its namespace, and a variable is
    an index into the argument tuple.
    """
    emitter = _Emitter(index, kind, dims)
    out = emitter.node(e)
    if kind == _GRADIENT:   # a tuple of pairs
        out = (*out[:2], "".join(f"({lo}, {hi}), " for lo, hi in out[2]))
    result = {_POINT: "{0}", _INTERVAL: "{0}, {1}", _GRADIENT: "({0}, {1}), ({2})"}
    source = "\n    ".join(["def kernel(arg):", *emitter.lines,
                            "return " + result[kind].format(*out)])
    exec(compile(source, f"<{kind} kernel>", "exec"), emitter.namespace)
    return emitter.namespace["kernel"]


def _empty(lo, hi):
    raise EmptyIntervalError(f"empty interval [{lo}, {hi}]")


def _division_by_zero():
    raise EvaluationError("division by zero")


def _division_by_straddle():
    raise EvaluationError("division by an interval containing zero")


def _unknown(name: str):
    def raise_unknown():
        raise EvaluationError(f"unknown variable {name!r}")
    return raise_unknown


_BINARY = {"add": "+", "sub": "-", "mul": "*"}


class _Emitter:
    """The body of one kernel, written node by node.

    ``node`` returns a node's operands, the names its parent reads: a
    point kernel's value; an interval kernel's ``lo`` and ``hi``; for the
    gradient kernel those two and the gradient.  A constant's operands are
    its namespace name, so it takes no line.
    """

    def __init__(self, index: Mapping[str, int], kind: str, dims: int = 0):
        self.index = index
        self.kind = kind
        self.dims = range(dims)   # the coordinates a gradient is along
        self.lines: list[str] = []
        self.namespace = {"_empty": _empty,
                          "_entire": (-math.inf, math.inf),
                          "_division_by_zero": _division_by_zero,
                          "_division_by_straddle": _division_by_straddle}
        self.memo: dict[int, tuple[str, ...]] = {}

    def bind(self, value) -> str:
        """A new name in the kernel's namespace, bound to ``value``."""
        name = f"_k{len(self.namespace)}"
        self.namespace[name] = value
        return name

    def node(self, e: Expr) -> tuple[str, ...]:
        # the memo is keyed by id because Expr hashes its whole subtree; ids
        # are not reused while the tree is alive
        out = self.memo.get(id(e))
        if out is None:
            kids = [self.node(c) for c in e.children]
            n = len(self.memo)
            if self.kind == _POINT:
                out = self.point(e, kids, n)
            else:
                out = self.interval(e, kids, n)
                if self.kind == _GRADIENT:
                    out += (self.gradient(e, kids, out, n),)
            self.memo[id(e)] = out
        return out

    def variable(self, e: Expr, target: str) -> None:
        """``target = `` a variable's entry of the argument tuple."""
        i = self.index.get(e.name)
        self.lines.append(f"{target} = arg[{i}]" if i is not None else
                          f"{target} = {self.bind(_unknown(e.name))}()")

    def point(self, e: Expr, kids, n: int) -> tuple[str]:
        """Python's float operations, as ``evaluate`` applies them."""
        k = e.kind
        if k == "const":
            return (self.bind(e.value),)
        v = f"v{n}"
        emit = self.lines.append
        if k == "var":
            self.variable(e, v)
            return (v,)
        a = kids[0][0]
        if k == "neg":
            emit(f"{v} = -{a}")
            return (v,)
        if k == "pow":
            emit(f"{v} = {a} ** {self.bind(e.exponent)}")
            return (v,)
        c = kids[1][0]
        if k in _BINARY:
            emit(f"{v} = {a} {_BINARY[k]} {c}")
        elif k == "div":
            emit(f"if {c} == 0.0: _division_by_zero()")
            emit(f"{v} = {a} / {c}")
        # min(u, v) returns u unless v < u; max(u, v) returns u unless v > u
        elif k == "min":
            emit(f"{v} = {c} if {c} < {a} else {a}")
        else:
            emit(f"{v} = {c} if {c} > {a} else {a}")
        return (v,)

    # Every pair an interval kernel computes is a valid interval (lo <= hi,
    # no NaN), the invariant Interval.__post_init__ enforces.  neg, min and
    # max map valid intervals to valid ones; every other node checks its
    # result wherever the Interval constructor would (add, sub, mul and div
    # can meet inf - inf or inf * 0).
    def interval(self, e: Expr, kids, n: int) -> tuple[str, str]:
        """``Interval``'s operations on bare floats, as ``interval_eval``
        applies them."""
        k = e.kind
        emit = self.lines.append
        if k == "const":
            c = self.bind(e.value)
            if math.isnan(e.value):
                emit(f"_empty({c}, {c})")
            return c, c
        lo, hi = f"l{n}", f"h{n}"
        if k == "var":
            self.variable(e, f"{lo}, {hi}")
            return lo, hi
        al, ah = kids[0][:2]
        if k == "neg":
            emit(f"{lo} = -{ah}")
            emit(f"{hi} = -{al}")
            return lo, hi
        if k == "pow":
            self.power(lo, hi, al, ah, e.exponent)
            return lo, hi
        cl, ch = kids[1][:2]
        if k == "min":
            emit(f"{lo} = {cl} if {cl} < {al} else {al}")
            emit(f"{hi} = {ch} if {ch} < {ah} else {ah}")
            return lo, hi
        if k == "max":
            emit(f"{lo} = {cl} if {cl} > {al} else {al}")
            emit(f"{hi} = {ch} if {ch} > {ah} else {ah}")
            return lo, hi
        if k == "add":
            emit(f"{lo} = {al} + {cl}")
            emit(f"{hi} = {ah} + {ch}")
        elif k == "sub":
            emit(f"{lo} = {al} - {ch}")
            emit(f"{hi} = {ah} - {cl}")
        elif k == "div":
            emit(f"if {cl} <= 0.0 <= {ch}: _division_by_straddle()")
            emit(f"r{n} = 1.0 / {ch}")
            emit(f"s{n} = 1.0 / {cl}")
            self.products(lo, hi, (al, ah), (f"r{n}", f"s{n}"))
        elif e.children[0].kind == "const" and not math.isnan(e.children[0].value):
            # [v, v] * [cl, ch]: the third and fourth products repeat the
            # first two, so they can change neither the min nor the max (a
            # NaN constant takes the generic path, where its line raises)
            self.products(lo, hi, (al,), (cl, ch))
        else:
            self.products(lo, hi, (al, ah), (cl, ch))
        emit(f"if not {lo} <= {hi}: _empty({lo}, {hi})")
        return lo, hi

    def power(self, lo: str, hi: str, al: str, ah: str, n: int) -> None:
        """``lo, hi = `` the pair ``(al, ah)`` to the power ``n``, as
        ``Interval.__pow__`` computes it, written out for this ``n``: 1 for
        ``n == 0``; for odd ``n`` the ends' powers; for even ``n`` 0 and the
        larger magnitude's power where the pair straddles 0, else the ends'
        powers, of their magnitudes where both are negative."""
        emit = self.lines.append
        if n == 0:
            emit(f"{lo} = {hi} = 1.0")
            return
        p = self.bind(n)
        if n % 2:
            emit(f"{lo} = {al} ** {p}")
            emit(f"{hi} = {ah} ** {p}")
        else:
            # max(abs(al), abs(ah)) keeps abs(al) unless abs(ah) is larger
            emit(f"if {al} <= 0.0 <= {ah}:")
            emit(f"    {lo} = 0.0")
            emit(f"    {hi} = ({ah} if {ah} > -{al} else -{al}) ** {p}")
            emit(f"elif {al} > 0.0:")
            emit(f"    {lo} = {al} ** {p}")
            emit(f"    {hi} = {ah} ** {p}")
            emit("else:")
            emit(f"    {lo} = (-{ah}) ** {p}")
            emit(f"    {hi} = (-{al}) ** {p}")
        emit(f"if not {lo} <= {hi}: _empty({lo}, {hi})")

    def products(self, lo: str, hi: str, a, c) -> None:
        """``Interval.__mul__``'s min and max of the products of ``a``'s and
        ``c``'s ends, scanned in the order of the builtins, so that ties and
        NaNs resolve identically."""
        first, *rest = [f"{p} * {q}" for p in a for q in c]
        self.lines.append(f"{lo} = {hi} = {first}")
        for product in rest:
            self.lines += [f"p = {product}",
                           f"if p < {lo}: {lo} = p",
                           f"if p > {hi}: {hi} = p"]

    # The derivative arithmetic never raises: a NaN, from inf * 0 or
    # inf - inf, means the sign is unknown, so it widens to the entire line.
    # A gradient is one (lo, hi) pair of operands per name.
    def gradient(self, e: Expr, kids, out, n: int) -> tuple[tuple[str, str], ...]:
        """The node's gradient, by forward-mode rules written out coordinate
        by coordinate, over its value ``out`` and its children's values and
        gradients."""
        k = e.kind
        dims = self.dims
        if k in ("const", "var") or (k == "pow" and e.exponent == 0):
            i = self.index.get(e.name) if k == "var" else None
            return tuple(("1.0", "1.0") if j == i else ("0.0", "0.0") for j in dims)
        emit = self.lines.append
        d = tuple((f"dl{n}_{j}", f"dh{n}_{j}") for j in dims)
        (al, ah, da), *rest = kids
        if k == "neg":
            for (lo, hi), (pl, ph) in zip(d, da):
                emit(f"{lo} = -{ph}")
                emit(f"{hi} = -{pl}")
            return d
        if k == "pow":
            # d(u^n) = n u^(n-1) du; u^(n-1) cannot overflow where u^n did not
            self.power("fl", "fh", al, ah, e.exponent - 1)
            factor = self.bind(e.exponent)
            emit(f"fl = {factor} * fl")
            emit(f"fh = {factor} * fh")
            for (lo, hi), p in zip(d, da):
                self.dmul(lo, hi, ("fl", "fh"), p)
            return d
        (cl, ch, dc), = rest
        if k in ("min", "max"):
            # one child's gradient where the values do not overlap, else the
            # hull of both
            first, second = ((ah, cl), (ch, al)) if k == "min" else ((ch, al), (ah, cl))
            if d:
                emit(f"if {first[0]} < {first[1]}:")
                self.lines += [f"    {lo}, {hi} = {pl}, {ph}" for (lo, hi), (pl, ph) in zip(d, da)]
                emit(f"elif {second[0]} < {second[1]}:")
                self.lines += [f"    {lo}, {hi} = {ql}, {qh}" for (lo, hi), (ql, qh) in zip(d, dc)]
                emit("else:")
                for (lo, hi), (pl, ph), (ql, qh) in zip(d, da, dc):
                    emit(f"    {lo} = {pl} if {pl} < {ql} else {ql}")
                    emit(f"    {hi} = {ph} if {ph} > {qh} else {qh}")
            return d
        for (lo, hi), (pl, ph), (ql, qh) in zip(d, da, dc):
            if k == "add":
                self.dadd(lo, hi, f"{pl} + {ql}", f"{ph} + {qh}")
            elif k == "sub":
                # p + (-q), which is how IEEE defines p - q
                self.dadd(lo, hi, f"{pl} - {qh}", f"{ph} - {ql}")
            elif k == "mul":
                # d(a c) = c da + a dc
                self.dmul("tl", "th", (cl, ch), (pl, ph))
                self.dmul("ul", "uh", (al, ah), (ql, qh))
                self.dadd(lo, hi, "tl + ul", "th + uh")
            else:
                # d(a / c) = (da - (a / c) dc) / c, where (r, s) is the
                # value lines' (1 / ch, 1 / cl)
                self.dmul("tl", "th", out, (ql, qh))
                self.dadd("ul", "uh", f"{pl} - th", f"{ph} - tl")
                self.dmul(lo, hi, ("ul", "uh"), (f"r{n}", f"s{n}"))
        return d

    def dadd(self, lo: str, hi: str, lo_sum: str, hi_sum: str) -> None:
        """``lo, hi = lo_sum, hi_sum``, widened where ``lo <= hi`` fails."""
        self.lines += [f"{lo} = {lo_sum}", f"{hi} = {hi_sum}",
                       f"if not {lo} <= {hi}: {lo}, {hi} = _entire"]

    def dmul(self, lo: str, hi: str, a, c) -> None:
        """The product of the pairs ``a`` and ``c``: the min and max of their
        ends' products, scanned in the order of the builtins, widened where
        the products hold a NaN or both infinities (their sum is NaN).

        A product by the literal 1.0 is the other factor, and a product
        that repeats an earlier one, as where a pair's ends are one operand,
        is computed once: the same float cannot move the scan."""
        terms = [p if q == "1.0" else q if p == "1.0" else f"{p} * {q}"
                 for p in a for q in c]
        operand = {}   # each distinct term once: an operand, or a product
        for t in terms:
            if t not in operand and " * " in t:
                operand[t] = f"m{len(operand)}"
                self.lines.append(f"{operand[t]} = {t}")
            operand.setdefault(t, t)
        first, *rest = operand.values()
        self.lines.append(f"{lo} = {hi} = {first}")
        for m in rest:
            self.lines += [f"if {m} < {lo}: {lo} = {m}", f"if {m} > {hi}: {hi} = {m}"]
        self.lines += [f"m = {' + '.join(operand[t] for t in terms)}",
                       f"if m != m: {lo}, {hi} = _entire"]
