"""The generator of a tree's point, interval and gradient kernels.

``expr.compile_expr`` and ``expr.compile_gradient`` keep a tree's kernels on
the tree; this module writes them, at the first request for each, and is
imported then, so a command that compiles no kernel (``gsiplab list``,
``fmt``) loads, and compiles, none of it.

``compile_expr`` gives two kernels over one variable order, for callers that
evaluate the same expression many times: a point kernel and an interval
kernel, each one generated Python function of straight-line code, compiled
once with ``compile``.  A tree that lives for a whole run compiles once
however many solves use it (``gsip`` builds one tree per problem function,
and its subproblems pass the outer point as extra kernel arguments).  The
point kernel does the float operations of ``expr.evaluate``, and the
interval kernel those of the natural interval arithmetic, in the walker's
order and with the same exceptions, so their results are bit-identical to
the walk's over floats and over intervals (up to the sign bit of a NaN: when
both operands of a float ``+`` or ``*`` are NaNs, CPython 3.11 returns one
or the other depending on whether it has specialized the instruction yet,
in the walker too); they only drop the per-node calls and kind dispatch,
the name lookups and the interval allocations, and compute a shared subtree,
or equal subtrees built apart (``_Emitter.node``), once.  They share no code
with the walker.  The tests keep the walks as their references:
``expr.evaluate`` for the point kernel, and for the interval kernel the walk
over intervals with their arithmetic
(``tests/conftest.py::reference_interval``).  Nothing from the tree enters a
kernel's source text: constants, exponents and the names of unknown
variables reach it through its namespace, and variables are indices into its
argument tuple.  ``compile_gradient`` gives a third kernel, generated the
same way: a forward-mode interval gradient, whose value lines are the
interval kernel's and whose derivative lines are straight-line code too,
each node's rule written out coordinate by coordinate, along the coordinates
of a box only, not along the bound values that follow them, and only along
those that the node's subtree reads.  An integer power is written out for
its exponent, and so is its derivative's factor, so a kernel calls nothing
but the error raisers.  The grid kernel is the fourth, generated by a
subclass of the same emitter (``gsiplab.arrays``).
"""
from __future__ import annotations

import math
from typing import Callable, Mapping

from .expr import EmptyIntervalError, EvaluationError, Expr

_POINT, _INTERVAL, _GRADIENT = "point", "interval", "gradient"


def _point_and_interval(e: Expr, key) -> tuple[Callable, Callable]:
    _, names = key
    return _generate(e, names, _POINT), _generate(e, names, _INTERVAL)


def _gradient(e: Expr, key) -> Callable:
    (_, dims), names = key
    return _generate(e, names, _GRADIENT, dims)


def _generate(e: Expr, names: tuple[str, ...], kind: str,
              dims: int = 0) -> Callable:
    """The kernel of ``kind`` of ``e`` over ``names``, written out as the
    source of one Python function and compiled once; a gradient kernel
    differentiates along the first ``dims`` names.

    The body is straight-line code: one assignment (a few for an interval
    product) per node, children before their parent and left to right, as
    the walker evaluates them, and each value once (``_Emitter.node``).  The
    source holds only names the emitter makes up and its own literals: every value
    taken from the tree (a constant, an exponent, the error of an unknown
    variable) reaches the function through its namespace, and a variable is
    an index into the argument tuple.
    """
    emitter = _Emitter({n: i for i, n in enumerate(names)}, kind, dims)
    out = emitter.node(e)
    if kind == _GRADIENT:   # a tuple of pairs, (0.0, 0.0) where absent
        out = (*out[:2], "".join("({}, {}), ".format(*(p or ("0.0", "0.0")))
                                 for p in out[2]))
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
        # the coordinates a gradient is along, or a grid kernel's axes
        self.dims = range(dims)
        self.lines: list[str] = []
        self.namespace = {"_empty": _empty,
                          "_entire": (-math.inf, math.inf),
                          "_division_by_zero": _division_by_zero,
                          "_division_by_straddle": _division_by_straddle}
        # a node's operands by its id, and by its value number
        self.memo: dict[int, tuple] = {}
        self.numbers: dict[tuple, tuple] = {}
        self.count = 0   # the nodes that wrote lines, or bound a constant

    def bind(self, value) -> str:
        """A new name in the kernel's namespace, bound to ``value``."""
        name = f"_k{len(self.namespace)}"
        self.namespace[name] = value
        return name

    def node(self, e: Expr) -> tuple[str, ...]:
        """The operands of ``e``, whose lines are written at its first
        visit, unless an equal node's were: value numbering (Alpern, Wegman
        & Zadeck, POPL 1988) gives one number to the nodes of one kind whose
        constant bits (``float.hex``, so 0.0 and -0.0 stay apart), variable
        (its name and its index), exponent and children's operands match,
        and a node with a number already seen takes its operands and writes
        no line.  Equal operands give equal floats, bit for bit, but for the
        sign of a NaN.  The memo by id comes first, as Expr hashes its whole
        subtree; no id passes to another node while the tree is alive."""
        out = self.memo.get(id(e))
        if out is None:
            kids = list(map(self.node, e.children))   # one frame per level
            k = e.kind
            key = ((k, float(e.value).hex()) if k == "const" else
                   (k, e.name, self.index.get(e.name)) if k == "var" else
                   (k, e.exponent, *kids))
            out = self.numbers.get(key)
            if out is None:
                out = self.numbers[key] = self.value(e, kids, self.count)
                self.count += 1
            self.memo[id(e)] = out
        return out

    def value(self, e: Expr, kids, n: int) -> tuple:
        """The lines of node ``e``, the ``n``-th, over its children's
        operands ``kids``, and its operands."""
        if self.kind == _POINT:
            return self.point(e, kids, n)
        out = self.interval(e, kids, n)
        if self.kind == _GRADIENT:
            out += (self.gradient(e, kids, out, n),)
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
    # result, where the reference walk builds an Interval (add, sub, mul and
    # div can meet inf - inf or inf * 0).  Those four are written by the
    # slopes' emitters, dadd and dmul, with the value's NaN rule (check).
    def interval(self, e: Expr, kids, n: int) -> tuple[str, str]:
        """The natural interval arithmetic on bare floats, operation by
        operation as the tests' reference walk over intervals
        (``tests/conftest.py::reference_interval``) computes it."""
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
            self.dadd(lo, hi, f"{al} + {cl}", f"{ah} + {ch}", value=True)
        elif k == "sub":
            self.dadd(lo, hi, f"{al} - {ch}", f"{ah} - {cl}", value=True)
        elif k == "div":
            emit(f"if {cl} <= 0.0 <= {ch}: _division_by_straddle()")
            emit(f"r{n} = 1.0 / {ch}")
            emit(f"s{n} = 1.0 / {cl}")
            self.dmul(lo, hi, (al, ah), (f"r{n}", f"s{n}"), value=True)
        else:
            self.dmul(lo, hi, (al, ah), (cl, ch), value=True)
        return lo, hi

    def power(self, lo: str, hi: str, al: str, ah: str, n: int) -> None:
        """``lo, hi = `` the pair ``(al, ah)`` to the power ``n``, as
        ``reference_interval`` computes it, written out for this ``n``: 1 for
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
        self.check(lo, hi, value=True)

    # The derivative arithmetic never raises: a NaN, from inf * 0 or
    # inf - inf, means the sign is unknown, so it widens to the entire line.
    # A gradient holds, per coordinate, a (lo, hi) pair of operands, or None
    # where the derivative is absent: the node's subtree reads no variable of
    # that coordinate, so the derivative is exactly 0 and takes no line.
    def gradient(self, e: Expr, kids, out, n: int) -> tuple:
        """The node's gradient, by forward-mode rules written out coordinate
        by coordinate, over its value ``out`` and its children's values and
        gradients: a line only along the coordinates where a child's
        derivative is present."""
        k = e.kind
        if k == "var":
            i = self.index.get(e.name)
            return tuple(("1.0", "1.0") if j == i else None for j in self.dims)
        absent = (None,) * len(self.dims)
        if k == "const" or (k == "pow" and e.exponent == 0):
            return absent
        emit = self.lines.append
        (al, ah, da), *rest = kids
        (cl, ch, dc), = rest or [(None, None, absent)]
        live = [j for j in self.dims if da[j] or dc[j]]
        d = list(absent)
        if k in ("min", "max"):
            # one child's gradient where the values do not overlap, else the
            # hull of both, an absent side's being 0
            zero = ("0.0", "0.0")
            first, second = ((ah, cl), (ch, al)) if k == "min" else ((ch, al), (ah, cl))
            for j in live:
                d[j] = f"dl{n}_{j}", f"dh{n}_{j}"
            sides = [(d[j], da[j] or zero, dc[j] or zero) for j in live]
            if sides:
                emit(f"if {first[0]} < {first[1]}:")
                self.lines += [f"    {lo}, {hi} = {pl}, {ph}" for (lo, hi), (pl, ph), _ in sides]
                emit(f"elif {second[0]} < {second[1]}:")
                self.lines += [f"    {lo}, {hi} = {ql}, {qh}" for (lo, hi), _, (ql, qh) in sides]
                emit("else:")
                for (lo, hi), (pl, ph), (ql, qh) in sides:
                    emit(f"    {lo} = {pl} if {pl} < {ql} else {ql}")
                    emit(f"    {hi} = {ph} if {ph} > {qh} else {qh}")
            return tuple(d)
        if live and k == "pow":
            # d(u^n) = n u^(n-1) du; u^(n-1) cannot overflow where u^n did not
            self.power("fl", "fh", al, ah, e.exponent - 1)
            factor = self.bind(e.exponent)
            emit(f"fl = {factor} * fl")
            emit(f"fh = {factor} * fh")
        for j in live:
            lo, hi = f"dl{n}_{j}", f"dh{n}_{j}"
            p, q = da[j], dc[j]
            if k == "neg" or (k == "sub" and not p):
                # -p, or -q: exact
                pl, ph = p or q
                emit(f"{lo} = -{ph}")
                emit(f"{hi} = -{pl}")
            elif k in ("add", "sub") and not (p and q):
                lo, hi = p or q   # the live side, passed through
            elif k == "pow":
                self.dmul(lo, hi, ("fl", "fh"), p)
            elif k == "add":
                self.dadd(lo, hi, f"{p[0]} + {q[0]}", f"{p[1]} + {q[1]}")
            elif k == "sub":
                # p + (-q), which is how IEEE defines p - q
                self.dadd(lo, hi, f"{p[0]} - {q[1]}", f"{p[1]} - {q[0]}")
            elif k == "mul":
                # d(a c) = c da + a dc, each term only where its side is live
                if p and q:
                    self.dmul("tl", "th", (cl, ch), p)
                    self.dmul("ul", "uh", (al, ah), q)
                    self.dadd(lo, hi, "tl + ul", "th + uh")
                else:
                    self.dmul(lo, hi, (cl, ch) if p else (al, ah), p or q)
            else:
                # d(a / c) = (da - (a / c) dc) / c, where (r, s) is the
                # value lines' (1 / ch, 1 / cl): da / c where dc is absent,
                # -(a / c) dc / c where da is
                if q:
                    self.dmul("tl", "th", out, q)
                    if p:
                        self.dadd("ul", "uh", f"{p[0]} - th", f"{p[1]} - tl")
                    else:
                        self.lines += ["ul = -th", "uh = -tl"]
                    p = ("ul", "uh")
                self.dmul(lo, hi, p, (f"r{n}", f"s{n}"))
            d[j] = lo, hi
        return tuple(d)

    def check(self, lo: str, hi: str, value: bool) -> None:
        """The NaN rule where ``lo <= hi`` fails: a value raises
        ``EmptyIntervalError``, as an ``Interval`` does, and a slope widens
        to the entire line."""
        self.lines.append(f"if not {lo} <= {hi}: " + (
            f"_empty({lo}, {hi})" if value else f"{lo}, {hi} = _entire"))

    def dadd(self, lo: str, hi: str, lo_sum: str, hi_sum: str,
             value: bool = False) -> None:
        """``lo, hi = lo_sum, hi_sum``, then the NaN rule (``check``)."""
        self.lines += [f"{lo} = {lo_sum}", f"{hi} = {hi_sum}"]
        self.check(lo, hi, value)

    def dmul(self, lo: str, hi: str, a, c, value: bool = False) -> None:
        """The product of the pairs ``a`` and ``c``: the min and max of their
        ends' products, scanned in the order of the builtins, as
        ``reference_interval`` takes them, so that ties and NaNs resolve
        identically.  A value then takes the NaN rule (``check``); a slope
        is widened where the products hold a NaN or both infinities (their
        sum is NaN).

        A product by the literal 1.0 is the other factor, and a product
        that repeats an earlier one, as where a pair's ends are one operand
        (a constant factor), is computed once: the same float cannot move
        the scan."""
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
        if value:
            self.check(lo, hi, True)
        else:
            self.lines += [f"m = {' + '.join(operand[t] for t in terms)}",
                           f"if m != m: {lo}, {hi} = _entire"]
