import copy
import itertools
import math
import pickle
import random
import struct
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import random_box, random_expr, sample_point, shrink_box
from gsiplab import expr as ex
from gsiplab.expr import (EvaluationError, Interval, compile_expr,
                          compile_gradient, evaluate, evaluate_array,
                          interval_eval, substitute)
from gsiplab.globalopt import ConstraintSpec

x, y = ex.var("x"), ex.var("y")


class TestPointEvaluation:
    def test_llp_objective_at_corner(self):
        g = (x - y) ** 2 - 10.0
        assert evaluate(g, {"x": 1.0, "y": 1.0}) == -10.0

    def test_aggregate_constraint_at_corner(self):
        hb = -2.0 * x + y
        assert evaluate(hb, {"x": 1.0, "y": 1.0}) == -1.0

    def test_min_of_two_clauses(self):
        e = ex.emin(ex.const(-2.0 * 1 + 0.45), ex.const(-1.0))
        assert evaluate(e, {}) == pytest.approx(-1.55)

    def test_unknown_variable(self):
        with pytest.raises(EvaluationError):
            evaluate(x + y, {"x": 1.0})

    def test_division_by_zero(self):
        with pytest.raises(EvaluationError):
            evaluate(x / y, {"x": 1.0, "y": 0.0})

    def test_division(self):
        assert evaluate(x / y, {"x": 1.0, "y": 4.0}) == 0.25


class TestIntervalEvaluation:
    def test_shifted_square(self):
        g = (x - y) ** 2 - 10.0
        box = {"x": Interval(-1, 1), "y": Interval(-1, 1)}
        assert interval_eval(g, box) == Interval(-10.0, -6.0)

    def test_linear(self):
        assert interval_eval(-y - 10.0, {"y": Interval(-1, 1)}) == Interval(-11.0, -9.0)

    def test_constant(self):
        assert interval_eval(ex.const(3.0), {"x": Interval(-5, 7)}) == Interval(3.0, 3.0)

    def test_divisor_interval_containing_zero(self):
        with pytest.raises(EvaluationError):
            interval_eval(x / y, {"x": Interval(0, 1), "y": Interval(-1, 1)})

    def test_even_power_tightening(self):
        assert interval_eval(x ** 2, {"x": Interval(-2, 1)}) == Interval(0.0, 4.0)
        assert interval_eval(x ** 2, {"x": Interval(1, 2)}) == Interval(1.0, 4.0)

    def test_odd_power(self):
        assert interval_eval(x ** 3, {"x": Interval(-2, 1)}) == Interval(-8.0, 1.0)


class TestStructuralInvariants:
    def test_pow_rejects_negative_exponent(self):
        with pytest.raises(ValueError):
            ex.ipow(x, -1)

    def test_neg_constant_folds(self):
        assert ex.neg(ex.const(3.0)) == ex.const(-3.0)

    def test_arity_enforced(self):
        with pytest.raises(ValueError):
            ex.Expr("add", children=(x,))


class TestSubstitution:
    def test_substitute_and_fold(self):
        g = (x - y) ** 2 - 10.0
        gy = substitute(g, {"x": 1.0})
        assert gy.variables() == frozenset({"y"})
        assert evaluate(gy, {"y": 0.0}) == evaluate(g, {"x": 1.0, "y": 0.0})

    def test_full_fold_to_constant(self):
        assert substitute(x * y + 1.0, {"x": 2.0, "y": 3.0}) == ex.const(7.0)


class TestFuzzProperties:
    def test_inclusion(self):
        rng = random.Random(20260823)
        for _ in range(1000):
            e = random_expr(rng, ["x", "y"], rng.randint(1, 5))
            box = random_box(rng, ["x", "y"])
            p = sample_point(rng, box)
            iv = interval_eval(e, box)
            v = evaluate(e, p)
            assert iv.contains(v, slack=1e-9 * max(1.0, abs(iv.lo), abs(iv.hi)))

    def test_monotone_under_box_shrinking(self):
        rng = random.Random(7)
        for _ in range(500):
            e = random_expr(rng, ["x", "y"], rng.randint(1, 5))
            box = random_box(rng, ["x", "y"])
            sub = shrink_box(rng, box)
            big = interval_eval(e, box)
            small = interval_eval(e, sub)
            assert big.encloses(small, slack=1e-9 * max(1.0, abs(big.lo), abs(big.hi)))

    def test_min_max_match_pointwise(self):
        rng = random.Random(13)
        for _ in range(500):
            a = random_expr(rng, ["x", "y"], rng.randint(0, 4))
            b = random_expr(rng, ["x", "y"], rng.randint(0, 4))
            box = random_box(rng, ["x", "y"])
            p = sample_point(rng, box)
            va, vb = evaluate(a, p), evaluate(b, p)
            assert evaluate(ex.emin(a, b), p) == min(va, vb)
            assert evaluate(ex.emax(a, b), p) == max(va, vb)


# -- compiled kernels against the recursive evaluators -------------------------

NAMES = ("x", "y")   # "z" appears in expressions but not in the variable order
# few distinct values make ties (min/max, signed zeros) and overflow common
SPECIAL = [0.0, -0.0, 1.0, -1.0, 2.0, -0.5, 1e200, -1e200, 1e-320]
CONSTS = st.one_of(st.sampled_from(SPECIAL + [math.inf, -math.inf, math.nan]),
                   st.floats(-10.0, 10.0))
COORDS = st.one_of(st.sampled_from(SPECIAL), st.floats(-10.0, 10.0))
KINDS = ("const", "neg", "add", "sub", "mul", "div", "pow", "min", "max")


@st.composite
def expressions(draw, consts=CONSTS):
    """A random expression DAG: each new node draws its children from all
    earlier nodes, so subtrees are often shared."""
    pool = [ex.var("x"), ex.var("y")]
    if draw(st.integers(0, 9)) == 0:
        pool.append(ex.var("z"))
    for _ in range(draw(st.integers(1, 8))):
        def pick():
            return pool[draw(st.integers(0, len(pool) - 1))]
        kind = draw(st.sampled_from(KINDS))
        if kind == "const":
            node = ex.const(draw(consts))
        elif kind == "neg":
            node = ex.Expr("neg", children=(pick(),))
        elif kind == "pow":
            node = ex.ipow(pick(), draw(st.integers(0, 5)))
        else:
            node = ex.Expr(kind, children=(pick(), pick()))
        pool.append(node)
    return pool[-1]


@st.composite
def bounds(draw):
    pairs = []
    for _ in NAMES:
        a, b = draw(COORDS), draw(COORDS)
        pairs.append((min(a, b), max(a, b)))
    return tuple(pairs)


def _outcome(fn, *args):
    """The result of a call, or the type of the exception it raised."""
    try:
        return fn(*args)
    except (EvaluationError, ValueError, OverflowError) as e:
        return type(e)


def _bits(v):
    """A float's exact bit pattern (tells -0.0 from 0.0), with every NaN one
    token, since the sign of a NaN is not reproducible (see the ``expr``
    docstring); anything else as is."""
    if type(v) is not float:
        return v
    return "nan" if v != v else struct.pack("<d", v)


class TestCompiledKernels:
    @settings(max_examples=400, deadline=None)
    @given(expressions(), st.tuples(COORDS, COORDS))
    # ties between signed zeros: the first operand wins
    @example(ex.emin(x, y), (0.0, -0.0))
    @example(ex.emax(x, y), (-0.0, 0.0))
    # two NaNs of opposite sign meet in a product: the sign of the result
    # depends on whether CPython has specialized the instruction yet
    @example(ex.emin((-(ex.const(math.nan) - y) + y) * ex.const(math.nan), x),
             (-1e200, -1e200))
    def test_point_kernel_is_bit_identical(self, e, point):
        want = _outcome(evaluate, e, dict(zip(NAMES, point)))
        got = _outcome(compile_expr(e, NAMES)[0], point)
        assert _bits(got) == _bits(want)

    @settings(max_examples=400, deadline=None)
    @given(expressions(), bounds())
    # ties between signed zeros among the endpoints and the products
    @example(ex.emin(x, y), ((0.0, 0.0), (-0.0, -0.0)))
    @example(ex.emax(x, y), ((-0.0, -0.0), (0.0, 0.0)))
    @example(ex.mul(ex.const(0.0), x), ((-1.0, 1.0), (0.0, 0.0)))
    @example(ex.mul(x, y), ((0.0, 1.0), (-1.0, 1.0)))
    @example(ex.mul(y, x), ((0.0, 1.0), (-1.0, 1.0)))
    def test_interval_kernel_is_bit_identical(self, e, box):
        want = _outcome(interval_eval, e,
                        {n: Interval(lo, hi) for n, (lo, hi) in zip(NAMES, box)})
        if isinstance(want, Interval):
            want = (want.lo, want.hi)
        got = _outcome(compile_expr(e, NAMES)[1], box)
        if isinstance(got, tuple):
            got = tuple(map(_bits, got))
            want = tuple(map(_bits, want))
        assert got == want

    def test_shared_subtree(self):
        s = (x - y) ** 2
        e = ex.emax(s, s * 2.0)
        point, interval = compile_expr(e, NAMES)
        assert point((1.0, 3.0)) == evaluate(e, {"x": 1.0, "y": 3.0}) == 8.0
        assert interval(((0.0, 1.0), (-1.0, 1.0))) == (0.0, 8.0)

    def test_unknown_variable_raises_only_when_reached(self):
        point, interval = compile_expr(ex.emin(x, ex.var("z")), ("x",))
        with pytest.raises(EvaluationError):
            point((1.0,))
        with pytest.raises(EvaluationError):
            interval(((0.0, 1.0),))

    def test_names_and_constants_stay_out_of_the_source(self):
        # none of these names is an identifier, and none of these constants
        # has a repr that reads back as itself, so a kernel compiles and
        # agrees with the walker only if they reach it through its namespace
        names = ("x y", "#level", "1x")
        u, w, t = map(ex.var, names)
        nan, inf, nzero = ex.const(math.nan), ex.const(math.inf), ex.const(-0.0)
        exprs = [(u - t) * w + nzero, ex.emin(u, inf) / (w - nzero),
                 ex.emax(nzero * u, t) ** 3, u * nan + t, inf * (w - w),
                 u + ex.var("#other")]

        def outcome(fn, *args):
            try:
                return fn(*args)
            except (EvaluationError, ValueError) as e:
                return type(e), str(e)
        points = [(0.5, -0.0, 2.0), (-1.0, 3.0, 0.0)]
        boxes = [((0.5, 1.0), (-0.0, 0.0), (2.0, 3.0)),
                 ((-1.0, 1.0), (1.0, 3.0), (-2.0, 0.0))]
        for e in exprs:
            point, interval = compile_expr(e, names)
            gradient = compile_gradient(e, names)
            for p in points:
                want = outcome(evaluate, e, dict(zip(names, p)))
                assert _bits(outcome(point, p)) == _bits(want)
            for b in boxes:
                want = outcome(interval_eval, e,
                               {n: Interval(lo, hi) for n, (lo, hi) in zip(names, b)})
                if isinstance(want, Interval):
                    want = (_bits(want.lo), _bits(want.hi))
                    assert tuple(map(_bits, outcome(interval, b))) == want
                    assert tuple(map(_bits, outcome(gradient, b)[0])) == want
                else:
                    assert outcome(interval, b) == outcome(gradient, b) == want


# -- the gradient kernel ----------------------------------------------------------

FINITE = st.floats(-10.0, 10.0)
UNIT = st.floats(0.0, 1.0)


def _exact(e, point, memo=None):
    """The exact rational value of ``e`` at a point of Fractions."""
    memo = {} if memo is None else memo
    if id(e) in memo:
        return memo[id(e)]
    k = e.kind
    if k == "const":
        v = Fraction(e.value)
    elif k == "var":
        v = point[e.name]
    else:
        a = [_exact(c, point, memo) for c in e.children]
        if k == "neg":
            v = -a[0]
        elif k == "pow":
            v = a[0] ** e.exponent
        elif k == "add":
            v = a[0] + a[1]
        elif k == "sub":
            v = a[0] - a[1]
        elif k == "mul":
            v = a[0] * a[1]
        elif k == "div":
            v = a[0] / a[1]   # ZeroDivisionError at a zero divisor
        else:
            v = (min if k == "min" else max)(a[0], a[1])
    memo[id(e)] = v
    return v


def _degree(e, memo=None):
    """A bound on the degree of ``e`` as a rational function, which bounds
    the growth of its exact values' numerators and denominators."""
    memo = {} if memo is None else memo
    if id(e) not in memo:
        d = [_degree(c, memo) for c in e.children]
        if e.kind == "pow":
            memo[id(e)] = d[0] * max(e.exponent, 1)
        else:
            memo[id(e)] = sum(d) or 1
    return memo[id(e)]


def _inside(lo, hi, t):
    """The point ``t`` of the way from ``lo`` to ``hi``, kept in [lo, hi]."""
    return min(max(lo + t * (hi - lo), lo), hi)


# A small forward-mode reference for the gradient kernel, as the walker is the
# reference for the point and interval kernels.  A node's rule maps its value
# and its children's values and gradients to its gradient.  The derivative
# arithmetic never raises: a NaN, from inf * 0 or inf - inf, means the sign is
# unknown, so it widens to the entire line.

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


def _derivative(e):
    """The rule of a node that is neither a constant nor a variable:
    ``rule(v, a, da)`` for a unary node, ``rule(v, a, da, c, dc)`` for a
    binary one, where ``v`` is the node's value pair, ``a`` and ``c`` its
    children's, and ``da`` and ``dc`` their gradients."""
    k = e.kind
    if k == "neg":
        return lambda v, a, da: tuple(map(_dneg, da))
    if k == "add":
        return lambda v, a, da, c, dc: tuple(map(_dadd, da, dc))
    if k == "sub":
        return lambda v, a, da, c, dc: tuple(_dadd(p, _dneg(q)) for p, q in zip(da, dc))
    if k == "mul":
        # d(a c) = c da + a dc
        return lambda v, a, da, c, dc: tuple(_dadd(_dmul(c, p), _dmul(a, q))
                                             for p, q in zip(da, dc))
    if k == "div":
        # d(a / c) = (da - (a / c) dc) / c; the value check excluded 0 from c
        def div_(v, a, da, c, dc):
            inverse = (1.0 / c[1], 1.0 / c[0])
            return tuple(_dmul(_dadd(p, _dneg(_dmul(v, q))), inverse)
                         for p, q in zip(da, dc))
        return div_
    if k == "pow":
        # d(u^n) = n u^(n-1) du; u^(n-1) cannot overflow where u^n did not
        n = e.exponent
        if n == 0:
            return lambda v, a, da: tuple((0.0, 0.0) for _ in da)

        def pow_(v, a, da):
            u = Interval(*a) ** (n - 1)
            factor = (n * u.lo, n * u.hi)
            return tuple(_dmul(factor, p) for p in da)
        return pow_
    if k == "min":
        def min_(v, a, da, c, dc):
            if a[1] < c[0]:
                return da
            if c[1] < a[0]:
                return dc
            return tuple(map(_hull, da, dc))
        return min_

    def max_(v, a, da, c, dc):
        if a[0] > c[1]:
            return da
        if c[0] > a[1]:
            return dc
        return tuple(map(_hull, da, dc))
    return max_


def _reference_gradient(e, names, box):
    """``compile_gradient(e, names)(box)`` by recursion: children first, then
    the node's value by ``interval_eval`` and its gradient by its rule."""
    env = {n: Interval(lo, hi) for n, (lo, hi) in zip(names, box)}

    def walk(e):
        kids = [walk(c) for c in e.children]
        v = interval_eval(e, env)
        v = (v.lo, v.hi)
        if e.kind == "var":
            return v, tuple((1.0, 1.0) if n == e.name else (0.0, 0.0) for n in names)
        if e.kind == "const":
            return v, ((0.0, 0.0),) * len(names)
        return v, _derivative(e)(v, *itertools.chain.from_iterable(kids))
    return walk(e)


def _nested_bits(v):
    """``_bits`` of every float in nested tuples."""
    return tuple(map(_nested_bits, v)) if isinstance(v, tuple) else _bits(v)


class TestGradientKernel:
    @settings(max_examples=600, deadline=None)
    @given(expressions(), bounds())
    # infinite, signed-zero and NaN constants
    @example(x * ex.const(math.inf) - y, ((-1.0, 1.0), (0.0, 2.0)))
    @example(ex.const(-math.inf) * x * y, ((0.0, 1.0), (-1.0, 0.0)))
    @example(ex.const(-0.0) * x + ex.const(-0.0) * y, ((-0.0, 0.0), (-1.0, -0.0)))
    @example(x - ex.const(math.nan), ((0.0, 1.0), (0.0, 1.0)))
    # min and max apart, and at a kink
    @example(ex.emin(x, y), ((0.0, 1.0), (0.5, 2.0)))
    @example(ex.emin(x * y, y), ((2.0, 3.0), (0.0, 1.0)))
    @example(ex.emax(x, y * y), ((2.0, 3.0), (0.0, 1.0)))
    @example(ex.emax(x - y, ex.const(0.0)), ((-1.0, 1.0), (-0.0, 0.0)))
    # division, by a divisor away from zero and by one that straddles it
    @example(x / (y + 3.0) * x, ((-1.0, 2.0), (0.5, 1.0)))
    @example(ex.const(math.inf) / y, ((0.0, 1.0), (1.0, 2.0)))
    @example(x / y, ((0.0, 1.0), (-1.0, 1.0)))
    # powers: the zeroth, and an infinite factor times a zero derivative
    @example(ex.ipow(x - y, 0) + ex.ipow(x, 3), ((-1.0, 2.0), (0.0, 1.0)))
    @example(ex.ipow(x, 2), ((0.0, math.inf), (0.0, 1.0)))
    # a tie of signed zeros between the second and third end products
    @example(ex.emin(-x, y) * y, ((0.0, 1.0), (-1.0, -0.0)))
    def test_matches_the_reference_bit_for_bit(self, e, box):
        want = _outcome(_reference_gradient, e, NAMES, box)
        got = _outcome(compile_gradient(e, NAMES), box)
        assert _nested_bits(got) == _nested_bits(want)

    @settings(max_examples=400, deadline=None)
    @given(expressions(consts=FINITE), st.lists(FINITE, min_size=4, max_size=4),
           st.sampled_from((0, 1)), st.tuples(UNIT, UNIT, UNIT))
    @example(ex.emin(x, y), [0.0, 1.0, 0.0, 1.0], 0, (0.0, 1.0, 0.5))
    @example(x / (y + 3.0) * x, [-1.0, 2.0, 0.5, 1.0], 1, (0.25, 0.75, 0.5))
    def test_slope_lies_in_the_enclosure(self, e, ends, i, ts):
        # mean value theorem: the exact slope between two points of the box
        # that differ only along axis i is a derivative along i at some point
        # between them (for min and max, a mix of both sides' derivatives)
        box = ((min(ends[:2]), max(ends[:2])), (min(ends[2:]), max(ends[2:])))
        try:
            _, gradient = compile_gradient(e, NAMES)(box)
        except (EvaluationError, ValueError, OverflowError):
            assume(False)
        a = [_inside(lo, hi, ts[2]) for lo, hi in box]
        b = list(a)
        a[i] = _inside(*box[i], ts[0])
        b[i] = _inside(*box[i], ts[1])
        assume(a[i] != b[i])
        assume(_degree(e) <= 100)   # keeps the exact arithmetic fast
        try:
            fa = _exact(e, {n: Fraction(v) for n, v in zip(NAMES, a)})
            fb = _exact(e, {n: Fraction(v) for n, v in zip(NAMES, b)})
        except ZeroDivisionError:
            assume(False)
        slope = (fb - fa) / (Fraction(b[i]) - Fraction(a[i]))
        lo, hi = gradient[i]
        # the kernel rounds to nearest, not outward
        slack = 1e-9 * max(1.0, abs(lo), abs(hi))
        assert lo - slack <= slope <= hi + slack

    @settings(max_examples=400, deadline=None)
    @given(expressions(), bounds())
    @example(x * 1e200 * 1e200 - x * 1e200 * 1e200, ((1.0, 2.0), (0.0, 0.0)))
    @example(ex.const(0.0) * (x * 1e200 * 1e200), ((1.0, 2.0), (0.0, 0.0)))
    @example(x / y, ((0.0, 1.0), (-1.0, 1.0)))
    @example(ex.ipow(x * 1e200, 2), ((1.0, 2.0), (0.0, 0.0)))
    def test_raises_only_where_the_interval_kernel_raises(self, e, box):
        want = _outcome(compile_expr(e, NAMES)[1], box)
        got = _outcome(compile_gradient(e, NAMES), box)
        if isinstance(want, tuple):
            value, gradient = got
            assert tuple(map(_bits, value)) == tuple(map(_bits, want))
            assert len(gradient) == len(NAMES)
            assert all(lo <= hi for lo, hi in gradient)   # no NaN either
        else:
            assert got == want

    @settings(max_examples=200, deadline=None)
    @given(expressions(), bounds())
    @example(x * y + y ** 3, ((-1.0, 2.0), (0.5, 1.0)))
    def test_bound_names_are_not_differentiated(self, e, box):
        # a kernel over x with y bound is the kernel over (x, y) without its
        # y column
        want = _outcome(compile_gradient(e, NAMES), box)
        got = _outcome(compile_gradient(e, NAMES[:1], NAMES[1:]), box)
        if isinstance(want, tuple):
            want = (want[0], want[1][:1])
        assert _nested_bits(got) == _nested_bits(want)

    def test_unused_variable_has_zero_derivative(self):
        value, gradient = compile_gradient(x ** 3 - 2.0 * x, NAMES)(
            ((1.0, 2.0), (-1.0, 1.0)))
        assert value == (-3.0, 6.0)
        assert gradient == ((1.0, 10.0), (0.0, 0.0))

    def test_no_names(self):
        # no coordinates: the gradient is empty, at a min or max node too
        kernel = compile_gradient(ex.emin(ex.const(1.0), ex.const(2.0)), ())
        assert kernel(()) == ((1.0, 1.0), ())

    def test_min_takes_the_lower_branch_when_apart(self):
        kernel = compile_gradient(ex.emin(x, y + 5.0), NAMES)
        assert kernel(((0.0, 1.0), (0.0, 1.0)))[1] == ((1.0, 1.0), (0.0, 0.0))
        assert kernel(((0.0, 6.0), (0.0, 1.0)))[1] == ((0.0, 1.0), (0.0, 1.0))


class TestKernelCache:
    def test_kernels_are_kept_per_name_order(self):
        e = x - y
        assert compile_expr(e, ("x", "y")) is compile_expr(e, ["x", "y"])
        assert compile_gradient(e, NAMES) is compile_gradient(e, NAMES)
        assert compile_expr(e, ("x", "y"))[0]((1.0, 3.0)) == -2.0
        assert compile_expr(e, ("y", "x"))[0]((1.0, 3.0)) == 2.0

    @settings(max_examples=100, deadline=None)
    @given(expressions(consts=FINITE), st.booleans())
    def test_compiling_leaves_the_tree_as_it_was(self, e, constraint):
        # a constraint on the tree keeps the kernels a solve binds, as the
        # tree keeps its compiled ones
        if constraint:
            e = ConstraintSpec(e, "ge", (("y", -1.5),))

        def compiled(o):
            """o's kernels, made or kept: a point kernel and a point for it."""
            if constraint:
                o.contractor(("x",))
                return o.compile(("x",), 1e-9)[0], (0.5,)
            compile_gradient(o, NAMES)
            return compile_expr(o, NAMES)[0], (0.5, -1.5)
        twin = copy.deepcopy(e)
        before = (hash(e), repr(e), pickle.dumps(e))
        kernel, point = compiled(e)
        assert e == twin and twin == e
        assert (hash(e), repr(e), pickle.dumps(e)) == before
        for clone in (copy.copy(e), copy.deepcopy(e), pickle.loads(pickle.dumps(e))):
            assert clone == e and hash(clone) == hash(e)
            assert vars(clone) == vars(twin)
            assert _bits(_outcome(compiled(clone)[0], point)) == \
                _bits(_outcome(kernel, point))


# -- the numpy evaluator against the point evaluator ----------------------------

def _subterms(e):
    yield e
    for c in e.children:
        yield from _subterms(c)


class TestArrayEvaluation:
    @settings(max_examples=300, deadline=None)
    # finite constants: a NaN operand is where np.minimum and the builtin min
    # part ways, so draws that meet one are skipped below
    @given(expressions(consts=COORDS),
           st.lists(st.lists(COORDS, min_size=1, max_size=4), min_size=1, max_size=2))
    @example(ex.emin(x, y) / (x - 1.0), [[0.0, 1.0], [-0.0, 2.0]])
    @example(ex.emax(x ** 3, y * y) + x ** 2, [[-2.0, 0.5], [1.5]])
    def test_open_grid_matches_pointwise(self, e, axes):
        names = NAMES[:len(axes)]
        points = [dict(zip(names, p)) for p in itertools.product(*axes)]
        want = []
        for p in points:
            for s in _subterms(e):
                try:
                    v = evaluate(s, p)
                except EvaluationError:
                    continue
                except OverflowError:  # numpy overflows to inf instead
                    assume(False)
                assume(v == v)
            want.append(_outcome(evaluate, e, p))
        env = dict(zip(names, np.meshgrid(*axes, indexing="ij", sparse=True)))
        with np.errstate(all="ignore"):
            if EvaluationError in want:
                with pytest.raises(EvaluationError):
                    evaluate_array(e, env)
                return
            got = np.broadcast_to(np.asarray(evaluate_array(e, env), dtype=float),
                                  tuple(map(len, axes)))
        assert [got[i] for i in np.ndindex(got.shape)] == want
