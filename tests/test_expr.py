import copy
import itertools
import math
import pickle
import random
import struct
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import (ReferenceInterval, random_box, random_expr, random_poly_instance,
                      reference_array, reference_grid, reference_interval, sample_point,
                      shrink_box)
from gsiplab import arrays, kernels
from gsiplab import expr as ex
from gsiplab.domains import BoxDomain
from gsiplab.expr import (EvaluationError, Interval, compile_expr,
                          compile_gradient, evaluate, evaluate_array,
                          interval_eval, substitute)
from gsiplab.globalopt import ConstraintSpec, minimize

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

    def test_interval_is_a_bracket_without_arithmetic(self):
        # the interval kernels are the one interval arithmetic
        a = Interval(0, 1)
        with pytest.raises(TypeError):
            a + a
        with pytest.raises(TypeError):
            a * a
        with pytest.raises(TypeError):
            -a


class TestStructuralInvariants:
    def test_pow_rejects_negative_exponent(self):
        with pytest.raises(ValueError):
            ex.ipow(x, -1)
        # the node checks its exponent too, where it is built directly
        for exponent in (-1, 2.0):
            with pytest.raises(ValueError, match="integer power exponent"):
                ex.Expr("pow", exponent=exponent, children=(x,))

    def test_neg_constant_folds(self):
        assert ex.neg(ex.const(3.0)) == ex.const(-3.0)

    def test_a_first_power_is_its_base(self):
        # u ** 1 is u bit for bit in every domain, so it takes no node
        for base in (x, x - y, ex.const(-0.0), ex.const(math.nan)):
            assert ex.ipow(base, 1) is base
            assert (base ** 1) is base
        assert ex.ipow(x, 0).kind == ex.ipow(x, 2).kind == "pow"

    def test_the_oracle_suite_holds_no_first_power(self):
        # its polynomials write a degree-1 factor as ipow(var, 1)
        exponents = []
        for seed in range(50):
            objective, constraints, _ = random_poly_instance(seed)
            for tree in (objective, *(c.expr for c in constraints)):
                stack = [tree]
                while stack:
                    e = stack.pop()
                    stack += e.children
                    if e.kind == "pow":
                        exponents.append(e.exponent)
        assert len(exponents) == 181
        assert 1 not in exponents

    def test_arity_enforced(self):
        with pytest.raises(ValueError):
            ex.Expr("add", children=(x,))
        with pytest.raises(ValueError, match="unknown expression kind 'sin'"):
            ex.Expr("sin", children=(x,))

    def test_a_string_is_no_operand_and_a_name_is_not_empty(self):
        with pytest.raises(TypeError, match="cannot coerce str to Expr"):
            ex.as_expr("s")
        with pytest.raises(TypeError):
            x + "s"
        with pytest.raises(ValueError, match="variable name must be nonempty"):
            ex.var("")


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


# -- compiled kernels against the recursive walks ------------------------------

NAMES = ("x", "y")   # "z" appears in expressions but not in the variable order
# few distinct values make ties (min/max, signed zeros) and overflow common
SPECIAL = [0.0, -0.0, 1.0, -1.0, 2.0, -0.5, 1e200, -1e200, 1e-320]
CONSTS = st.one_of(st.sampled_from(SPECIAL + [math.inf, -math.inf, math.nan]),
                   st.floats(-10.0, 10.0))
COORDS = st.one_of(st.sampled_from(SPECIAL), st.floats(-10.0, 10.0))
KINDS = ("const", "neg", "add", "sub", "mul", "div", "pow", "min", "max")


@st.composite
def expressions(draw, consts=CONSTS, names=NAMES, unknown="z"):
    """A random expression DAG over ``names``, and one time in ten also over
    ``unknown``: each new node draws its children from all earlier nodes, so
    subtrees are often shared."""
    pool = [ex.var(n) for n in names]
    if draw(st.integers(0, 9)) == 0:
        pool.append(ex.var(unknown))
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
        want = _outcome(reference_interval, e, dict(zip(NAMES, box)))
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

    def test_a_chain_of_900_levels_compiles(self):
        # the emitter takes one frame per tree level, as the walker does, so
        # a chain nearly as deep as evaluate takes compiles at the default
        # recursion limit
        e = x
        for _ in range(900):
            e = ex.add(e, ex.const(1.0))
        point, interval = compile_expr(e, ("x",))
        assert point((0.5,)) == evaluate(e, {"x": 0.5}) == 900.5
        assert interval(((0.0, 1.0),)) == (900.0, 901.0)
        assert compile_gradient(e, ("x",))(((0.0, 1.0),)) == (
            (900.0, 901.0), ((1.0, 1.0),))
        assert interval_eval(e, {"x": Interval(0.0, 1.0)}) == Interval(900.0, 901.0)

    def test_unknown_variable_raises_only_when_reached(self):
        point, interval = compile_expr(ex.emin(x, ex.var("z")), ("x",))
        with pytest.raises(EvaluationError):
            point((1.0,))
        with pytest.raises(EvaluationError):
            interval(((0.0, 1.0),))

    def test_names_and_constants_stay_out_of_the_source(self):
        # none of these names is an identifier, and none of these constants
        # has a repr that reads back as itself, so a kernel compiles and
        # agrees with the walks only if they reach it through its namespace
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
                want = outcome(reference_interval, e, dict(zip(names, b)))
                if isinstance(want, Interval):
                    want = (_bits(want.lo), _bits(want.hi))
                    assert tuple(map(_bits, outcome(interval, b))) == want
                    assert tuple(map(_bits, outcome(gradient, b)[0])) == want
                else:
                    assert outcome(interval, b) == outcome(gradient, b) == want


class TestIntervalEvalRunsTheKernel:
    @settings(max_examples=200, deadline=None)
    @given(expressions(), bounds())
    # ends that are zeros of either sign
    @example(-x, ((0.0, 0.0), (-1.0, 1.0)))
    @example(ex.const(-0.0) * y - x, ((-0.0, 0.0), (-0.0, -0.0)))
    @example(ex.emin(x, y), ((-0.0, -0.0), (0.0, 0.0)))
    def test_a_box_and_its_intervals_give_the_same_bits(self, e, pairs):
        box = BoxDomain((n, lo, hi) for n, (lo, hi) in zip(NAMES, pairs))

        def outcome(over):
            got = _outcome(interval_eval, e, over)
            return (_bits(got.lo), _bits(got.hi)) if isinstance(got, Interval) else got
        assert outcome(box) == outcome(box.intervals())

    def test_a_signed_zero_end_is_kept(self):
        box = BoxDomain([("x", 0.0, 0.0), ("y", -1.0, 1.0)])
        got = interval_eval(-x, box)
        assert (_bits(got.lo), _bits(got.hi)) == (_bits(-0.0), _bits(-0.0))

    def test_a_repeated_call_compiles_nothing(self):
        e = (x - y) ** 2 + x
        box = BoxDomain([("x", -1.0, 1.0), ("y", 0.0, 2.0)])
        first = interval_eval(e, box)
        kernels = e.__dict__["_kernels"]
        size = len(kernels)
        assert interval_eval(e, box) == first
        assert interval_eval(e, box.intervals()) == first
        assert len(e.__dict__["_kernels"]) == size
        assert compile_expr(e, box.names) in kernels.values()


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


# A small forward-mode reference for the gradient kernel, as the walks over
# floats and intervals (``evaluate``, ``reference_interval``) are the references
# for the point and interval kernels.  A node's rule maps its value
# and its children's values and gradients to its gradient.  A derivative is
# None, absent, along a coordinate that the node's subtree does not read: it is
# exactly 0, and an operation on it is absent or its other side's.  The
# derivative arithmetic never raises: a NaN, from inf * 0 or inf - inf, means
# the sign is unknown, so it widens to the entire line.

_ENTIRE = (-math.inf, math.inf)
_ZERO = (0.0, 0.0)


def _dadd(p, q):
    if p is None or q is None:
        return q if p is None else p
    lo = p[0] + q[0]
    hi = p[1] + q[1]
    return (lo, hi) if lo <= hi else _ENTIRE


def _dneg(p):
    return None if p is None else (-p[1], -p[0])


def _dmul(p, q):
    if p is None or q is None:
        return None
    a, b = p
    c, d = q
    w, x, y, z = a * c, a * d, b * c, b * d
    s = w + x + y + z
    if s != s:  # a NaN product, or products of both infinite signs
        return _ENTIRE
    return min(w, x, y, z), max(w, x, y, z)


def _hull(p, q):
    if p is None and q is None:
        return None
    p, q = p or _ZERO, q or _ZERO
    return (p[0] if p[0] < q[0] else q[0]), (p[1] if p[1] > q[1] else q[1])


def _either(side, p, q):
    """One side's derivative where min or max takes that side, an absent one
    being 0 where the other side's is present."""
    if p is None and q is None:
        return None
    return side or _ZERO


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
            return lambda v, a, da: (None,) * len(da)

        def pow_(v, a, da):
            u = ReferenceInterval(*a) ** (n - 1)
            factor = (n * u.lo, n * u.hi)
            return tuple(_dmul(factor, p) for p in da)
        return pow_
    if k == "min":
        def min_(v, a, da, c, dc):
            if a[1] < c[0]:
                return tuple(_either(p, p, q) for p, q in zip(da, dc))
            if c[1] < a[0]:
                return tuple(_either(q, p, q) for p, q in zip(da, dc))
            return tuple(map(_hull, da, dc))
        return min_

    def max_(v, a, da, c, dc):
        if a[0] > c[1]:
            return tuple(_either(p, p, q) for p, q in zip(da, dc))
        if c[0] > a[1]:
            return tuple(_either(q, p, q) for p, q in zip(da, dc))
        return tuple(map(_hull, da, dc))
    return max_


def _reference_gradient(e, names, box):
    """``compile_gradient(e, names)(box)`` by recursion: children first, then
    the node's value by ``reference_interval`` and its gradient by its rule;
    an absent derivative comes out as (0.0, 0.0)."""
    env = dict(zip(names, box))

    def walk(e):
        kids = [walk(c) for c in e.children]
        v = reference_interval(e, env)
        v = (v.lo, v.hi)
        if e.kind == "var":
            return v, tuple((1.0, 1.0) if n == e.name else None for n in names)
        if e.kind == "const":
            return v, (None,) * len(names)
        return v, _derivative(e)(v, *itertools.chain.from_iterable(kids))
    value, gradient = walk(e)
    return value, tuple(p or _ZERO for p in gradient)


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
    # powers: the zeroth, and an infinite factor times an absent derivative
    @example(ex.ipow(x - y, 0) + ex.ipow(x, 3), ((-1.0, 2.0), (0.0, 1.0)))
    @example(ex.ipow(x, 2), ((0.0, math.inf), (0.0, 1.0)))
    @example(ex.const(math.inf) * x, ((-1.0, 1.0), (0.0, 1.0)))
    # an absent side: passed through, negated, or 0 in a hull
    @example(ex.const(2.0) - y * x, ((-1.0, 2.0), (0.5, 1.0)))
    @example(ex.const(3.0) / (y + 3.0), ((-1.0, 2.0), (0.5, 1.0)))
    @example(ex.emax(x, ex.const(0.5)) * ex.const(math.inf), ((0.0, 1.0), (0.0, 1.0)))
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

    def test_an_absent_derivative_is_exactly_zero(self):
        # neither tree reads y, so its derivative along y is absent: exactly
        # (0.0, 0.0), where inf * 0 would have widened it to the entire line
        box = ((0.0, math.inf), (0.0, 1.0))
        assert compile_gradient(ex.ipow(x, 2), NAMES)(box) == (
            (0.0, math.inf), ((0.0, math.inf), (0.0, 0.0)))
        got = compile_gradient(ex.const(math.inf) * x, NAMES)(((-1.0, 1.0), (0.0, 1.0)))
        assert _nested_bits(got) == _nested_bits(
            ((-math.inf, math.inf), ((math.inf, math.inf), (0.0, 0.0))))

    def test_a_kernel_writes_no_line_for_an_absent_derivative(self):
        # x * 2 + y: the product's line along y, the sum's along either
        # coordinate, and the constant's along both are absent
        kernel = compile_gradient(x * 2.0 + y, NAMES)
        assert kernel(((0.0, 1.0), (-1.0, 1.0))) == (
            (-1.0, 3.0), ((2.0, 2.0), (1.0, 1.0)))
        names = kernel.__code__.co_varnames
        assert [v for v in names if v.startswith(("dl", "dh"))] == ["dl2_0", "dh2_0"]

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
        # tree keeps its compiled ones, and its analysis of the solve's root
        if constraint:
            e = ConstraintSpec(e, "ge", (("y", -1.5),))

        def compiled(o):
            """o's kernels, made or kept: a point kernel and a point for it."""
            if constraint:
                o.bind(("x",), 0.0)
                try:
                    minimize(x, [o], BoxDomain([("x", -1.0, 1.0)]), node_budget=0)
                except (ValueError, OverflowError, RuntimeError):
                    pass
                return o.bind(("x",), 1e-9).satisfied, (0.5,)
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


# -- the grid kernel and evaluate_array against the reference walk --------------

AXES = ("x", "y", "z")
BOUND = ("a", "b")   # bound values: floats, as the grid binds them


@st.composite
def array_cases(draw):
    """A random DAG over an open grid of 1-3 axes (each of 1-4 points), two
    bound values and, one time in ten, a variable bound nowhere; and the
    rows of the first axis per block, so that the last block is often
    short."""
    dims = draw(st.integers(1, 3))
    axes = [draw(st.lists(COORDS, min_size=1, max_size=4)) for _ in range(dims)]
    bound = {n: draw(CONSTS) for n in BOUND}
    e = draw(expressions(names=AXES[:dims] + BOUND, unknown="w"))
    return e, axes, bound, draw(st.integers(1, len(axes[0])))


def _open_grid(axes):
    """The axes as the arrays of an open grid: axis i along dimension i."""
    return [np.array(a, dtype=float).reshape((1,) * i + (-1,) + (1,) * (len(axes) - 1 - i))
            for i, a in enumerate(axes)]


def _array_outcome(fn, e, env):
    """``fn(e, env)``'s type, shape and bits, with the sign of each NaN
    cleared (see the ``expr`` docstring), or the message of the
    ``EvaluationError`` it raised; read at once, before a later evaluation
    can reuse the result's buffer."""
    try:
        with np.errstate(all="ignore"):
            v = fn(e, env)
    except EvaluationError as err:
        return str(err)
    a = np.array(v, dtype=float)
    bits = a.view(np.uint64)
    bits[np.isnan(a)] &= np.uint64(2 ** 63 - 1)
    return type(v), a.shape, bits.tolist()


def _masked_outcome(fn, e, env):
    """``fn(e, env)``'s ``(passed, values)`` as the grid oracle reads them:
    ``None`` where no point passes, else the values' type and shape and, at
    each point, its bits (as ``_array_outcome``'s) where it passes and
    ``None`` where it fails; or the message of the ``EvaluationError`` it
    raised."""
    try:
        with np.errstate(all="ignore"):
            passed, v = fn(e, env)
    except EvaluationError as err:
        return str(err)
    if not np.any(passed):
        return None
    _, shape, bits = _array_outcome(lambda e, env: v, e, env)
    passed = np.broadcast_to(passed, shape).ravel().tolist()
    return type(v), shape, [b if p else None for b, p in zip(np.ravel(bits).tolist(), passed)]


class TestArrayKernel:
    @settings(max_examples=400, deadline=None)
    @given(array_cases())
    @example((x / (y - ex.var("a")) + ex.var("w"), [[1.0, 2.0], [0.5, 1.0]],
              {"a": 0.5, "b": 0.0}, 1))
    # y = a in one block of two: those points fail, the rest pass
    @example((x / (y - ex.var("a")), [[1.0, 2.0], [0.5, 1.0]], {"a": 0.5, "b": 0.0}, 1))
    @example((ex.emin(x * y, x * y) - (ex.var("a") + 1.0) ** 2 / ex.var("b"),
              [[1.0, 2.0, 3.0], [-0.0, 4.0], [1e200]], {"a": 2.0, "b": -0.5}, 2))
    def test_matches_the_reference_walk_bit_for_bit(self, case):
        e, axes, bound, rows = case
        grid = _open_grid(axes)
        # block by block, as the grid oracle moves its first axis
        for env, run in _grid_blocks(e, grid, bound, rows):
            assert _masked_outcome(run, e, env) == _masked_outcome(reference_grid, e, env)
        # the public entry point, over the whole grid
        env = {**bound, **dict(zip(AXES, grid))}
        assert _array_outcome(evaluate_array, e, env) == \
            _array_outcome(reference_array, e, env)

    def test_a_zero_divisor_fails_its_points_where_the_walk_raises(self):
        grid = _open_grid([[0.0, 1.0], [2.0, 3.0]])
        env = dict(zip(AXES, grid))

        def run(e):
            return arrays.grid_kernel(e, (), (), AXES[:2])(grid, (2, 2), 0.0)
        # x is zero in the first row, whose points fail; -0.0 too
        for divisor in (x, x * -1.0):
            ok, vals = run(y / divisor)
            assert ok.tolist() == [[False], [True]]
            assert vals[1].tolist() == ([2.0, 3.0] if divisor is x else [-2.0, -3.0])
            assert _masked_outcome(lambda e, env: run(e), y / divisor, env) == \
                _masked_outcome(reference_grid, y / divisor, env)
        # zero everywhere, over an array or a float: no point passes, and a
        # float's zero, which no block changes, fails every block
        for e, ok in [(y / (x - x) ** 2, None), (y / (ex.const(1.0) - 1.0), False)]:
            assert run(e) == (ok, None)
            assert _masked_outcome(reference_grid, e, env) is None
        # where the walk raises, evaluate_array raises too
        for e, message in [(y / x + ex.var("w"), "division by zero"),
                           (ex.var("w") + y / x, "unknown variable 'w'"),
                           (y / (x - x) ** 2, "division by zero")]:
            for walk in (evaluate_array, reference_array):
                with pytest.raises(EvaluationError, match=message):
                    walk(e, env)

    def test_an_unbound_variable_raises_when_the_kernel_is_made(self):
        # before or after a zero divisor, and where no point passes
        for e in (y / x + ex.var("w"), ex.var("w") + y / x,
                  y / (x - x) + ex.var("w")):
            with pytest.raises(EvaluationError, match="unknown variable 'w'"):
                arrays.grid_kernel(e, (), (), AXES[:2])
            with pytest.raises(EvaluationError, match="unknown variable 'w'"):
                reference_grid(e, dict(zip(AXES, _open_grid([[0.0, 1.0], [2.0, 3.0]]))))

    def test_slots_are_the_most_temporaries_live_at_once(self):
        # a chain over one axis works in one slot
        assert _slots(-((x * 2.0 + 1.0) ** 3 - x), 1) == 1
        # x * y spans both axes, so x + 1's slot cannot take it; y + 1 does
        # not span the first axis, so it writes a fresh array, in no slot
        assert _slots((x + 1.0) * (y + 1.0), 2) == 2
        # (x + 1) is read again at the end, so it holds its slot throughout
        u = x + 1.0
        assert _slots(ex.emax(u * u, u) - u, 1) == 2
        # a subtree without a grid axis takes no slot
        assert _slots((ex.var("a") + 1.0) * 2.0, 1) == 0

    def test_an_equal_node_is_computed_once_in_any_number_of_slots(self):
        # the powers of x, built twice: the sum computes each once, and the
        # product reads them all again, so x^2 ... x^6 and the running sum
        # are live at once when the sum takes x^6: six slots
        def powers():
            return [x ** i for i in range(2, 7)]
        first, second = powers(), powers()
        e = sum(first[1:], first[0]) + math.prod(second[1:], start=second[0])
        assert _slots(e, 1) == 6
        assert _sources(e)[3].count("_float_power(") == 5
        grid = _open_grid([[-1.5, -0.0, 0.5, 2.0]])
        for env, run in _grid_blocks(e, grid, {}, 4):
            assert _masked_outcome(run, e, env) == _masked_outcome(reference_grid, e, env)

    def test_a_public_result_is_the_callers_own(self):
        grid = _open_grid([[0.0, 1.0, 2.0], [3.0, 4.0]])
        env = dict(zip(AXES, grid))
        first = evaluate_array(x * y + 1.0, env)
        kept = first.copy()
        evaluate_array(x * y - 1.0, env)
        arrays.grid_kernel(x * y - 2.0, (), (), AXES[:2])(grid, (3, 2), 0.0)
        assert np.array_equal(first, kept)


def _grid_blocks(e, grid, bound, rows):
    """``e``'s grid kernel, without constraints, over the open ``grid`` with
    the bound values ``bound`` (of ``BOUND``), block by block of ``rows``
    rows of the first axis, as the grid oracle runs it: each block's
    environment, and the function that runs the kernel over it, made (or
    raising) at its first call."""
    names = AXES[:len(grid)]
    args = [*grid, *(bound.get(n, 0.0) for n in BOUND)]
    for start in range(0, grid[0].size, rows):
        args[0] = grid[0][start:start + rows]
        lengths = tuple(a.size for a in args[:len(names)])
        yield ({**bound, **dict(zip(names, args))},
               lambda e, env: arrays.grid_kernel(e, BOUND, (), names)(args, lengths, 0.0))


def _slots(e, axes):
    """The buffer slots of ``e``'s grid kernel over the first ``axes`` of
    ``AXES``, with the bound values ``BOUND``."""
    layout = arrays.grid_kernel(e, BOUND, (), AXES[:axes]).__globals__["_layout"]
    return len({s for s, _ in layout})


# -- value numbering: equal subtrees built apart are computed once --------------

# constants whose bits a merge would mix up: signed zeros, infinities, the
# edge of overflow, NaNs of both signs
NUMBERED = st.sampled_from([0.0, -0.0, math.inf, -math.inf, 1e308, -1e308,
                            math.nan, -math.nan])


def _rebuilt(e):
    """A copy of ``e`` built apart: equal to it, with no node in common."""
    return ex.Expr(e.kind, value=e.value, name=e.name, exponent=e.exponent,
                   children=tuple(map(_rebuilt, e.children)))


@st.composite
def repeated_subtrees(draw):
    """A tree whose subtrees repeat, built apart: a random DAG over
    ``NAMES`` and a copy of it or of one of its subterms, under one binary
    node."""
    e = draw(expressions(consts=NUMBERED))
    s = _rebuilt(draw(st.sampled_from(list(_subterms(e)))))
    kind = draw(st.sampled_from(("add", "sub", "mul", "div", "min", "max")))
    return ex.Expr(kind, children=(e, s) if draw(st.booleans()) else (s, _rebuilt(e)))


def _sources(e):
    """The source of each of ``e``'s kernels over ``x``: point, interval,
    gradient and grid."""
    made = []

    def spy(source, *args):
        made.append(source)
        return compile(source, *args)
    with mock.patch.object(kernels, "compile", spy, create=True), \
            mock.patch.object(arrays, "compile", spy, create=True):
        compile_expr(e, ("x",))
        compile_gradient(e, ("x",))
        arrays.grid_kernel(e, (), (), ("x",))
    return made


class TestValueNumbering:
    @settings(max_examples=300, deadline=None)
    @given(repeated_subtrees(), st.tuples(COORDS, COORDS), bounds(),
           st.lists(COORDS, min_size=1, max_size=3), st.lists(COORDS, min_size=1, max_size=3))
    @example(ex.const(0.0) * x - ex.const(-0.0) * x, (1.0, 2.0),
             ((1.0, 1.0), (0.0, 0.0)), [1.0], [2.0])
    @example((x + ex.const(math.nan)) * (ex.const(-math.nan) + x), (1.0, 2.0),
             ((1.0, 1.0), (0.0, 0.0)), [1.0], [2.0])
    # a divisor zero at x = 1 alone, built twice
    @example((x - 1.0) / (x - 1.0), (1.0, 2.0), ((1.0, 2.0), (0.0, 0.0)), [1.0, 2.0], [2.0])
    def test_every_kernel_matches_its_reference(self, e, point, box, xs, ys):
        want = _outcome(evaluate, e, dict(zip(NAMES, point)))
        assert _bits(_outcome(compile_expr(e, NAMES)[0], point)) == _bits(want)
        want = _outcome(reference_interval, e, dict(zip(NAMES, box)))
        if isinstance(want, Interval):
            want = (want.lo, want.hi)
        assert _nested_bits(_outcome(compile_expr(e, NAMES)[1], box)) == _nested_bits(want)
        want = _outcome(_reference_gradient, e, NAMES, box)
        assert _nested_bits(_outcome(compile_gradient(e, NAMES), box)) == _nested_bits(want)
        grid = _open_grid([xs, ys])
        env = dict(zip(NAMES, grid))
        assert _array_outcome(evaluate_array, e, env) == \
            _array_outcome(reference_array, e, env)
        for env, run in _grid_blocks(e, grid, {}, 1):
            assert _masked_outcome(run, e, env) == _masked_outcome(reference_grid, e, env)

    def test_a_power_built_twice_is_one_line(self):
        once = _sources(ex.ipow(ex.var("x"), 2))
        twice = _sources(ex.ipow(ex.var("x"), 2) + ex.ipow(ex.var("x"), 2))
        powers = ("**", "**", "**", "_float_power(")
        assert [s.count(p) for s, p in zip(twice, powers)] == \
            [s.count(p) for s, p in zip(once, powers)]
        assert [s.count(p) for s, p in zip(twice, powers)][::3] == [1, 1]

    def test_signed_zero_constants_stay_apart(self):
        # -0.0 - 0.0 is -0.0; one constant for both would give 0.0
        e = x * ex.const(-0.0) - x * ex.const(0.0)
        point, interval = compile_expr(e, ("x",))
        assert _bits(point((1.0,))) == _bits(-0.0)
        assert tuple(map(_bits, interval(((1.0, 1.0),)))) == (_bits(-0.0),) * 2
        assert tuple(map(_bits, compile_gradient(e, ("x",))(((1.0, 1.0),))[0])) == \
            (_bits(-0.0),) * 2
        grid = [np.ones(2)]
        assert np.signbit(evaluate_array(e, {"x": grid[0]})).all()
        assert np.signbit(arrays.grid_kernel(e, (), (), ("x",))(grid, (2,), 0.0)[1]).all()
