"""The grid oracle (``gsiplab.grid``): ``grid_minimize``'s blocks, kernel,
reductions, axes and buffers, and the point-by-point scan, each against the
dense reference grid."""
import contextlib
import copy
import itertools
import math
import pickle
import random
import re
import sys
import threading
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import random_box, random_expr, random_poly_instance, reference_grid
from test_expr import CONSTS, COORDS, _bits, _rebuilt, _subterms, expressions
from test_golden import ORACLE_GRID_N
from gsiplab import arrays, grid
from gsiplab import expr as ex
from gsiplab.domains import BoxDomain
from gsiplab.expr import EvaluationError, evaluate, evaluate_array
from gsiplab.globalopt import INFEASIBLE, ConstraintSpec, MinimizeOutcome, minimize
from gsiplab.grid import grid_minimize

x, y, z = ex.var("x"), ex.var("y"), ex.var("z")
UNIT_X = BoxDomain([("x", -1.0, 1.0)])
UNIT_Y = BoxDomain([("y", -1.0, 1.0)])


class TestGridMinimize:
    def test_linear(self):
        out = grid_minimize(-x, [], UNIT_X, 101)
        assert out.minimizer["x"] == 1.0
        assert out.value == -1.0

    def test_two_dim_diagonal(self):
        box = BoxDomain([("x", -1.0, 1.0), ("y", -1.0, 1.0)])
        out = grid_minimize((x - y) ** 2 - 10.0, [], box, 101)
        assert out.value == -10.0
        assert out.minimizer["x"] == out.minimizer["y"]

    def test_infeasible(self):
        out = grid_minimize(y, [ConstraintSpec(2.0 + y, "le")], UNIT_Y, 101)
        assert out.status == "infeasible"

    def test_rejects_degenerate_grid(self):
        for oracle in (grid_minimize, grid._grid_scan):
            with pytest.raises(ValueError, match="points_per_axis must be at least 2"):
                oracle(x, [], UNIT_X, 1)

    @pytest.mark.parametrize("objective,constraints,coords,n", [
        # constant objective and constraint on a 2-D box
        (ex.const(3.0), [ConstraintSpec(ex.const(-1.0), "le")],
         [("x", -1.0, 2.0), ("y", 0.5, 1.5)], 9),
        # objective in x only, constraint in y only
        ((x - 0.3) ** 2, [ConstraintSpec(y - 0.2, "ge")],
         [("x", -1.0, 1.0), ("y", -1.0, 1.0)], 11),
        # 3-D box
        (x * y - z ** 3 + ex.emin(x, z) + ex.emax(y ** 2, ex.const(1.5)),
         [ConstraintSpec(x + y + z - 0.5, "le"),
          ConstraintSpec(y * y - 0.1, "ge")],
         [("x", -1.0, 1.0), ("y", 0.0, 2.0), ("z", -3.0, -0.5)], 7),
        # 4 points on [-1, 1] miss y = 0.5, so the divisor is never zero
        (x / (y - 0.5), [], [("x", -1.0, 1.0), ("y", -1.0, 1.0)], 4),
    ], ids=["constant", "separate-axes", "3d", "division"])
    def test_matches_dense_grid(self, objective, constraints, coords, n):
        # bit for bit: repr round-trips every float
        box = BoxDomain(coords)
        assert repr(grid_minimize(objective, constraints, box, n)) == repr(
            _dense_grid_minimize(objective, constraints, box, n))

    def test_nan_is_never_the_minimum(self):
        # inf * x is NaN at x = 0 and -inf at x = -1, minimize's minimum too
        obj = ex.const(math.inf) * x
        with np.errstate(invalid="ignore"):
            out = grid_minimize(obj, [], UNIT_X, 5)
        assert (out.minimizer, out.value) == ({"x": -1.0}, -math.inf)
        bnb = minimize(obj, [], UNIT_X)
        assert (bnb.minimizer, bnb.value) == (out.minimizer, out.value)

    def test_a_grid_of_nan_values_is_infeasible(self):
        with np.errstate(invalid="ignore"):
            out = grid_minimize(ex.const(math.inf) * (x - x), [], UNIT_X, 5)
        assert out is INFEASIBLE

    def test_infinite_minimum_is_at_a_feasible_point(self):
        # every feasible value is +inf: the minimizer is the first feasible
        # point, as minimize's first incumbent is, not the infeasible x = -1
        out = grid_minimize(ex.const(math.inf), [ConstraintSpec(x, "ge")], UNIT_X, 5)
        assert (out.minimizer, out.value) == ({"x": 0.0}, math.inf)

    def test_a_bound_value_named_like_an_axis(self):
        # as in minimize: the axes of the box are the grid's, never bound
        cons = [ConstraintSpec(x, parameters=(("x", 0.5),))]
        for objective, constraints, parameters in [(x, [], (("x", 0.5),)),
                                                   (x, cons, ())]:
            with pytest.raises(ValueError, match="share names"):
                grid_minimize(objective, constraints, UNIT_X, 5,
                              parameters=parameters)
            with pytest.raises(ValueError, match="share names"):
                minimize(objective, constraints, UNIT_X, parameters=parameters)

    @pytest.mark.parametrize("obj,want", [(x / (y - 0.5), -2.0),
                                          (x - 1.0 / (y - 0.5), -3.0)])
    def test_a_zero_divisor_fails_its_grid_point(self, obj, want):
        # 5 points on [-1, 1] include y = 0.5, where the divisor is zero and
        # obj at x = -1 would be -inf; as one block, and as one row per
        # block, whose later rows test their divisor, kept from the first
        # row (as is the second division), on the kept path
        for block in (25, 5):
            with warnings.catch_warnings(), np.errstate(all="warn"):
                warnings.simplefilter("error")
                out = _blocked(block, obj, [], UNIT_XY, 5)
            assert (out.minimizer, out.value) == ({"x": -1.0, "y": 1.0}, want)
            assert repr(out) == repr(_dense_grid_minimize(obj, [], UNIT_XY, 5))

    def test_only_a_kernel_that_divides_by_an_array_sets_the_error_state(self):
        # np.errstate costs microseconds per call: a kernel whose divisors
        # are all floats, or that does not divide, leaves it alone
        for e, divides in [(x / (y - 0.5), True), (x / (ex.var("a") - 0.5), False),
                           (x * y, False)]:
            kernel = arrays.grid_kernel(e, ("a",), (), UNIT_XY.names)
            assert ("_errstate" in kernel.__code__.co_names) is divides


def _blocked(block, *args, **kwargs):
    """``grid_minimize(*args, **kwargs)`` in blocks of at most ``block`` grid
    points."""
    with mock.patch.object(grid, "_BLOCK_POINTS", block):
        return grid_minimize(*args, **kwargs)


def _traced(block, *args, **kwargs):
    """``_blocked(block, *args, **kwargs)`` and, per block, the numpy
    functions its grid kernel called, by name, in order."""
    blocks = []
    make = arrays.grid_kernel

    def grid_kernel(*key):
        kernel = make(*key)
        namespace = kernel.__globals__

        def spy(name):
            def call(*a, **kw):
                blocks[-1].append(name)
                return ufunc(*a, **kw)
            ufunc = namespace[f"_{name}"]
            return call
        spies = {f"_{name}": spy(name) for name in arrays._UFUNCS.values()}

        def run(*a):
            blocks.append([])
            with mock.patch.dict(namespace, spies):
                return kernel(*a)
        return run
    with mock.patch.object(arrays, "grid_kernel", grid_kernel):
        return _blocked(block, *args, **kwargs), blocks


UNIT_XY = BoxDomain([("x", -1.0, 1.0), ("y", -1.0, 1.0)])


class TestGridBlocks:
    """Blocks far smaller than the default make tiny grids span many."""

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.integers(1, 3), st.integers(2, 6),
           st.sampled_from((1, 7, 64)))
    def test_matches_the_dense_grid(self, seed, dims, n, block):
        rng = random.Random(seed)
        names = ["x", "y", "z"][:dims]
        box = random_box(rng, names)
        objective = random_expr(rng, names, rng.randint(0, 3))
        constraints = [ConstraintSpec(random_expr(rng, names, rng.randint(0, 2)),
                                      rng.choice(["le", "ge"]))
                       for _ in range(rng.randint(0, 2))]
        assert repr(_blocked(block, objective, constraints, box, n)) == repr(
            _dense_grid_minimize(objective, constraints, box, n))

    @pytest.mark.parametrize("block", [1, 7, 10, 64])
    def test_a_tie_goes_to_the_first_point(self, block):
        # 0 at (-0.5, 0) and (0.5, 0), in rows 1 and 3 of the 5 x 5 grid
        obj = (x * x - 0.25) ** 2 + y * y
        out = _blocked(block, obj, [], UNIT_XY, 5)
        assert (out.minimizer, out.value) == ({"x": -0.5, "y": 0.0}, 0.0)
        assert repr(out) == repr(_dense_grid_minimize(obj, [], UNIT_XY, 5))

    def test_infeasible_blocks_before_a_feasible_one(self):
        # one row per block: only the last two rows satisfy x >= 0.5
        cons = [ConstraintSpec(x - 0.5, "ge")]
        out = _blocked(5, -y, cons, UNIT_XY, 5)
        assert (out.minimizer, out.value) == ({"x": 0.5, "y": 1.0}, -1.0)
        assert repr(out) == repr(_dense_grid_minimize(-y, cons, UNIT_XY, 5))

    def test_a_zero_divisor_in_the_last_block_fails_its_points(self):
        # x - 1 is zero in the last row only, which divides nothing
        out, blocks = _traced(5, y / (x - 1.0), [], UNIT_XY, 5)
        assert (out.minimizer, out.value) == ({"x": 0.5, "y": 1.0}, -2.0)
        assert repr(out) == repr(_dense_grid_minimize(y / (x - 1.0), [], UNIT_XY, 5))
        assert blocks == [["subtract", "divide"]] * 4 + [["subtract"]]

    def test_box_without_axes(self):
        box = BoxDomain([])
        for cons in ([], [ConstraintSpec(ex.const(-1.0), "le")],
                     [ConstraintSpec(ex.const(1.0), "le")]):
            out = _blocked(1, ex.const(2.0), cons, box, 5)
            assert repr(out) == repr(_dense_grid_minimize(ex.const(2.0), cons, box, 5))
        assert out is INFEASIBLE
        assert repr(grid_minimize(ex.const(2.0), [], box, 5)) == repr(
            MinimizeOutcome("optimal", {}, 2.0))

    @pytest.mark.parametrize("block", [1, 7, 24])
    def test_a_row_larger_than_the_block(self, block):
        # 3-D, 5 points per axis: a row of the first axis holds 25 points
        box = BoxDomain([("x", -1.0, 1.0), ("y", 0.0, 2.0), ("z", -3.0, -0.5)])
        obj = x * y - z ** 3 + ex.emin(x, z)
        cons = [ConstraintSpec(x + y + z - 0.5, "le")]
        assert repr(_blocked(block, obj, cons, box, 5)) == repr(
            _dense_grid_minimize(obj, cons, box, 5))


class TestGridFeasibilityFirst:
    """A block evaluates its constraints first and its objective last, and
    stops once none of its points passes."""

    def test_no_tree_after_a_constraint_that_no_point_passes(self):
        first = ConstraintSpec(2.0 + y, "le")
        second = ConstraintSpec(x * y, "ge")
        # w is a bound value, so the objective cannot raise
        obj = x * x + ex.var("w")
        out, blocks = _traced(5, obj, [first, second], UNIT_XY, 5,
                              parameters=(("w", 1.0),))
        assert out is INFEASIBLE
        # 2 + y spans the second axis alone, so it is the same on every
        # block: the first computes it, no point passes, and no later block
        # runs; neither product is ever computed
        assert blocks == [["add"]]

    def test_the_objective_only_on_blocks_with_a_feasible_point(self):
        # only the last two rows satisfy x >= 0.5
        cons = [ConstraintSpec(x - 0.5, "ge")]
        out, blocks = _traced(5, x * y, cons, UNIT_XY, 5)
        assert (out.minimizer, out.value) == ({"x": 1.0, "y": -1.0}, -1.0)
        assert blocks == [["subtract"]] * 3 + [["subtract", "multiply"]] * 2

    @pytest.mark.parametrize("n", [4, 5])
    def test_a_dividing_tree_runs_on_no_block_once_no_point_passes(self, n):
        # no point passes 2 + y <= 0; y - 0.5 is zero at a grid point of 5
        # points, at none of 4; the first block returns at the first test,
        # ahead of both, no later block runs, and no block divides
        first = ConstraintSpec(2.0 + y, "le")
        for objective, cons in [(x / (y - 0.5), [first]),
                                (x, [first, ConstraintSpec(x / (y - 0.5)),
                                     ConstraintSpec(x * x, "le")])]:
            out, blocks = _traced(n, objective, cons, UNIT_XY, n)
            assert out is INFEASIBLE
            assert repr(out) == repr(_dense_grid_minimize(objective, cons, UNIT_XY, n))
            assert blocks == [["add"]]

    def test_a_zero_divisor_over_no_array_decides_the_grid(self):
        # w - 1 is zero: the first block computes the lines before the
        # divisor's test, then fails it, and no later block runs
        w = ex.var("w")
        objective = x * y + (y + 1) ** 3 + x / (w - 1)
        out, blocks = _traced(5, objective, [], UNIT_XY, 5, parameters=(("w", 1.0),))
        assert out is INFEASIBLE
        assert repr(out) == repr(_dense_grid_minimize(
            objective, [], UNIT_XY, 5, parameters=(("w", 1.0),)))
        assert blocks == [["multiply", "add", "float_power", "add"]]

    def test_a_failing_constraint_over_no_axis_ends_the_grid(self):
        # every point passes x * x - 1 <= 0, and none w - 2 <= 0 at w = 3,
        # which no block changes: the first block fails it, and no later
        # block runs
        cons = [ConstraintSpec(x * x - 1.0),
                ConstraintSpec(ex.var("w") - 2.0, "le", (("w", 3.0),))]
        out, blocks = _traced(5, x * y, cons, UNIT_XY, 5)
        assert out is INFEASIBLE
        assert repr(out) == repr(_dense_grid_minimize(x * y, cons, UNIT_XY, 5))
        assert blocks == [["multiply", "subtract"]]

    def test_a_value_that_no_point_reaches_warns_of_nothing(self):
        # no point passes 2 + y <= 0, so no block reaches the objective, whose
        # (y * 1e300) ** 2 would overflow
        cons = [ConstraintSpec(2.0 + y, "le")]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            out = grid_minimize(x + (y * 1e300) ** 2, cons, UNIT_XY, 5)
        assert out is INFEASIBLE

    @pytest.mark.parametrize("objective", [x + (y * 1e300) ** 2, y + (x * 1e300) ** 2],
                             ids=["second-axis", "first-axis"])
    def test_a_reached_overflow_warns_over_any_axis(self, objective):
        # (1e300) ** 2 overflows: the grid warns where the walk does
        env = dict(zip(UNIT_XY.names, np.ix_(*[np.linspace(-1.0, 1.0, 5)] * 2)))
        for run in (lambda: grid_minimize(objective, [], UNIT_XY, 5),
                    lambda: evaluate_array(objective, env)):
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                with pytest.raises(RuntimeWarning, match="overflow encountered in float_power"):
                    run()

    def test_a_divisor_zero_everywhere_fails_every_point(self):
        # every point passes x * x <= 1, and y - y, over the second axis
        # alone, is zero everywhere: the first block returns at the
        # divisor's test and divides nothing, and no later block runs
        cons = [ConstraintSpec(x * x - 1.0, "le")]
        objective = x * y + x / (y - y)
        out, blocks = _traced(5, objective, cons, UNIT_XY, 5)
        assert out is INFEASIBLE
        assert repr(out) == repr(_dense_grid_minimize(objective, cons, UNIT_XY, 5))
        assert blocks == [["multiply", "subtract", "multiply", "subtract"]]

    @pytest.mark.parametrize("where", ["objective", "constraint"])
    def test_an_unbound_variable_raises_though_no_point_passes(self, where):
        # w is bound nowhere; no point passes 2 + y <= 0, which comes first
        cons = [ConstraintSpec(2.0 + y, "le")]
        objective = x + ex.var("w")
        if where == "constraint":
            cons, objective = cons + [ConstraintSpec(objective)], x
        for oracle in (grid_minimize, _dense_grid_minimize, grid._grid_scan):
            with pytest.raises(EvaluationError, match="unknown variable 'w'"):
                oracle(objective, cons, UNIT_XY, 5)

    @pytest.mark.parametrize("n", [4, 5])
    def test_a_dividing_tree_reads_an_earlier_trees_value(self, n):
        # the objective's x * y is the constraint's, computed once per block
        cons = [ConstraintSpec(x * y, "ge")]
        objective = x * y + x / (y - 0.5)
        out, blocks = _traced(n, objective, cons, UNIT_XY, n)
        assert repr(out) == repr(_dense_grid_minimize(objective, cons, UNIT_XY, n))
        assert blocks == [["multiply", "subtract", "divide", "add"]] * n

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.integers(1, 3), st.integers(2, 6),
           st.sampled_from((1, 7, 64)))
    def test_matches_the_dense_grid_with_infeasible_blocks(self, seed, dims,
                                                           n, block):
        rng = random.Random(seed)
        names = ["x", "y", "z"][:dims]
        box = random_box(rng, names)
        _, lo, hi = box.coords[0]
        # a cut across the first axis, along which the blocks are cut: the
        # blocks on its far side hold no feasible point
        cut = ConstraintSpec(x - rng.uniform(lo - 0.1, hi + 0.1),
                             rng.choice(["le", "ge"]))
        constraints = [ConstraintSpec(random_expr(rng, names, rng.randint(0, 2)),
                                      rng.choice(["le", "ge"]))
                       for _ in range(rng.randint(0, 2))]
        constraints.insert(rng.randint(0, len(constraints)), cut)
        objective = random_expr(rng, names, rng.randint(0, 3))
        assert repr(_blocked(block, objective, constraints, box, n)) == repr(
            _dense_grid_minimize(objective, constraints, box, n))


U, V = ex.var("u"), ex.var("v")
UNIT_UV = BoxDomain([("u", -1.0, 1.0), ("v", -1.0, 1.0)])


@st.composite
def axes_cases(draw):
    """A grid over (u, v) of 2, 3, 5, 8 or 65 points per axis; an objective
    and 0-2 constraints over u, v and the bound values a and b, each with
    its own values of a and b; and the rows per block.  One tree divides by
    a divisor over v alone (and, one time in three, a bound value), which
    is zero at a grid point, whose points fail, one time in three."""
    n = draw(st.sampled_from((2, 3, 5, 8, 65)))
    coords = []
    for name in ("u", "v"):
        lo, hi = sorted((draw(COORDS), draw(COORDS)))
        coords.append((name, lo, hi))
    box = BoxDomain(coords)
    if draw(st.integers(0, 2)) == 0:
        # a grid point of v, computed as the grid computes it
        c = float(np.linspace(*box.bounds[1], n)[draw(st.integers(0, n - 1))])
    else:
        c = draw(st.floats(-10.0, 10.0))
    divisor = V - c
    if draw(st.integers(0, 2)) == 0:
        divisor = divisor * draw(expressions(names=("v", "a"), unknown="b"))

    def tree():
        return draw(expressions(consts=CONSTS, names=("u", "v", "a", "b"), unknown="a"))

    def bound():
        return (("a", draw(COORDS)), ("b", draw(COORDS)))
    trees = [tree() for _ in range(draw(st.integers(1, 3)))]
    i = draw(st.integers(0, len(trees) - 1))
    trees[i] = trees[i] + tree() / divisor
    # a constraint may hold a copy of a subterm of the objective, built
    # apart, and the objective one of the last constraint's: equal subtrees
    # over their own bound values
    for j in range(1, len(trees)):
        if draw(st.booleans()):
            trees[j] = trees[j] - _rebuilt(draw(st.sampled_from(list(_subterms(trees[0])))))
    if len(trees) > 1 and draw(st.booleans()):
        trees[0] = trees[0] * _rebuilt(draw(st.sampled_from(list(_subterms(trees[-1])))))
    constraints = [ConstraintSpec(e, draw(st.sampled_from(("le", "ge"))), bound())
                   for e in trees[1:]]
    return trees[0], constraints, box, n, bound(), draw(st.sampled_from((1, 7, 64)))


def _grid_outcome(fn, *args, **kwargs):
    """``repr`` of what ``fn`` returns."""
    with np.errstate(all="ignore"):
        return repr(fn(*args, **kwargs))


class TestGridAxes:
    """Trees over either axis, bound values and divisors zero at a grid
    point match the dense grid, and the grid's axes are np.linspace's."""

    @settings(max_examples=200, deadline=None)
    @given(axes_cases())
    # 4 points on [-1, 1] miss v = 0.5, 5 points do not
    @example((U * (V - 0.5) + ex.var("a") / (V - 0.5), [], UNIT_UV, 4, (("a", 2.0),), 1))
    @example((U * (V - 0.5) + ex.var("a") / (V - 0.5), [], UNIT_UV, 5, (("a", 2.0),), 1))
    def test_matches_the_dense_grid(self, case):
        objective, constraints, box, n, parameters, rows = case
        assert _grid_outcome(_blocked, rows * n, objective, constraints, box, n,
                             parameters=parameters) == \
            _grid_outcome(_dense_grid_minimize, objective, constraints, box, n,
                          parameters=parameters)

    @settings(max_examples=200, deadline=None)
    @given(axes_cases())
    @example((U * V + ex.var("a") / (ex.var("b") - 1.0) + V / 2.0 + (V - 0.5) * 3.0,
              [ConstraintSpec(V * V - ex.var("a"), "le", (("a", 0.5),))],
              UNIT_UV, 5, (("a", 2.0), ("b", 3.0)), 1))
    def test_only_a_test_alike_on_every_block_ends_the_grid(self, case):
        # the generated source, read line by line: a value spans a grid axis
        # where it reads arg[0], arg[1] or a value that does, and the first
        # where it reads arg[0] or a value that does; every block runs every
        # line, and a test returns False only where it spans no first axis,
        # so that every block computes it alike; over the second axis, it
        # then narrows the mask by its operand t
        objective, constraints, box, _, parameters, _ = case
        sources = []

        def spy(source, *args):
            sources.append(source)
            return compile(source, *args)
        with mock.patch.object(arrays, "compile", spy, create=True):
            arrays._generate_grid(
                objective, tuple(n for n, _ in parameters),
                [(c.expr, c.sense, tuple(n for n, _ in c.parameters))
                 for c in constraints], box.names)
        (source,) = sources
        head, *body = [line.strip() for line in source.splitlines()]
        assert head == "def kernel(arg, lengths, tol):"
        spanning, first = set(), set()
        for line in body:
            target, _, rhs = line.partition(" = ")
            value = re.fullmatch(r"v\d+", target)
            reads = set(re.findall(r"\b(?:v\d+|t)\b", rhs if value else line))
            over = bool(re.search(r"arg\[[01]\]", rhs) or spanning & reads)
            over_first = bool("arg[0]" in rhs or first & reads)
            if value:
                spanning |= {target} if over else set()
                first |= {target} if over_first else set()
            elif line.endswith("return False, None"):
                assert line.startswith("if not ") and not over_first, line
                if over:
                    assert line.startswith("if not (t := "), line
                    spanning.add("t")
            elif line.endswith("return None, None"):
                assert over, line

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.one_of(COORDS, st.sampled_from(
               [5e-324, -5e-324, 1e-320, 1.7e308, -1.7e308, math.ulp(1.0)])),
           min_size=2, max_size=2),
           st.lists(st.sampled_from((2, 3, 401)), min_size=2, max_size=2),
           st.booleans())
    @example([0.5, 0.5], [401, 2], False)           # lo == hi
    @example([-0.0, 0.0], [3, 401], True)           # signed zeros, both ways
    @example([0.0, 5e-324], [401, 3], False)        # the step underflows to 0
    @example([-1.7e308, 1.7e308], [3, 2], False)    # the span overflows
    def test_the_axes_are_linspaces(self, ends, ns, swap):
        # the axes as the grid's trees see them, over one block
        lo, hi = sorted(ends)
        if swap and lo == hi:
            lo, hi = hi, lo
        seen = []
        make = arrays.grid_kernel

        def grid_kernel(*key):
            kernel = make(*key)

            def run(args, *rest):
                seen.append([a.copy() for a in args])
                return kernel(args, *rest)
            return run
        for n in ns:
            box = BoxDomain([("u", lo, hi), ("v", -hi, -lo)])
            del seen[:]
            with mock.patch.object(arrays, "grid_kernel", grid_kernel), \
                    np.errstate(all="ignore"):
                _blocked(n * n, U + V, [], box, n)
                want = [_axis(a, b, n) for _, a, b in box.coords]
            (axes,) = seen
            assert axes[0].shape == (n, 1) and axes[1].shape == (1, n)
            # the grid scan's points are the same floats, by the same recipe
            points = grid._grid_points(box, n)
            for got, line, scanned in zip(axes, want, points):
                assert got.tobytes() == line.tobytes() == np.array(scanned).tobytes()


    @settings(max_examples=200, deadline=None)
    @given(st.floats(9e307, sys.float_info.max), st.floats(9e307, sys.float_info.max),
           st.integers(2, 1000))
    @example(1.7e308, 1.7e308, 3)
    @example(sys.float_info.max, sys.float_info.max, 2)
    def test_an_axis_whose_span_overflows_is_finite(self, a, b, n):
        # np.linspace(-a, b, n) has inf and NaN points where b + a overflows
        lo, hi = -a, b
        assert math.isinf(hi - lo)
        axis = np.array(grid._linspace(lo, hi, n))
        assert axis.shape == (n,) and np.isfinite(axis).all()
        assert axis[0] == lo and axis[-1] == hi
        assert ((lo <= axis) & (axis <= hi)).all()
        assert (axis[:-1] <= axis[1:]).all()

    def test_a_grid_over_an_overflowing_span_stays_in_the_box(self):
        box = BoxDomain([("u", -1.7e308, 1.7e308)])
        with np.errstate(all="raise"):
            out = grid_minimize(ex.const(2.0), [], box, 3)
        assert out.minimizer == {"u": -1.7e308} and out.value == 2.0


def _axis(lo, hi, n):
    """The grid's axis over ``[lo, hi]``: ``np.linspace``'s, or where the
    span overflows, point i at ``lo + i*(hi/(n-1)) - i*(lo/(n-1))`` and
    ``hi`` last."""
    if math.isinf(hi - lo):
        return np.array([lo + i * (hi / (n - 1)) - i * (lo / (n - 1))
                         for i in range(n - 1)] + [hi])
    return np.linspace(lo, hi, n)


class TestGridKernel:
    """One kernel per grid, kept on the objective and keyed by the trees."""

    def test_two_cuts_of_one_tree_read_their_own_values(self):
        # u >= a at a = -0.5 and at a = 0.25: the second decides; one value
        # for both would put the minimizer at u = -0.5
        cut = U - ex.var("a")
        cuts = [ConstraintSpec(cut, "ge", (("a", a),)) for a in (-0.5, 0.25)]
        for cons in (cuts, cuts[::-1]):
            out = grid_minimize(U + V, cons, UNIT_UV, 5)
            assert (out.minimizer, out.value) == ({"u": 0.5, "v": -1.0}, -0.5)
            assert repr(out) == repr(_dense_grid_minimize(U + V, cons, UNIT_UV, 5))

    def test_a_tree_whose_value_an_earlier_tree_computed(self):
        # the objective is the first constraint's x * x, and the second
        # constraint its (x * x) * 3, each built apart: their values are
        # read after the temporaries made since, which must not take their
        # slots
        cons = [ConstraintSpec((x * x + 1.0) * 3.0, "ge"), ConstraintSpec(x * x * 3.0 - 2.0)]
        out = grid_minimize(x * x, cons, UNIT_X, 5)
        assert (out.minimizer, out.value) == ({"x": 0.0}, 0.0)
        assert repr(out) == repr(_dense_grid_minimize(x * x, cons, UNIT_X, 5))

    def test_new_values_reuse_the_kernel(self):
        obj = (U - ex.var("a")) ** 2 + V
        cut = V * ex.var("a")
        made = []
        generate = arrays._generate_grid

        def generating(*args):
            made.append(args)
            return generate(*args)
        with mock.patch.object(arrays, "_generate_grid", generating):
            for a, tol in [(0.5, 1e-9), (-0.25, 0.0), (0.75, 0.5)]:
                cons = [ConstraintSpec(cut, "le", (("a", -a),))]
                out = grid_minimize(obj, cons, UNIT_UV, 9, tol_feas=tol,
                                    parameters=(("a", a),))
                assert repr(out) == repr(_dense_grid_minimize(
                    obj, cons, UNIT_UV, 9, tol_feas=tol, parameters=(("a", a),)))
            assert len(made) == 1
            # another constraint tree, equal but built apart, or another
            # sense, is another kernel
            for c in (ConstraintSpec(V * ex.var("a"), "le", (("a", 1.0),)),
                      ConstraintSpec(cut, "ge", (("a", 1.0),))):
                grid_minimize(obj, [c], UNIT_UV, 9, parameters=(("a", 1.0),))
            assert len(made) == 3

    def test_the_kernel_holds_its_trees(self):
        # so the id of a constraint tree that its caller dropped is not
        # reused while the kernel is kept on the objective
        obj, cut = U * V, U - 0.5
        kernel = arrays.grid_kernel(obj, (), [(cut, "le", ())], UNIT_UV.names)
        assert kernel.__globals__["_trees"] == [cut, obj]
        assert all(a is b for a, b in zip(kernel.__globals__["_trees"], [cut, obj]))

    def test_a_block_whose_points_all_pass_takes_no_mask(self):
        # one row per block: every point passes x <= 2, a part of each row
        # y >= 0.5, and the whole of the last two rows x >= 0.5
        for cut, want in [(ConstraintSpec(x - 2.0), ["argmin"] * 5),
                          (ConstraintSpec(y - 0.5, "ge"), ["masked"] * 5),
                          (ConstraintSpec(x - 0.5, "ge"), [None] * 3 + ["argmin"] * 2)]:
            out, paths = _reductions(5, x * y, [cut], UNIT_XY, 5)
            assert paths == want
            assert repr(out) == repr(_dense_grid_minimize(x * y, [cut], UNIT_XY, 5))


def _reductions(block, *args, **kwargs):
    """``_blocked(block, *args, **kwargs)`` and, per block, how it took its
    minimum: ``None`` where no point passes, ``"argmin"`` where it made no
    ``np.fmin`` reduction, else ``"masked"`` or ``"fmin"`` (unmasked) by
    the reduction it made."""
    paths, reduce, make = [], np.fmin.reduce, arrays.grid_kernel

    class Fmin:
        @staticmethod
        def reduce(*a, **kw):
            paths[-1] = "fmin" if kw.get("where", True) is True else "masked"
            return reduce(*a, **kw)

    def grid_kernel(*key):
        kernel = make(*key)

        def run(*a):
            ok, vals = kernel(*a)
            paths.append(None if ok is None else "argmin")
            return ok, vals
        return run
    with mock.patch.object(arrays, "grid_kernel", grid_kernel), \
            mock.patch.object(np, "fmin", Fmin), np.errstate(invalid="ignore"):
        return _blocked(block, *args, **kwargs), paths


# 8 points on [-1, 1]: (x + 0.9) * 0.0 is -0.0 at x = -1 and 0.0 at the
# others, where np.fmin.reduce returns 0.0
SIGNED_ZEROS = (x + 0.9) * 0.0


class TestGridReduction:
    """A block whose points all pass takes its minimum by one argmin, and
    the masked np.fmin reduction is the rule wherever a point fails or the
    argmin meets a NaN; the minimum's value is its point's."""

    @pytest.mark.parametrize("objective,constraints,box,n,block,want", [
        # np.minimum(u, NaN) is NaN: a NaN at x = -1, before the minimum 0
        (ex.emin(x * x, ex.const(math.inf) * (x + 1.0)), [], UNIT_X, 5, 5,
         ["fmin"]),
        (ex.emin(x * x, ex.const(math.inf) * (x + 1.0)),
         [ConstraintSpec(x - 0.75)], UNIT_X, 5, 5, ["masked"]),
        (SIGNED_ZEROS, [], UNIT_X, 8, 8, ["argmin"]),
        (SIGNED_ZEROS, [ConstraintSpec(x - 0.9)], UNIT_X, 8, 8, ["masked"]),
        # one row per block: the first all +inf, the later ones y; and +inf
        # at every point
        (ex.emax(ex.const(math.inf) * (-x - 0.75), y), [], UNIT_XY, 5, 5,
         ["argmin"] * 5),
        (ex.const(math.inf) + x * y, [], UNIT_XY, 5, 5, ["argmin"] * 5),
        # over y alone: two rows per block, each broadcast from one
        ((y - 0.3) ** 2, [], UNIT_XY, 5, 10, ["argmin"] * 3),
        ((y - 0.3) ** 2, [ConstraintSpec(x + 0.75, "ge")], UNIT_XY, 5, 10,
         ["masked", "argmin", "argmin"]),
        (ex.const(-0.0), [], BoxDomain([]), 5, 1, ["argmin"]),
        (ex.const(math.nan), [], BoxDomain([]), 5, 1, ["fmin"]),
    ], ids=["nan-first", "nan-first-masked", "signed-zeros", "signed-zeros-masked",
            "an-infinite-block", "infinite-everywhere", "broadcast",
            "broadcast-masked", "no-axes", "no-axes-nan"])
    def test_matches_the_dense_grid(self, objective, constraints, box, n, block,
                                    want):
        out, paths = _reductions(block, objective, constraints, box, n)
        assert paths == want
        with np.errstate(invalid="ignore"):
            assert repr(out) == repr(
                _dense_grid_minimize(objective, constraints, box, n))


@contextlib.contextmanager
def _axes_built():
    """A list of the axes built meanwhile, as the ``(lo, hi, n)`` arguments
    of their ``grid._linspace`` calls."""
    made, linspace = [], grid._linspace

    def building(*a):
        made.append(a)
        return linspace(*a)
    with mock.patch.object(grid, "_linspace", building):
        yield made


class TestGridAxesKept:
    """A box keeps its grid axes, per points per axis."""

    @staticmethod
    def _built(box, n):
        """The axes that ``grid_minimize`` over ``box`` at ``n`` points per
        axis builds."""
        with _axes_built() as made:
            out = grid_minimize(x * y, [], box, n)
        assert repr(out) == repr(_dense_grid_minimize(x * y, [], box, n))
        return made

    def test_a_second_grid_builds_no_axes(self):
        box = BoxDomain(UNIT_XY.coords)
        assert self._built(box, 5) == [(-1.0, 1.0, 5)] * 2
        assert self._built(box, 5) == []
        assert self._built(box, 7) == [(-1.0, 1.0, 7)] * 2
        assert self._built(box, 5) == self._built(box, 7) == []
        # an equal box built apart keeps its own
        assert self._built(BoxDomain(UNIT_XY.coords), 5) == [(-1.0, 1.0, 5)] * 2

    def test_the_kept_axes_are_read_only_and_outside_the_fields(self):
        box = BoxDomain(UNIT_XY.coords)
        fresh = BoxDomain(UNIT_XY.coords)
        grid_minimize(x * y, [], box, 5)
        grid._grid_scan(x * y, [], box, 5)
        axes = box.__dict__[grid._AXES][5]
        assert [a.shape for a in axes] == [(5, 1), (1, 5)]
        for a in axes:
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a[0] = 0.0
        assert box == fresh and hash(box) == hash(fresh) and repr(box) == repr(fresh)
        for twin in (copy.copy(box), copy.deepcopy(box),
                     pickle.loads(pickle.dumps(box))):
            assert twin == box
            assert grid._AXES not in twin.__dict__
            assert grid._POINTS not in twin.__dict__

    @pytest.mark.parametrize("oracle", ["_grid_scan", "grid_minimize"])
    def test_verify_builds_the_inner_axes_once(self, capsys, monkeypatch, oracle):
        # every subproblem of cex1, at every iterate, grids the problem's
        # one inner box, by the scan (cex1's grids are small) or, with no
        # work small enough to scan, by the numpy oracle
        from gsiplab import cli
        if oracle == "grid_minimize":
            monkeypatch.setattr(grid, "_SCAN_WORK", 0)
        calls, fn = [], getattr(grid, oracle)

        def counting(*args, **kwargs):
            calls.append(args[2])
            return fn(*args, **kwargs)
        monkeypatch.setattr(grid, oracle, counting)
        with _axes_built() as made:
            assert cli.main(["verify", "--problem", "cex1", "--variant", "aux-llp",
                             "--max-iter", "3"]) == 0
        capsys.readouterr()
        assert len(calls) == 9 and made == [(-1.0, 1.0, 401)]


@st.composite
def scan_cases(draw):
    """A grid over (u,) or (u, v) of 2, 3 or 5 points per axis; an objective
    and 0-2 constraints over u, v and the bound value a, one time in ten
    also over w, bound nowhere, each tree with its own value of a, which is
    named u one time in twenty; one time in three, a tree divides by u less
    one of u's grid points; and ``tol_feas``, 0 or 1e-9."""
    n = draw(st.sampled_from((2, 3, 5)))
    coords = []
    for name in ("u", "v")[:draw(st.integers(1, 2))]:
        lo, hi = sorted((draw(COORDS), draw(COORDS)))
        coords.append((name, lo, hi))
    box = BoxDomain(coords)

    def tree():
        return draw(expressions(consts=COORDS, names=(*box.names, "a"), unknown="w"))

    def bound():
        return ((draw(st.sampled_from(("a",) * 19 + ("u",))), draw(COORDS)),)
    trees = [tree() for _ in range(draw(st.integers(1, 3)))]
    if draw(st.integers(0, 2)) == 0:
        c = grid._linspace(*box.bounds[0], n)[draw(st.integers(0, n - 1))]
        i = draw(st.integers(0, len(trees) - 1))
        trees[i] = trees[i] + tree() / (U - c)
    constraints = [ConstraintSpec(e, draw(st.sampled_from(("le", "ge"))), bound())
                   for e in trees[1:]]
    return (trees[0], constraints, box, n, draw(st.sampled_from((0.0, 1e-9))),
            bound())


def _scanned(oracle, *args, **kwargs):
    """What ``oracle`` returns: its status, its minimizer and its value, each
    float by its bits, or the type of the error it raised."""
    try:
        with np.errstate(all="ignore"):
            out = oracle(*args, **kwargs)
    except (EvaluationError, ValueError) as e:
        return type(e)
    return (out.status, out.minimizer and {n: _bits(v) for n, v in out.minimizer.items()},
            _bits(out.value))


def _finite_at_every_point(trees, box, n):
    """Whether every subterm of ``trees``, ``(tree, bound values)`` pairs, is
    finite at every grid point where the walk over floats gives it a value,
    and no min or max meets two zeros of opposite signs: where the point
    kernels and numpy part ways (``grid._grid_scan``)."""
    for x in itertools.product(*grid._grid_points(box, n)):
        for e, bound in trees:
            env = {**dict(bound), **dict(zip(box.names, x))}
            for s in _subterms(e):
                try:
                    v = evaluate(s, env)
                    if s.kind in ("min", "max"):
                        a, c = (evaluate(k, env) for k in s.children)
                        if a == c == 0.0 and math.copysign(1.0, a) != math.copysign(1.0, c):
                            return False
                except EvaluationError:
                    continue
                except OverflowError:
                    return False
                if not math.isfinite(v):
                    return False
    return True


class TestGridScan:
    """The point-by-point scan returns grid_minimize's outcome."""

    @settings(max_examples=300, deadline=None)
    @given(scan_cases())
    # ties between a zero of each sign: the first point in C order wins
    @example((U * 0.0, [], BoxDomain([("u", -1.0, 1.0)]), 3, 1e-9, ()))
    @example((U * -0.0, [], BoxDomain([("u", -1.0, 1.0)]), 3, 0.0, ()))
    # a divisor zero at u = 0, and a constraint that only tol_feas passes
    @example((ex.var("a") / U, [ConstraintSpec(U * U - 1e-10, "le", ())],
              BoxDomain([("u", -1.0, 1.0)]), 3, 1e-9, (("a", 2.0),)))
    def test_matches_the_numpy_oracle(self, case):
        objective, constraints, box, n, tol_feas, parameters = case
        trees = [(c.expr, c.parameters) for c in constraints] + [(objective, parameters)]
        assume(_finite_at_every_point(trees, box, n))
        args = (objective, constraints, box, n)
        kwargs = dict(tol_feas=tol_feas, parameters=parameters)
        assert _scanned(grid._grid_scan, *args, **kwargs) == \
            _scanned(grid_minimize, *args, **kwargs)

    def test_matches_the_numpy_oracle_on_the_oracle_suite(self):
        # 41 points per axis: the 2-D instances' 401-point grids take the
        # scan about 0.2 s each
        for seed in range(50):
            obj, cons, box = random_poly_instance(seed)
            for tol_feas in (1e-9, 0.0):
                args = (obj, cons, box, 41)
                assert _scanned(grid._grid_scan, *args, tol_feas=tol_feas) == \
                    _scanned(grid_minimize, *args, tol_feas=tol_feas), seed

    def test_an_overflowing_power_returns_the_numpy_outcome(self, monkeypatch):
        # (1e200 * u) ** 2 overflows at u = +-1, where Python's ** raises and
        # np.float_power gives inf
        calls = []

        def gridding(*args, **kwargs):
            calls.append(grid_minimize(*args, **kwargs))
            return calls[-1]
        monkeypatch.setattr(grid, "grid_minimize", gridding)
        box = BoxDomain([("u", -1.0, 1.0)])
        with np.errstate(over="ignore"):
            out = grid._grid_scan((U * 1e200) ** 2 - U, [], box, 3)
        assert len(calls) == 1 and out is calls[0]
        assert (out.minimizer, out.value) == ({"u": 0.0}, 0.0)


class TestGridBuffers:
    """The grid evaluates into its thread's reused buffers."""

    @staticmethod
    def _in_a_new_thread(fn):
        """``fn()`` run in a new thread, whose buffer set starts empty."""
        out = []
        worker = threading.Thread(target=lambda: out.append(fn()))
        worker.start()
        worker.join(timeout=120)
        assert not worker.is_alive() and out
        return out[0]

    def test_a_second_grid_makes_no_buffer(self):
        # a 2-D instance of the oracle suite with two constraints, whose
        # objective, the tree with the most temporaries, is evaluated
        obj, cons, box = random_poly_instance(35)
        env = dict(zip(box.names, np.meshgrid(
            *(np.linspace(lo, hi, 7) for lo, hi in box.bounds), indexing="ij", sparse=True)))

        def run():
            kept = evaluate_array(obj, env)
            before = kept.copy()
            first = grid_minimize(obj, cons, box, ORACLE_GRID_N)
            made = list(arrays._BUFFERS.flat)
            second = grid_minimize(obj, cons, box, ORACLE_GRID_N)
            assert np.array_equal(kept, before)   # the caller's own
            return first, second, made, list(arrays._BUFFERS.flat), arrays._BUFFERS.size

        first, second, made, now, size = self._in_a_new_thread(run)
        assert repr(first) == repr(second) == repr(
            grid_minimize(obj, cons, box, ORACLE_GRID_N))
        assert made and len(now) == len(made)
        assert all(a is b for a, b in zip(now, made))
        # as many buffers as the kernel's most temporaries live at once, each
        # as long as the largest block: 81 rows of 401 points
        kernel = arrays.grid_kernel(obj, (), [(c.expr, c.sense, ()) for c in cons],
                                    box.names)
        assert len(made) == len({s for s, _ in kernel.__globals__["_layout"]})
        assert size == (grid._BLOCK_POINTS // ORACLE_GRID_N) * ORACLE_GRID_N
        assert all(len(b) == size for b in made)

    def test_threads_write_into_their_own_buffers(self):
        # numpy releases the interpreter lock inside a ufunc, so threads that
        # shared buffers would overwrite each other's temporaries
        obj, cons, box = random_poly_instance(35)
        want = repr(grid_minimize(obj, cons, box, 101))
        got = []

        def work():
            got.extend(repr(grid_minimize(obj, cons, box, 101)) for _ in range(5))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [threading.Thread(target=work) for _ in range(4)]
            for w in workers:
                w.start()
            for w in workers:
                w.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(w.is_alive() for w in workers)
        assert got == [want] * 20


def _dense_grid_minimize(objective, constraints, box, points_per_axis,
                         tol_feas=1e-9, parameters=()):
    """Reference oracle: every variable bound to a full meshgrid copy, and
    each tree's bound values to floats, evaluated by the reference walk
    under the grid kernel's rule (a point where a divisor is zero fails),
    and the first minimum in C order among the feasible points whose value
    is not NaN."""
    axes = [np.linspace(lo, hi, points_per_axis) for _, lo, hi in box.coords]
    grids = np.meshgrid(*axes, indexing="ij")
    env = dict(zip(box.names, grids))
    shape = tuple(len(a) for a in axes)

    def on_grid(e, bound):
        passed, vals = reference_grid(e, {**dict(bound), **env})
        return (np.broadcast_to(passed, shape),
                np.broadcast_to(np.asarray(vals, dtype=float), shape))

    feas, vals = on_grid(objective, parameters)
    feas = feas & ~np.isnan(vals)
    for c in constraints:
        passed, cv = on_grid(c.expr, c.parameters)
        feas &= passed & ((cv <= tol_feas) if c.sense == "le" else (cv >= -tol_feas))
    candidates = np.flatnonzero(feas)
    if not len(candidates):
        return INFEASIBLE
    best = candidates[np.argmin(vals.ravel()[candidates])]
    idx = np.unravel_index(int(best), shape)
    return MinimizeOutcome(
        "optimal", {n: float(g[idx]) for n, g in env.items()}, float(vals[idx]))
