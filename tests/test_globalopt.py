import copy
import gc
import itertools
import math
import pickle
import random
import sys
import threading
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (random_box, random_expr, random_poly_instance,
                      random_polynomial, reference_array, sample_point,
                      shrink_box)
from test_expr import CONSTS, COORDS, expressions
from test_golden import (ORACLE_GRID_N, ORACLE_GRID_OUTCOMES,
                         ORACLE_NODE_BUDGET, ORACLE_TOL_OPT,
                         load_oracle_outcomes)
from gsiplab import algorithms, arrays, globalopt
from gsiplab import expr as ex
from gsiplab.domains import BoxDomain, corner_values, midpoint_value
from gsiplab.expr import (EvaluationError, Interval, evaluate, evaluate_array,
                          interval_eval)
from gsiplab.globalopt import (INFEASIBLE, SATISFIED, ConstraintSpec,
                               MinimizeOutcome, NodeBudgetExceeded,
                               UndecidedError, grid_minimize, minimize)
from gsiplab.gsip import (LEVEL, SubproblemInstance, build_llp,
                          build_lower_bounding, get_builtin)

x, y, z = ex.var("x"), ex.var("y"), ex.var("z")
UNIT_X = BoxDomain([("x", -1.0, 1.0)])
UNIT_Y = BoxDomain([("y", -1.0, 1.0)])


class TestMinimize:
    def test_linear_unconstrained(self):
        out = minimize(-x, [], UNIT_X)
        assert out.optimal
        assert out.minimizer["x"] == 1.0
        assert out.value == -1.0

    def test_constrained_quadratic(self):
        # lower-level program at the first divergence iterate
        obj = (1.0 - y) ** 2 - 10.0
        cons = [ConstraintSpec(-2.0 + y, "le")]
        out = minimize(obj, cons, UNIT_Y)
        assert out.minimizer["y"] == pytest.approx(1.0, abs=1e-9)
        assert out.value == pytest.approx(-10.0, abs=1e-9)

    def test_infeasible_certified(self):
        # y <= -2 has no solution in [-1, 1]
        cons = [ConstraintSpec(2.0 + y, "le")]
        out = minimize(y, cons, UNIT_Y)
        assert out.status == "infeasible"
        assert out.minimizer is None

    def test_infeasible_bracket_is_plus_infinity(self):
        # the minimum over the empty set is +inf; the grid proves nothing
        cons = [ConstraintSpec(2.0 + y, "le")]
        assert minimize(y, cons, UNIT_Y).value_bounds == Interval(math.inf, math.inf)
        assert grid_minimize(y, cons, UNIT_Y, 101).value_bounds is None

    def test_objective_infinite_on_the_box(self):
        # x*1e308*10 overflows to +inf at every point of [1, 2]
        out = minimize(x * 1e308 * 10.0, [], BoxDomain([("x", 1.0, 2.0)]),
                       node_budget=5)
        assert out.optimal and out.value == math.inf
        assert out.value_bounds == Interval(math.inf, math.inf)

    @pytest.mark.parametrize("objective,lo,hi,at", [
        (-x, 1e308, 1.7e308, 1.7e308), (x, -1.7e308, -1e308, -1.7e308)])
    def test_bounds_that_sum_past_the_float_maximum(self, objective, lo, hi, at):
        # 0.5 * (lo + hi) is infinite, a candidate outside the box
        out = minimize(objective, [], BoxDomain([("x", lo, hi)]))
        assert out.minimizer == {"x": at}
        assert out.value == -1.7e308
        assert out.value_bounds.lo <= -1.7e308

    @pytest.mark.parametrize("cap,lo,hi,tol_opt,at", [
        (x - 1e7 - 0.1, 1e7, 1e7 + 1, 1e-12, 10000000.1),
        (x - 1.2e308, 1e308, 1.7e308, 1e-6, 1.2e308)])
    def test_boxes_of_two_adjacent_floats_are_retired(self, cap, lo, hi,
                                                      tol_opt, at):
        # bisection reaches boxes two adjacent floats wide, wider than
        # MIN_WIDTH, around x = at; they are retired, not cut into copies
        out = minimize(-x, [ConstraintSpec(cap)], BoxDomain([("x", lo, hi)]),
                       tol_opt=tol_opt, node_budget=5000)
        assert out.optimal and out.minimizer == {"x": at}
        assert out.value_bounds.lo <= -at

    def test_a_box_with_no_coordinates(self):
        out = minimize(ex.const(3.5473533668846606) / 2.9260988930166745 * 1e20,
                       [], BoxDomain([]), tol_opt=1e-9)
        assert out.minimizer == {}
        assert out.value_bounds == Interval(1.2123149273425617e+20,
                                            1.212314927342562e+20)

    def test_retired_boxes_bound_the_value(self):
        # x = 0.1 is feasible with value 0.1, in a feasible sliver narrower
        # than MIN_WIDTH whose boxes all have an infeasible midpoint; the
        # incumbent is x = 0.5
        cons = [ConstraintSpec(ex.emin(1e12 * (x - 0.1) ** 2, 0.5 - x), "le")]
        out = minimize(x, cons, UNIT_X)
        assert out.value == 0.5
        assert out.value_bounds.lo <= 0.1

    def test_no_incumbent_and_retired_boxes_is_undecided(self):
        # feasible only in that sliver: no candidate passes, but the boxes
        # around x = 0.1 are not certified infeasible either
        cons = [ConstraintSpec(1e12 * (x - 0.1) ** 2, "le")]
        with pytest.raises(UndecidedError):
            minimize(x, cons, UNIT_X)

    def test_value_bounds_bracket_minimizer(self):
        obj = (x - 0.3) ** 2
        out = minimize(obj, [], UNIT_X, tol_opt=1e-9)
        v = evaluate(obj, out.minimizer)
        assert out.value_bounds.lo <= v <= out.value_bounds.hi
        assert out.value_bounds.width <= 1e-9 + 1e-12

    def test_bad_tolerances_rejected(self):
        with pytest.raises(ValueError):
            minimize(x, [], UNIT_X, tol_opt=0.0)
        with pytest.raises(ValueError):
            minimize(x, [], UNIT_X, tol_feas=-1.0)

    @pytest.mark.parametrize("tolerance,value", [
        ("tol_opt", float("nan")), ("tol_opt", float("inf")),
        ("tol_feas", float("nan")), ("tol_feas", float("inf"))])
    def test_non_finite_tolerances_rejected(self, tolerance, value):
        with pytest.raises(ValueError, match=tolerance):
            minimize(x, [], UNIT_X, **{tolerance: value})

    def test_node_budget_error(self):
        # (x - y)^2 expanded, so that x and y each occur twice: along the
        # valley x = y the natural extension's lower bound stays below the
        # minimum 0 and the derivatives change sign, so no coordinate can be
        # fixed, and a tiny budget must trip
        obj = x * x - 2.0 * x * y + y * y
        with pytest.raises(NodeBudgetExceeded):
            minimize(obj, [], BoxDomain([("x", 0.0, 1.0), ("y", 0.0, 1.0)]),
                     tol_opt=1e-12, node_budget=20)

    def test_incumbent_passes_its_point_test(self):
        # the interval kernel computes c / d as c * fl(1/d), which rounds down
        # to 1.2123149273425617 and certifies the constraint satisfied on the
        # box; its point value c / d - 1.2123149273425617 is 2.2e-16 > 0, so
        # no point passes, and the retired boxes leave the search undecided
        c = ConstraintSpec(ex.const(3.5473533668846606) / 2.9260988930166745
                           - 1.2123149273425617, "le")
        assert evaluate(c.expr, {}) > 0.0
        with pytest.raises(UndecidedError):
            minimize(x, [c], BoxDomain([("x", 0.0, 1.0)]), tol_feas=0.0)

    def test_bound_values(self):
        # min over y of (y - a)^2 s.t. y >= b, with a = 0.5 and b = 0.75 bound
        a, b = ex.var("a"), ex.var("b")
        cons = [ConstraintSpec(y - b, "ge", (("b", 0.75),))]
        out = minimize((y - a) ** 2, cons, UNIT_Y, tol_opt=1e-12,
                       parameters=(("a", 0.5),))
        assert set(out.minimizer) == {"y"}
        assert out.minimizer["y"] == pytest.approx(0.75, abs=1e-9)
        grid = grid_minimize((y - a) ** 2, cons, UNIT_Y, 9, parameters=(("a", 0.5),))
        assert grid.minimizer == {"y": 0.75} and grid.value == 0.0625

    def test_bound_value_named_like_the_box(self):
        with pytest.raises(ValueError, match="share names"):
            minimize(x, [], UNIT_X, parameters=(("x", 0.0),))
        with pytest.raises(ValueError, match="share names"):
            minimize(x, [ConstraintSpec(x, "le", (("x", 0.0),))], UNIT_X)

    def test_deterministic(self):
        obj, cons, box = random_poly_instance(42)
        a = minimize(obj, cons, box, tol_opt=1e-5)
        b = minimize(obj, cons, box, tol_opt=1e-5)
        assert a == b

    def test_a_one_dimensional_solve_evaluates_no_point_twice(self, monkeypatch):
        # a 1-D split point is its parent's midpoint, and a box that the
        # monotonicity test reduces to a point is one of the box's corners:
        # both were offered before
        cex1 = get_builtin("cex1")
        cuts = [{"y": 1.0}, {"y": 0.5}, {"y": 0.25}]  # as an llp-only run adds them
        instances = [build_lower_bounding(cex1, cuts), build_llp(cex1, {"x": 0.125}),
                     # the root's loose bound -0.5 does not settle it, and the
                     # monotonicity test reduces it to the corner x = 0
                     SubproblemInstance(x - 0.5 * x, (), BoxDomain([("x", 0.0, 1.0)]))]
        compile_expr = globalopt.compile_expr
        for inst in instances:
            points = []

            def recording(e, names, inst=inst, points=points):
                point, interval = compile_expr(e, names)
                if e is not inst.objective:
                    return point, interval

                def record(x):
                    points.append(x)
                    return point(x)
                return record, interval
            monkeypatch.setattr(globalopt, "compile_expr", recording)
            minimize(inst.objective, inst.constraints, inst.box, tol_opt=1e-13,
                     parameters=inst.parameters)
            assert len(points) > 1
            assert len(set(points)) == len(points)

    def test_a_plane_of_one_point_is_not_offered(self, monkeypatch):
        # with y degenerate, each split plane is one point, its parent's
        # midpoint, offered already, so the children offer their midpoints
        # only.  The quartic is not quadratic along x, so the root's secant
        # step misses its minimizer and the search bisects
        obj = (x - 0.3) ** 4 + y
        points = _recorded_points(monkeypatch)
        out = minimize(obj, [], BoxDomain([("x", 0, 1), ("y", 0.5, 0.5)]),
                       tol_opt=1e-9)
        assert out.minimizer == {"x": 0.296875, "y": 0.5}
        assert len(points) == len(set(points)) == 14

    def test_no_point_kernel_sees_an_argument_twice_in_a_solve(self, monkeypatch):
        # a solve keeps the points it has offered and offers none twice, and
        # a midpoint whose cut values fail a constraint joins them: on the
        # oracle suite and on every solve of the builtin runs, no point
        # kernel that minimize compiles, the objective's or a constraint's,
        # is called twice with one argument within a solve
        calls, repeats = [], []
        compile_expr, solve = globalopt.compile_expr, globalopt.minimize

        def recording(e, names):
            point, interval = compile_expr(e, names)

            def record(p):
                calls.append((record, p))
                return point(p)
            return record, interval

        def checked(*args, **kwargs):
            del calls[:]
            try:
                return solve(*args, **kwargs)
            finally:
                repeats.append(len(calls) - len(set(calls)))
        monkeypatch.setattr(globalopt, "compile_expr", recording)
        monkeypatch.setattr(algorithms, "minimize", checked)
        for seed in range(50):
            obj, cons, box = random_poly_instance(seed)
            checked(obj, cons, box, tol_opt=ORACLE_TOL_OPT,
                    node_budget=ORACLE_NODE_BUDGET)
        for problem in ("cex1", "cex2"):
            for variant in (algorithms.LLP_ONLY, algorithms.AUX_LLP, algorithms.SIP_LLP):
                algorithms.run(get_builtin(problem),
                               algorithms.AlgorithmConfig(variant=variant))
        assert len(repeats) > 50 and sum(repeats) == 0, repeats


def _recorded_points(monkeypatch):
    """The list that every point kernel minimize compiles from now on
    appends its arguments to."""
    points = []
    compile_expr = globalopt.compile_expr

    def recording(e, names):
        point, interval = compile_expr(e, names)

        def record(p):
            points.append(p)
            return point(p)
        return record, interval
    monkeypatch.setattr(globalopt, "compile_expr", recording)
    return points


def _no_bisection(monkeypatch):
    def refuse(self):
        raise AssertionError(f"bisected {self.bounds}")
    monkeypatch.setattr(BoxDomain, "bisect", refuse)


def _secant_zero(objective, box, i):
    """The regula-falsi zero along axis ``i`` of the objective's partial
    derivative at the centres of the box's two faces across that axis."""
    gradient = ex.compile_gradient(objective, box.names)
    lo, hi = box.bounds[i]
    at = [(m, m) for m in map(midpoint_value, box.bounds)]
    dl, dh = (gradient((*at[:i], (end, end), *at[i + 1:]))[1][i][0]
              for end in (lo, hi))
    return lo - dl * (hi - lo) / (dh - dl)


class TestSecantStep:
    def test_a_quadratic_settles_at_the_root(self, monkeypatch):
        # (x - 0.3)^2 has its minimizer inside [0, 1], off every bisection
        # point; the root's bound, 0, is tight, and the secant step along x
        # offers the zero of the linear derivative, so the root settles
        obj, box = (x - 0.3) ** 2, BoxDomain([("x", 0.0, 1.0)])
        _no_bisection(monkeypatch)
        out = minimize(obj, [], box, tol_opt=1e-13)
        r = _secant_zero(obj, box, 0)
        assert r != 0.5 and abs(r - 0.3) < 1e-15
        assert out.minimizer == {"x": r}
        assert out.value_bounds.lo == 0.0

    def test_a_step_to_the_midpoint_is_not_offered(self, monkeypatch):
        # x*x over [-1, 1] has the loose bound -1, so the root is queued;
        # its derivative x + x is -2 and 2 at the ends, whose secant zero is
        # the midpoint 0, offered already
        points = _recorded_points(monkeypatch)
        minimize(x * x, [], UNIT_X, tol_opt=1e-3)
        assert points[:3] == [(0.0,), (-1.0,), (1.0,)]
        assert points.count((0.0,)) == 1

    def test_only_the_axis_with_a_sign_change_moves(self, monkeypatch):
        # the objective ignores y, whose derivative is 0 at both faces, and
        # the undecided constraint y <= 0.5 keeps the monotonicity test from
        # fixing y: the step moves x to its secant zero and keeps y at the
        # midpoint of the contracted range [-1, 0.5], whose upper end is
        # moved one float outward
        obj = (x - 0.3) ** 2
        box = BoxDomain([("x", 0.0, 1.0), ("y", -1.0, 1.0)])
        _no_bisection(monkeypatch)
        out = minimize(obj, [ConstraintSpec(y - 0.5)], box, tol_opt=1e-13)
        queued = BoxDomain([("x", 0.0, 1.0), ("y", -1.0, math.nextafter(0.5, 1.0))])
        my = midpoint_value(queued.bounds[1])
        r = _secant_zero(obj, queued, 0)
        assert out.minimizer == {"x": r, "y": my}
        assert my != 0.0 and r != 0.5


class TestConstraintTests:
    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.sampled_from(("le", "ge")),
           st.floats(-1.0, 1.0), st.sampled_from((0.0, 1e-9)))
    @example(0, "le", 0.0, 0.0)
    @example(1, "ge", 0.0, 0.0)
    def test_certified_satisfied_holds_on_the_box(self, seed, sense, margin, tol_feas):
        # what lets minimize drop a constraint from a node's active set: its
        # children are certified too, and every candidate of the box passes.
        # The kernels round to nearest, not outward, so a quotient's point
        # value can pass its interval bound by an ulp (ROADMAP item 3): the
        # candidates are checked with the slack of test_expr's inclusion test.
        rng = random.Random(seed)
        e = random_expr(rng, ["x", "y"], rng.randint(1, 4))
        box = random_box(rng, ["x", "y"])
        enclosure = interval_eval(e, box)
        slack = 1e-9 * max(1.0, abs(enclosure.lo), abs(enclosure.hi))
        # shift e by its enclosure: a margin >= 0 makes the interval test
        # certify the constraint on box (a margin of 0 where it is tight), a
        # negative one may leave it undecided or violated
        if sense == "le":
            c = ConstraintSpec(e - (enclosure.hi + margin), "le")
        else:
            c = ConstraintSpec(e - (enclosure.lo - margin), "ge")
        decide = c.bind(box.names, tol_feas).decide
        if margin >= 0.0:
            assert decide(box.bounds) is SATISFIED
        elif decide(box.bounds) is not SATISFIED:
            return
        for child in box.bisect():
            assert decide(child.bounds) is SATISFIED
        for p in _candidates(box):
            value = evaluate(c.expr, dict(zip(box.names, p)))
            assert c.satisfied(value, tol_feas + slack)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.floats(0.0, 1.0), st.sampled_from((0.0, 1e-9)))
    @example(0, 0.0, 0.0)
    def test_ge_decides_as_le_on_the_negation(self, seed, level, tol_feas):
        # one feasibility rule: a "ge" constraint's signed value is -expr, and
        # negation is exact, so every test agrees with "le" on ex.neg(expr)
        rng = random.Random(seed)
        box = random_box(rng, ["x", "y"])
        e = random_expr(rng, ["x", "y"], rng.randint(1, 4))
        enclosure = interval_eval(e, box)
        # a level inside the enclosure leaves part of the box undecided
        e = e - (enclosure.lo + level * (enclosure.hi - enclosure.lo))
        ge, le = ConstraintSpec(e, "ge"), ConstraintSpec(ex.neg(e), "le")
        ge_bound, le_bound = (c.bind(box.names, tol_feas) for c in (ge, le))
        left, right = box.bisect()
        for b in (box, left, right, *left.bisect(), *right.bisect()):
            assert ge_bound.decide(b.bounds) is le_bound.decide(b.bounds)
        for p in _candidates(box):
            value = evaluate(e, dict(zip(box.names, p)))
            assert ge.satisfied(value, tol_feas) is le.satisfied(-value, tol_feas) \
                is ge_bound.satisfied(p) is le_bound.satisfied(p)
        env = dict(zip(box.names, np.meshgrid(
            *(np.linspace(lo, hi, 5) for lo, hi in box.bounds), indexing="ij")))
        assert np.array_equal(ge.satisfied(evaluate_array(e, env), tol_feas),
                              le.satisfied(evaluate_array(ex.neg(e), env), tol_feas))

    @pytest.mark.parametrize("tol_feas", [0.0, 1e-9])
    def test_exceptional_values_pass_alike_in_both_senses(self, tol_feas):
        values = [math.nan, math.inf, -math.inf, 0.0, -0.0, 1e-9, -1e-9, 1e-300]
        ge, le = ConstraintSpec(x, "ge"), ConstraintSpec(ex.neg(x), "le")
        ge_point, le_point = (c.bind(("x",), tol_feas).satisfied for c in (ge, le))
        for v in values:
            assert ge.satisfied(v, tol_feas) is le.satisfied(-v, tol_feas) \
                is ge_point((v,)) is le_point((v,))
        array = np.array(values)
        assert np.array_equal(ge.satisfied(array, tol_feas),
                              le.satisfied(-array, tol_feas))
        assert not ge.satisfied(math.nan, tol_feas)


class TestContraction:
    @settings(max_examples=400, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.sampled_from(("le", "ge")),
           st.sampled_from((0.0, 1e-9)))
    @example(0, "le", 1e-9)
    def test_no_feasible_point_is_cut_away(self, seed, sense, tol_feas):
        # the contraction to the signed value's target 0 keeps every point
        # where it is <= 0, the one to tol_feas every point where it is <=
        # tol_feas and holds the former, and only the latter certifies a box
        # infeasible by emptying it; the constraints are the oracle suite's
        # polynomials (1-D and 2-D), shifted to a level their value takes
        # inside a box
        rng = random.Random(seed)
        objective, constraints, box = random_poly_instance(seed)
        e = rng.choice([c.expr for c in constraints] or [objective])
        for b in (box, shrink_box(rng, box), shrink_box(rng, box)):
            level = evaluate(e, sample_point(rng, b)) + rng.uniform(-1.0, 1.0)
            c = ConstraintSpec(e - level, sense)
            mid = tuple(map(midpoint_value, b.bounds))
            value, slopes = c.bind(b.names, tol_feas).cut(b.bounds, mid)[:2]
            exact, relaxed = (globalopt._contract(b.bounds, mid, value, slopes, t)
                              for t in (0.0, tol_feas))
            assert value == c.sign * evaluate(c.expr, dict(zip(b.names, mid)))
            if exact is not None:
                assert relaxed is not None and all(
                    r_lo <= e_lo and e_hi <= r_hi
                    for (e_lo, e_hi), (r_lo, r_hi) in zip(exact, relaxed))
            points = _candidates(b) + [tuple(sample_point(rng, b).values())
                                       for _ in range(30)]
            for target, kept in ((0.0, exact), (tol_feas, relaxed)):
                if kept is not None:
                    assert all(lo <= k_lo <= k_hi <= hi for (lo, hi), (k_lo, k_hi)
                               in zip(b.bounds, kept))
                for p in points:
                    if c.satisfied(evaluate(c.expr, dict(zip(b.names, p))), target):
                        assert kept is not None and all(
                            lo <= v <= hi for v, (lo, hi) in zip(p, kept)), (p, kept)

    @pytest.mark.parametrize("slopes,kept", [
        # slopes of at least 2: s reaches 0 no sooner than at x = 1/2
        (((2.0, 3.0),), ((-1.0, 0.5000000000000001),)),
        # a slope range that holds 0 lets s stay at -1 on either side
        (((-1.0, 1.0),), ((-1.0, 1.0),)),
        (((0.0, 2.0),), ((-1.0, 1.0),)),
        (((-math.inf, math.inf),), ((-1.0, 1.0),)),
        # an infinite slope bounds nothing (here b = 1 >= 0)
        (((math.inf, math.inf),), ((-1.0, 1.0),))])
    def test_slopes_that_hold_zero_or_infinity(self, slopes, kept):
        # s(0) = -1 on [-1, 1], contracted to s <= 0; the kept end is moved
        # outward by one float
        assert globalopt._contract(((-1.0, 1.0),), (0.0,), -1.0, slopes,
                                   0.0) == kept

    def test_two_pieces_and_an_empty_box(self):
        # s(0) = 1 with slopes in [-1, 1]: s <= 0 needs |x| >= 1, the two
        # ends of [-2, 2] and what lies beyond them; the hull is the box.
        # With slopes in [0, 0.25], s <= 0 is out of reach on [-2, 2]
        box, mid = ((-2.0, 2.0),), (0.0,)
        assert globalopt._contract(box, mid, 1.0, ((-1.0, 1.0),), 0.0) == box
        assert globalopt._contract(((-0.5, 2.0),), (0.0,), 1.0, ((-1.0, 1.0),),
                                   0.0) == ((0.9999999999999999, 2.0),)
        assert globalopt._contract(box, mid, 1.0, ((0.0, 0.25),), 0.0) is None

    def test_one_pass_meet_is_the_folded_pairwise_meet(self):
        # push meets a box with every constraint's contracted box in one pass
        # over the axes; folding the meet of two boxes over them is its
        # reference, end for end, a zero's sign included (repr tells it)
        def pairwise(a, b):
            if a is None or b is None:
                return None
            out = []
            for (alo, ahi), (blo, bhi) in zip(a, b):
                lo, hi = max(alo, blo), min(ahi, bhi)
                if lo > hi:
                    return None
                out.append((lo, hi))
            return tuple(out)

        rng = random.Random(3)
        ends = (-1.0, -0.5, -0.0, 0.0, 0.5, 1.0)
        seen = set()
        for _ in range(3000):
            dims = rng.randint(0, 3)
            bounds = tuple((rng.choice(ends[:3]), rng.choice(ends[3:]))
                           for _ in range(dims))
            boxes = [None if rng.random() < 0.03 else
                     tuple(sorted((rng.choice(ends), rng.choice(ends)))
                           for _ in range(dims))
                     for _ in range(rng.choice((0, 1, 2, 3, 19)))]
            want = bounds
            for box in boxes:
                want = pairwise(want, box)
            got = globalopt._meet(bounds, boxes)
            assert repr(got) == repr(want), (bounds, boxes)
            seen.add("none" if got is None else "box")
        assert seen == {"none", "box"}

    def test_lower_bounding_solves_do_not_bisect(self, monkeypatch):
        # every lower-bounding solve of the divergence counterexample has its
        # minimizer on the newest cut's boundary, which the contraction
        # reaches at the root: none bisects a box.  Each LLP, min over y of
        # (x - y)^2 - 10, is quadratic along y, so the root's secant step
        # offers its minimizer y = x and settles it: none bisects either
        bisect = BoxDomain.bisect
        solves = {"lb": 0, "llp": 0, "other": 0}
        calls = dict.fromkeys(solves, 0)
        kind = []

        def counting(self):
            calls[kind[-1]] += 1
            return bisect(self)

        def attributed(objective, *args, **kwargs):
            # a lower-bounding solve minimizes the problem's objective f, an
            # LLP its g
            kind.append("lb" if objective is cex1.f else
                        "llp" if objective is cex1.g else "other")
            solves[kind[-1]] += 1
            try:
                return minimize(objective, *args, **kwargs)
            finally:
                kind.pop()
        cex1 = get_builtin("cex1")
        monkeypatch.setattr(BoxDomain, "bisect", counting)
        monkeypatch.setattr(algorithms, "minimize", attributed)
        result = algorithms.run(cex1, algorithms.AlgorithmConfig(
            variant=algorithms.LLP_ONLY, max_iter=20))
        assert len(result.trace) == 20
        assert solves["lb"] == solves["llp"] == 20
        assert calls["lb"] == calls["llp"] == 0


def _solved(objective, constraints, box, **kwargs):
    """``minimize``'s outcome, or the type of the exception it raised, as
    ``==``, ``repr`` and pickle (bit for bit) see it."""
    try:
        out = minimize(objective, constraints, box, **kwargs)
    except (ValueError, OverflowError, RuntimeError) as e:
        out = type(e)
    return out, repr(out), pickle.dumps(out)


class TestRootAnalysisKept:
    """A spec keeps its analysis of the last box a solve asked about, and no
    outcome shows it."""

    def test_a_solve_that_reads_it_is_a_fresh_solve(self, monkeypatch):
        # the 19-cut lower-bounding instance of cex1's llp-only run
        cex1 = get_builtin("cex1")
        result = algorithms.run(cex1, algorithms.AlgorithmConfig(
            variant=algorithms.LLP_ONLY, max_iter=20))
        inst = build_lower_bounding(cex1, [r.llp.minimizer for r in result.trace[:19]])
        assert len(inst.constraints) == 19
        contract, made = globalopt._contract, []

        def contracting(bounds, *args):
            made.append(bounds)
            return contract(bounds, *args)
        monkeypatch.setattr(globalopt, "_contract", contracting)
        first = _solved(inst.objective, inst.constraints, inst.box)
        assert made.count(inst.box.bounds) == 19
        made.clear()
        # the second solve reads every cut's analysis of the root
        second = _solved(inst.objective, inst.constraints, inst.box)
        assert inst.box.bounds not in made
        fresh = _solved(inst.objective, copy.deepcopy(inst.constraints), inst.box)
        assert first == second == fresh
        assert first[0].optimal

    def test_another_root_box_gets_its_own_answer(self):
        # the oracle suite's instances, solved from boxes inside their box,
        # from the box, and from an equal box made anew: each outcome is
        # that of specs never solved before (a spec that kept the answers of
        # the first box it was asked about fails on 16 of these 100)
        for seed in range(100):
            rng = random.Random(seed)
            objective, constraints, box = random_poly_instance(seed)
            for b in (shrink_box(rng, box), box, shrink_box(rng, box),
                      shrink_box(rng, box), BoxDomain(box.coords)):
                fresh = copy.deepcopy(constraints)
                assert _solved(objective, constraints, b, tol_opt=ORACLE_TOL_OPT) == \
                    _solved(objective, fresh, b, tol_opt=ORACLE_TOL_OPT), seed

    def test_a_warm_pass_leaves_no_cyclic_garbage(self):
        # a binding keeps its last box in a cell its closures share, not on
        # itself, so the specs that every loop iterate builds afresh, with
        # their bindings, are freed by their reference counts: a second pass
        # over the paper's loops and the oracle suite's instances, some of
        # which bisect, leaves nothing for the cycle collector
        cex1, cex2 = get_builtin("cex1"), get_builtin("cex2")
        configs = [(p, algorithms.AlgorithmConfig(variant=v, max_iter=20))
                   for p in (cex1, cex2) for v in algorithms.VARIANTS]
        configs.append((cex1, algorithms.AlgorithmConfig(
            variant=algorithms.AUX_LLP, max_iter=20, aux_tie_break="min-y")))
        instances = [random_poly_instance(seed) for seed in range(50)]

        def warm_pass():
            for problem, cfg in configs:
                algorithms.run(problem, cfg)
            for objective, constraints, box in instances:
                minimize(objective, constraints, box, tol_opt=ORACLE_TOL_OPT)
        warm_pass()
        gc.collect()
        gc.disable()
        try:
            warm_pass()
            assert gc.collect() == 0
        finally:
            gc.enable()


@st.composite
def shared_tree_solves(draw):
    """Specs on one tree, bound over one box's names, each with its own
    bound values, with the objective and its bound values that each is
    solved with; the box, one ``BoxDomain``, so every solve starts from one
    bounds tuple; the tolerance; and the order of the solves, with repeats.
    The trees: the LLP's hbar and the aux-LLP's g - level of cex1 and cex2
    at outer points and levels drawn, and a random polynomial over u with
    v bound."""
    kind = draw(st.sampled_from(["cex1 hbar", "cex2 hbar", "cex1 g_level",
                                 "cex2 g_level", "polynomial"]))
    n = draw(st.integers(2, 4))
    if kind == "polynomial":
        rng = random.Random(draw(st.integers(0, 2 ** 32)))
        tree = random_polynomial(rng, ["u", "v"], max_terms=3)
        objective = random_polynomial(rng, ["u", "v"])
        box, sense = random_box(rng, ["u"]), rng.choice(["le", "ge"])
        bound = [(("v", draw(st.floats(-3.0, 3.0))),) for _ in range(n)]
        specs = [(ConstraintSpec(tree, sense, v), objective, v) for v in bound]
        tol_opt = ORACLE_TOL_OPT
    else:
        name, tree = kind.split()
        p = get_builtin(name)
        xs = [(("x", draw(st.floats(-1.0, 1.0))),) for _ in range(n)]
        if tree == "hbar":
            specs = [(ConstraintSpec(p.hbar, "le", x), p.g, x) for x in xs]
        else:
            specs = [(ConstraintSpec(p.g_level, "le",
                                     x + ((LEVEL, draw(st.floats(-11.0, -6.0))),)),
                      p.hbar, x) for x in xs]
        box, tol_opt = p.Y, algorithms.AlgorithmConfig().tol_opt
    order = draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=3 * n))
    return specs, box, tol_opt, order


class TestSharedForms:
    """Specs on one tree share the part of their binding that their values
    do not decide (``ConstraintSpec.bind``), and no outcome shows it."""

    @settings(max_examples=60, deadline=None)
    @given(shared_tree_solves())
    def test_interleaved_solves_are_fresh_solves(self, case):
        # each solve reads the kept analysis of the root box that its spec
        # made, if it was solved before, beside specs holding other values
        specs, box, tol_opt, order = case
        for i in order:
            spec, objective, parameters = specs[i]
            fresh = copy.deepcopy(spec)
            assert _solved(objective, [spec], box, tol_opt=tol_opt,
                           parameters=parameters) == \
                _solved(objective, [fresh], box, tol_opt=tol_opt,
                        parameters=parameters)
        forms = {spec.bind(box.names, 1e-9).form for spec, _, _ in specs}
        assert len(forms) == 1

    def test_a_bound_value_named_like_the_box_raises_at_every_bind(self):
        # a form that fails its name check is not kept
        spec = ConstraintSpec(x + y, "le", (("x", 0.5),))
        for _ in range(2):
            with pytest.raises(ValueError, match="share names"):
                spec.bind(("x", "y"), 1e-9)


def _candidates(box):
    """The points minimize offers from a box: its midpoint and its corners."""
    return [tuple(map(midpoint_value, box.bounds)),
            *itertools.product(*map(corner_values, box.bounds))]


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
        with pytest.raises(ValueError):
            grid_minimize(x, [], UNIT_X, 1)

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

    def test_division_by_zero_at_one_grid_point(self):
        # 5 points on [-1, 1] include y = 0.5, where the divisor is zero
        box = BoxDomain([("x", -1.0, 1.0), ("y", -1.0, 1.0)])
        obj = x / (y - 0.5)
        with pytest.raises(EvaluationError):
            _dense_grid_minimize(obj, [], box, 5)
        with pytest.raises(EvaluationError):
            grid_minimize(obj, [], box, 5)


def _blocked(block, *args, **kwargs):
    """``grid_minimize(*args, **kwargs)`` in blocks of at most ``block`` grid
    points."""
    with mock.patch.object(globalopt, "_BLOCK_POINTS", block):
        return grid_minimize(*args, **kwargs)


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

    def test_zero_divisor_in_the_last_block(self):
        # x - 1 is zero in the last row only
        with pytest.raises(EvaluationError):
            _blocked(5, y / (x - 1.0), [], UNIT_XY, 5)

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

    @staticmethod
    def _spied(*args, parameters=()):
        """``grid_minimize(*args)`` in blocks of one row, and the trees it
        evaluated, one entry per block."""
        seen = []

        def spy(e, env):
            seen.append(e)
            return evaluate_array(e, env)
        with mock.patch.object(globalopt, "evaluate_array", spy):
            out = _blocked(5, *args, parameters=parameters)
        return out, seen

    def test_no_tree_after_a_constraint_that_no_point_passes(self):
        first = ConstraintSpec(2.0 + y, "le")
        second = ConstraintSpec(x * y, "ge")
        # w is a bound value, so the objective cannot raise
        obj = x * x + ex.var("w")
        out, seen = self._spied(obj, [first, second], UNIT_XY, 5,
                                parameters=(("w", 1.0),))
        assert out is INFEASIBLE
        assert seen == [first.expr] * 5

    def test_the_objective_only_on_blocks_with_a_feasible_point(self):
        # only the last two rows satisfy x >= 0.5
        cons = [ConstraintSpec(x - 0.5, "ge")]
        out, seen = self._spied(-y, cons, UNIT_XY, 5)
        assert (out.minimizer, out.value) == ({"x": 0.5, "y": 1.0}, -1.0)
        assert seen == [cons[0].expr] * 3 + [cons[0].expr, -y] * 2

    @pytest.mark.parametrize("objective", [x / (y - 0.5), x + ex.var("w")],
                             ids=["division", "unbound-variable"])
    def test_a_tree_that_can_raise_is_evaluated(self, objective):
        # no point passes; the divisor is zero at y = 0.5, w is bound nowhere
        cons = [ConstraintSpec(2.0 + y, "le")]
        with pytest.raises(EvaluationError):
            grid_minimize(objective, cons, UNIT_XY, 5)
        with pytest.raises(EvaluationError):
            _dense_grid_minimize(objective, cons, UNIT_XY, 5)
        with pytest.raises(EvaluationError):
            grid_minimize(x, cons + [ConstraintSpec(objective)], UNIT_XY, 5)

    def test_a_division_that_does_not_raise(self):
        # 4 points on [-1, 1] miss y = 0.5: evaluated, and nothing passes
        cons = [ConstraintSpec(2.0 + y, "le")]
        out, seen = self._spied(x / (y - 0.5), cons, UNIT_XY, 4)
        assert out is INFEASIBLE
        assert seen == [cons[0].expr, x / (y - 0.5)] * 4

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
def hoisting_cases(draw):
    """A grid over (u, v) of 2, 3, 5, 8 or 65 points per axis; an objective
    and 0-2 constraints over u, v and the bound values a and b, each with
    its own values of a and b; and the rows per block.  One tree divides by
    a divisor over v alone (and, one time in three, a bound value), which
    is zero at a grid point one time in three."""
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
    constraints = [ConstraintSpec(e, draw(st.sampled_from(("le", "ge"))), bound())
                   for e in trees[1:]]
    return trees[0], constraints, box, n, bound(), draw(st.sampled_from((1, 7, 64)))


def _grid_outcome(fn, *args, **kwargs):
    """``repr`` of what ``fn`` returns, or the type and message of the
    ``EvaluationError`` it raises."""
    try:
        with np.errstate(all="ignore"):
            return repr(fn(*args, **kwargs))
    except EvaluationError as err:
        return EvaluationError, str(err)


class TestGridHoisting:
    """A node that does not span the first axis is computed once per grid,
    and the grid's axes are np.linspace's."""

    @settings(max_examples=200, deadline=None)
    @given(hoisting_cases())
    # 4 points on [-1, 1] miss v = 0.5, 5 points do not
    @example((U * (V - 0.5) + ex.var("a") / (V - 0.5), [], UNIT_UV, 4, (("a", 2.0),), 1))
    @example((U * (V - 0.5) + ex.var("a") / (V - 0.5), [], UNIT_UV, 5, (("a", 2.0),), 1))
    def test_matches_the_dense_grid(self, case):
        objective, constraints, box, n, parameters, rows = case
        assert _grid_outcome(_blocked, rows * n, objective, constraints, box, n,
                             parameters=parameters) == \
            _grid_outcome(_dense_grid_minimize, objective, constraints, box, n,
                          parameters=parameters)

    def test_a_subtree_over_the_second_axis_once_per_grid(self):
        # u ** 2 spans the first axis, (v + 1) ** 3 does not: over 5 blocks of
        # one row, the one is raised to its power in each, the other once
        objective = U ** 2 * (V + 1.0) ** 3
        kernel = arrays._kernel(objective, UNIT_UV.names, 2)[0]
        power = kernel.__globals__["_float_power"]
        shapes = []

        def spy(a, *args, **kwargs):
            shapes.append(a.shape)
            return power(a, *args, **kwargs)
        evaluated = []

        def evaluate(e, env):
            evaluated.append(e)
            return evaluate_array(e, env)
        with mock.patch.dict(kernel.__globals__, _float_power=spy), \
                mock.patch.object(globalopt, "evaluate_array", evaluate):
            out = _blocked(5, objective, [], UNIT_UV, 5)
        assert repr(out) == repr(_dense_grid_minimize(objective, [], UNIT_UV, 5))
        assert evaluated == [objective] * 5
        assert sorted(shapes) == [(1, 1)] * 5 + [(1, 5)]

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

        def evaluate(e, env):
            seen.append({name: env[name].copy() for name in UNIT_UV.names})
            return evaluate_array(e, env)
        for n in ns:
            box = BoxDomain([("u", lo, hi), ("v", -hi, -lo)])
            del seen[:]
            with mock.patch.object(globalopt, "evaluate_array", evaluate), \
                    np.errstate(all="ignore"):
                _blocked(n * n, U + V, [], box, n)
                want = [_axis(a, b, n) for _, a, b in box.coords]
            (axes,) = seen
            assert axes["u"].shape == (n, 1) and axes["v"].shape == (1, n)
            for got, line in zip(axes.values(), want):
                assert got.tobytes() == line.tobytes()


    @settings(max_examples=200, deadline=None)
    @given(st.floats(9e307, sys.float_info.max), st.floats(9e307, sys.float_info.max),
           st.integers(2, 1000))
    @example(1.7e308, 1.7e308, 3)
    @example(sys.float_info.max, sys.float_info.max, 2)
    def test_an_axis_whose_span_overflows_is_finite(self, a, b, n):
        # np.linspace(-a, b, n) has inf and NaN points where b + a overflows
        lo, hi = -a, b
        assert math.isinf(hi - lo)
        with np.errstate(all="raise"):
            axis = arrays.linspace(lo, hi, n)
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
        trees = [obj, *(c.expr for c in cons)]
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
        # as many buffers as a kernel's most temporaries live at once, each
        # as long as the largest block: 81 rows of 401 points
        index = {n: i for i, n in enumerate(box.names)}
        peak = max(len({s for s, _ in arrays._generate(e, index, 2)[1]})
                   for e in trees)
        assert len(made) == peak
        assert size == (globalopt._BLOCK_POINTS // ORACLE_GRID_N) * ORACLE_GRID_N
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
    each tree's bound values to floats, evaluated by the reference walk, and
    the first minimum in C order among the feasible points whose value is
    not NaN."""
    axes = [np.linspace(lo, hi, points_per_axis) for _, lo, hi in box.coords]
    grids = np.meshgrid(*axes, indexing="ij")
    env = dict(zip(box.names, grids))
    shape = tuple(len(a) for a in axes)

    def on_grid(e, bound):
        return np.broadcast_to(
            np.asarray(reference_array(e, {**dict(bound), **env}), dtype=float), shape)

    vals = on_grid(objective, parameters)
    feas = ~np.isnan(vals)
    for c in constraints:
        cv = on_grid(c.expr, c.parameters)
        feas &= (cv <= tol_feas) if c.sense == "le" else (cv >= -tol_feas)
    candidates = np.flatnonzero(feas)
    if not len(candidates):
        return INFEASIBLE
    best = candidates[np.argmin(vals.ravel()[candidates])]
    idx = np.unravel_index(int(best), shape)
    return MinimizeOutcome(
        "optimal", {n: float(g[idx]) for n, g in env.items()}, float(vals[idx]))


def _sampled_lipschitz(objective, box, points_per_axis):
    axes = [np.linspace(lo, hi, points_per_axis) for _, lo, hi in box.coords]
    env = dict(zip(box.names, np.meshgrid(*axes, indexing="ij", sparse=True)))
    vals = np.broadcast_to(np.asarray(reference_array(objective, env), dtype=float),
                           tuple(len(a) for a in axes))
    L = 0.0
    for axis, ax in enumerate(axes):
        if len(ax) > 1 and ax[1] > ax[0]:
            L = max(L, float(np.max(np.abs(np.diff(vals, axis=axis)))) / (ax[1] - ax[0]))
    return L


class TestOracleAgreement:
    def test_fifty_random_instances(self):
        grid_n = ORACLE_GRID_N
        tol_opt = ORACLE_TOL_OPT
        expected = load_oracle_outcomes()
        expected_grid = load_oracle_outcomes(ORACLE_GRID_OUTCOMES)
        for seed in range(50):
            obj, cons, box = random_poly_instance(seed)
            bnb = minimize(obj, cons, box, tol_opt=tol_opt,
                           node_budget=ORACLE_NODE_BUDGET)
            # the outcome is pinned to the one stored in tests/golden
            assert bnb == expected[seed], seed
            oracle = grid_minimize(obj, cons, box, grid_n)
            assert oracle == expected_grid[seed], seed
            if bnb.optimal:
                # soundness: minimizer in box, feasible, value bracketed
                assert box.contains(bnb.minimizer, slack=1e-12)
                for c in cons:
                    assert c.satisfied(evaluate(c.expr, bnb.minimizer), 1e-9)
                v = evaluate(obj, bnb.minimizer)
                assert bnb.value_bounds.lo - 1e-12 <= v <= bnb.value_bounds.hi + 1e-12
            exact = grid_minimize(obj, cons, box, grid_n, tol_feas=0.0)
            if exact.optimal:
                # value_bounds.lo bounds the minimum over the exactly
                # feasible points, the grid's among them
                assert bnb.value_bounds.lo <= exact.value + 1e-12, seed
            if bnb.optimal and oracle.optimal:
                mesh = max((hi - lo) / (grid_n - 1) for _, lo, hi in box.coords)
                L = _sampled_lipschitz(obj, box, grid_n)
                assert abs(bnb.value - oracle.value) <= tol_opt + L * mesh, seed
            elif bnb.status == "infeasible":
                # an interval infeasibility certificate is rigorous: the grid
                # cannot have found a feasible point
                assert oracle.status == "infeasible", seed
            # bnb optimal + oracle infeasible is the tolerated sub-mesh sliver

    @pytest.mark.parametrize("seed", [25, 35])
    def test_deep_instances_at_a_tight_tolerance(self, seed):
        # the suite's two deepest solves, a cluster around a minimizer on the
        # box's boundary; at tol_opt=1e-6 each exhausted a 100k-node budget
        # before the monotonicity test
        tol_opt = 1e-6
        obj, cons, box = random_poly_instance(seed)
        bnb = minimize(obj, cons, box, tol_opt=tol_opt, node_budget=100_000)
        oracle = grid_minimize(obj, cons, box, ORACLE_GRID_N)
        assert bnb.optimal and oracle.optimal
        mesh = max((hi - lo) / (ORACLE_GRID_N - 1) for _, lo, hi in box.coords)
        L = _sampled_lipschitz(obj, box, ORACLE_GRID_N)
        assert abs(bnb.value - oracle.value) <= tol_opt + L * mesh
        assert bnb.value_bounds.lo <= oracle.value
        exact = grid_minimize(obj, cons, box, ORACLE_GRID_N, tol_feas=0.0)
        if exact.optimal:
            # value_bounds.lo bounds the minimum over the exactly feasible
            # points, the grid's among them
            assert bnb.value_bounds.lo <= exact.value + 1e-12
