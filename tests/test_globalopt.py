import copy
import gc
import itertools
import math
import pickle
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (random_box, random_expr, random_poly_instance,
                      random_polynomial, reference_array, sample_point,
                      shrink_box)
from test_golden import (ORACLE_GRID_N, ORACLE_GRID_OUTCOMES,
                         ORACLE_NODE_BUDGET, ORACLE_TOL_OPT,
                         load_oracle_outcomes)
from gsiplab import algorithms, globalopt
from gsiplab import expr as ex
from gsiplab.domains import BoxDomain, corner_values, midpoint_value
from gsiplab.expr import Interval, evaluate, evaluate_array, interval_eval
from gsiplab.globalopt import (SATISFIED, ConstraintSpec, NodeBudgetExceeded,
                               UndecidedError, minimize)
from gsiplab.grid import grid_minimize
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

    def test_a_value_that_is_not_finite_cuts_nothing(self, monkeypatch):
        # x * 4e307 * 10 overflows to +inf at the root's midpoint x = 1, so
        # the signed value there is +inf: the root box is returned uncut,
        # and the solve still finds the constraint's one feasible end
        contract, seen = globalopt._contract, []

        def recording(bounds, mid, value, slopes, target):
            out = contract(bounds, mid, value, slopes, target)
            seen.append((bounds, mid, value, out))
            return out
        monkeypatch.setattr(globalopt, "_contract", recording)
        box = BoxDomain([("x", -1.0, 3.0)])
        out = minimize(x, [ConstraintSpec(x * 4e307 * 10.0 - 1.0)], box)
        assert seen == [(box.bounds, (1.0,), math.inf, box.bounds)]
        assert seen[0][3] is box.bounds
        assert (out.status, out.minimizer, out.value) == ("optimal", {"x": -1.0}, -1.0)
        assert (out.value_bounds.lo, out.value_bounds.hi) == (-1.0, -1.0)

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


class TestCenteredBound:
    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 2))
    @example(35, 2)
    def test_no_point_of_the_box_lies_below_it(self, seed, dims):
        # mean value theorem: f(x) >= f(m) + sum_i min over X_i of D_i (x_i -
        # m_i) at every point x of the box, for slopes D over the box or over
        # any box that holds it, as minimize takes them over a box before
        # the monotonicity test reduces it; the oracle suite's polynomials
        rng = random.Random(seed)
        names = ["u", "v"][:dims]
        f = random_polynomial(rng, names)
        outer = random_box(rng, names)
        gradient = ex.compile_gradient(f, names)
        interval = ex.compile_expr(f, names)[1]
        for b, over in ((outer, outer), (shrink_box(rng, outer), outer)):
            slopes = gradient(over.bounds)[1]
            mid = tuple(map(midpoint_value, b.bounds))
            at = interval(tuple(zip(mid, mid)))[0]
            centered = globalopt._centered(b.bounds, mid, at, slopes)
            assert centered <= at
            points = _candidates(b) + [tuple(sample_point(rng, b).values())
                                       for _ in range(30)]
            for p in points:
                v = evaluate(f, dict(zip(names, p)))
                # the kernels round to nearest, not outward
                assert v >= centered - 1e-9 * max(1.0, abs(v), abs(centered)), p

    def test_it_settles_a_node_the_natural_bound_does_not(self, monkeypatch):
        # x^2 - x on [0.4, 0.6]: the root offers its midpoint, 0.5, the
        # minimizer, at -0.25.  The natural bound, [0.16, 0.36] - [0.4, 0.6],
        # is -0.44, below -0.25 - tol_opt, and the slope 2x - 1, in about
        # [-0.2, 0.2], fixes no coordinate; the centered bound, about
        # -0.25 - 0.02, settles the root
        f, box, tol_opt = x * x - x, BoxDomain([("x", 0.4, 0.6)]), 0.05
        natural = interval_eval(f, box).lo
        slopes = ex.compile_gradient(f, box.names)(box.bounds)[1]
        assert natural < -0.25 - tol_opt and slopes[0][0] < 0.0 < slopes[0][1]
        centered = globalopt._centered(box.bounds, (0.5,), -0.25, slopes)
        assert -0.25 - tol_opt <= centered < -0.25
        _no_bisection(monkeypatch)
        out = minimize(f, [], box, tol_opt=tol_opt)
        assert out.minimizer == {"x": 0.5} and out.value == -0.25
        assert out.value_bounds == Interval(centered, -0.25)

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_a_value_that_is_not_finite_bounds_nothing(self, value):
        assert globalopt._centered(((-1.0, 1.0),), (0.0,), value,
                                   ((-1.0, 1.0),)) == -math.inf

    @pytest.mark.parametrize("slopes", [
        ((-math.inf, math.inf),), ((math.inf, math.inf),),
        ((-math.inf, -math.inf),), ((0.0, math.inf),)])
    def test_an_infinite_slope_bounds_nothing(self, slopes):
        # an infinite slope times a nonzero offset is an infinite fall
        assert globalopt._centered(((-1.0, 1.0),), (0.0,), 1.0, slopes) == -math.inf

    def test_a_degenerate_axis_adds_nothing(self):
        # an offset of 0 adds 0 whatever the slope, an infinite one too; so
        # does an end at the midpoint
        bounds, mid = ((-1.0, 1.0), (2.0, 2.0), (0.0, 1.0)), (0.0, 2.0, 0.0)
        slopes = ((-1.0, 1.0), (-math.inf, math.inf), (2.0, 3.0))
        assert globalopt._centered(bounds, mid, 1.0, slopes) == 0.0
        assert globalopt._centered(((3.0, 3.0),), (3.0,), 1.5,
                                   ((math.inf, math.inf),)) == 1.5


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

    @pytest.mark.parametrize("tol_opt,most", [(ORACLE_TOL_OPT, 30), (1e-6, 52)])
    def test_the_centered_bound_shortens_the_deepest_solve(self, monkeypatch,
                                                           tol_opt, most):
        # seed 35 bisects 88 boxes at the suite's tolerance and 144 at 1e-6
        # with the natural bound alone
        bisect, count = BoxDomain.bisect, []

        def counting(self):
            count.append(self)
            return bisect(self)
        monkeypatch.setattr(BoxDomain, "bisect", counting)
        obj, cons, box = random_poly_instance(35)
        assert minimize(obj, cons, box, tol_opt=tol_opt,
                        node_budget=ORACLE_NODE_BUDGET).optimal
        assert len(count) <= most

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
