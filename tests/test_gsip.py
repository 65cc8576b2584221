import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gsiplab import expr as ex
from gsiplab.algorithms import check_relaxation_feasible, verify_slater
from gsiplab.domains import BoxDomain
from gsiplab.expr import EvaluationError, evaluate, interval_eval, substitute
from gsiplab.globalopt import (ConstraintSpec, NodeBudgetExceeded,
                               UndecidedError, minimize)
from gsiplab.grid import grid_minimize
from gsiplab.gsip import (LEVEL, DomainError, GsipProblem, SlaterCertificate,
                          build_aux_llp, build_llp, build_lower_bounding,
                          build_sip_llp, builtin_problems, get_builtin)
from gsiplab.problem_format import parse_problem, serialize_problem

CEX1 = get_builtin("cex1")
CEX2 = get_builtin("cex2")
# a 2-D inner set
FMT = parse_problem((Path(__file__).with_name("golden") / "fmt_output.gsip").read_text())


def solve(inst, **kw):
    return minimize(inst.objective, inst.constraints, inst.box,
                    parameters=inst.parameters, **kw)


class TestHbar:
    def test_single_constraint_is_unchanged(self):
        assert CEX1.hbar == CEX1.h[0]
        assert CEX2.hbar == CEX2.h[0]

    def test_two_constraints(self):
        x, y = ex.var("x"), ex.var("y")
        p = GsipProblem("t", BoxDomain([("x", 0, 10)]), BoxDomain([("y", 0, 10)]),
                        ex.const(0.0), ex.const(0.0), (x, y))
        assert p.hbar == ex.emax(x, y)
        assert evaluate(p.hbar, {"x": 3.0, "y": 5.0}) == 5.0

    def test_pairwise_fold(self):
        # n lines nest ceil(log2 n) levels deep, in declared order
        hs = tuple(ex.var("y") - float(i) for i in range(400))
        p = GsipProblem("t", CEX1.X, CEX1.Y, CEX1.f, CEX1.g, hs)

        def depth(e):
            return 1 + max(map(depth, e.children), default=0)
        assert depth(p.hbar) == 9 + depth(hs[0])
        assert GsipProblem("t", CEX1.X, CEX1.Y, CEX1.f, CEX1.g, hs[:3]).hbar == (
            ex.emax(ex.emax(hs[0], hs[1]), hs[2]))

    def test_max_aggregation_equivalence(self):
        # hbar <= 0 at a point iff every h_j <= 0 there
        rng = random.Random(11)
        x, y = ex.var("x"), ex.var("y")
        from conftest import random_expr
        for _ in range(200):
            hs = tuple(random_expr(rng, ["x", "y"], rng.randint(0, 3))
                       for _ in range(rng.randint(1, 4)))
            p = GsipProblem("t", BoxDomain([("x", -9, 9)]), BoxDomain([("y", -9, 9)]),
                            ex.const(0.0), ex.const(0.0), hs)
            pt = {"x": rng.uniform(-9, 9), "y": rng.uniform(-9, 9)}
            vals = [evaluate(h, pt) for h in hs]
            assert evaluate(p.hbar, pt) == max(vals)
            assert (evaluate(p.hbar, pt) <= 0) == all(v <= 0 for v in vals)

    def test_empty_h_rejected(self):
        with pytest.raises(ValueError):
            GsipProblem("t", CEX1.X, CEX1.Y, CEX1.f, CEX1.g, ())


class TestProblemValidation:
    X, Y = BoxDomain([("x", -1, 1)]), BoxDomain([("y", -1, 1)])
    x, y = ex.var("x"), ex.var("y")

    @pytest.mark.parametrize("change,message", [
        ({"name": ""}, "name must not be empty"),
        ({"X": BoxDomain([])}, "at least one outer variable is required"),
        ({"Y": BoxDomain([])}, "at least one inner variable is required"),
        ({"Y": BoxDomain([("x", -1, 1)])}, r"share variable names: \['x'\]"),
        ({"f": y * ex.var("z")},
         r"objective references non-outer variable\(s\): \['y', 'z'\]"),
        ({"g": ex.var("z")}, r"g references undeclared variable\(s\): \['z'\]"),
        ({"h": (x, ex.var("w"))},
         r"h\[1\] references undeclared variable\(s\): \['w'\]"),
    ])
    def test_message_names_the_defect(self, change, message):
        fields = dict(name="t", X=self.X, Y=self.Y, f=-self.x, g=self.y,
                      h=(self.x,))
        with pytest.raises(ValueError, match=message):
            GsipProblem(**{**fields, **change})

    def test_level_name_is_reserved(self):
        # a level enters the aux-LLP trees as a bound value under LEVEL
        level = ex.var(LEVEL)
        with pytest.raises(ValueError, match="is reserved"):
            GsipProblem("t", self.X, BoxDomain([(LEVEL, -1, 1)]), -self.x, level,
                        (self.x,))


class TestBuiltins:
    def test_reference_values(self):
        assert CEX1.f_L == 0.5 and CEX1.f_star == 0.5
        assert CEX2.f_L == 0.5 and CEX2.f_star == 0.5

    def test_always_false_clause_certified(self):
        # the g >= 0 clause can never fire on either counterexample
        for p in builtin_problems():
            env = {**p.X.intervals(), **p.Y.intervals()}
            assert interval_eval(p.g, env).hi < 0.0

    def test_round_trip_through_text_format(self):
        for p in builtin_problems():
            assert parse_problem(serialize_problem(p)) == p

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            get_builtin("nope")


class TestLowerBoundingBuilder:
    def test_empty_discretization(self):
        inst = build_lower_bounding(CEX1, [])
        assert inst.constraints == ()
        out = solve(inst)
        assert out.minimizer["x"] == 1.0

    def test_single_cut_shrinks_feasible_set(self):
        inst = build_lower_bounding(CEX1, [{"y": 1.0}])
        out = solve(inst)
        assert out.minimizer["x"] == pytest.approx(0.5, abs=1e-6)
        # feasible set is [-1, 1/2]
        c = inst.constraints[0]
        assert c.satisfied(evaluate(c.expr, {"x": 0.5, **dict(c.parameters)}), 1e-9)
        assert not c.satisfied(evaluate(c.expr, {"x": 0.6, **dict(c.parameters)}), 1e-9)

    def test_cex2_cut_caps_at_zero(self):
        inst = build_lower_bounding(CEX2, [{"y": 0.45}])
        out = solve(inst)
        assert out.minimizer["x"] == pytest.approx(0.0, abs=1e-6)
        c = inst.constraints[0]
        assert c.satisfied(evaluate(c.expr, {"x": -1.0, **dict(c.parameters)}), 1e-9)
        assert not c.satisfied(evaluate(c.expr, {"x": 0.1, **dict(c.parameters)}), 1e-9)

    def test_point_outside_host_box(self):
        with pytest.raises(DomainError):
            build_lower_bounding(CEX1, [{"y": 2.0}])
        # a point after the prefix a previous instance covers is checked too
        with pytest.raises(DomainError):
            build_lower_bounding(CEX1, [{"y": 1.0}, {"y": 2.0}],
                                 build_lower_bounding(CEX1, [{"y": 1.0}]))

    def test_cuts_share_one_tree(self):
        inst = build_lower_bounding(CEX1, [{"y": 1.0}, {"y": -0.5}])
        assert all(c.expr is CEX1.cut for c in inst.constraints)
        assert [c.parameters for c in inst.constraints] == [(("y", 1.0),),
                                                            (("y", -0.5),)]
        assert CEX1.cut == ex.emax(CEX1.g, CEX1.hbar)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_a_grown_instance_equals_a_fresh_one(self, data):
        p = data.draw(st.sampled_from([CEX1, CEX2, FMT]))
        point = st.fixed_dictionaries({n: st.floats(lo, hi)
                                       for n, (lo, hi) in zip(p.Y.names, p.Y.bounds)})
        yset = data.draw(st.lists(point, max_size=6))
        fresh = build_lower_bounding(p, yset)
        # one previous instance from a prefix, and a chain one point at a time
        j = data.draw(st.integers(0, len(yset)))
        assert build_lower_bounding(p, yset, build_lower_bounding(p, yset[:j])) == fresh
        inst = build_lower_bounding(p, [])
        for i in range(len(yset) + 1):
            inst = build_lower_bounding(p, yset[:i], inst)
        assert inst == fresh
        assert [c.parameters for c in inst.constraints] == [
            tuple((n, y[n]) for n in p.Y.names) for y in yset]

    def test_a_grown_instance_keeps_the_previous_cuts(self):
        previous = build_lower_bounding(CEX1, [{"y": 1.0}])
        inst = build_lower_bounding(CEX1, [{"y": 1.0}, {"y": 0.5}], previous)
        assert inst.constraints[0] is previous.constraints[0]
        assert build_lower_bounding(CEX1, [{"y": 1.0}], previous) == previous

    def test_a_previous_instance_it_cannot_extend(self):
        yset = [{"y": 1.0}, {"y": 0.5}]
        # cex2 shares cex1's objective and X, not its cut
        for previous in (build_lower_bounding(CEX2, yset[:1]),
                         build_llp(CEX1, {"x": 0.5}),
                         build_lower_bounding(FMT, [])):
            with pytest.raises(ValueError, match="not a lower-bounding instance"):
                build_lower_bounding(CEX1, yset, previous)
        with pytest.raises(ValueError, match="more than"):
            build_lower_bounding(CEX1, yset[:1], build_lower_bounding(CEX1, yset))

    def test_empty_discretization_matches_plain_minimization(self):
        for p in builtin_problems():
            inst = build_lower_bounding(p, [])
            a = solve(inst)
            b = grid_minimize(p.f, [], p.X, 401)
            assert abs(a.value - b.value) <= 1e-5


class TestLlpBuilder:
    def test_minimizer_at_corner(self):
        out = solve(build_llp(CEX1, {"x": 1.0}))
        assert out.minimizer["y"] == pytest.approx(1.0, abs=1e-9)

    def test_minimizer_tracks_x(self):
        out = solve(build_llp(CEX1, {"x": 0.5}), tol_opt=1e-13)
        assert out.minimizer["y"] == pytest.approx(0.5, abs=1e-6)

    def test_infeasible_left_of_half(self):
        out = solve(build_llp(CEX1, {"x": -1.0}))
        assert out.status == "infeasible"

    def test_x_outside_host_box(self):
        with pytest.raises(DomainError):
            build_llp(CEX1, {"x": 2.0})


class TestAuxLlpBuilder:
    def test_feasible_band_and_minimizer(self):
        inst = build_aux_llp(CEX2, {"x": 1.0}, -11.0, 0.95)
        c = inst.constraints[0]
        assert c.satisfied(evaluate(c.expr, {"y": 0.45, **dict(c.parameters)}), 1e-9)
        assert not c.satisfied(evaluate(c.expr, {"y": 0.4, **dict(c.parameters)}), 1e-9)
        out = solve(inst, tol_opt=1e-13)
        assert out.minimizer["y"] == pytest.approx(0.45, abs=1e-6)
        assert out.value == pytest.approx(-1.55, abs=1e-6)

    def test_flat_objective_when_x_is_zero(self):
        inst = build_aux_llp(CEX2, {"x": 0.0}, -11.0, 0.95)
        out = solve(inst)
        assert out.value == pytest.approx(0.0, abs=1e-9)
        # every feasible y is optimal; the objective is identically zero there
        for yv in (0.45, 0.7, 1.0):
            assert evaluate(inst.objective, {"y": yv, **dict(inst.parameters)}) == 0.0

    def test_alpha_out_of_range(self):
        with pytest.raises(ValueError):
            build_aux_llp(CEX2, {"x": 1.0}, -11.0, 1.2)


class TestSipLlpBuilder:
    # expected values frozen from the dense-grid oracle
    @pytest.mark.parametrize("problem,xv,value,yv", [
        (CEX1, 1.0, -3.0, -1.0),
        (CEX1, -0.5, 0.0, -1.0),
        (CEX2, 1.0, -3.0, -1.0),
    ])
    def test_values_match_grid_oracle(self, problem, xv, value, yv):
        inst = build_sip_llp(problem, {"x": xv})
        oracle = grid_minimize(inst.objective, inst.constraints, inst.box, 401,
                               parameters=inst.parameters)
        assert oracle.value == pytest.approx(value, abs=1e-9)
        assert oracle.minimizer["y"] == pytest.approx(yv, abs=1e-9)
        out = solve(inst)
        assert out.value == pytest.approx(value, abs=1e-6)
        assert out.minimizer["y"] == pytest.approx(yv, abs=1e-6)


# -- bound values against substitution -----------------------------------------

TREE_KINDS = ("const", "add", "sub", "mul", "pow", "min", "max")


@st.composite
def trees(draw):
    """A random expression DAG over x and y with + - * ^ min max; no division,
    whose constant folding by ``substitute`` rounds differently from the
    interval kernel's ``a * (1/b)``."""
    pool = [ex.var("x"), ex.var("y")]
    for _ in range(draw(st.integers(1, 6))):
        def pick():
            return pool[draw(st.integers(0, len(pool) - 1))]
        kind = draw(st.sampled_from(TREE_KINDS))
        if kind == "const":
            node = ex.const(draw(st.floats(-3.0, 3.0)))
        elif kind == "pow":
            node = ex.ipow(pick(), draw(st.integers(0, 3)))
        else:
            node = ex.Expr(kind, children=(pick(), pick()))
        pool.append(node)
    return pool[-1]


def _solved(objective, constraints, box, parameters=()):
    """repr of the outcome, which shows every bit of its floats, or the type
    of the exception the solve raised."""
    try:
        return repr(minimize(objective, constraints, box, node_budget=2000,
                             parameters=parameters))
    except (EvaluationError, ValueError, OverflowError, NodeBudgetExceeded,
            UndecidedError) as e:
        return type(e)


class TestBoundValues:
    @settings(max_examples=200, deadline=None)
    @given(trees(), st.lists(trees(), min_size=1, max_size=2),
           st.floats(-1.0, 1.0), st.floats(-2.0, 1.0), st.floats(0.1, 2.0))
    def test_solves_match_substitution(self, g, h, xv, ylo, width):
        p = GsipProblem("t", BoxDomain([("x", -1.0, 1.0)]),
                        BoxDomain([("y", ylo, ylo + width)]), -ex.var("x"), g, tuple(h))
        point = {"x": xv}
        llp = build_llp(p, point)
        assert _solved(llp.objective, llp.constraints, llp.box, llp.parameters) == \
            _solved(substitute(g, point),
                    [ConstraintSpec(substitute(p.hbar, point), "le")], p.Y)
        sip = build_sip_llp(p, point)
        assert _solved(sip.objective, sip.constraints, sip.box, sip.parameters) == \
            _solved(ex.emax(substitute(g, point), substitute(p.hbar, point)), [], p.Y)

    @settings(max_examples=100, deadline=None)
    @given(trees(), trees(), st.floats(-1.0, 1.0), st.floats(-3.0, 3.0))
    def test_aux_llp_level_matches_a_constant(self, g, h, xv, level):
        p = GsipProblem("t", BoxDomain([("x", -1.0, 1.0)]),
                        BoxDomain([("y", -1.0, 1.0)]), -ex.var("x"), g, (h,))
        point = {"x": xv}
        aux = build_aux_llp(p, point, level, 0.5)
        assert _solved(aux.objective, aux.constraints, aux.box, aux.parameters) == \
            _solved(substitute(h, point),
                    [ConstraintSpec(substitute(g, point) - ex.const(0.5 * level), "le")],
                    p.Y)


class TestRelaxationFeasibility:
    def test_spot_checks(self):
        assert check_relaxation_feasible(CEX1, {"x": -0.75})
        assert not check_relaxation_feasible(CEX1, {"x": 0.0})
        assert check_relaxation_feasible(CEX2, {"x": -0.5})

    @pytest.mark.parametrize("problem", [CEX1, CEX2])
    def test_feasible_set_recovery_on_grid(self, problem):
        # feasible set of the relaxation is [-1, -1/2]; allow one mesh cell
        n = 201
        mesh = 2.0 / (n - 1)
        for i in range(n):
            xv = -1.0 + i * mesh
            feas = check_relaxation_feasible(problem, {"x": xv})
            if xv <= -0.5 - mesh:
                assert feas, xv
            elif xv >= -0.5 + mesh:
                assert not feas, xv


class TestSlaterVerification:
    def test_accepts_interior_margin_point(self):
        cert = SlaterCertificate({"x": -0.6}, epsilon=0.2, delta=0.1)
        assert verify_slater(CEX1, cert, f_star=0.5)

    def test_rejects_infeasible_point(self):
        cert = SlaterCertificate({"x": 0.0}, epsilon=0.2, delta=0.01)
        assert not verify_slater(CEX1, cert, f_star=0.5)

    @pytest.mark.parametrize("epsilon,delta,message", [
        (0.2, 0.0, "delta must be > 0"), (0.0, 0.1, "epsilon must be > 0"),
        (-0.2, 0.1, "epsilon must be > 0")])
    def test_epsilon_and_delta_must_be_positive(self, epsilon, delta, message):
        with pytest.raises(ValueError, match=message):
            SlaterCertificate({"x": -0.6}, epsilon=epsilon, delta=delta)

    def test_rejects_insufficient_margin(self):
        # margin at x=-0.6 is 0.2, so delta above that must fail
        cert = SlaterCertificate({"x": -0.6}, epsilon=0.2, delta=0.3)
        assert not verify_slater(CEX1, cert, f_star=0.5)
