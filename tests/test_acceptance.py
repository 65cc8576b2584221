"""End-to-end acceptance checks.

Each test covers one headline capability and prints a single PASS/FAIL line
on the terminal (bypassing capture) so a plain pytest run doubles as a
checklist.
"""
import random
import time

import numpy as np
import pytest

from conftest import random_expr, random_poly_instance, random_problem, sample_point
from gsiplab import expr as ex
from gsiplab.algorithms import (AUX_LLP, LLP_ONLY, SIP_LLP, AlgorithmConfig,
                                check_relaxation_feasible, diagnose_trace, run,
                                verify_slater)
from gsiplab.domains import BoxDomain
from gsiplab.expr import evaluate, interval_eval
from gsiplab.globalopt import grid_minimize, minimize
from gsiplab.gsip import (GsipProblem, SlaterCertificate, builtin_problems,
                          get_builtin)
from gsiplab.problem_format import parse_problem, serialize_problem

CEX1 = get_builtin("cex1")
CEX2 = get_builtin("cex2")


def _report(capsys, label, check):
    try:
        check()
    except BaseException:
        with capsys.disabled():
            print(f"FAIL  {label}")
        raise
    with capsys.disabled():
        print(f"PASS  {label}")


def test_divergence_of_llp_only_discretization(capsys):
    def check():
        t0 = time.perf_counter()
        result = run(CEX1, AlgorithmConfig(variant=LLP_ONLY, max_iter=20))
        for rec in result.trace:
            target = 2.0 ** -(rec.k - 1)
            assert abs(rec.x["x"] - target) <= 1e-6
            assert abs(rec.llp.minimizer["y"] - target) <= 1e-6
            assert abs(rec.f_lower + target) <= 1e-6
        assert all(r.f_lower <= 1e-6 for r in result.trace)
        assert result.final_lower_bound < CEX1.f_L
        assert time.perf_counter() - t0 < 5.0

    _report(capsys, "llp-only bounds diverge on the first counterexample", check)


def test_stall_of_aux_llp_discretization(capsys):
    def check():
        t0 = time.perf_counter()
        for tie_break in ("solver", "min-y", "max-y"):
            result = run(CEX2, AlgorithmConfig(variant=AUX_LLP, alpha=0.95,
                                               max_iter=20,
                                               aux_tie_break=tie_break))
            r1 = result.trace[0]
            assert r1.x["x"] == 1.0
            assert r1.llp.value == pytest.approx(-11.0, abs=1e-6)
            assert r1.aux.minimizer["y"] == pytest.approx(0.45, abs=1e-6)
            assert abs(result.trace[1].x["x"]) <= 1e-6
            for rec in result.trace[1:]:
                assert abs(rec.x["x"]) <= 1e-6
            assert abs(result.final_lower_bound) <= 1e-6
        assert time.perf_counter() - t0 < 5.0

    _report(capsys, "aux-llp bounds stall at 0 on the second counterexample", check)


def test_sip_llp_variant_converges(capsys):
    def check():
        t0 = time.perf_counter()
        for problem in (CEX1, CEX2):
            result = run(problem, AlgorithmConfig(variant=SIP_LLP, max_iter=5))
            assert result.status == "converged_feasible"
            assert result.final_lower_bound == pytest.approx(0.5, abs=1e-4)
            assert len(result.trace) <= 5
        assert time.perf_counter() - t0 < 5.0

    _report(capsys, "sip-llp variant converges to 0.5 on both counterexamples", check)


def test_trace_diagnostic_localizes_infeasible_cuts(capsys):
    def check():
        result = run(CEX1, AlgorithmConfig(variant=LLP_ONLY, max_iter=20))
        violations = diagnose_trace(CEX1, result)
        reported = {(l, k) for l, k, _ in violations}
        n = len(result.trace)
        expected = {(l, k) for k in range(1, n + 1) for l in range(k + 2, n + 1)}
        assert reported == expected
        for l, k, value in violations:
            target = -2.0 * 2.0 ** -(l - 1) + 2.0 ** -(k - 1)
            assert value == pytest.approx(target, abs=1e-6)

    _report(capsys, "diagnostic reports exactly the later-iterate violations", check)


def test_solver_matches_dense_grid_oracle(capsys):
    def check():
        t0 = time.perf_counter()
        grid_n = 401
        tol_opt = 1e-3
        for seed in range(50):
            obj, cons, box = random_poly_instance(seed)
            bnb = minimize(obj, cons, box, tol_opt=tol_opt, node_budget=400_000)
            oracle = grid_minimize(obj, cons, box, grid_n)
            if bnb.optimal:
                assert box.contains(bnb.minimizer, slack=1e-12)
                for c in cons:
                    assert c.satisfied(evaluate(c.expr, bnb.minimizer), 1e-9)
                v = evaluate(obj, bnb.minimizer)
                assert bnb.value_bounds.lo - 1e-12 <= v <= bnb.value_bounds.hi + 1e-12
            if bnb.status == "infeasible":
                assert oracle.status == "infeasible", seed
            if bnb.optimal and oracle.optimal:
                # the certified lower bound sits below any feasible grid value,
                # and the incumbent is within tol_opt of the true minimum
                assert bnb.value_bounds.lo <= oracle.value + 1e-12, seed
                assert bnb.value <= oracle.value + tol_opt + 1e-12, seed
            exact = grid_minimize(obj, cons, box, grid_n, tol_feas=0.0)
            if exact.optimal:
                # value_bounds.lo bounds the minimum over the exactly
                # feasible points, the grid's among them
                assert bnb.value_bounds.lo <= exact.value + 1e-12, seed
        assert time.perf_counter() - t0 < 60.0

    _report(capsys, "branch-and-bound agrees with the grid oracle on 50 instances", check)


def test_structural_properties_hold(capsys):
    def check():
        # lower bounds are monotone in every variant on every builtin
        for problem in builtin_problems():
            for variant in (LLP_ONLY, AUX_LLP, SIP_LLP):
                result = run(problem, AlgorithmConfig(variant=variant, max_iter=15))
                bounds = [r.f_lower for r in result.trace]
                assert all(b2 >= b1 - 1e-12 for b1, b2 in zip(bounds, bounds[1:]))
                assert all(b <= problem.f_L + 1e-9 for b in bounds)

        # interval arithmetic encloses pointwise evaluation
        rng = random.Random(7)
        for _ in range(1000):
            names = ["x", "y"]
            e = random_expr(rng, names, rng.randint(0, 5))
            box = BoxDomain([(n, -3.0, 3.0) for n in names])
            pt = sample_point(rng, box)
            assert interval_eval(e, box).contains(evaluate(e, pt), slack=1e-7)

        # the aggregated inner constraint matches the componentwise maximum
        for _ in range(200):
            hs = tuple(random_expr(rng, ["x", "y"], rng.randint(0, 3))
                       for _ in range(rng.randint(1, 4)))
            p = GsipProblem("t", BoxDomain([("x", -9, 9)]),
                            BoxDomain([("y", -9, 9)]),
                            ex.const(0.0), ex.const(0.0), hs)
            pt = {"x": rng.uniform(-9, 9), "y": rng.uniform(-9, 9)}
            assert evaluate(p.hbar, pt) == max(evaluate(h, pt) for h in hs)

        # the text format round-trips builtins and fuzzed problems
        for p in builtin_problems():
            assert parse_problem(serialize_problem(p)) == p
        for _ in range(100):
            p = random_problem(rng)
            assert parse_problem(serialize_problem(p)) == p

        # feasibility of the disjunctive relaxation recovers [-1, -1/2]
        n = 201
        mesh = 2.0 / (n - 1)
        for problem in builtin_problems():
            for xv in np.linspace(-1.0, 1.0, n):
                feas = check_relaxation_feasible(problem, {"x": float(xv)})
                if xv <= -0.5 - mesh:
                    assert feas, xv
                elif xv >= -0.5 + mesh:
                    assert not feas, xv

    _report(capsys, "structural invariants hold under fuzzing", check)


def test_interiority_certificate_checker(capsys):
    def check():
        good = SlaterCertificate({"x": -0.6}, epsilon=0.2, delta=0.1)
        assert verify_slater(CEX1, good, f_star=0.5)
        bad = SlaterCertificate({"x": 0.0}, epsilon=0.2, delta=0.01)
        assert not verify_slater(CEX1, bad, f_star=0.5)

    _report(capsys, "interior-point certificate accepted and rejected correctly", check)
