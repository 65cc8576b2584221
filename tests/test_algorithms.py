import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import random_problem, sample_point
from gsiplab import algorithms, globalopt, gsip
from gsiplab import expr as ex
from gsiplab.algorithms import (AUX_LLP, LLP_ONLY, SIP_LLP, TIE_BREAKS,
                                VARIANTS, AlgorithmConfig, IterateRecord,
                                RunResult, diagnose_trace, lower_bound_history,
                                record_subproblems, run, verify_slater)
from gsiplab.expr import EmptyIntervalError, EvaluationError, evaluate
from gsiplab.globalopt import (MinimizeOutcome, NodeBudgetExceeded,
                               UndecidedError, minimize)
from gsiplab.gsip import (SlaterCertificate, build_aux_llp, build_sip_llp,
                          builtin_problems, check_point, get_builtin)

CEX1 = get_builtin("cex1")
CEX2 = get_builtin("cex2")


@pytest.fixture(scope="module")
def divergent_run():
    return run(CEX1, AlgorithmConfig(variant=LLP_ONLY, max_iter=20))


@pytest.fixture(scope="module")
def stalled_run():
    return run(CEX2, AlgorithmConfig(variant=AUX_LLP, alpha=0.95, max_iter=20))


class TestConfigValidation:
    def test_bad_variant(self):
        with pytest.raises(ValueError):
            AlgorithmConfig(variant="newton")

    def test_bad_alpha(self):
        with pytest.raises(ValueError):
            AlgorithmConfig(alpha=1.0)

    def test_bad_max_iter(self):
        with pytest.raises(ValueError):
            AlgorithmConfig(max_iter=0)

    @pytest.mark.parametrize("field,value", [
        ("tol_opt", float("nan")), ("tol_opt", float("inf")), ("tol_opt", 0.0),
        ("tol_feas", float("nan")), ("tol_feas", float("inf")),
        ("tol_feas", -1e-9)])
    def test_bad_tolerance(self, field, value):
        with pytest.raises(ValueError, match=field):
            AlgorithmConfig(**{field: value})

    def test_bad_tie_break(self):
        with pytest.raises(ValueError):
            AlgorithmConfig(aux_tie_break="random")


class TestLlpOnlyOnCex1:
    def test_halving_iterates(self, divergent_run):
        assert len(divergent_run.trace) == 20
        for rec in divergent_run.trace:
            target = 2.0 ** -(rec.k - 1)
            assert abs(rec.x["x"] - target) <= 1e-6
            assert abs(rec.llp.minimizer["y"] - target) <= 1e-6
            assert abs(rec.f_lower + target) <= 1e-6

    def test_bound_never_reaches_reference(self, divergent_run):
        assert divergent_run.status == "iteration_cap"
        assert divergent_run.final_lower_bound <= 1e-6
        assert divergent_run.final_lower_bound < CEX1.f_L

    def test_llp_minimizers_feasible(self, divergent_run):
        hb = CEX1.hbar
        for rec in divergent_run.trace:
            assert evaluate(hb, {**rec.x, **rec.llp.minimizer}) <= 1e-9


class TestAuxLlpOnCex2:
    def test_first_iteration_matches_reference_trace(self, stalled_run):
        r1 = stalled_run.trace[0]
        assert r1.x["x"] == 1.0
        assert r1.llp.value == pytest.approx(-11.0, abs=1e-9)
        assert r1.aux.minimizer["y"] == pytest.approx(0.45, abs=1e-6)
        assert r1.aux.value == pytest.approx(-1.55, abs=1e-6)

    def test_x_pinned_at_zero_from_second_iteration(self, stalled_run):
        assert stalled_run.status in ("stalled", "iteration_cap")
        for rec in stalled_run.trace[1:]:
            assert abs(rec.x["x"]) <= 1e-6
        assert abs(stalled_run.final_lower_bound) <= 1e-6

    @pytest.mark.parametrize("tie_break", ["solver", "min-y", "max-y"])
    def test_stall_is_tie_break_independent(self, tie_break):
        result = run(CEX2, AlgorithmConfig(variant=AUX_LLP, alpha=0.95,
                                           max_iter=20, aux_tie_break=tie_break))
        for rec in result.trace[1:]:
            assert abs(rec.x["x"]) <= 1e-6
        assert abs(result.final_lower_bound) <= 1e-6
        # every added point stays inside the band the near-optimality cut allows
        for rec in result.trace:
            if rec.aux is not None:
                assert 0.45 - 1e-6 <= rec.aux.minimizer["y"] <= 1.0 + 1e-12

    def test_aux_minimizers_near_optimal_in_llp(self, stalled_run):
        for rec in stalled_run.trace:
            if rec.aux is not None:
                gval = evaluate(CEX2.g, {**rec.x, **rec.aux.minimizer})
                assert gval <= 0.95 * rec.llp.value + 1e-9


class TestSipLlpConvergence:
    @pytest.mark.parametrize("problem", [CEX1, CEX2])
    def test_converges_to_reference(self, problem):
        result = run(problem, AlgorithmConfig(variant=SIP_LLP, max_iter=5))
        assert result.status == "converged_feasible"
        assert result.final_lower_bound == pytest.approx(0.5, abs=1e-4)
        assert len(result.trace) <= 5

    def test_two_iteration_path_on_cex1(self):
        result = run(CEX1, AlgorithmConfig(variant=SIP_LLP))
        r1, r2 = result.trace
        assert r1.x["x"] == 1.0
        assert r1.sip.value == pytest.approx(-3.0, abs=1e-6)
        assert r1.added_point["y"] == pytest.approx(-1.0, abs=1e-6)
        assert r2.x["x"] == pytest.approx(-0.5, abs=1e-6)
        assert r2.sip.value >= -1e-9


class TestRecords:
    def test_records_keep_the_certified_bracket(self):
        r1 = run(CEX1, AlgorithmConfig(variant=SIP_LLP)).trace[0]
        assert r1.sip.optimal
        assert r1.sip.value_bounds.lo <= r1.sip.value == r1.sip.value_bounds.hi

    @pytest.mark.parametrize("tie_break", ["min-y", "max-y"])
    def test_tie_broken_aux_record(self, tie_break):
        cfg = AlgorithmConfig(variant=AUX_LLP, max_iter=1, aux_tie_break=tie_break)
        r1 = run(CEX2, cfg).trace[0]
        inst = build_aux_llp(CEX2, r1.x, r1.llp.value, cfg.alpha)
        assert r1.aux.optimal
        assert r1.aux.value == evaluate(inst.objective,
                                        {**r1.aux.minimizer, **dict(inst.parameters)})
        assert r1.aux.value_bounds is None
        assert r1.added_point == r1.aux.minimizer

    def test_record_subproblems(self):
        cfg = AlgorithmConfig(variant=AUX_LLP, max_iter=1)
        r1 = run(CEX2, cfg).trace[0]
        subs = record_subproblems(CEX2, r1, cfg)
        assert [label for label, _, _ in subs] == ["llp", "aux_llp", "sip_llp"]
        assert subs[0][2] is r1.llp and subs[1][2] is r1.aux
        # the run did not solve the SIP-LLP, so it is solved with the run's settings
        inst = subs[2][1]
        assert inst == build_sip_llp(CEX2, r1.x)
        assert subs[2][2] == minimize(inst.objective, inst.constraints, inst.box,
                                      tol_opt=cfg.tol_opt, tol_feas=cfg.tol_feas,
                                      parameters=inst.parameters)

    def test_record_subproblems_reuse_the_sip_outcome(self):
        cfg = AlgorithmConfig(variant=SIP_LLP)
        for rec in run(CEX1, cfg).trace:
            (label, inst, out), = record_subproblems(CEX1, rec, cfg)
            assert (label, inst) == ("sip_llp", build_sip_llp(CEX1, rec.x))
            assert out is rec.sip


class TestCompileOnce:
    # the subproblems share the problem's trees, which keep their kernels,
    # so a longer run solves more subproblems but generates no more kernels

    @pytest.fixture
    def generated(self, monkeypatch):
        """The kind of every kernel generated while the test runs."""
        generate = ex._generate
        kinds = []

        def counting(e, index, kind, *rest):
            kinds.append(kind)
            return generate(e, index, kind, *rest)
        monkeypatch.setattr(ex, "_generate", counting)
        return kinds

    @staticmethod
    def _counts(generated, lengths, **config):
        counts = []
        for max_iter in lengths:
            generated.clear()
            result = run(get_builtin("cex1"),  # fresh trees, compiled by no one
                         AlgorithmConfig(max_iter=max_iter, **config))
            assert len(result.trace) == max_iter
            counts.append(len(generated))
        return counts

    def test_compile_cost_does_not_grow_with_iterations(self, generated):
        counts = self._counts(generated, (5, 20), variant=LLP_ONLY)
        assert counts[0] == counts[1] > 0

    @pytest.mark.parametrize("tie_break", ["solver", "min-y"])
    def test_aux_llp_levels_are_bound_values(self, generated, tie_break):
        # the aux-LLP's level, and the tie-break's, is a bound value of a tree
        # the problem builds once
        counts = self._counts(generated, (2, 5), variant=AUX_LLP,
                              aux_tie_break=tie_break)
        assert counts[0] == counts[1] > 0


class TestCutsBuiltOnce:
    def test_each_point_is_made_a_cut_and_bound_once(self, monkeypatch):
        # the k-th lower-bounding solve extends the previous instance by one
        # cut, and its solver binds only that cut: 19 points in 20 solves,
        # each cut checked and bound once, not 0 + 1 + ... + 19 = 190 times
        counts = {"checked": 0, "bound": 0}
        as_parameters, bind = gsip._as_parameters, globalopt._Binding

        def checking(box, point, what):
            counts["checked"] += what == "discretization point"
            return as_parameters(box, point, what)

        def binding(spec, names, tol_feas):
            # a cut binds y over the box of x; the LLP binds x over y's
            counts["bound"] += tuple(names) == ("x",) and bool(spec.parameters)
            return bind(spec, names, tol_feas)
        monkeypatch.setattr(gsip, "_as_parameters", checking)
        monkeypatch.setattr(globalopt, "_Binding", binding)
        result = run(get_builtin("cex1"), AlgorithmConfig(variant=LLP_ONLY, max_iter=20))
        assert len(result.trace) == 20
        assert result.trace[-2].yset_size_after == 19
        assert counts == {"checked": 19, "bound": 19}

    def test_each_cut_is_contracted_at_the_root_once(self, monkeypatch):
        # every lower-bounding solve starts from the box X, and a cut keeps
        # its analysis of it: 19 root contractions in 20 solves, one per
        # cut, not 0 + 1 + ... + 19 = 190
        problem = get_builtin("cex1")
        contract, at_root = globalopt._contract, []

        def contracting(bounds, mid, value, slopes, target):
            if bounds is problem.X.bounds and target == 0.0:
                at_root.append(bounds)
            return contract(bounds, mid, value, slopes, target)
        monkeypatch.setattr(globalopt, "_contract", contracting)
        result = run(problem, AlgorithmConfig(variant=LLP_ONLY, max_iter=20))
        assert result.trace[-2].yset_size_after == 19
        assert len(at_root) == 19


def _lb_infeasible():
    """Every cut max(g, hbar) = max(-1 - y^2, -1) is negative at every x, so
    the first lower-bounding solve with a point in its set is infeasible."""
    x, y = ex.var("x"), ex.var("y")
    unit = lambda n: gsip.BoxDomain([(n, -1.0, 1.0)])
    return gsip.GsipProblem(name="lb_infeasible", X=unit("x"), Y=unit("y"),
                            f=-x, g=ex.const(-1.0) - y * y, h=(ex.const(-1.0),))


class TestInfeasibleDiscretization:
    """A lower-bounding solve certified infeasible ends the run, and the
    run's bound is that solve's certified bound, +inf, whether or not an
    iterate came before it."""

    def test_after_an_iterate(self):
        result = run(_lb_infeasible(), AlgorithmConfig(variant=LLP_ONLY))
        assert result.status == algorithms.INFEASIBLE_DETECTED
        assert [(r.k, r.f_lower, r.yset_size_after) for r in result.trace] == \
            [(1, -1.0, 1)]
        assert result.final_lower_bound == math.inf

    def test_at_the_first_solve(self):
        result = run(_lb_infeasible(), AlgorithmConfig(
            variant=LLP_ONLY, initial_yset=({"y": 0.0},)))
        assert result.status == algorithms.INFEASIBLE_DETECTED
        assert result.trace == ()
        assert result.final_lower_bound == math.inf


class TestFormsMadeOnce:
    """The part of a binding that its values do not decide is made once per
    tree and names (``globalopt._Form``), not once per spec."""

    @pytest.fixture
    def made(self, monkeypatch):
        form, made = globalopt._Form, []

        def making(expr, names, pnames):
            made.append((names, pnames))
            return form(expr, names, pnames)
        monkeypatch.setattr(globalopt, "_Form", making)
        return made

    def test_a_warm_run_makes_none(self, made):
        cfg = AlgorithmConfig(variant=LLP_ONLY, max_iter=20)
        problem = get_builtin("cex1")
        run(problem, cfg)
        assert made
        made.clear()
        assert len(run(problem, cfg).trace) == 20
        assert made == []

    def test_a_cold_run_makes_as_many_however_long(self, made):
        counts = []
        for max_iter in (5, 20):
            made.clear()
            result = run(get_builtin("cex1"),  # fresh trees, bound by no one
                         AlgorithmConfig(variant=LLP_ONLY, max_iter=max_iter))
            assert len(result.trace) == max_iter
            counts.append(len(made))
        assert counts[0] == counts[1] > 0


def reference_same_point(a, b):
    """The duplicate rule as points over names: within ``_DUP_TOL`` along
    every coordinate, the reference of ``algorithms._near``."""
    return all(abs(a[n] - b[n]) <= algorithms._DUP_TOL for n in a)


_TOL = algorithms._DUP_TOL
# differences at the tolerance, one ulp either side of it, and zeros of both
# signs and infinities, about 0 and about other values
_EDGES = [0.0, -0.0, math.inf, -math.inf, math.nan, _TOL, -_TOL,
          math.nextafter(_TOL, 0.0), math.nextafter(_TOL, 1.0),
          -math.nextafter(_TOL, 0.0), -math.nextafter(_TOL, 1.0), 1.0, -0.5]
_coordinate = st.sampled_from(_EDGES) | st.floats(allow_nan=True, allow_infinity=True)


class TestDuplicateRule:
    @settings(max_examples=400, deadline=None)
    @given(st.integers(1, 3).flatmap(lambda n: st.tuples(
        st.lists(_coordinate, min_size=n, max_size=n),
        st.lists(_coordinate | st.sampled_from(_EDGES[5:11]), min_size=n, max_size=n),
        st.lists(st.booleans(), min_size=n, max_size=n))))
    @example(([0.0], [_TOL], [False]))
    @example(([0.0], [math.nextafter(_TOL, 1.0)], [False]))
    @example(([-0.0], [math.nextafter(_TOL, 0.0)], [False]))
    @example(([math.inf], [math.inf], [False]))
    @example(([math.nan], [math.nan], [False]))
    @example(([1.0, 0.0], [1.0, -0.0], [False, False]))
    def test_agrees_with_the_reference(self, drawn):
        # b is a drawn point, or an offset from a by one of the edges
        a, b, offset = drawn
        b = [x + d if off else d for x, d, off in zip(a, b, offset)]
        names = [f"y{i}" for i in range(len(a))]
        expected = reference_same_point(dict(zip(names, a)), dict(zip(names, b)))
        assert algorithms._near(tuple(a), tuple(b)) is expected
        assert algorithms._near(tuple(b), tuple(a)) is expected


class TestMonotonicityAndValidity:
    @pytest.mark.parametrize("problem", [CEX1, CEX2])
    @pytest.mark.parametrize("variant", [LLP_ONLY, AUX_LLP, SIP_LLP])
    def test_bounds_monotone_and_valid(self, problem, variant):
        result = run(problem, AlgorithmConfig(variant=variant, max_iter=15))
        bounds = [r.f_lower for r in result.trace]
        assert all(b2 >= b1 - 1e-12 for b1, b2 in zip(bounds, bounds[1:]))
        assert all(b <= problem.f_L + 1e-9 for b in bounds)
        assert result.final_lower_bound == bounds[-1]

    def test_nonempty_initialization_converges_cex2(self):
        # seeding the discretization with y = -1 makes even the aux variant
        # land on the reference bound
        result = run(CEX2, AlgorithmConfig(variant=AUX_LLP, alpha=0.95,
                                           max_iter=10,
                                           initial_yset=({"y": -1.0},)))
        assert result.trace[0].x["x"] == pytest.approx(-0.5, abs=1e-6)
        assert result.final_lower_bound == pytest.approx(0.5, abs=1e-4)

    def test_a_repeated_initial_point_is_kept_once(self):
        # an initial point is a cut like an added one, and an added point
        # that repeats one in the set is dropped: two copies of y = 0.5 run
        # as one, where they once made two identical cuts and reported a
        # set one point larger at every iterate
        once, twice = (run(CEX1, AlgorithmConfig(
            variant=LLP_ONLY, max_iter=4, initial_yset=({"y": 0.5},) * n))
            for n in (1, 2))
        assert [r.yset_size_after for r in twice.trace] == [2, 3, 4, 5]
        assert twice == once


class TestDiagnostics:
    def test_reported_pairs(self, divergent_run):
        violations = diagnose_trace(CEX1, divergent_run)
        reported = {(l, k) for l, k, _ in violations}
        n = len(divergent_run.trace)
        for l, k, value in violations:
            assert l > k + 1
            expected = -2.0 * 2.0 ** -(l - 1) + 2.0 ** -(k - 1)
            assert value == pytest.approx(expected, abs=1e-6)
        for k in range(1, n + 1):
            for l in range(k + 2, n + 1):
                assert (l, k) in reported
        # the immediate successor never violates: -2*x(k+1) + y(k) == 0
        assert all(l != k + 1 for l, k in reported)

    def test_sip_trace_rejected(self):
        result = run(CEX1, AlgorithmConfig(variant=SIP_LLP))
        with pytest.raises(ValueError):
            diagnose_trace(CEX1, result)

    def test_history_projection(self, divergent_run):
        hist = lower_bound_history(divergent_run)
        for (k, bound), (k_exp, b_exp) in zip(hist, [(1, -1.0), (2, -0.5), (3, -0.25)]):
            assert k == k_exp
            assert bound == pytest.approx(b_exp, abs=1e-6)

    def test_history_of_empty_trace(self):
        assert lower_bound_history(RunResult((), "iteration_cap", float("-inf"))) == []

    def test_history_of_convergent_run(self):
        result = run(CEX1, AlgorithmConfig(variant=SIP_LLP))
        hist = lower_bound_history(result)
        assert len(hist) == 2
        assert hist[0][1] == pytest.approx(-1.0, abs=1e-6)
        assert hist[1][1] == pytest.approx(0.5, abs=1e-6)


# -- the point kernels against the walker ------------------------------------

def reference_diagnose(p, result, tol_feas=1e-9):
    """``diagnose_trace`` through the walker, ``evaluate``, over merged
    name -> value dicts: the compiled version's bit-for-bit reference."""
    recs = {r.k: r for r in result.trace if r.llp is not None and r.llp.optimal}
    if not recs:
        raise ValueError("trace carries no LLP minimizers to diagnose")
    xs = {r.k: r.x for r in result.trace}
    violations = []
    for k, rk in sorted(recs.items()):
        y_k = rk.llp.minimizer
        if evaluate(p.hbar, {**rk.x, **y_k}) >= -tol_feas:
            continue
        for l in sorted(l for l in xs if l > k):
            value = evaluate(p.hbar, {**xs[l], **y_k})
            if value > tol_feas:
                violations.append((l, k, value))
    return violations


def reference_verify_slater(p, cert, f_star, tol_feas=1e-9):
    """``verify_slater`` with f(x_s) from the walker."""
    check_point(p.X, cert.x_s, "candidate point")
    if evaluate(p.f, cert.x_s) > f_star + cert.epsilon:
        return False
    cfg = AlgorithmConfig(tol_opt=1e-6, tol_feas=tol_feas)
    return algorithms._solve_at_least(build_sip_llp(p, cert.x_s), cfg, cert.delta)[1]


_SOLVER_ERRORS = (NodeBudgetExceeded, UndecidedError, EvaluationError,
                  EmptyIntervalError, OverflowError)


def _outcome(fn, *args):
    """``fn(*args)`` as bits: floats by ``repr``, which tells a zero's sign,
    or the type of the error it raised."""
    try:
        out = fn(*args)
    except (ValueError, *_SOLVER_ERRORS) as e:
        return type(e)
    return repr(out)


def _fuzzed_problems(seed, count):
    rng = random.Random(seed)
    return [random_problem(rng) for _ in range(count)]


def _sampled_trace(p, rng, n):
    """A trace of ``n`` records at random points of X, each with an LLP
    minimizer at a random point of Y (one of them infeasible), so that hbar
    takes values of both signs at many pairs."""
    trace = []
    for k in range(1, n + 1):
        llp = (MinimizeOutcome("infeasible") if k == 2 else
               MinimizeOutcome("optimal", sample_point(rng, p.Y), 0.0))
        trace.append(IterateRecord(k, sample_point(rng, p.X), 0.0, llp, None,
                                   None, None, k))
    return RunResult(tuple(trace), "iteration_cap", 0.0)


class TestKernelsMatchTheWalker:
    # diagnose_trace, the tie-broken aux record and verify_slater evaluate
    # through the trees' point kernels; each float they return, or decide
    # by, is the walker's, bit for bit and sign for sign

    @staticmethod
    def _results(problems, max_iter):
        for p in problems:
            for variant in VARIANTS:
                for tie_break in TIE_BREAKS:
                    cfg = AlgorithmConfig(variant=variant, max_iter=max_iter,
                                          aux_tie_break=tie_break)
                    try:
                        yield p, cfg, run(p, cfg)
                    except _SOLVER_ERRORS:
                        continue

    @pytest.mark.parametrize("problems,max_iter", [
        (builtin_problems(), 20), (_fuzzed_problems(13, 24), 5)],
        ids=["builtin", "fuzzed"])
    def test_runs(self, problems, max_iter):
        diagnosed = records = 0
        for p, cfg, result in self._results(problems, max_iter):
            for tol_feas in (1e-9, 0.0):
                got = _outcome(diagnose_trace, p, result, tol_feas)
                assert got == _outcome(reference_diagnose, p, result, tol_feas)
                diagnosed += got is not ValueError
            for rec in result.trace:
                if rec.aux is not None and cfg.aux_tie_break != "solver":
                    inst = build_aux_llp(p, rec.x, rec.llp.value, cfg.alpha)
                    assert repr(rec.aux.value) == repr(evaluate(
                        inst.objective, {**rec.aux.minimizer, **dict(inst.parameters)}))
                    records += 1
        assert diagnosed and records

    def test_sampled_traces(self):
        rng = random.Random(5)
        pairs = 0
        for p in builtin_problems() + _fuzzed_problems(13, 60):
            for tol_feas in (1e-9, 0.0):
                result = _sampled_trace(p, rng, 12)
                got = diagnose_trace(p, result, tol_feas)
                assert repr(got) == repr(reference_diagnose(p, result, tol_feas))
                pairs += len(got)
        assert pairs > 50, pairs

    def test_verify_slater(self):
        rng = random.Random(17)
        verdicts = set()
        for p in builtin_problems() + _fuzzed_problems(19, 20):
            for _ in range(3):
                x = sample_point(rng, p.X)
                cert = SlaterCertificate(x, epsilon=rng.choice([1e-3, 0.25]),
                                         delta=rng.choice([1e-6, 0.1]))
                fx = evaluate(p.f, x)
                # f_star around the threshold f(x_s) - epsilon, where a
                # value an ulp off would flip the verdict
                base = fx - cert.epsilon
                for f_star in (base, math.nextafter(base, -math.inf),
                               math.nextafter(base, math.inf), fx):
                    got = _outcome(verify_slater, p, cert, f_star)
                    assert got == _outcome(reference_verify_slater, p, cert, f_star)
                    verdicts.add(got)
        assert {"True", "False"} <= verdicts
