import csv
import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from gsiplab import algorithms, globalopt, gsip
from gsiplab.cli import _config_from_args, build_parser, main
from gsiplab.expr import Interval
from gsiplab.globalopt import MinimizeOutcome
from gsiplab.problem_format import MAX_DEPTH, parse_problem

SRC = Path(__file__).resolve().parent.parent / "src"
GOLDEN = Path(__file__).with_name("golden")
LLP_INFEASIBLE = GOLDEN / "llp_infeasible.gsip"
WIDE_BOX = GOLDEN / "wide_box.gsip"

CEX1_TEXT = """\
problem "mine"
outer x in [-1, 1]
inner y in [-1, 1]
objective: -x
g: (x - y)^2 - 10
h: -2*x + y
"""


# y lies in a feasible set of width 6e-11 at x = 1, narrower than MIN_WIDTH
THIN_H_TEXT = CEX1_TEXT.replace("g: (x - y)^2 - 10", "g: y - 10").replace(
    "h: -2*x + y", "h: 1000000000000*(y - 0.3001)^2 + x - 1")


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


class TestRun:
    def test_llp_only_divergent_bounds(self, tmp_path, capsys):
        out = tmp_path / "trace.csv"
        code = main(["run", "--problem", "cex1", "--variant", "llp-only",
                     "--max-iter", "20", "--output", str(out)])
        assert code == 0
        rows = read_csv(out)
        assert len(rows) == 20
        for i, row in enumerate(rows[:5]):
            assert float(row["f_Lk"]) == pytest.approx(-(2.0 ** -i), abs=1e-6)
        assert "final_lower_bound=" in capsys.readouterr().out

    def test_aux_trace_shows_stall(self, tmp_path):
        out = tmp_path / "trace.csv"
        code = main(["run", "--problem", "cex2", "--variant", "aux",
                     "--alpha", "0.95", "--output", str(out)])
        assert code == 0
        rows = read_csv(out)
        assert float(rows[0]["aux_y"]) == pytest.approx(0.45, abs=1e-6)
        assert float(rows[1]["x_x"]) == pytest.approx(0.0, abs=1e-6)
        assert rows[0]["status"] in ("stalled", "iteration_cap")

    def test_sip_llp_reports_convergence(self, capsys):
        code = main(["run", "--problem", "cex1", "--variant", "sip-llp"])
        assert code == 0
        final = capsys.readouterr().out.strip().splitlines()[-1]
        assert "status=converged_feasible" in final
        bound = float(final.split("final_lower_bound=")[1])
        assert bound == pytest.approx(0.5, abs=1e-4)

    def test_csv_output_is_stable(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["run", "--problem", "cex2", "--variant", "aux", "--output"]
        assert main(args + [str(a)]) == 0
        assert main(args + [str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_json_schema(self, tmp_path):
        out = tmp_path / "trace.json"
        code = main(["run", "--problem", "cex1", "--variant", "sip-llp",
                     "--format", "json", "--output", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert set(doc) == {"problem", "status", "final_lower_bound", "trace"}
        for rec in doc["trace"]:
            assert set(rec) == {"k", "x", "f_Lk", "llp", "aux", "sip_llp",
                                "added_point", "Yset_size_after"}

    def test_problem_file_source(self, tmp_path):
        src = tmp_path / "mine.gsip"
        src.write_text(CEX1_TEXT)
        code = main(["run", "--file", str(src), "--variant", "sip-llp"])
        assert code == 0

    def test_initial_y_flag(self, tmp_path, capsys):
        code = main(["run", "--problem", "cex2", "--variant", "aux",
                     "--initial-y", "-1"])
        assert code == 0
        final = capsys.readouterr().out.strip().splitlines()[-1]
        bound = float(final.split("final_lower_bound=")[1])
        assert bound == pytest.approx(0.5, abs=1e-4)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_a_zero_prints_without_its_sign(self, capsys, fmt):
        # cex2's llp-only run ends with f_Lk = -0.0, a zero with a sign
        argv = ["run", "--problem", "cex2", "--variant", "llp-only"]
        p = gsip.get_builtin("cex2")
        result = algorithms.run(p, _config_from_args(build_parser().parse_args(argv), p))
        assert math.copysign(1.0, result.final_lower_bound) == -1.0
        assert main(argv + ["--format", fmt]) == 0
        out = capsys.readouterr().out
        assert re.search(r"-0\.0(?!\d)", out) is None
        assert out.splitlines()[-1] == "status=stalled final_lower_bound=0.0"


# every cut max(-1 - y^2, -1) is negative: the lower-bounding solve is
# infeasible once the set holds a point
LB_INFEASIBLE_TEXT = CEX1_TEXT.replace("g: (x - y)^2 - 10", "g: -1 - y*y").replace(
    "h: -2*x + y", "h: -1")


def _strict_json(text):
    """``text`` parsed as JSON proper, which has no NaN or infinities."""
    def refuse(name):
        raise ValueError(f"not JSON: {name}")
    return json.loads(text, parse_constant=refuse)


class TestInfeasibleDiscretization:
    """A run whose lower-bounding solve is certified infeasible reports the
    certified bound, +inf, and its JSON is strict."""

    @pytest.mark.parametrize("initial,rows", [([], 1), (["--initial-y", "0"], 0)])
    def test_csv(self, tmp_path, capsys, initial, rows):
        path = tmp_path / "p.gsip"
        path.write_text(LB_INFEASIBLE_TEXT)
        out = tmp_path / "trace.csv"
        assert main(["run", "--file", str(path), "--variant", "llp-only",
                     "--output", str(out), *initial]) == 0
        trace = read_csv(out)
        assert len(trace) == rows
        assert all(r["status"] == "infeasible_detected" for r in trace)
        assert capsys.readouterr().out == \
            "status=infeasible_detected final_lower_bound=inf\n"

    @pytest.mark.parametrize("initial,rows", [([], 1), (["--initial-y", "0"], 0)])
    def test_json(self, tmp_path, capsys, initial, rows):
        path = tmp_path / "p.gsip"
        path.write_text(LB_INFEASIBLE_TEXT)
        assert main(["run", "--file", str(path), "--variant", "llp-only",
                     "--format", "json", *initial]) == 0
        text, status = capsys.readouterr().out.rsplit("status=", 1)
        doc = _strict_json(text)
        assert (doc["status"], doc["final_lower_bound"]) == ("infeasible_detected", "inf")
        assert len(doc["trace"]) == rows
        assert status == "infeasible_detected final_lower_bound=inf\n"

    def test_every_json_number_is_finite(self, tmp_path):
        # the goldens' JSON holds no infinity, and parses strictly as it is
        for path in sorted(GOLDEN.glob("run_*.json")):
            _strict_json(path.read_text().rsplit("status=", 1)[0])


class TestUsageErrors:
    def test_unknown_builtin(self, capsys):
        # the message itself, not the repr a KeyError's str() gives
        for command in ("run", "verify"):
            assert main([command, "--problem", "nope"]) == 2
            assert capsys.readouterr().err == "error: no builtin problem named 'nope'\n"

    def test_unreadable_file(self):
        assert main(["run", "--file", "/does/not/exist.gsip"]) == 2

    def test_parse_failure(self, tmp_path):
        bad = tmp_path / "bad.gsip"
        bad.write_text("problem oops\n")
        assert main(["run", "--file", str(bad)]) == 2

    def test_bad_alpha(self):
        assert main(["run", "--problem", "cex2", "--variant", "aux",
                     "--alpha", "1.5"]) == 2

    def test_bad_initial_y(self):
        assert main(["run", "--problem", "cex1", "--initial-y", "zap"]) == 2

    def test_initial_y_outside_box(self, capsys):
        assert main(["run", "--problem", "cex1", "--initial-y", "5"]) == 2
        assert capsys.readouterr().err.startswith("error: initial Y point")

    @pytest.mark.parametrize("flag,value", [
        ("--tol-opt", "nan"), ("--tol-opt", "inf"), ("--tol-opt", "0"),
        ("--tol-feas", "nan"), ("--tol-feas", "inf"), ("--tol-feas", "-1e-9")])
    @pytest.mark.parametrize("command", ["run", "verify"])
    def test_bad_tolerance(self, capsys, command, flag, value):
        assert main([command, "--problem", "cex1", f"{flag}={value}"]) == 2
        name = flag[2:].replace("-", "_")
        assert capsys.readouterr().err.startswith(f"error: {name} must be")

    def test_verify_grid_too_coarse(self, capsys):
        assert main(["verify", "--problem", "cex1", "--grid", "1"]) == 2
        assert capsys.readouterr().err.startswith("error: --grid")


def _console(*argv) -> subprocess.CompletedProcess:
    """``gsiplab *argv`` in a new interpreter, as the console script runs it."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run([sys.executable, "-m", "gsiplab.cli", *argv], env=env,
                          capture_output=True, text=True)


def _assert_one_error_line(proc: subprocess.CompletedProcess, start: str):
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: {start}"), proc.stderr


class TestFileErrors:
    @pytest.mark.parametrize("command", [["fmt"], ["run", "--file"],
                                         ["verify", "--file"]],
                             ids=["fmt", "run", "verify"])
    def test_a_file_that_is_not_utf8_is_a_usage_error(self, tmp_path, command):
        src = tmp_path / "latin1.gsip"
        src.write_bytes(b'problem "a\xff"\n')
        proc = _console(*command, str(src))
        _assert_one_error_line(proc, f"cannot read {src}: 'utf-8' codec can't decode")

    def test_an_unwritable_output_is_a_usage_error(self, tmp_path):
        out = tmp_path / "missing" / "x.csv"
        proc = _console("run", "--problem", "cex1", "--output", str(out))
        _assert_one_error_line(proc, f"cannot write {out}: ")
        assert proc.stdout == "" and not out.parent.exists()


# one problem-file defect each, and the message that names it
INVALID_FILES = [
    ("outer x in [-1, 1]\ninner y in [-1, 1]\nobjective: -x\ng: y\nh: x\n",
     "missing 'problem' line"),
    ('problem "t"\ninner y in [-1, 1]\nobjective: 0\ng: y\nh: y\n',
     "at least one outer variable is required"),
    ('problem "t"\nouter x in [-1, 1]\nobjective: -x\ng: x\nh: x\n',
     "at least one inner variable is required"),
    ('problem "t"\nouter x in [-1, 1]\ninner y in [-1, 1]\ng: y\nh: x\n',
     "missing 'objective' line"),
    ('problem "t"\nouter x in [-1, 1]\ninner y in [-1, 1]\nobjective: -x\nh: x\n',
     "missing 'g' line"),
    ('problem "t"\nouter x in [-1, 1]\ninner y in [-1, 1]\nobjective: -x\ng: y\n',
     "at least one 'h' constraint is required"),
    # a literal too large for a float could not be written back
    (CEX1_TEXT.replace("outer x in [-1, 1]", "outer x in [-1, 1e400]"),
     "line 2, column 17: number 1e400 is too large for a float"),
    (CEX1_TEXT.replace("inner y in [-1, 1]", "inner y in [-1e400, 1]"),
     "line 3, column 14: number 1e400 is too large for a float"),
    (CEX1_TEXT.replace("objective: -x", "objective: -x*1e400"),
     "line 4, column 15: number 1e400 is too large for a float"),
    (CEX1_TEXT + "f_star: 1e400\n",
     "line 7, column 9: number 1e400 is too large for a float"),
    (CEX1_TEXT + "f_L: 0.5\nf_L: 0.25\n", "line 8, column 1: duplicate 'f_L' line"),
    (CEX1_TEXT + "f_star: 0.5\nf_star: 0.5\n",
     "line 8, column 1: duplicate 'f_star' line"),
    (CEX1_TEXT.replace("outer x in [-1, 1]", "outer x in [2, 1]"),
     "bounds of 'x' are empty: [2.0, 1.0]"),
    (CEX1_TEXT.replace("objective: -x", "objective: -x - y"),
     "objective references non-outer variable(s): ['y']"),
    (CEX1_TEXT.replace("objective: -x", "objective: -z*w"),
     "objective references non-outer variable(s): ['w', 'z']"),
    (CEX1_TEXT.replace("g: (x - y)^2 - 10", "g: (x - z)^2 - 10"),
     "g references undeclared variable(s): ['z']"),
    (CEX1_TEXT + "h: x + z\n",
     "h[1] references undeclared variable(s): ['z']"),
]


@pytest.mark.parametrize("command", ["run", "fmt"])
@pytest.mark.parametrize("text,message", INVALID_FILES)
def test_invalid_file_is_a_usage_error(tmp_path, capsys, command, text, message):
    src = tmp_path / "bad.gsip"
    src.write_text(text)
    argv = ["run", "--file", str(src)] if command == "run" else ["fmt", str(src)]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {src}: {message}\n"


# the outer box's bounds sum past the float maximum
HUGE_BOX_TEXT = """\
problem "huge"
outer x in [1e308, 1.7e308]
inner y in [-1, 1]
objective: (x - 1.5e308)*(x - 1.5e308)
g: y + 10
h: y - 2
"""


# bisection around x = 10000000.1 reaches boxes two adjacent floats wide,
# wider than MIN_WIDTH but too narrow to cut
ADJACENT_FLOATS_TEXT = """\
problem "big"
outer x in [10000000, 10000001]
inner y in [0, 1]
objective: -x
g: 10000000.1 - x
h: y - 2
"""


class TestHugeBox:
    @pytest.mark.parametrize("objective,bound", [
        ("(x - 1.5e308)*(x - 1.5e308)", "0.0"), ("-x", "-1.7e+308")])
    def test_run_bisects_and_stays_in_the_box(self, tmp_path, capsys,
                                              objective, bound):
        src = tmp_path / "huge.gsip"
        src.write_text(HUGE_BOX_TEXT.replace(
            "(x - 1.5e308)*(x - 1.5e308)", objective))
        assert main(["run", "--file", str(src), "--max-iter", "2"]) == 0
        assert capsys.readouterr().out.endswith(
            f"status=converged_feasible final_lower_bound={bound}\n")

    def test_run_retires_boxes_of_two_adjacent_floats(self, tmp_path, capsys):
        src = tmp_path / "big.gsip"
        src.write_text(ADJACENT_FLOATS_TEXT)
        assert main(["run", "--file", str(src), "--max-iter", "3"]) == 0
        assert capsys.readouterr().out.endswith(
            "status=converged_feasible final_lower_bound=-10000000.1\n")


class TestSolverErrors:
    def test_overflow_is_a_solver_error(self, tmp_path, capsys):
        src = tmp_path / "overflow.gsip"
        src.write_text(CEX1_TEXT.replace("objective: -x",
                                          "objective: -x + (1e200*x)^3"))
        assert main(["run", "--file", str(src), "--variant", "sip-llp"]) == 3
        assert capsys.readouterr().err.startswith("solver error: ")

    def test_undecided_solve_is_a_solver_error(self, tmp_path, capsys):
        # the k=1 LLP finds no feasible point and cannot certify its
        # minimum-width boxes around y = 0.3001 infeasible
        src = tmp_path / "thin.gsip"
        src.write_text(THIN_H_TEXT)
        assert main(["run", "--file", str(src), "--variant", "llp-only"]) == 3
        assert capsys.readouterr().err.startswith(
            "solver error: no feasible point found")

    def test_empty_interval_is_a_solver_error(self, tmp_path, capsys):
        # the interval extension meets inf - inf and returns [nan, nan]
        src = tmp_path / "nan.gsip"
        src.write_text(CEX1_TEXT.replace(
            "objective: -x",
            "objective: -x + 1e300*x*1e300 - 1e300*x*1e300"))
        assert main(["run", "--file", str(src)]) == 3
        assert capsys.readouterr().err.startswith("solver error: empty interval")


class TestResolveInitial:
    def test_bare_run_takes_the_config_defaults(self):
        args = build_parser().parse_args(["run", "--problem", "cex1"])
        cfg = _config_from_args(args, gsip.get_builtin("cex1"))
        assert cfg == algorithms.AlgorithmConfig()

    def test_every_other_config_field_survives(self):
        args = build_parser().parse_args([
            "run", "--problem", "cex1", "--variant", "aux", "--alpha", "0.5",
            "--tol-feas", "1e-7", "--tol-opt", "1e-8", "--max-iter", "7",
            "--initial-y", "0.25", "--tie-break", "max-y"])
        cfg = _config_from_args(args, gsip.get_builtin("cex1"))
        assert cfg == algorithms.AlgorithmConfig(
            variant=algorithms.AUX_LLP, alpha=0.5, tol_feas=1e-7, tol_opt=1e-8,
            max_iter=7, initial_yset=({"y": 0.25},), aux_tie_break="max-y")
        # a field left at its default could not show that its flag was dropped
        defaults = algorithms.AlgorithmConfig()
        for name in algorithms.AlgorithmConfig.__match_args__:
            assert getattr(cfg, name) != getattr(defaults, name), name

    def test_wrong_component_count(self, capsys):
        assert main(["run", "--problem", "cex1", "--initial-y", "0.1,0.2"]) == 2
        assert capsys.readouterr().err == (
            "error: initial Y point has 2 components, expected 1\n")


class TestVerify:
    def test_cex1_against_grid(self, capsys):
        code = main(["verify", "--problem", "cex1", "--grid", "401",
                     "--max-iter", "5"])
        assert code == 0
        report = capsys.readouterr().out
        worst = float(report.strip().splitlines()[-1].split()[-1])
        assert worst <= 1e-4

    def test_cex2_sip_value(self, capsys):
        code = main(["verify", "--problem", "cex2", "--variant", "sip-llp",
                     "--grid", "401", "--max-iter", "5"])
        assert code == 0
        report = capsys.readouterr().out
        first_sip = next(l for l in report.splitlines() if "sip_llp" in l)
        assert "grid=-3.0" in first_sip

    def test_infeasibility_claim_is_checked(self, capsys):
        # the k=1 LLP of this file is certified infeasible
        assert main(["verify", "--file", str(LLP_INFEASIBLE)]) == 0
        assert capsys.readouterr().out == (
            "k=1 llp: bnb=infeasible grid=infeasible\n"
            "k=1 sip_llp: bnb=1.5 grid=1.5 diff=0.000e+00\n"
            "checked 2 subproblems, max discrepancy 0.000000e+00\n")

    def test_grid_minimizers_lie_in_a_box_whose_span_overflows(self, monkeypatch,
                                                                capsys):
        # y's span overflows; the grid's axis over it is finite and inside
        # the box all the same, so the oracle agrees with branch-and-bound
        grid_minimize, seen = globalopt.grid_minimize, []

        def recording(objective, constraints, box, *args, **kwargs):
            out = grid_minimize(objective, constraints, box, *args, **kwargs)
            seen.append((box, out))
            return out
        monkeypatch.setattr(globalopt, "grid_minimize", recording)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(["verify", "--file", str(WIDE_BOX)]) == 0
        assert seen and all(out.optimal and box.contains(out.minimizer)
                            for box, out in seen)
        assert capsys.readouterr().out.splitlines()[-1] == (
            "checked 4 subproblems, max discrepancy 0.000000e+00")

    @staticmethod
    def _claim_llp(monkeypatch, claim):
        """Make ``verify`` see ``claim`` as the outcome of cex1's k=1 LLP,
        whose grid value is -10 at y = 1."""
        record_subproblems = algorithms.record_subproblems

        def claimed(p, rec, cfg):
            return [(label, inst, claim if label == "llp" else out)
                    for label, inst, out in record_subproblems(p, rec, cfg)]
        monkeypatch.setattr(algorithms, "record_subproblems", claimed)

    def test_refuted_infeasibility_claim_fails(self, capsys, monkeypatch):
        # a wrong certificate that the LLP is infeasible
        self._claim_llp(monkeypatch, MinimizeOutcome(
            "infeasible", value_bounds=Interval(math.inf, math.inf)))
        assert main(["verify", "--problem", "cex1", "--max-iter", "1"]) == 3
        out = capsys.readouterr()
        assert out.out.splitlines()[0] == "k=1 llp: bnb=infeasible grid=-10.0"
        assert out.err == ("FAIL: the grid has feasible points below the "
                           "certified lower bound in 1 subproblem(s)\n")

    def test_refuted_value_certificate_fails(self, capsys, monkeypatch):
        # the right value with a wrong certificate that it is at least -9.5
        self._claim_llp(monkeypatch, MinimizeOutcome(
            "optimal", {"y": 1.0}, -10.0, Interval(-9.5, -9.5)))
        assert main(["verify", "--problem", "cex1", "--max-iter", "1"]) == 3
        out = capsys.readouterr()
        assert out.out.splitlines()[0] == "k=1 llp: bnb=-10.0 grid=-10.0 diff=0.000e+00"
        assert out.err == ("FAIL: the grid has feasible points below the "
                           "certified lower bound in 1 subproblem(s)\n")

    def test_grid_mesh_error_is_no_failure(self, capsys):
        # the k=3 LLP's grid value lies 2.45e-3 above the solver's, the mesh
        # error of the 401-point grid; no grid value lies below a certified
        # lower bound
        assert main(["verify", "--problem", "cex1", "--variant", "aux-llp"]) == 0
        out = capsys.readouterr()
        assert out.err == ""
        assert out.out == (
            "k=1 llp: bnb=-10.0 grid=-10.0 diff=0.000e+00\n"
            "k=1 aux_llp: bnb=-1.7071067815450975 grid=-1.705 diff=2.107e-03\n"
            "k=1 sip_llp: bnb=-3.0 grid=-3.0 diff=0.000e+00\n"
            "k=2 llp: bnb=-10.0 grid=-9.999997907321744 diff=2.093e-06\n"
            "k=2 aux_llp: bnb=-0.8535533905938827 grid=-0.8528932184549026 "
            "diff=6.602e-04\n"
            "k=2 sip_llp: bnb=-1.2928932184549025 grid=-1.2928932184549025 "
            "diff=0.000e+00\n"
            "k=3 llp: bnb=-9.921415042844272 grid=-9.918963040102796 diff=2.452e-03\n"
            "k=3 aux_llp: bnb=-0.4393398278610199 grid=-0.4393398278610199 "
            "diff=0.000e+00\n"
            "k=3 sip_llp: bnb=-0.4393398278610199 grid=-0.4393398278610199 "
            "diff=0.000e+00\n"
            "k=4 llp: bnb=-9.75 grid=-9.75 diff=0.000e+00\n"
            "k=4 aux_llp: bnb=0.0 grid=0.0 diff=0.000e+00\n"
            "k=4 sip_llp: bnb=0.0 grid=0.0 diff=0.000e+00\n"
            "k=5 llp: bnb=-9.75 grid=-9.75 diff=0.000e+00\n"
            "k=5 aux_llp: bnb=0.0 grid=0.0 diff=0.000e+00\n"
            "k=5 sip_llp: bnb=0.0 grid=0.0 diff=0.000e+00\n"
            "checked 15 subproblems, max discrepancy 2.452003e-03\n")

    @pytest.mark.parametrize("variant", algorithms.VARIANTS)
    @pytest.mark.parametrize("problem", ["cex1", "cex2"])
    def test_builtins_pass(self, capsys, problem, variant):
        assert main(["verify", "--problem", problem, "--variant", variant,
                     "--max-iter", "20"]) == 0
        assert capsys.readouterr().err == ""

    def test_subproblem_the_grid_misses_is_counted(self, tmp_path, capsys):
        # the k=1 LLP's feasible set, |y - 0.3001| <= 3.2e-5 at x = 1, lies
        # between the grid points 0.3 and 0.305
        src = tmp_path / "narrow.gsip"
        src.write_text(THIN_H_TEXT.replace("1000000000000*", ""))
        assert main(["verify", "--file", str(src), "--max-iter", "1"]) == 0
        assert capsys.readouterr().out == (
            "k=1 llp: bnb=-9.699923310952046 grid=infeasible\n"
            "k=1 sip_llp: bnb=0.0 grid=9.99999993922529e-09 diff=1.000e-08\n"
            "checked 2 subproblems, max discrepancy 1.000000e-08\n")

    def test_points_within_tol_feas_do_not_refute_an_optimal_outcome(
            self, tmp_path, capsys):
        # the same LLP on a finer grid: y = 0.300075 passes h within tol_feas
        # (h = 6.25e-10) with a value below the certified bound, which holds
        # for the points that pass h exactly; the contraction to h <= 0 cut
        # the grid point away
        src = tmp_path / "narrow.gsip"
        src.write_text(THIN_H_TEXT.replace("1000000000000*", ""))
        assert main(["verify", "--file", str(src), "--max-iter", "1",
                     "--grid", "240001"]) == 0
        out = capsys.readouterr()
        assert out.err == ""
        assert out.out.splitlines()[0] == (
            "k=1 llp: bnb=-9.699923310952046 grid=-9.699925 diff=1.689e-06")


def _deep_h(shape: str, depth: int) -> str:
    """An h line around y - 2*x that nests ``depth`` levels deep."""
    if shape == "parens":
        return "(" * depth + "y - 2*x" + ")" * depth
    if shape == "sum":  # y - 2*x is 2 levels deep, each + 0 adds one
        return "y - 2*x" + " + 0" * (depth - 2)
    return "-" * (depth - 2) + "(y - 2*x)"


class TestNestingLimit:
    @pytest.mark.parametrize("shape", ["parens", "sum", "neg"])
    def test_expression_at_the_limit_works(self, tmp_path, capsys, shape):
        src = tmp_path / "deep.gsip"
        src.write_text(CEX1_TEXT.replace(
            "h: -2*x + y", "h: " + _deep_h(shape, MAX_DEPTH)))
        assert main(["fmt", str(src)]) == 0
        assert main(["run", "--file", str(src), "--max-iter", "3"]) == 0
        assert main(["verify", "--file", str(src), "--max-iter", "3"]) == 0

    @pytest.mark.parametrize("shape,column", [
        ("parens", 3 + MAX_DEPTH + 1),  # the first parenthesis too many
        ("sum", 3 + len(_deep_h("sum", MAX_DEPTH + 1)) - 2),  # the last +
        ("neg", 4)])  # the outermost minus closes the deepest tree
    @pytest.mark.parametrize("command", ["run", "fmt"])
    def test_one_level_deeper_is_a_usage_error(self, tmp_path, capsys, shape,
                                                column, command):
        src = tmp_path / "deep.gsip"
        src.write_text(CEX1_TEXT.replace(
            "h: -2*x + y", "h: " + _deep_h(shape, MAX_DEPTH + 1)))
        argv = ["run", "--file", str(src)] if command == "run" else ["fmt", str(src)]
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            f"error: {src}: line 6, column {column}: expression nests deeper "
            f"than {MAX_DEPTH} levels\n")


class TestManyConstraints:
    def test_hundreds_of_h_lines_run(self, tmp_path, capsys):
        # hbar nests 400 lines 9 levels deep, not 400
        src = tmp_path / "many.gsip"
        src.write_text(CEX1_TEXT.replace("h: -2*x + y\n", "".join(
            f"h: -2*x + y - {i}\n" for i in range(400))))
        assert main(["run", "--file", str(src), "--max-iter", "2"]) == 0
        assert capsys.readouterr().out.endswith(
            "status=converged_feasible final_lower_bound=0.5\n")


class TestListAndFmt:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "cex1" in out and "cex2" in out

    def test_fmt_canonicalizes(self, tmp_path, capsys):
        src = tmp_path / "mine.gsip"
        src.write_text(CEX1_TEXT + "# comment\n")
        assert main(["fmt", str(src)]) == 0
        canonical = capsys.readouterr().out
        assert parse_problem(canonical) == parse_problem(CEX1_TEXT)
        assert "#" not in canonical

    def test_list_and_fmt_load_no_numpy(self, tmp_path):
        # numpy is needed only by the grid oracle; check in a new interpreter
        src = tmp_path / "mine.gsip"
        src.write_text(CEX1_TEXT)
        script = f"""
import contextlib, io, sys
import gsiplab, gsiplab.cli
assert "numpy" not in sys.modules, "numpy loaded on import"
with contextlib.redirect_stdout(io.StringIO()):
    assert gsiplab.cli.main(["list"]) == 0
    assert gsiplab.cli.main(["fmt", {str(src)!r}]) == 0
    assert gsiplab.cli.main(["run", "--problem", "cex1", "--variant", "llp-only"]) == 0
assert "numpy" not in sys.modules, "numpy loaded by list, fmt or run"
out = gsiplab.grid_minimize(-gsiplab.var("x"), [],
                            gsiplab.BoxDomain([("x", -1.0, 1.0)]), 3)
assert out.minimizer == {{"x": 1.0}}, out
"""
        env = dict(os.environ, PYTHONPATH=str(SRC))
        proc = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr

    @pytest.mark.parametrize("args,unwanted", [
        (["list"], ["dataclasses", "inspect", "gsiplab.problem_format",
                    "json", "csv"]),
        (["fmt", str(GOLDEN / "cex1.gsip")], ["dataclasses", "inspect"]),
    ], ids=["list", "fmt"])
    def test_a_command_imports_only_what_it_runs(self, args, unwanted):
        # each of these costs start-up time in every command that loads it;
        # -S leaves out what the site hooks of an installation import
        proc = subprocess.run(
            [sys.executable, "-S", "-X", "importtime", "-m", "gsiplab.cli", *args],
            cwd=SRC, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        imported = {line.rsplit("|", 1)[1].strip()
                    for line in proc.stderr.splitlines()
                    if line.startswith("import time:")}
        assert "gsiplab.gsip" in imported
        assert not imported & set(unwanted)

    def test_fmt_rejects_bad_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.gsip"
        bad.write_text("outer x in\n")
        assert main(["fmt", str(bad)]) == 2
