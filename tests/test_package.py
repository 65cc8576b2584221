"""The package's lazy names: ``import gsiplab`` loads none of its modules,
and each exported name is resolved from its module at first access."""
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import gsiplab

SRC = Path(__file__).resolve().parent.parent / "src"
GOLDEN = Path(__file__).resolve().parent / "golden"

EXPORTS = {
    "algorithms": {"AUX_LLP", "LLP_ONLY", "SIP_LLP", "AlgorithmConfig",
                   "IterateRecord", "RunResult", "check_relaxation_feasible",
                   "diagnose_trace", "lower_bound_history", "run",
                   "verify_slater"},
    "domains": {"BoxDomain"},
    "expr": {"EmptyIntervalError", "EvaluationError", "Expr", "Interval",
             "compile_expr", "const", "emax", "emin", "evaluate",
             "evaluate_array", "interval_eval", "substitute", "var"},
    "globalopt": {"ConstraintSpec", "MinimizeOutcome", "NodeBudgetExceeded",
                  "UndecidedError", "grid_minimize", "minimize"},
    "gsip": {"DomainError", "GsipProblem", "SlaterCertificate",
             "build_aux_llp", "build_llp", "build_lower_bounding",
             "build_sip_llp", "builtin_problems", "get_builtin"},
    "problem_format": {"ProblemSyntaxError", "ProblemValidationError",
                       "format_expr", "parse_expression", "parse_problem",
                       "serialize_problem"},
}


def _run(script: str) -> None:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_the_exported_names_are_the_46_of_the_modules():
    names = set().union(*EXPORTS.values())
    assert len(names) == len(gsiplab.__all__) == 46
    assert set(gsiplab.__all__) == names
    assert names <= set(dir(gsiplab))


@pytest.mark.parametrize("module,name", sorted(
    (m, n) for m, names in EXPORTS.items() for n in names))
def test_each_name_is_the_object_its_module_defines(module, name):
    assert getattr(gsiplab, name) is getattr(
        importlib.import_module(f"gsiplab.{module}"), name)


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'nothing'"):
        gsiplab.nothing
    assert not hasattr(gsiplab, "main")
    with pytest.raises(ImportError):
        from gsiplab import nothing  # noqa: F401


def test_import_loads_no_module_of_the_package():
    _run("""
import sys
import gsiplab
loaded = sorted(m for m in sys.modules if m.startswith("gsiplab."))
assert not loaded, loaded
assert gsiplab.__version__ == "0.1.0"
""")


def test_a_name_or_a_submodule_loads_only_what_it_needs():
    _run("""
import sys
import gsiplab
assert gsiplab.Interval(0.0, 1.0).width == 1.0
assert "gsiplab.expr" in sys.modules and "gsiplab.algorithms" not in sys.modules
assert gsiplab.algorithms.run is gsiplab.run
assert "gsiplab.problem_format" not in sys.modules
assert gsiplab.parse_problem is gsiplab.problem_format.parse_problem
from gsiplab import cli, arrays
assert cli.main and arrays
""")


@pytest.mark.parametrize("argv", [["list"], ["fmt", str(GOLDEN / "cex1.gsip")]],
                         ids=["list", "fmt"])
def test_list_and_fmt_load_neither_algorithms_nor_globalopt(argv):
    # neither command solves anything; run flags and solver errors come
    # from those modules only in the commands that run them
    _run(f"""
import sys
from gsiplab import cli
assert cli.main({argv!r}) == 0
loaded = {{"gsiplab.algorithms", "gsiplab.globalopt"}} & set(sys.modules)
assert not loaded, loaded
""")
