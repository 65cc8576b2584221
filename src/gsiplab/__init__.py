"""gsiplab: discretization-based lower bounding for generalized semi-infinite
programs, with certified interval branch-and-bound subproblem solves.

The package's names are resolved lazily (PEP 562): ``import gsiplab`` loads
none of its modules, and the first access to an exported name, such as
``gsiplab.minimize``, or to a submodule, such as ``gsiplab.algorithms``,
imports the module that defines it.  So a command loads only the modules it
runs: ``gsiplab list`` never loads the parser of ``.gsip`` files.  An
exported name is the object its module defines; ``__all__`` lists them.
"""
__version__ = "0.1.0"

_EXPORTS = {
    "algorithms": ("AUX_LLP", "LLP_ONLY", "SIP_LLP", "AlgorithmConfig",
                   "IterateRecord", "RunResult", "check_relaxation_feasible",
                   "diagnose_trace", "lower_bound_history", "run",
                   "verify_slater"),
    "domains": ("BoxDomain",),
    "expr": ("EmptyIntervalError", "EvaluationError", "Expr", "Interval",
             "compile_expr", "const", "emax", "emin", "evaluate",
             "evaluate_array", "interval_eval", "substitute", "var"),
    "globalopt": ("ConstraintSpec", "MinimizeOutcome", "NodeBudgetExceeded",
                  "UndecidedError", "minimize"),
    "grid": ("grid_minimize",),
    "gsip": ("DomainError", "GsipProblem", "SlaterCertificate",
             "build_aux_llp", "build_llp", "build_lower_bounding",
             "build_sip_llp", "builtin_problems", "get_builtin"),
    "problem_format": ("ProblemSyntaxError", "ProblemValidationError",
                       "format_expr", "parse_expression", "parse_problem",
                       "serialize_problem"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = ("algorithms", "arrays", "cli", "domains", "expr", "globalopt",
               "grid", "gsip", "immutable", "kernels", "problem_format")

__all__ = list(_HOME)


def _submodule(module: str):
    # through the import statement's machinery, which -X importtime reports;
    # importing a submodule binds it in this namespace
    __import__(f"{__name__}.{module}")
    return globals()[module]


def __getattr__(name: str):
    if name in _HOME:
        value = globals()[name] = getattr(_submodule(_HOME[name]), name)
        return value
    if name in _SUBMODULES:
        return _submodule(name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__, *_SUBMODULES})
