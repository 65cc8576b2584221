"""gsiplab: discretization-based lower bounding for generalized semi-infinite
programs, with certified interval branch-and-bound subproblem solves."""

from .algorithms import (AUX_LLP, LLP_ONLY, SIP_LLP, AlgorithmConfig,
                         IterateRecord, RunResult, check_relaxation_feasible,
                         diagnose_trace, lower_bound_history, run,
                         verify_slater)
from .domains import BoxDomain
from .expr import (EmptyIntervalError, EvaluationError, Expr, Interval,
                   compile_expr, const, emax, emin, evaluate, evaluate_array,
                   interval_eval, substitute, var)
from .globalopt import (ConstraintSpec, MinimizeOutcome, NodeBudgetExceeded,
                        grid_minimize, minimize)
from .gsip import (DomainError, GsipProblem, SlaterCertificate,
                   build_aux_llp, build_llp, build_lower_bounding,
                   build_sip_llp, builtin_problems, get_builtin, hbar)
from .problem_format import (ProblemSyntaxError, ProblemValidationError,
                             format_expr, parse_expression, parse_problem,
                             serialize_problem)

__version__ = "0.1.0"
