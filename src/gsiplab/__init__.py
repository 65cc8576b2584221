"""gsiplab: discretization-based lower bounding for generalized semi-infinite
programs, with certified interval branch-and-bound subproblem solves."""

from .algorithms import (AUX_LLP, LLP_ONLY, SIP_LLP, AlgorithmConfig,
                         IterateRecord, RunResult, diagnose_trace,
                         lower_bound_history, run)
from .domains import BoxDomain
from .expr import (EmptyIntervalError, EvaluationError, Expr, Interval,
                   compile_expr, const, emax, emin, evaluate, evaluate_array,
                   interval_eval, substitute, var)
from .globalopt import (ConstraintSpec, MinimizeOutcome, NodeBudgetExceeded,
                        grid_minimize, minimize)
from .gsip import (DomainError, GsipProblem, SlaterCertificate,
                   build_aux_llp, build_llp, build_lower_bounding,
                   build_sip_llp, builtin_problems, check_relaxation_feasible,
                   from_document, get_builtin, hbar, to_document,
                   verify_slater)
from .problem_format import (ProblemDocument, ProblemSyntaxError,
                             ProblemValidationError, format_expr,
                             parse_expression, parse_problem,
                             serialize_problem)

__version__ = "0.1.0"
