"""Command-line front end.

Subcommands:
  list    -- show builtin problems
  run     -- run a lower-bounding variant, export the trace as CSV or JSON
  verify  -- check branch-and-bound's certified lower bounds against the grid oracle
  fmt     -- canonicalize a .gsip file

Exit codes: 0 success, 2 usage error, 3 solver error.
"""
from __future__ import annotations

# algorithms, globalopt, grid, problem_format, csv and json are imported by
# the commands that use them, so that `gsiplab list` loads none of them and
# `gsiplab fmt` only the parser
import argparse
import io
import math
import sys
from typing import TYPE_CHECKING, Optional

from . import gsip
from .expr import EmptyIntervalError, EvaluationError

if TYPE_CHECKING:
    from . import algorithms
    from .globalopt import MinimizeOutcome


class UsageError(Exception):
    pass


def _real(v: Optional[float]) -> Optional[float]:
    """``v`` as printed: a float, a zero of either sign as 0.0 (adding 0.0
    turns -0.0 into 0.0 and leaves every other float as it is), or None."""
    return None if v is None else float(v) + 0.0


def _fmt_real(v: Optional[float]) -> str:
    return "" if v is None else repr(_real(v))


def _fmt_value(out: MinimizeOutcome) -> str:
    return _fmt_real(out.value) if out.optimal else "infeasible"


def _fmt_point(pt: Optional[dict]) -> str:
    if pt is None:
        return ""
    return ";".join(_fmt_real(pt[n]) for n in sorted(pt))


def _read_problem_file(path: str) -> gsip.GsipProblem:
    from .problem_format import (ProblemSyntaxError, ProblemValidationError,
                                 parse_problem)
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as e:
        raise UsageError(f"cannot read {path}: {e}") from None
    try:
        return parse_problem(text)
    except (ProblemSyntaxError, ProblemValidationError) as e:
        raise UsageError(f"{path}: {e}") from None


def _load_problem(args) -> gsip.GsipProblem:
    if args.problem is not None:
        try:
            return gsip.get_builtin(args.problem)
        except KeyError as e:
            # str() of a KeyError is the repr of its argument, in quotes
            raise UsageError(e.args[0]) from None
    return _read_problem_file(args.file)


def _variant_aliases() -> dict[str, str]:
    """The spellings of ``--variant``: each variant's name, and "aux" for
    aux-llp."""
    from . import algorithms
    return {**{v: v for v in algorithms.VARIANTS}, "aux": algorithms.AUX_LLP}


def _initial_point(spec: str, p: gsip.GsipProblem) -> dict[str, float]:
    try:
        values = [float(v) for v in spec.split(",")]
    except ValueError:
        raise UsageError(f"bad initial Y point {spec!r}") from None
    if len(values) != p.Y.dim:
        raise UsageError(
            f"initial Y point has {len(values)} components, expected {p.Y.dim}")
    point = dict(zip(p.Y.names, values))
    try:
        gsip.check_point(p.Y, point, "initial Y point")
    except gsip.DomainError as e:
        raise UsageError(str(e)) from None
    return point


def _config_from_args(args, p: gsip.GsipProblem) -> algorithms.AlgorithmConfig:
    from . import algorithms
    initial = tuple(_initial_point(spec, p) for spec in args.initial_y or [])
    try:
        return algorithms.AlgorithmConfig(
            variant=_variant_aliases()[args.variant],
            alpha=args.alpha,
            tol_feas=args.tol_feas,
            tol_opt=args.tol_opt,
            max_iter=args.max_iter,
            initial_yset=initial,
            aux_tie_break=args.tie_break,
        )
    except ValueError as e:
        raise UsageError(str(e)) from None


def _trace_csv(p: gsip.GsipProblem, result: algorithms.RunResult) -> str:
    import csv
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    header = ["k"] + [f"x_{n}" for n in p.X.names] + [
        "f_Lk", "llp_y", "llp_value", "aux_y", "aux_value",
        "sip_value", "added_y", "Yset_size", "status"]
    writer.writerow(header)
    for r in result.trace:
        llp_y = llp_value = ""
        if r.llp is not None:
            llp_y = "infeasible" if not r.llp.optimal else _fmt_point(r.llp.minimizer)
            llp_value = _fmt_real(r.llp.value)
        writer.writerow(
            [r.k] + [_fmt_real(r.x[n]) for n in p.X.names] + [
                _fmt_real(r.f_lower), llp_y, llp_value,
                _fmt_point(r.aux.minimizer) if r.aux else "",
                _fmt_real(r.aux.value) if r.aux else "",
                _fmt_real(r.sip.value) if r.sip else "",
                _fmt_point(r.added_point), r.yset_size_after, result.status])
    return buf.getvalue()


def _trace_json(p: gsip.GsipProblem, result: algorithms.RunResult) -> str:
    import json

    def real(v):
        """``v`` as ``_real`` gives it, or where JSON has no such number
        (+inf, -inf, NaN), the string the CSV prints for it."""
        r = _real(v)
        return r if r is None or math.isfinite(r) else repr(r)

    def point(pt):
        return None if pt is None else {n: real(pt[n]) for n in sorted(pt)}

    records = []
    for r in result.trace:
        records.append({
            "k": r.k,
            "x": point(r.x),
            "f_Lk": real(r.f_lower),
            "llp": None if r.llp is None else {
                "y": point(r.llp.minimizer), "value": real(r.llp.value),
                "infeasible": not r.llp.optimal},
            "aux": None if r.aux is None else {
                "y": point(r.aux.minimizer), "value": real(r.aux.value)},
            "sip_llp": None if r.sip is None else {
                "y": point(r.sip.minimizer), "value": real(r.sip.value)},
            "added_point": point(r.added_point),
            "Yset_size_after": r.yset_size_after,
        })
    doc = {"problem": p.name, "status": result.status,
           "final_lower_bound": real(result.final_lower_bound),
           "trace": records}
    return json.dumps(doc, indent=2, allow_nan=False) + "\n"


def cmd_run(args) -> int:
    from . import algorithms
    p = _load_problem(args)
    cfg = _config_from_args(args, p)
    result = algorithms.run(p, cfg)
    text = (_trace_csv if args.format == "csv" else _trace_json)(p, result)
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
        except OSError as e:
            raise UsageError(f"cannot write {args.output}: {e}") from None
    else:
        sys.stdout.write(text)
    print(f"status={result.status} "
          f"final_lower_bound={_fmt_real(result.final_lower_bound)}")
    return 0


def cmd_verify(args) -> int:
    """Run the loop, then check every subproblem of every iterate on the grid
    of ``--grid`` points per axis, by ``grid.cross_check``, which decides
    which oracle grids them and which certified bounds the grid refutes."""
    from . import algorithms
    from .grid import cross_check
    if args.grid < 2:
        raise UsageError(f"--grid must be at least 2, got {args.grid}")
    p = _load_problem(args)
    cfg = _config_from_args(args, p)
    result = algorithms.run(p, cfg)
    checked = [(r, sub) for r in result.trace
               for sub in algorithms.record_subproblems(p, r, cfg)]
    grids = cross_check([(inst, bnb) for _, (_, inst, bnb) in checked],
                        args.grid, cfg.tol_feas)

    worst = 0.0
    refuted = 0
    for (r, (label, _, bnb)), (grid, refutes) in zip(checked, grids):
        line = f"bnb={_fmt_value(bnb)} grid={_fmt_value(grid)}"
        if bnb.optimal and grid.optimal:
            diff = abs(grid.value - bnb.value)
            worst = max(worst, diff)
            line += f" diff={diff:.3e}"
        refuted += refutes
        print(f"k={r.k} {label}: {line}")

    print(f"checked {len(checked)} subproblems, max discrepancy {worst:.6e}")
    if refuted:
        print(f"FAIL: the grid has feasible points below the certified lower "
              f"bound in {refuted} subproblem(s)", file=sys.stderr)
        return 3
    return 0


def cmd_list(args) -> int:
    for p in gsip.builtin_problems():
        print(f"{p.name}: |X|={p.X.dim} |Y|={p.Y.dim} "
              f"f_star={_fmt_real(p.f_star)} f_L={_fmt_real(p.f_L)}")
    return 0


def cmd_fmt(args) -> int:
    from .problem_format import serialize_problem
    sys.stdout.write(serialize_problem(_read_problem_file(args.file)))
    return 0


def _add_problem_source(sub):
    group = sub.add_mutually_exclusive_group(required=True)
    group.add_argument("--problem", help="builtin problem name (see 'list')")
    group.add_argument("--file", help="path to a .gsip problem file")


def _add_run_flags(sub):
    from . import algorithms
    defaults = algorithms.AlgorithmConfig()
    sub.add_argument("--variant", choices=sorted(_variant_aliases()),
                     default=defaults.variant)
    sub.add_argument("--alpha", type=float, default=defaults.alpha)
    sub.add_argument("--tol-feas", type=float, default=defaults.tol_feas)
    sub.add_argument("--tol-opt", type=float, default=defaults.tol_opt)
    sub.add_argument("--max-iter", type=int, default=defaults.max_iter)
    sub.add_argument("--initial-y", action="append", metavar="V1[,V2...]",
                     help="initial discretization point (repeatable)")
    sub.add_argument("--tie-break", choices=algorithms.TIE_BREAKS,
                     default=defaults.aux_tie_break)


def build_parser(run_flags: bool = True) -> argparse.ArgumentParser:
    """The parser of every command; with ``run_flags`` False, ``run`` and
    ``verify`` lack the run flags, whose defaults and choices ``algorithms``
    holds, so a parse that reads none of them loads nothing for them."""
    parser = argparse.ArgumentParser(prog="gsiplab")
    subs = parser.add_subparsers(dest="command", required=True)

    run_p = subs.add_parser("run", help="run a lower-bounding variant")
    _add_problem_source(run_p)
    if run_flags:
        _add_run_flags(run_p)
    run_p.add_argument("--output", help="trace output path (default: stdout)")
    run_p.add_argument("--format", choices=("csv", "json"), default="csv")
    run_p.set_defaults(func=cmd_run)

    ver_p = subs.add_parser("verify", help="cross-check against the grid oracle")
    _add_problem_source(ver_p)
    if run_flags:
        _add_run_flags(ver_p)
    ver_p.set_defaults(variant="llp-only", max_iter=10)
    ver_p.add_argument("--grid", type=int, default=401,
                       help="oracle grid points per axis")
    ver_p.set_defaults(func=cmd_verify)

    list_p = subs.add_parser("list", help="list builtin problems")
    list_p.set_defaults(func=cmd_list)

    fmt_p = subs.add_parser("fmt", help="canonicalize a .gsip file")
    fmt_p.add_argument("file")
    fmt_p.set_defaults(func=cmd_fmt)
    return parser


def _globalopt_errors() -> tuple:
    """globalopt's solver errors, where a command loaded globalopt: one that
    did not, as ``list`` and ``fmt`` do not, cannot raise them."""
    globalopt = sys.modules.get(f"{__package__}.globalopt")
    if globalopt is None:
        return ()
    return globalopt.NodeBudgetExceeded, globalopt.UndecidedError


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # the subcommand is the first argument; list and fmt read no run flag
    parser = build_parser(run_flags=argv[:1] not in (["list"], ["fmt"]))
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (*_globalopt_errors(), EvaluationError, EmptyIntervalError,
            OverflowError) as e:
        print(f"solver error: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
