"""Iterative lower-bounding loops, feasibility checks and trace diagnostics.

Three variants differ only in how the growing discretization set is fed:

* ``llp-only``  -- add the minimizer of the original lower-level program.
* ``aux-llp``   -- add the minimizer of the auxiliary LLP (constraint
  aggregate minimized subject to alpha-near-optimality in the LLP).
* ``sip-llp``   -- add the minimizer of the relaxation's own lower-level
  program min max(g, hbar); the convergent choice.

Every iteration is recorded so failures can be inspected after the fact.
Every subproblem solve of the lab is made here; every decision on one goes
through ``_solve_at_least``, which reads only the certified ``value_bounds.lo``.
The float checks made outside the solver -- ``diagnose_trace``'s sign tests,
the tie-broken aux record and ``verify_slater``'s f(x_s) -- go through the
trees' compiled point kernels (``expr.compile_expr``), which give the floats
of ``expr.evaluate`` bit for bit, over the orders the solves already compiled:
a tree and its bound values follow the box of the solve that binds them.
"""
from __future__ import annotations

from typing import Mapping, Optional

from .expr import Expr, compile_expr
from .globalopt import ConstraintSpec, MinimizeOutcome, check_tolerances, minimize
from .gsip import (LEVEL, GsipProblem, SlaterCertificate, SubproblemInstance,
                   build_aux_llp, build_llp, build_lower_bounding,
                   build_sip_llp, check_point)
from .immutable import frozen

LLP_ONLY = "llp-only"
AUX_LLP = "aux-llp"
SIP_LLP = "sip-llp"
VARIANTS = (LLP_ONLY, AUX_LLP, SIP_LLP)

TIE_BREAKS = ("solver", "min-y", "max-y")

_DUP_TOL = 1e-12  # per-coordinate tolerance for duplicate-cut / stalled-x detection


@frozen
class AlgorithmConfig:
    variant: str = SIP_LLP
    alpha: float = 0.95
    tol_feas: float = 1e-9
    # subproblem minimizers enter the discretization, so their accuracy, not
    # just their values, matters; near a quadratic minimum the value gap must
    # be the square of the wanted point accuracy
    tol_opt: float = 1e-13
    max_iter: int = 50
    initial_yset: tuple[dict[str, float], ...] = ()
    aux_tie_break: str = "solver"

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"variant must be one of {VARIANTS}, got {self.variant!r}")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must lie in (0, 1)")
        check_tolerances(self.tol_opt, self.tol_feas)
        if self.max_iter < 1:
            raise ValueError("max_iter must be a positive integer")
        if self.aux_tie_break not in TIE_BREAKS:
            raise ValueError(f"aux_tie_break must be one of {TIE_BREAKS}")


@frozen
class IterateRecord:
    k: int
    x: dict[str, float]
    f_lower: float
    llp: Optional[MinimizeOutcome]
    aux: Optional[MinimizeOutcome]
    sip: Optional[MinimizeOutcome]
    added_point: Optional[dict[str, float]]
    yset_size_after: int


CONVERGED_FEASIBLE = "converged_feasible"
INFEASIBLE_DETECTED = "infeasible_detected"
STALLED = "stalled"
ITERATION_CAP = "iteration_cap"


@frozen
class RunResult:
    trace: tuple[IterateRecord, ...]
    status: str
    final_lower_bound: float


def _solve(inst: SubproblemInstance, cfg: AlgorithmConfig) -> MinimizeOutcome:
    return minimize(inst.objective, inst.constraints, inst.box,
                    tol_opt=cfg.tol_opt, tol_feas=cfg.tol_feas,
                    parameters=inst.parameters)


def _solve_at_least(inst: SubproblemInstance, cfg: AlgorithmConfig,
                    margin: float = 0.0) -> tuple[MinimizeOutcome, bool]:
    """Solve ``inst``, and decide whether its certified lower bound is at
    least ``margin - cfg.tol_feas``: the LLP's "no usable cut" test and every
    SIP-LLP decision."""
    out = _solve(inst, cfg)
    return out, out.value_bounds.lo >= margin - cfg.tol_feas


def check_relaxation_feasible(p: GsipProblem, x: Mapping[str, float],
                              tol_feas: float = 1e-9) -> bool:
    """True iff x is feasible for the relaxation: the SIP-LLP value is >= -tol_feas
    (the checks keep minimize's default tol_opt: they need no minimizer)."""
    cfg = AlgorithmConfig(tol_opt=1e-6, tol_feas=tol_feas)
    return _solve_at_least(build_sip_llp(p, x), cfg)[1]


def verify_slater(p: GsipProblem, cert: SlaterCertificate, f_star: float,
                  tol_feas: float = 1e-9) -> bool:
    """Check the near-optimal interior-margin condition: f(x_s) <= f_star + eps
    and min over Y of max(g(x_s,.), hbar(x_s,.)) >= delta - tol_feas."""
    check_point(p.X, cert.x_s, "candidate point")
    if _value(p.f, p.X.names, [cert.x_s[n] for n in p.X.names]) > f_star + cert.epsilon:
        return False
    cfg = AlgorithmConfig(tol_opt=1e-6, tol_feas=tol_feas)
    return _solve_at_least(build_sip_llp(p, cert.x_s), cfg, cert.delta)[1]


def _value(e: Expr, names, values) -> float:
    """``e`` at the point of ``values`` over ``names``, by its point kernel,
    which is ``evaluate``'s float bit for bit."""
    return compile_expr(e, names)[0](tuple(values))


def _same_point(a: Mapping[str, float], b: Mapping[str, float]) -> bool:
    return all(abs(a[n] - b[n]) <= _DUP_TOL for n in a)


def _aux_llp(p: GsipProblem, x: dict[str, float], llp: MinimizeOutcome,
             cfg: AlgorithmConfig) -> MinimizeOutcome:
    inst = build_aux_llp(p, x, llp.value, cfg.alpha)
    aux = _solve(inst, cfg)
    if cfg.aux_tie_break == "solver":
        return aux
    # re-solve preferring extreme first-coordinate y among near-optimal
    # points, where the aux objective hbar is within tol_opt of its
    # minimum; the record is the aux objective at the re-solve's minimizer
    low, high = p.first_inner
    secondary = low if cfg.aux_tie_break == "min-y" else high
    near_opt = ConstraintSpec(p.hbar_level, "le",
                              inst.parameters + ((LEVEL, aux.value + cfg.tol_opt),))
    y = _solve(SubproblemInstance(secondary, inst.constraints + (near_opt,),
                                  inst.box), cfg).minimizer
    names = inst.box.names
    return MinimizeOutcome("optimal", y, _value(
        inst.objective, names + tuple(n for n, _ in inst.parameters),
        [y[n] for n in names] + [v for _, v in inst.parameters]))


def run(p: GsipProblem, cfg: AlgorithmConfig) -> RunResult:
    """Execute the lower-bounding iteration until convergence, stall,
    detected infeasibility, or the iteration cap."""
    yset: list[dict[str, float]] = []
    for y in cfg.initial_yset:   # each initial point once, as an added one
        if not any(_same_point(y, kept) for kept in yset):
            yset.append(dict(y))
    trace: list[IterateRecord] = []
    prev_x: Optional[dict[str, float]] = None
    status = ITERATION_CAP
    lb_inst: Optional[SubproblemInstance] = None

    for k in range(1, cfg.max_iter + 1):
        # the set only grows, so this iteration's instance is the last one
        # plus the cuts of the points added since
        lb_inst = build_lower_bounding(p, yset, lb_inst)
        lb = _solve(lb_inst, cfg)
        if not lb.optimal:
            # the discretized relaxation is infeasible, hence so is the full one
            status = INFEASIBLE_DETECTED
            break
        x_k = lb.minimizer
        llp = aux = sip = added = stop = None
        if cfg.variant == SIP_LLP:
            sip, feasible = _solve_at_least(build_sip_llp(p, x_k), cfg)
            stop = CONVERGED_FEASIBLE if feasible else None
        else:
            llp, no_cut = _solve_at_least(build_llp(p, x_k), cfg)
            if no_cut:
                # the LLP gives no usable cut; the relaxation's own
                # lower-level program decides between convergence and stall
                sip, feasible = _solve_at_least(build_sip_llp(p, x_k), cfg)
                stop = CONVERGED_FEASIBLE if feasible else STALLED
            elif cfg.variant == AUX_LLP:
                aux = _aux_llp(p, x_k, llp, cfg)

        if stop is None:
            # the new point is the minimizer of the last subproblem solved
            added = dict((aux or llp or sip).minimizer)
            duplicate = any(_same_point(added, y) for y in yset)
            if not duplicate:
                yset.append(added)
            elif prev_x is not None and _same_point(x_k, prev_x):
                stop = STALLED
            prev_x = x_k
        trace.append(IterateRecord(k=k, x=x_k, f_lower=lb.value, llp=llp,
                                   aux=aux, sip=sip, added_point=added,
                                   yset_size_after=len(yset)))
        if stop is not None:
            status = stop
            break

    final = trace[-1].f_lower if trace else float("-inf")
    return RunResult(tuple(trace), status, final)


def record_subproblems(p: GsipProblem, rec: IterateRecord, cfg: AlgorithmConfig
                       ) -> list[tuple[str, SubproblemInstance, MinimizeOutcome]]:
    """(label, instance, outcome) of each subproblem at ``rec.x``, as
    ``run(p, cfg)`` recorded it; the SIP-LLP is solved here if the run did not."""
    subs = []
    if rec.llp is not None:
        subs.append(("llp", build_llp(p, rec.x), rec.llp))
    if rec.aux is not None:
        subs.append(("aux_llp", build_aux_llp(p, rec.x, rec.llp.value, cfg.alpha),
                     rec.aux))
    inst = build_sip_llp(p, rec.x)
    sip = rec.sip if rec.sip is not None else _solve(inst, cfg)
    return subs + [("sip_llp", inst, sip)]


def diagnose_trace(p: GsipProblem, result: RunResult,
                   tol_feas: float = 1e-9) -> list[tuple[int, int, float]]:
    """Find pairs (l, k), l > k, where the aggregate constraint flips sign:
    hbar(x_l, y_k) > tol_feas although hbar(x_k, y_k) < -tol_feas.

    Requires a trace carrying LLP minimizers (the llp-only variant records them).
    hbar is evaluated by one point kernel over the Y names, then the X names,
    the order in which the LLP solves bind it, and each pair is a tuple
    ``y_k + x_l``.
    """
    recs = {r.k: r for r in result.trace
            if r.llp is not None and r.llp.optimal}
    if not recs:
        raise ValueError("trace carries no LLP minimizers to diagnose")
    hb = compile_expr(p.hbar, p.Y.names + p.X.names)[0]
    xnames = p.X.names
    xs = {r.k: tuple(r.x[n] for n in xnames) for r in result.trace}
    violations = []
    for k, rk in sorted(recs.items()):
        y_k = tuple(rk.llp.minimizer[n] for n in p.Y.names)
        if hb(y_k + tuple(rk.x[n] for n in xnames)) >= -tol_feas:
            continue
        for l in sorted(l for l in xs if l > k):
            value = hb(y_k + xs[l])
            if value > tol_feas:
                violations.append((l, k, value))
    return violations


def lower_bound_history(result: RunResult) -> list[tuple[int, float]]:
    return [(r.k, r.f_lower) for r in result.trace]
