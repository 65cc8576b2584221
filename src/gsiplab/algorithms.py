"""Iterative lower-bounding loops and trace diagnostics.

Three variants differ only in how the growing discretization set is fed:

* ``llp-only``  -- add the minimizer of the original lower-level program.
* ``aux-llp``   -- add the minimizer of the auxiliary LLP (constraint
  aggregate minimized subject to alpha-near-optimality in the LLP).
* ``sip-llp``   -- add the minimizer of the relaxation's own lower-level
  program min max(g, hbar); the convergent choice.

Every iteration is recorded so failures can be inspected after the fact.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Mapping, Optional, Sequence

from . import expr as ex
from .expr import evaluate
from .globalopt import ConstraintSpec, check_tolerances, minimize
from .gsip import (GsipProblem, SubproblemInstance, build_aux_llp, build_llp,
                   build_lower_bounding, build_sip_llp, hbar)

LLP_ONLY = "llp-only"
AUX_LLP = "aux-llp"
SIP_LLP = "sip-llp"
VARIANTS = (LLP_ONLY, AUX_LLP, SIP_LLP)

TIE_BREAKS = ("solver", "min-y", "max-y")

_DUP_TOL = 1e-12  # per-coordinate tolerance for duplicate-cut / stalled-x detection


@dataclass(frozen=True)
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
    node_budget: int = 1_000_000

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


@dataclass(frozen=True)
class Solve:
    """A subproblem's minimizer and value; both None if it is infeasible."""

    y: Optional[dict[str, float]]
    value: Optional[float]

    @property
    def infeasible(self) -> bool:
        return self.y is None


@dataclass(frozen=True)
class IterateRecord:
    k: int
    x: dict[str, float]
    f_lower: float
    llp: Optional[Solve] = None
    aux: Optional[Solve] = None
    sip: Optional[Solve] = None
    added_point: Optional[dict[str, float]] = None
    yset_size_after: int = 0


CONVERGED_FEASIBLE = "converged_feasible"
INFEASIBLE_DETECTED = "infeasible_detected"
STALLED = "stalled"
ITERATION_CAP = "iteration_cap"


@dataclass(frozen=True)
class RunResult:
    trace: tuple[IterateRecord, ...]
    status: str
    final_lower_bound: float


def _solve(inst: SubproblemInstance, cfg: AlgorithmConfig) -> Solve:
    out = minimize(inst.objective, inst.constraints, inst.box,
                   tol_opt=cfg.tol_opt, tol_feas=cfg.tol_feas,
                   node_budget=cfg.node_budget)
    return Solve(out.minimizer, out.value)


def _sip_check(p: GsipProblem, x_k: dict[str, float], rec: IterateRecord,
               cfg: AlgorithmConfig) -> tuple[IterateRecord, bool]:
    """Record the relaxation's own lower-level program at x_k, and whether
    its value shows x_k feasible for the relaxation."""
    sip = _solve(build_sip_llp(p, x_k), cfg)
    return replace(rec, sip=sip), sip.value >= -cfg.tol_feas


def _same_point(a: Mapping[str, float], b: Mapping[str, float]) -> bool:
    return all(abs(a[n] - b[n]) <= _DUP_TOL for n in a)


def _tie_broken_aux(p: GsipProblem, inst: SubproblemInstance, aux: Solve,
                    cfg: AlgorithmConfig) -> Solve:
    if cfg.aux_tie_break == "solver":
        return aux
    # re-solve preferring extreme first-coordinate y among near-optimal points
    yname = p.Y.names[0]
    secondary = ex.var(yname) if cfg.aux_tie_break == "min-y" else -ex.var(yname)
    near_opt = ConstraintSpec(inst.objective - ex.const(aux.value + cfg.tol_opt), "le")
    y = _solve(SubproblemInstance(secondary, inst.constraints + (near_opt,),
                                  inst.box), cfg).y
    return Solve(y, evaluate(inst.objective, y))


def run(p: GsipProblem, cfg: AlgorithmConfig) -> RunResult:
    """Execute the lower-bounding iteration until convergence, stall,
    detected infeasibility, or the iteration cap."""
    yset = [dict(y) for y in cfg.initial_yset]
    trace: list[IterateRecord] = []
    prev_x: Optional[dict[str, float]] = None
    status = ITERATION_CAP

    for k in range(1, cfg.max_iter + 1):
        lb = _solve(build_lower_bounding(p, yset), cfg)
        if lb.infeasible:
            # the discretized relaxation is already infeasible, hence so is
            # the full relaxation
            status = INFEASIBLE_DETECTED
            break
        x_k = lb.y
        rec = IterateRecord(k=k, x=x_k, f_lower=lb.value,
                            yset_size_after=len(yset))

        if cfg.variant in (LLP_ONLY, AUX_LLP):
            llp = _solve(build_llp(p, x_k), cfg)
            rec = replace(rec, llp=llp)
            if llp.infeasible or llp.value >= -cfg.tol_feas:
                # the LLP gives no usable cut; the relaxation's own
                # lower-level program decides between convergence and stall
                rec, feasible = _sip_check(p, x_k, rec, cfg)
                status = CONVERGED_FEASIBLE if feasible else STALLED
                trace.append(rec)
                break
            if cfg.variant == LLP_ONLY:
                new_point = llp.y
            else:
                aux_inst = build_aux_llp(p, x_k, llp.value, cfg.alpha)
                aux = _tie_broken_aux(p, aux_inst, _solve(aux_inst, cfg), cfg)
                rec = replace(rec, aux=aux)
                new_point = aux.y
        else:  # SIP_LLP
            rec, feasible = _sip_check(p, x_k, rec, cfg)
            if feasible:
                status = CONVERGED_FEASIBLE
                trace.append(rec)
                break
            new_point = rec.sip.y

        duplicate = any(_same_point(new_point, y) for y in yset)
        if not duplicate:
            yset.append(dict(new_point))
        rec = replace(rec, added_point=dict(new_point), yset_size_after=len(yset))
        trace.append(rec)
        if duplicate and prev_x is not None and _same_point(x_k, prev_x):
            status = STALLED
            break
        prev_x = x_k

    final = trace[-1].f_lower if trace else float("-inf")
    return RunResult(tuple(trace), status, final)


def diagnose_trace(p: GsipProblem, result: RunResult,
                   tol_feas: float = 1e-9) -> list[tuple[int, int, float]]:
    """Find pairs (l, k), l > k, where the aggregate constraint flips sign:
    hbar(x_l, y_k) > tol_feas although hbar(x_k, y_k) < -tol_feas.

    Requires a trace carrying LLP minimizers (the llp-only variant records them).
    """
    recs = {r.k: r for r in result.trace
            if r.llp is not None and not r.llp.infeasible}
    if not recs:
        raise ValueError("trace carries no LLP minimizers to diagnose")
    hb = hbar(p)
    xs = {r.k: r.x for r in result.trace}
    violations = []
    for k, rk in sorted(recs.items()):
        base = evaluate(hb, {**rk.x, **rk.llp.y})
        if base >= -tol_feas:
            continue
        for l in sorted(xs):
            if l <= k:
                continue
            value = evaluate(hb, {**xs[l], **rk.llp.y})
            if value > tol_feas:
                violations.append((l, k, value))
    return violations


def lower_bound_history(result: RunResult) -> list[tuple[int, float]]:
    return [(r.k, r.f_lower) for r in result.trace]
