"""GSIP problem model, subproblem builders, feasibility checks, built-ins.

A problem is

    inf f(x)  s.t.  x in X,
    0 <= inf { g(x,y) : y in Y, h_j(x,y) <= 0 for all j },

and the lab works throughout with its relaxation whose constraint is the
disjunction  [g(x,y) >= 0] or [hbar(x,y) >= 0]  for all y in Y, where hbar
is the pointwise maximum of the h_j.  The builders return ready-to-solve
box-constrained instances with the outer point substituted as constants.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

from . import expr as ex
from .domains import BoxDomain
from .expr import Expr, evaluate, substitute
from .globalopt import ConstraintSpec, minimize
from .problem_format import ProblemDocument


class DomainError(ValueError):
    """A point lies outside its host box."""


_POINT_SLACK = 1e-9  # solver minimizers may sit a rounding step outside faces


@dataclass(frozen=True)
class GsipProblem:
    name: str
    X: BoxDomain
    Y: BoxDomain
    f: Expr
    g: Expr
    h: tuple[Expr, ...]
    f_star: Optional[float] = None
    f_L: Optional[float] = None

    def __post_init__(self):
        if not self.h:
            raise ValueError("at least one lower-level constraint h is required")
        xn = set(self.X.names)
        yn = set(self.Y.names)
        if xn & yn:
            raise ValueError(f"X and Y share variable names: {sorted(xn & yn)}")
        if not self.f.variables() <= xn:
            raise ValueError("objective may reference outer variables only")
        for label, e in [("g", self.g)] + [(f"h[{i}]", hi) for i, hi in enumerate(self.h)]:
            if not e.variables() <= xn | yn:
                raise ValueError(f"{label} references undeclared variables")


@dataclass(frozen=True)
class SlaterCertificate:
    x_s: dict[str, float]
    epsilon: float
    delta: float

    def __post_init__(self):
        if self.epsilon <= 0.0:
            raise ValueError("epsilon must be > 0")
        if self.delta <= 0.0:
            raise ValueError("delta must be > 0")


@dataclass(frozen=True)
class SubproblemInstance:
    """A box-constrained minimization ready for globalopt."""

    objective: Expr
    constraints: tuple[ConstraintSpec, ...]
    box: BoxDomain


def hbar(p: GsipProblem) -> Expr:
    """Right-folded binary max of the h_j in declared order."""
    return functools.reduce(lambda acc, e: ex.emax(e, acc),
                            reversed(p.h[:-1]), p.h[-1])


def check_point(box: BoxDomain, point: Mapping[str, float], what: str):
    """Raise ``DomainError`` unless ``point`` names exactly the coordinates of
    ``box`` and lies in it, up to a rounding slack."""
    if set(point) != set(box.names) or not box.contains(point, slack=_POINT_SLACK):
        raise DomainError(f"{what} {dict(point)} does not lie in box over {box.names}")


def build_lower_bounding(p: GsipProblem,
                         yset: Sequence[Mapping[str, float]]) -> SubproblemInstance:
    """Discretized relaxation: min f over X s.t. max(g(.,y), hbar(.,y)) >= 0
    for each y in the finite set."""
    hb = hbar(p)
    constraints = []
    for y in yset:
        check_point(p.Y, y, "discretization point")
        constraints.append(
            ConstraintSpec(ex.emax(substitute(p.g, y), substitute(hb, y)), "ge"))
    return SubproblemInstance(p.f, tuple(constraints), p.X)


def build_llp(p: GsipProblem, x: Mapping[str, float]) -> SubproblemInstance:
    """Original lower-level program: min g(x,.) over Y s.t. hbar(x,.) <= 0."""
    check_point(p.X, x, "outer point")
    return SubproblemInstance(
        substitute(p.g, x),
        (ConstraintSpec(substitute(hbar(p), x), "le"),),
        p.Y)


def build_aux_llp(p: GsipProblem, x: Mapping[str, float],
                  llp_value: float, alpha: float) -> SubproblemInstance:
    """Auxiliary LLP: min hbar(x,.) over Y s.t. g(x,.) <= alpha * llp_value."""
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    check_point(p.X, x, "outer point")
    return SubproblemInstance(
        substitute(hbar(p), x),
        (ConstraintSpec(substitute(p.g, x) - ex.const(alpha * llp_value), "le"),),
        p.Y)


def build_sip_llp(p: GsipProblem, x: Mapping[str, float]) -> SubproblemInstance:
    """Lower-level program of the relaxation seen as a standard SIP:
    min max(g(x,.), hbar(x,.)) over Y."""
    check_point(p.X, x, "outer point")
    return SubproblemInstance(
        ex.emax(substitute(p.g, x), substitute(hbar(p), x)), (), p.Y)


def check_relaxation_feasible(p: GsipProblem, x: Mapping[str, float],
                              tol_feas: float = 1e-9, **solver_kwargs) -> bool:
    """True iff x is feasible for the relaxation: the SIP-LLP value is >= -tol_feas."""
    inst = build_sip_llp(p, x)
    out = minimize(inst.objective, inst.constraints, inst.box,
                   tol_feas=tol_feas, **solver_kwargs)
    return out.value >= -tol_feas


def verify_slater(p: GsipProblem, cert: SlaterCertificate, f_star: float,
                  tol_feas: float = 1e-9, **solver_kwargs) -> bool:
    """Check the near-optimal interior-margin condition: f(x_s) <= f_star + eps
    and min over Y of max(g(x_s,.), hbar(x_s,.)) >= delta - tol_feas."""
    check_point(p.X, cert.x_s, "candidate point")
    if evaluate(p.f, cert.x_s) > f_star + cert.epsilon:
        return False
    inst = build_sip_llp(p, cert.x_s)
    out = minimize(inst.objective, inst.constraints, inst.box,
                   tol_feas=tol_feas, **solver_kwargs)
    return out.value >= cert.delta - tol_feas


def builtin_problems() -> list[GsipProblem]:
    x, y = ex.var("x"), ex.var("y")
    unit = lambda n: BoxDomain([(n, -1.0, 1.0)])
    cex1 = GsipProblem(
        name="cex1", X=unit("x"), Y=unit("y"),
        f=-x, g=(x - y) ** 2 - 10.0, h=(-2.0 * x + y,),
        f_star=0.5, f_L=0.5)
    cex2 = GsipProblem(
        name="cex2", X=unit("x"), Y=unit("y"),
        f=-x, g=-y - 10.0, h=(ex.emin(-2.0 * x + y, -x),),
        f_star=0.5, f_L=0.5)
    return [cex1, cex2]


def get_builtin(name: str) -> GsipProblem:
    for p in builtin_problems():
        if p.name == name:
            return p
    raise KeyError(f"no builtin problem named {name!r}")


def from_document(doc: ProblemDocument) -> GsipProblem:
    return GsipProblem(
        name=doc.name,
        X=BoxDomain(doc.outer), Y=BoxDomain(doc.inner),
        f=doc.objective, g=doc.g, h=doc.h,
        f_star=doc.f_star, f_L=doc.f_L)


def to_document(p: GsipProblem) -> ProblemDocument:
    return ProblemDocument(
        name=p.name, outer=p.X.coords, inner=p.Y.coords,
        objective=p.f, g=p.g, h=p.h, f_star=p.f_star, f_L=p.f_L)
