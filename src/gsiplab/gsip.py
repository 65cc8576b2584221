"""GSIP problem model, subproblem builders, built-ins.

A problem is

    inf f(x)  s.t.  x in X,
    0 <= inf { g(x,y) : y in Y, h_j(x,y) <= 0 for all j },

and the lab works throughout with its relaxation whose constraint is the
disjunction  [g(x,y) >= 0] or [hbar(x,y) >= 0]  for all y in Y, where hbar
is the pointwise maximum of the h_j.  The builders return ready-to-solve
box-constrained instances with the outer point substituted as constants;
``algorithms`` solves them.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

from . import expr as ex
from .domains import BoxDomain
from .expr import Expr, substitute
from .globalopt import ConstraintSpec


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
        if not self.name:
            raise ValueError("the problem name must not be empty")
        if not self.X.dim:
            raise ValueError("at least one outer variable is required")
        if not self.Y.dim:
            raise ValueError("at least one inner variable is required")
        if not self.h:
            raise ValueError("at least one 'h' constraint is required")
        xn = set(self.X.names)
        yn = set(self.Y.names)
        if xn & yn:
            raise ValueError(f"X and Y share variable names: {sorted(xn & yn)}")
        bad = self.f.variables() - xn
        if bad:
            raise ValueError(
                f"objective references non-outer variable(s): {sorted(bad)}")
        for label, e in [("g", self.g)] + [(f"h[{i}]", hi) for i, hi in enumerate(self.h)]:
            bad = e.variables() - (xn | yn)
            if bad:
                raise ValueError(
                    f"{label} references undeclared variable(s): {sorted(bad)}")


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

