"""GSIP problem model, subproblem builders, built-ins.

A problem is

    inf f(x)  s.t.  x in X,
    0 <= inf { g(x,y) : y in Y, h_j(x,y) <= 0 for all j },

and the lab works throughout with its relaxation whose constraint is the
disjunction  [g(x,y) >= 0] or [hbar(x,y) >= 0]  for all y in Y, where hbar
is the pointwise maximum of the h_j.  The builders return ready-to-solve
box-constrained instances; ``algorithms`` solves them.  Each problem builds
``g``, ``hbar``, the cut ``max(g, hbar)`` and the level trees ``g - level``
and ``hbar - level`` once, and every instance shares these trees: an
instance fixes the outer point (or, in the lower-bounding problem, each
cut's discretization point) and any level as bound values, which the
solver appends to its kernel calls, so each tree compiles once per run
(``expr.compile_expr``).  The lower-bounding instance of a run grows by the
cuts of the points added since the last iteration, so each cut is built
once per run.
"""
from __future__ import annotations

from functools import cached_property
from typing import Mapping, Optional, Sequence

from . import expr as ex
from .domains import BoxDomain
# the builders bind points instead of substituting them; substitute stays
# bound here because bench/tracer.py counts the calls made through this name
from .expr import Expr, substitute  # noqa: F401
from .globalopt import ConstraintSpec
from .immutable import frozen


class DomainError(ValueError):
    """A point lies outside its host box."""


_POINT_SLACK = 1e-9  # solver minimizers may sit a rounding step outside faces

# The name under which a level enters a tree as a bound value.  Parsed names
# are identifiers, so no parsed problem can declare it.
LEVEL = "#level"


@frozen
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
        if LEVEL in xn | yn:
            raise ValueError(f"the variable name {LEVEL!r} is reserved")
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

    @cached_property
    def hbar(self) -> Expr:
        """Binary max of the h_j in declared order, folded pairwise
        (neighbours first) so that n lines nest only ceil(log2 n) levels
        deep; built once per problem."""
        hs = list(self.h)
        while len(hs) > 1:
            hs = [ex.emax(*hs[i:i + 2]) if i + 1 < len(hs) else hs[i]
                  for i in range(0, len(hs), 2)]
        return hs[0]

    @cached_property
    def cut(self) -> Expr:
        """max(g, hbar), the relaxation's constraint function; built once per
        problem."""
        return ex.emax(self.g, self.hbar)

    @cached_property
    def g_level(self) -> Expr:
        """g - level, the auxiliary LLP's constraint, with the level bound
        under ``LEVEL``; built once per problem."""
        return self.g - ex.var(LEVEL)

    @cached_property
    def hbar_level(self) -> Expr:
        """hbar - level, with the level bound under ``LEVEL``; built once per
        problem."""
        return self.hbar - ex.var(LEVEL)

    @cached_property
    def first_inner(self) -> tuple[Expr, Expr]:
        """y_1 and -y_1, the first inner variable and its negation; built
        once per problem."""
        y = ex.var(self.Y.names[0])
        return y, -y


@frozen
class SlaterCertificate:
    x_s: dict[str, float]
    epsilon: float
    delta: float

    def __post_init__(self):
        if self.epsilon <= 0.0:
            raise ValueError("epsilon must be > 0")
        if self.delta <= 0.0:
            raise ValueError("delta must be > 0")


@frozen
class SubproblemInstance:
    """A box-constrained minimization ready for globalopt: ``parameters``
    are the objective's bound values, ``(name, value)`` pairs in the order of
    the box they come from; each constraint carries its own."""

    objective: Expr
    constraints: tuple[ConstraintSpec, ...]
    box: BoxDomain
    parameters: tuple[tuple[str, float], ...] = ()


def check_point(box: BoxDomain, point: Mapping[str, float], what: str):
    """Raise ``DomainError`` unless ``point`` names exactly the coordinates of
    ``box`` and lies in it, up to a rounding slack."""
    if set(point) != set(box.names) or not box.contains(point, slack=_POINT_SLACK):
        raise DomainError(f"{what} {dict(point)} does not lie in box over {box.names}")


def _as_parameters(box: BoxDomain, point: Mapping[str, float], what: str):
    """``point``, checked to lie in ``box``, as bound values: ``(name,
    value)`` pairs in the order of ``box``."""
    check_point(box, point, what)
    return tuple((n, float(point[n])) for n in box.names)


def build_lower_bounding(p: GsipProblem,
                         yset: Sequence[Mapping[str, float]],
                         previous: Optional[SubproblemInstance] = None
                         ) -> SubproblemInstance:
    """Discretized relaxation: min f over X s.t. max(g(.,y), hbar(.,y)) >= 0
    for each y in the finite set; every cut is the problem's one cut tree,
    with its own y bound, in the order of ``yset``.

    ``previous``, an instance this function built for ``p`` from a prefix
    of ``yset``, lends its cuts: only the points after that prefix are
    checked and made into new cuts, so a loop whose set grows by a point
    per iteration builds each cut once, and the solver, which keeps each
    cut's bound kernels on the cut (``ConstraintSpec``), binds it once.
    A ``previous`` of another problem, or with more cuts than ``yset`` has
    points, raises ``ValueError``."""
    cuts = () if previous is None else previous.constraints
    # the cuts this function builds share one tree, so the first stands for all
    if previous is not None and not (
            previous.objective == p.f and previous.box == p.X
            and all(c.expr == p.cut for c in cuts[:1])):
        raise ValueError("previous is not a lower-bounding instance of this problem")
    if len(cuts) > len(yset):
        raise ValueError(f"previous holds {len(cuts)} cuts, more than the "
                         f"{len(yset)} discretization points")
    return SubproblemInstance(p.f, cuts + tuple(
        ConstraintSpec(p.cut, "ge", _as_parameters(p.Y, y, "discretization point"))
        for y in yset[len(cuts):]), p.X)


def build_llp(p: GsipProblem, x: Mapping[str, float]) -> SubproblemInstance:
    """Original lower-level program: min g(x,.) over Y s.t. hbar(x,.) <= 0."""
    xs = _as_parameters(p.X, x, "outer point")
    return SubproblemInstance(p.g, (ConstraintSpec(p.hbar, "le", xs),), p.Y, xs)


def build_aux_llp(p: GsipProblem, x: Mapping[str, float],
                  llp_value: float, alpha: float) -> SubproblemInstance:
    """Auxiliary LLP: min hbar(x,.) over Y s.t. g(x,.) <= alpha * llp_value;
    the constraint is the problem's one ``g_level`` tree, with the level
    bound after x."""
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    xs = _as_parameters(p.X, x, "outer point")
    level = ((LEVEL, alpha * llp_value),)
    return SubproblemInstance(
        p.hbar, (ConstraintSpec(p.g_level, "le", xs + level),), p.Y, xs)


def build_sip_llp(p: GsipProblem, x: Mapping[str, float]) -> SubproblemInstance:
    """Lower-level program of the relaxation seen as a standard SIP:
    min max(g(x,.), hbar(x,.)) over Y."""
    return SubproblemInstance(p.cut, (), p.Y, _as_parameters(p.X, x, "outer point"))


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

