"""Certified box-constrained global minimization.

Two engines share one outcome type:

* ``minimize`` -- deterministic best-first interval branch-and-bound over
  compiled kernels (``expr.compile_expr``), bit-identical to the recursive
  evaluators.  The kernels take the box's variables, then the bound values
  (``parameters``): variables held fixed, which are appended to every call,
  as floats to a point and as ``(v, v)`` pairs to a box, and never bisected.
  A tree keeps its kernels, so a tree that many solves share compiles once.
  Incumbents are box midpoints and corners that pass the ``tol_feas`` check;
  the first one becomes the incumbent even if its value is +inf, and later
  ones must pass the strict ``v < best`` update test, so a point offered
  again could not change the incumbent.  A node and its children offer none
  twice: a child considers only its corners (``domains.corner_values``) on
  the split plane, none when the plane is one point, the parent's midpoint
  (``domains.midpoint_value``), and a box that the monotonicity test below
  reduces to a point, one of its corners, considers nothing; a corner shared
  with a box that is not a sibling is offered again.  A node leaves the
  search certified infeasible by a constraint's interval bound, contributing
  nothing, or settled, contributing its objective lower bound ``lb`` to one
  minimum: retired at the heap front when ``domains.split``, the one
  bisection rule, cannot cut it, whatever its midpoint, or set aside by the
  one comparison ``lb >= best - tol_opt``, at push and at the heap front,
  where it stops the search.  The bracket is
  ``[min(settled lbs, best), best]``.  ``infeasible`` needs every leaf
  certified infeasible, and its bracket is ``[+inf, +inf]``, the minimum
  over the empty set; a search that settles nodes but finds no incumbent
  raises ``UndecidedError``.  Decisions on an outcome read the certified
  ``value_bounds.lo``.

  Each node carries its active set: the constraints its interval tests have
  not decided.  A constraint certified satisfied on a box holds on every
  box inside it, so it leaves the set, the node's children inherit the
  rest, and candidates are checked against the set only; a candidate that
  would become the incumbent is then checked against the constraints
  outside the set, since the interval tests round to nearest and may
  certify a constraint that fails the point test by an ulp.  A node whose
  set is empty is feasible at every point, and it gets the monotonicity
  test (Hansen & Walster, *Global Optimization Using Interval Analysis*,
  2004) when its bound does not settle it: each coordinate along which the
  objective's interval gradient (``expr.compile_gradient``) is >= 0 is fixed
  at its lower end, each along which it is <= 0 at its upper end, and the
  reduced box's midpoint is considered and its bound replaces the node's.
  A coordinate the objective ignores, or one along which the minimum sits
  on a face of the box, is then no longer bisected, which removes most of
  the cluster of boxes that a first-order bound leaves around a minimizer
  (Du & Kearfott, J. Glob. Optim. 1994).

* ``grid_minimize`` -- brute-force evaluation on the full tensor grid,
  kept deliberately independent of the interval machinery and of the
  compiled kernels (it uses ``evaluate_array``) so that it can serve as a
  cross-checking oracle.  Grid points are feasible by
  ``ConstraintSpec.satisfied``, the rule ``minimize`` applies to its
  candidates.  It proves no bound.  It is the only user of numpy here and
  imports it when called.
"""
from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass
from typing import Optional, Sequence

from .domains import BoxDomain, _validated, corner_values, midpoint_value, split
# minimize calls neither evaluate nor interval_eval; they stay bound here
# because bench/tracer.py counts the point and interval evaluations made
# through these names
from .expr import (Expr, Interval, compile_expr, compile_gradient,  # noqa: F401
                   evaluate, evaluate_array, interval_eval)


# the outcomes of a constraint's interval test on a box
VIOLATED, UNDECIDED, SATISFIED = "violated", "undecided", "satisfied"


class NodeBudgetExceeded(RuntimeError):
    """Branch-and-bound exhausted its node budget before certifying a result."""


class UndecidedError(RuntimeError):
    """Branch-and-bound found no feasible point but settled some boxes."""


@dataclass(frozen=True)
class ConstraintSpec:
    """Inequality ``expr <= 0`` (sense "le") or ``expr >= 0`` (sense "ge").

    One rule decides feasibility: the signed value, ``sign * expr``, is at
    most ``tol_feas``.  Negation is exact and a NaN fails, so "ge" means
    ``expr >= -tol_feas``.  ``parameters`` are bound values, ``(name,
    value)`` pairs: variables of ``expr`` that the solver holds fixed and
    never bisects."""

    expr: Expr
    sense: str = "le"
    parameters: tuple[tuple[str, float], ...] = ()

    def __post_init__(self):
        if self.sense not in ("le", "ge"):
            raise ValueError(f"sense must be 'le' or 'ge', got {self.sense!r}")

    @property
    def sign(self) -> float:
        return 1.0 if self.sense == "le" else -1.0

    def satisfied(self, value, tol_feas: float):
        """Whether ``value`` (a float, or elementwise an array) passes."""
        return self.sign * value <= tol_feas

    def compile(self, names: Sequence[str], tol_feas: float):
        """Two tests over the kernels of ``expr`` (``expr.compile_expr``):
        whether a point passes ``satisfied``, and whether a box of
        ``(lo, hi)`` pairs is certified to violate the constraint
        (``VIOLATED``), certified to satisfy it at every point (``SATISFIED``)
        or neither (``UNDECIDED``), by the signed value's interval.  Points
        and boxes are over ``names``; the tests append the bound values."""
        all_names, values, pairs = _bind(names, self.parameters)
        point, interval = compile_expr(self.expr, all_names)
        sign = self.sign

        def decide(bounds):
            lo, hi = interval(bounds + pairs)
            if sign < 0.0:
                lo, hi = -hi, -lo
            if lo > tol_feas:
                return VIOLATED
            return SATISFIED if hi <= tol_feas else UNDECIDED
        return lambda x: sign * point(x + values) <= tol_feas, decide


@dataclass(frozen=True)
class MinimizeOutcome:
    """``value_bounds`` is present exactly when the solver proved it."""

    status: str  # "optimal" | "infeasible"
    minimizer: Optional[dict[str, float]] = None
    value: Optional[float] = None
    value_bounds: Optional[Interval] = None

    @property
    def optimal(self) -> bool:
        return self.status == "optimal"


INFEASIBLE = MinimizeOutcome("infeasible")


def check_tolerances(tol_opt: float, tol_feas: float) -> None:
    """Raise ``ValueError`` unless 0 < tol_opt < inf and 0 <= tol_feas < inf
    (a NaN fails every comparison, so it is rejected too)."""
    if not 0.0 < tol_opt < math.inf:
        raise ValueError(f"tol_opt must be positive and finite, got {tol_opt}")
    if not 0.0 <= tol_feas < math.inf:
        raise ValueError(f"tol_feas must be nonnegative and finite, got {tol_feas}")


def _bind(names: Sequence[str], parameters: Sequence[tuple[str, float]]):
    """The kernel names of an expression with ``parameters`` bound over a
    box's ``names``: the box's names, then the parameters'.  Returns them with
    the tuples a call appends: the bound values to a point, and their
    ``(v, v)`` pairs to a box."""
    pnames = tuple(n for n, _ in parameters)
    if set(pnames) & set(names):
        raise ValueError(f"bound values {pnames} share names with the box "
                         f"{tuple(names)}")
    values = tuple(v for _, v in parameters)
    return tuple(names) + pnames, values, tuple((v, v) for v in values)


def minimize(objective: Expr,
             constraints: Sequence[ConstraintSpec],
             box: BoxDomain,
             tol_opt: float = 1e-6,
             tol_feas: float = 1e-9,
             node_budget: int = 1_000_000,
             parameters: Sequence[tuple[str, float]] = ()) -> MinimizeOutcome:
    """Globally minimize ``objective`` over ``box`` subject to ``constraints``.

    ``parameters`` are the objective's bound values, ``(name, value)`` pairs
    held fixed (each constraint carries its own); the minimizer names only
    ``box.names``.  Returns the first certified incumbent achieving the final
    value; the search order is deterministic, so repeated calls give
    identical outcomes.
    """
    check_tolerances(tol_opt, tol_feas)

    # Kernels take points as tuples and boxes as their bounds, both in the
    # order of box.names, and the bound values are appended to every call.
    names = box.names
    obj_names, values, pairs = _bind(names, parameters)
    obj_point, obj_interval = compile_expr(objective, obj_names)
    tests = [c.compile(names, tol_feas) for c in constraints]
    satisfied = [ok for ok, _ in tests]
    decide = [d for _, d in tests]

    heap: list = []
    counter = itertools.count()
    best_val = math.inf
    best_pt: Optional[tuple[float, ...]] = None
    settled_lb = math.inf  # least lb of the settled nodes
    settled = False

    def consider(point, active) -> None:
        """Offer a candidate incumbent from a box on which the constraints
        outside ``active`` are certified satisfied."""
        nonlocal best_val, best_pt
        for j in active:
            if not satisfied[j](point):
                return
        v = obj_point(point + values)
        if v < best_val or (best_pt is None and v == math.inf):
            # the interval kernels round to nearest, so a constraint they
            # certified satisfied can still fail the point test by an ulp:
            # a new incumbent also passes the point tests outside ``active``
            if all(ok(point) for j, ok in enumerate(satisfied) if j not in active):
                best_val = v
                best_pt = point

    def settle(lb: float, retired: bool = False) -> bool:
        """Settle a node that ``split`` cannot cut, or one whose ``lb`` passes
        the one comparison with the incumbent; returns whether it settled."""
        nonlocal settled_lb, settled
        if retired or (best_pt is not None and lb >= best_val - tol_opt):
            settled_lb = min(settled_lb, lb)
            settled = True
            return True
        return False

    def monotone(bounds):
        """The bounds of a box on which every point is feasible, with each
        coordinate along which the objective is monotone fixed at its better
        end: the lower one where the derivative is >= 0 (a coordinate the
        objective ignores has [0, 0]), the upper one where it is <= 0."""
        gradient = compile_gradient(objective, obj_names)(bounds + pairs)[1]
        return tuple((lo, lo) if dlo >= 0.0 else (hi, hi) if dhi <= 0.0 else (lo, hi)
                     for (lo, hi), (dlo, dhi) in zip(bounds, gradient))

    def push(b: BoxDomain, corners, active) -> bool:
        """Bound a box, then queue or settle it.  ``corners`` are the box's
        corners not yet considered, ``active`` the constraints not certified
        satisfied on its parent.  Returns False when the box is certified
        infeasible, in which case nothing was considered."""
        bounds = b.bounds
        undecided = []
        for j in active:
            verdict = decide[j](bounds)
            if verdict is VIOLATED:
                return False
            if verdict is UNDECIDED:
                undecided.append(j)
        consider(tuple(map(midpoint_value, bounds)), undecided)
        for corner in corners:
            consider(corner, undecided)
        lb = obj_interval(bounds + pairs)[0]
        if settle(lb):
            return True
        if not undecided:
            reduced = monotone(bounds)
            if reduced != bounds:
                # the reduced box's corners are corners of b, all of which
                # were considered, so a box reduced to a point offers nothing
                if any(lo != hi for lo, hi in reduced):
                    consider(tuple(map(midpoint_value, reduced)), ())
                lb = obj_interval(reduced + pairs)[0]
                if settle(lb):
                    return True
                b = _validated(names, reduced)
        heapq.heappush(heap, (lb, next(counter), b, undecided))
        return True

    push(box, itertools.product(*map(corner_values, box.bounds)),
         range(len(constraints)))
    pops = 0
    while heap:
        lb, _, b, active = heapq.heappop(heap)
        if settle(lb):
            break  # b had the least lb of the nodes left in the heap
        cut = split(b.bounds)
        if cut is None:
            settle(lb, retired=True)
            continue
        pops += 1
        if pops > node_budget:
            raise NodeBudgetExceeded(f"node budget {node_budget} exhausted")
        left, right = b.bisect()
        # A child's corners off the split plane are corners of b, which were
        # considered when b was pushed: offered again they could not pass the
        # strict `v < best_val` test, so the children consider only the plane
        # corners, and the right child only if the left one was infeasible.
        # A plane of one point, as in 1-D, is b's midpoint, considered too.
        i, mid = cut
        plane = () if len(names) == 1 else list(itertools.product(*[
            (mid,) if j == i else corner_values(p) for j, p in enumerate(b.bounds)]))
        plane = plane if len(plane) > 1 else ()
        considered = push(left, plane, active)
        push(right, () if considered else plane, active)

    if best_pt is None:
        if settled:
            raise UndecidedError("no feasible point found, and boxes too "
                                 "narrow to bisect were not certified infeasible")
        return MinimizeOutcome("infeasible", value_bounds=Interval(math.inf, math.inf))
    return MinimizeOutcome("optimal", dict(zip(names, best_pt)), best_val,
                           Interval(min(settled_lb, best_val), best_val))


def grid_minimize(objective: Expr,
                  constraints: Sequence[ConstraintSpec],
                  box: BoxDomain,
                  points_per_axis: int,
                  tol_feas: float = 1e-9,
                  parameters: Sequence[tuple[str, float]] = ()) -> MinimizeOutcome:
    """Brute-force minimization over the full tensor grid (endpoints included).

    Bound values (``parameters`` for the objective, each constraint's own)
    enter the environment as floats.

    The variables are bound to an open grid: axis ``i`` is an array of shape
    ``(1, ..., n, ..., 1)``.  ``evaluate_array`` thus works on one axis's
    values until an operation mixes two axes, where broadcasting builds the
    full grid.  Broadcasting only repeats operands, so every grid value comes
    from the same float operations as on a dense grid, bit for bit.
    """
    import numpy as np

    if points_per_axis < 2:
        raise ValueError("points_per_axis must be at least 2")
    axes = [np.linspace(lo, hi, points_per_axis) for lo, hi in box.bounds]
    env = dict(zip(box.names, np.meshgrid(*axes, indexing="ij", sparse=True)))
    shape = tuple(len(a) for a in axes)

    vals = np.asarray(evaluate_array(objective, {**env, **dict(parameters)}),
                      dtype=float)
    feas = np.ones(shape, dtype=bool)
    for c in constraints:
        cv = np.asarray(evaluate_array(c.expr, {**env, **dict(c.parameters)}),
                        dtype=float)
        feas &= c.satisfied(cv, tol_feas)
    if not feas.any():
        return INFEASIBLE
    masked = np.where(feas, vals, np.inf)
    idx = np.unravel_index(int(np.argmin(masked)), shape)
    point = {name: float(axes[i][idx[i]]) for i, name in enumerate(box.names)}
    return MinimizeOutcome("optimal", point, float(masked[idx]))
