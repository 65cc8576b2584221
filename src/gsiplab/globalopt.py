"""Certified box-constrained global minimization.

Two engines share one outcome type:

* ``minimize`` -- deterministic best-first interval branch-and-bound.  Nodes
  are pruned when a constraint is interval-certified violated or when the
  objective's interval lower bound cannot beat the incumbent by more than
  ``tol_opt``.  Incumbents come from box midpoints and corners that pass the
  ``tol_feas`` feasibility check.  The objective and the constraints are
  compiled once per call into point and interval kernels
  (``expr.compile_expr``), bit-identical to the recursive evaluators.  Each
  corner is considered once: a child of a bisection considers its midpoint
  and the corners on the split plane (the right child only if the left one
  was certified infeasible before considering them); its other corners are
  corners of the parent.  A point offered again could never pass the strict
  ``v < best`` update test, so this leaves every outcome unchanged.

* ``grid_minimize`` -- brute-force evaluation on the full tensor grid,
  kept deliberately independent of the interval machinery and of the
  compiled kernels (it uses ``evaluate_array``) so that it can serve as a
  cross-checking oracle.  The grid is passed as an open grid, one array per
  axis, and broadcasting builds the full grid inside the evaluation.  It is
  the only user of numpy here and imports it when called.
"""
from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass
from typing import Optional, Sequence

from .domains import BoxDomain
# minimize calls neither evaluate nor interval_eval; they stay bound here
# because bench/tracer.py counts the point and interval evaluations made
# through these names
from .expr import (Expr, Interval, compile_expr, evaluate,  # noqa: F401
                   evaluate_array, interval_eval)


class NodeBudgetExceeded(RuntimeError):
    """Branch-and-bound exhausted its node budget before certifying a result."""


@dataclass(frozen=True)
class ConstraintSpec:
    """Inequality ``expr <= 0`` (sense "le") or ``expr >= 0`` (sense "ge")."""

    expr: Expr
    sense: str = "le"

    def __post_init__(self):
        if self.sense not in ("le", "ge"):
            raise ValueError(f"sense must be 'le' or 'ge', got {self.sense!r}")

    def satisfied(self, value: float, tol_feas: float) -> bool:
        if self.sense == "le":
            return value <= tol_feas
        return value >= -tol_feas

    def compile(self, names: Sequence[str], tol_feas: float):
        """Two tests over the kernels of ``expr`` (``expr.compile_expr``):
        whether a point passes ``satisfied``, and whether a box of
        ``(lo, hi)`` pairs is certified to violate the constraint."""
        point, interval = compile_expr(self.expr, names)
        if self.sense == "le":
            return (lambda x: point(x) <= tol_feas,
                    lambda bounds: interval(bounds)[0] > tol_feas)
        return (lambda x: point(x) >= -tol_feas,
                lambda bounds: interval(bounds)[1] < -tol_feas)


@dataclass(frozen=True)
class MinimizeOutcome:
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


def minimize(objective: Expr,
             constraints: Sequence[ConstraintSpec],
             box: BoxDomain,
             tol_opt: float = 1e-6,
             tol_feas: float = 1e-9,
             node_budget: int = 1_000_000,
             min_width: float = 1e-9) -> MinimizeOutcome:
    """Globally minimize ``objective`` over ``box`` subject to ``constraints``.

    Returns the first certified incumbent achieving the final value; the
    search order is deterministic, so repeated calls give identical outcomes.
    """
    check_tolerances(tol_opt, tol_feas)

    # Compile once per solve.  Kernels take points as tuples and boxes as
    # tuples of (lo, hi) pairs, both in the order of box.names.
    names = box.names
    obj_point, obj_interval = compile_expr(objective, names)
    tests = [c.compile(names, tol_feas) for c in constraints]
    satisfied = [ok for ok, _ in tests]
    violated = [certified for _, certified in tests]

    heap: list = []
    counter = itertools.count()
    best_val = float("inf")
    best_pt: Optional[tuple[float, ...]] = None
    retired_lb = float("inf")   # lbs of min-width nodes kept as feasible
    pruned_lb = float("inf")    # lbs of nodes pruned against the incumbent

    def consider(point) -> bool:
        """Offer a candidate incumbent; returns whether it is feasible."""
        nonlocal best_val, best_pt
        for ok in satisfied:
            if not ok(point):
                return False
        v = obj_point(point)
        if v < best_val:
            best_val = v
            best_pt = point
        return True

    def push(b: BoxDomain, bounds, corners) -> bool:
        """Bound a box and queue or retire it.  ``corners`` are the box's
        corners not yet considered.  Returns False when the box is certified
        infeasible, in which case nothing was considered."""
        nonlocal retired_lb, pruned_lb
        for certified in violated:
            if certified(bounds):
                return False
        mid = tuple([0.5 * (lo + hi) for lo, hi in bounds])
        mid_feasible = consider(mid)
        for corner in corners:
            consider(corner)
        lb = obj_interval(bounds)[0]
        if b.max_width <= min_width:
            # undecided node at minimum width: keep it (through its midpoint)
            # only if the midpoint passes the feasibility check
            if mid_feasible:
                retired_lb = min(retired_lb, lb)
            return True
        if best_pt is not None and lb > best_val - tol_opt:
            pruned_lb = min(pruned_lb, lb)
            return True
        heapq.heappush(heap, (lb, next(counter), b))
        return True

    push(box, box.bounds(), itertools.product(*map(_corner_values, box.bounds())))
    frontier_lb = float("inf")
    pops = 0
    while heap:
        lb, _, b = heapq.heappop(heap)
        if best_pt is not None and lb >= best_val - tol_opt:
            frontier_lb = lb  # minimal lb among all remaining nodes
            break
        pops += 1
        if pops > node_budget:
            raise NodeBudgetExceeded(f"node budget {node_budget} exhausted")
        i = b.widest_index()
        left, right = b.bisect()
        # A child's corners off the split plane are corners of b, which were
        # considered when b was pushed: offered again they could not pass the
        # strict `v < best_val` test, so the children consider only the plane
        # corners, and the right child only if the left one was infeasible.
        axes = list(map(_corner_values, b.bounds()))
        axes[i] = (left.coords[i][2],)
        plane = list(itertools.product(*axes))
        considered = push(left, left.bounds(), plane)
        push(right, right.bounds(), () if considered else plane)

    if best_pt is None:
        return INFEASIBLE
    lo = min(frontier_lb, retired_lb, pruned_lb, best_val)
    return MinimizeOutcome("optimal", dict(zip(names, best_pt)), best_val,
                           Interval(lo, best_val))


def _corner_values(bound: tuple[float, float]) -> tuple[float, ...]:
    """A coordinate's values at the corners of a box (BoxDomain.corners)."""
    lo, hi = bound
    return (lo,) if lo == hi else (lo, hi)


def grid_minimize(objective: Expr,
                  constraints: Sequence[ConstraintSpec],
                  box: BoxDomain,
                  points_per_axis: int,
                  tol_feas: float = 1e-9) -> MinimizeOutcome:
    """Brute-force minimization over the full tensor grid (endpoints included).

    The variables are bound to an open grid: axis ``i`` is an array of shape
    ``(1, ..., n, ..., 1)``.  ``evaluate_array`` thus works on one axis's
    values until an operation mixes two axes, where broadcasting builds the
    full grid.  Broadcasting only repeats operands, so every grid value comes
    from the same float operations as on a dense grid, bit for bit.
    """
    import numpy as np

    if points_per_axis < 2:
        raise ValueError("points_per_axis must be at least 2")
    axes = [np.linspace(lo, hi, points_per_axis) for _, lo, hi in box.coords]
    env = dict(zip(box.names, np.meshgrid(*axes, indexing="ij", sparse=True)))
    shape = tuple(len(a) for a in axes)

    vals = np.asarray(evaluate_array(objective, env), dtype=float)
    feas = np.ones(shape, dtype=bool)
    for c in constraints:
        cv = np.asarray(evaluate_array(c.expr, env), dtype=float)
        feas &= (cv <= tol_feas) if c.sense == "le" else (cv >= -tol_feas)
    if not feas.any():
        return INFEASIBLE
    masked = np.where(feas, vals, np.inf)
    idx = np.unravel_index(int(np.argmin(masked)), shape)
    point = {name: float(axes[i][idx[i]]) for i, name in enumerate(box.names)}
    value = float(masked[idx])
    return MinimizeOutcome("optimal", point, value, Interval(value, value))
