"""The grid oracle: brute-force minimization over a box's full tensor grid,
and ``gsiplab verify``'s check of certified bounds against it.

``grid_minimize`` evaluates the whole grid, kept deliberately independent of
the interval machinery that certifies ``globalopt.minimize``'s bounds, so
that it can serve as a cross-checking oracle.  It evaluates through one
generated kernel per grid (``arrays.grid_kernel``), which shares no code
with the point and interval kernels, and which the tests pin bit for bit to
the recursive walk over arrays.  Grid points are feasible by
``ConstraintSpec.satisfied``, the rule ``minimize`` applies to its
candidates, and a point whose value is NaN is never the minimum, as a NaN
is never ``minimize``'s incumbent.  The grid is evaluated in blocks of rows
of its first axis, so that a block's arrays stay in cache, by one kernel
call per block.  A block evaluates its constraints before its objective,
and a point fails where a test fails: a constraint's, or a divisor's ``!=
0.0``, so a point that divides by zero is skipped as a NaN value is; once
none of its points passes, the block stops.  It proves no bound.  It
imports ``gsiplab.arrays``, and with it numpy, when called, so this module
loads without either.  ``_grid_scan`` returns its outcome point by point, by
the point kernels that ``minimize`` binds, with no numpy: ``gsiplab verify``
scans its grids where they are small.

``cross_check`` makes every decision of ``gsiplab verify`` on the grid: which
of the two evaluates a run's grids, and which certified lower bounds the
grid refutes.  ``gsiplab.globalopt`` imports this module only where its
``grid_minimize`` is asked for, so a solve loads no grid code.
"""
from __future__ import annotations

import itertools
import math
from typing import Sequence

from .domains import BoxDomain
from .expr import EvaluationError, Expr
from .globalopt import (INFEASIBLE, ConstraintSpec, MinimizeOutcome, _disjoint,
                        _form, _split)
from .immutable import kept
from .kernels import _unknown


# the most grid points grid_minimize evaluates at once: few enough that a
# block's arrays stay in a core's cache, enough that a block's Python does not
# dominate
_BLOCK_POINTS = 1 << 15

_arrays = None   # gsiplab.arrays, imported at the first grid

_AXES = "_axes"  # the attribute of a box that holds its open grids (_open_grid)
_POINTS = "_points"  # ... and its grid points along each axis (_grid_points)


def grid_minimize(objective: Expr,
                  constraints: Sequence[ConstraintSpec],
                  box: BoxDomain,
                  points_per_axis: int,
                  tol_feas: float = 1e-9,
                  parameters: Sequence[tuple[str, float]] = ()) -> MinimizeOutcome:
    """Brute-force minimization over the full tensor grid (endpoints included).

    Bound values (``parameters`` for the objective, each constraint's own)
    enter the environment as floats; as in ``minimize``, a bound value that
    shares its name with the box raises ``ValueError``.

    The variables are bound to an open grid (``_open_grid``): axis ``i`` is
    an array of shape ``(1, ..., n, ..., 1)``, whose values are
    ``np.linspace(lo, hi, n)``'s, bit for bit, built by its recipe
    (``_linspace``), save where ``hi - lo`` overflows and that
    recipe's points are not finite.  The axes are kept on the box, so a box
    gridded again, as ``verify`` grids the inner box at every iterate,
    builds none.  The grid kernel thus works on one axis's values until an
    operation mixes two axes, where broadcasting builds the full grid.
    Broadcasting only repeats operands, so every grid value comes from the
    same float operations as on a dense grid, bit for bit.  The grid is
    evaluated in blocks of rows of the first axis, of at most
    ``_BLOCK_POINTS`` points (one row, if a row holds more), so that the
    arrays of a block stay in cache.

    One generated kernel evaluates a whole block (``arrays.grid_kernel``),
    kept on the objective and keyed by the identity of the trees, so a loop
    that checks the same trees under new bound values, or at another
    ``tol_feas``, generates it once.  It evaluates the constraints first, in
    their order, each followed by its test, and the objective last; a
    division tests that its divisor is not zero, and a point where it is
    fails, as an infeasible point does.  Once no point of the block passes,
    it skips the rest, and where a test that every block runs alike, over
    no grid axis or over axes other than the first, fails at all of its
    points (a constraint on bound values alone, a divisor that is zero, or a
    constraint over the other axes that no point passes), no further block
    runs.  A variable bound nowhere raises ``EvaluationError`` whether or
    not a point passes.  It computes a subtree that the trees share once per
    block, and writes its temporaries over the first axis into the thread's
    buffers, the same memory for every block and every call.

    The minimum is the first in C order among the grid points that are
    feasible and whose value is not NaN, as a NaN never becomes
    ``minimize``'s incumbent, and its value is that point's, so a zero
    keeps its sign; a grid without such a point is infeasible.  A block
    whose points all pass takes it in one ``argmin``, which stops at the
    first NaN; where it meets one, or where some point fails, a masked
    ``np.fmin`` reduction, which passes over NaNs, finds the least value,
    and the first feasible point that takes it.
    """
    global _arrays
    if _arrays is None:
        # arrays imports numpy: compiled first, its transient memory serves
        # numpy's import again instead of adding to the process's peak
        from . import arrays as _arrays
    np = _arrays.np
    n = points_per_axis
    if n < 2:
        raise ValueError("points_per_axis must be at least 2")
    grid = _open_grid(box, n)
    dims = len(grid)
    shape = (n,) * dims
    row = math.prod(shape[1:])
    rows = max(1, _BLOCK_POINTS // row)
    # the kernel's arguments: the axes, then each tree's bound values
    args = list(grid)
    named = []   # the names of each tree's bound values
    for bound in (*(c.parameters for c in constraints), parameters):
        pnames, values = _split(bound)
        if bound:
            _disjoint(box.names, pnames)   # as in minimize
            args += values
        named.append(pnames)
    kernel = _arrays.grid_kernel(
        objective, named.pop(),
        [(c.expr, c.sense, p) for c, p in zip(constraints, named)], box.names)
    best = None   # the first minimum so far: (value, flat index)
    block = shape
    for start in range(0, n if dims else 1, rows):
        # rows [start, start + rows) of the first axis; a box without axes
        # is one block of one point, and a grid of one block keeps its axis
        if dims and rows < n:
            args[0] = grid[0][start:start + rows]
            block = args[0].shape[:1] + shape[1:]
        ok, vals = kernel(args, block, tol_feas)
        if ok is False:   # a test alike on every block fails: none passes
            break
        if ok is None:
            continue
        vals = np.asarray(vals, dtype=float)
        if vals.shape != block:
            vals = np.broadcast_to(vals, block)
        # the first point in C order that takes the block's least value:
        # where every point passes, argmin's, unless it is a NaN (argmin
        # stops at the first); else the first feasible point that takes the
        # least feasible value that is not NaN, which fmin finds (+inf if
        # there is none), if one does
        first = int(vals.argmin()) if ok is True else 0
        if ok is not True or math.isnan(vals.item(first)):
            least = np.fmin.reduce(vals, axis=None, where=ok, initial=np.inf)
            minima = vals == least
            if ok is not True:
                minima &= ok
            first = int(minima.argmax())
            if not minima.item(first):   # every feasible value is NaN
                continue
        value = vals.item(first)
        if best is None or value < best[0]:
            best = value, start * row + first
    if best is None:
        return INFEASIBLE
    value, flat = best
    index = []   # the point's index along each axis, the last axis first
    for _ in grid:
        flat, i = divmod(flat, n)
        index.append(i)
    point = {name: a.item(i) for name, a, i in zip(box.names, grid, reversed(index))}
    return MinimizeOutcome("optimal", point, value)


def _grid_scan(objective: Expr,
               constraints: Sequence[ConstraintSpec],
               box: BoxDomain,
               points_per_axis: int,
               tol_feas: float = 1e-9,
               parameters: Sequence[tuple[str, float]] = ()) -> MinimizeOutcome:
    """``grid_minimize``'s outcome, found point by point by the point kernels
    that ``minimize`` binds, with no numpy: for a small grid, which costs
    less than numpy's import.

    It walks the grid points (``_grid_points``) in C order.  A point passes
    the constraints in their order, each by its binding's ``satisfied``
    (``ConstraintSpec.bind``), then takes the objective's value by its
    ``_Form``'s point kernel, and the first point whose value is least and
    not NaN is the minimum; these are the bindings and forms that a solve of
    the same trees over the box's names has made, so the scan generates no
    kernel.  It keeps ``grid_minimize``'s rules: a bound value named like a
    coordinate raises ``ValueError``, and a variable bound nowhere
    ``EvaluationError``, before the first point; a point that divides by
    zero fails, by the point kernel's ``EvaluationError``, the only one it
    raises once every variable is bound.

    Its values are the grid kernel's, bit for bit, as both make the same
    float operations in the same order, but in three cases.  Where Python's
    ``**`` overflows, it raises ``OverflowError`` where ``np.float_power``
    gives an infinity: the scan then returns ``grid_minimize``'s outcome.
    Where a min or max meets a NaN as its second operand, the point kernel
    returns the first, and ``np.minimum`` and ``np.maximum`` the NaN; and
    where it meets two zeros of opposite signs, the point kernel returns
    the first, and numpy the second.  The scan follows the point kernel
    there, as ``minimize`` does.  A NaN comes only from an infinity, which
    an operation that overflows or an infinite value makes, and a zero's
    sign only changes the sign of a zero or of an infinity that a divisor
    test fails, so the second case alone can move the minimum, and the
    third only the sign of a zero minimum.
    """
    n = points_per_axis
    if n < 2:
        raise ValueError("points_per_axis must be at least 2")
    names = box.names
    tests = [c.bind(names, tol_feas).satisfied for c in constraints]
    pnames, values = _split(parameters)
    point = _form(objective, names, pnames).point
    for e, bound in (*((c.expr, c.parameters) for c in constraints),
                     (objective, parameters)):
        unknown = e.variables().difference(names, (name for name, _ in bound))
        if unknown:
            _unknown(min(unknown))()
    best, best_x = math.inf, None
    try:
        for x in itertools.product(*_grid_points(box, n)):
            try:
                for passes in tests:
                    if not passes(x):
                        break
                else:
                    v = point(x + values)
                    # minimize's incumbent rule: +inf only as the first
                    if v < best or (best_x is None and v == best):
                        best, best_x = v, x
            except EvaluationError:
                # with every variable bound, a point kernel raises no other
                pass
    except OverflowError:
        return grid_minimize(objective, constraints, box, n, tol_feas, parameters)
    if best_x is None:
        return INFEASIBLE
    return MinimizeOutcome("optimal", dict(zip(names, best_x)), best)


def _linspace(lo: float, hi: float, n: int) -> list[float]:
    """The points of ``np.linspace(lo, hi, n)`` for floats ``lo`` and ``hi``
    and ``n >= 2``, bit for bit, as floats, by its own recipe: ``i`` times
    the step (divided by ``n - 1``, then times the span, where the step
    underflows to 0), plus ``lo``, and ``hi`` as the last point.  Where the
    span overflows, which makes that recipe's points inf and NaN, point
    ``i`` is ``lo + i*(hi/(n-1)) - i*(lo/(n-1))`` instead, whose terms are
    finite."""
    m = n - 1
    span = hi - lo
    if math.isinf(span):
        a, b = hi / m, lo / m
        points = [lo + i * a - i * b for i in range(m)]
    else:
        step = span / m
        if step == 0:
            points = [i / m * span + lo for i in range(m)]
        else:
            points = [i * step + lo for i in range(m)]
    points.append(hi)
    return points


def _grid_points(box: BoxDomain, n: int) -> tuple:
    """The points of ``box``'s grid of ``n`` points per axis along each axis
    (``_linspace`` over the axis's bounds), as floats, kept on the box, keyed
    by ``n``, as ``_open_grid`` keeps its arrays."""
    return kept(box, _POINTS, n, _points)


def _points(box: BoxDomain, n: int) -> tuple:
    return tuple(_linspace(lo, hi, n) for lo, hi in box.bounds)


def _open_grid(box: BoxDomain, n: int) -> tuple:
    """The axes of ``box``'s open grid of ``n`` points per axis: axis ``i``
    the array of ``_linspace`` over the box's ``i``-th bounds, of shape
    ``(1, ..., n, ..., 1)`` (``np.ix_``) and not writeable; kept on the box,
    keyed by ``n`` (``immutable.kept``).  ``_linspace``'s list is not kept,
    as ``_grid_points`` keeps it: its floats take four times the array's
    memory."""
    return kept(box, _AXES, n, _axes)


def _axes(box: BoxDomain, n: int) -> tuple:
    axes = [_arrays.np.array(_linspace(lo, hi, n)) for lo, hi in box.bounds]
    for a in axes:
        a.flags.writeable = False
    return _arrays.np.ix_(*axes)   # views, which cannot be written either


# the most point evaluations that verify's grids may take for it to scan them
# point by point rather than load numpy.  Measured on 2 CPUs with CPython
# 3.11: a scanned point evaluation costs about 0.35 us (cex1's 20 grids,
# 12,030 evaluations, 4.1 ms), and numpy's import 57-62 ms plus 12 ms for
# gsiplab.arrays, so a scan at this bound (about 46 ms) still costs less
_SCAN_WORK = 1 << 17


def cross_check(checked: Sequence[tuple], points_per_axis: int, tol_feas: float):
    """``gsiplab verify``'s grid: for each ``(instance, outcome)`` pair of
    ``checked``, a subproblem (``gsip.SubproblemInstance``) and the outcome
    that ``minimize`` certified for it, yields, in order, the grid's outcome
    at ``tol_feas`` over ``points_per_axis`` points per axis, a
    ``MinimizeOutcome``, and whether the grid refutes the outcome's
    certified lower bound.

    The oracle is ``grid_minimize``, or for small grids its point-by-point
    scan, ``_grid_scan``, which returns the same outcome (see its docstring
    for where a value's NaN or zero sign may differ) by the kernels the
    solves made, and so loads neither numpy nor ``gsiplab.arrays``.  The
    work of the grids is counted before any is evaluated: over every pair,
    its grid's points times its trees, ``points_per_axis ** dims * (1 +
    constraints)``.  Where that is at most ``_SCAN_WORK``, every grid is
    scanned, where the scan's time is less than numpy's import; above it,
    the numpy oracle's per-point cost wins.

    A grid point below the certified lower bound ``value_bounds.lo``
    refutes it: for an infeasible outcome (+inf), any point that passes
    ``tol_feas``; for an optimal one, a point that passes the constraints
    exactly (``tol_feas=0.0``), the points its bound holds for, which are
    gridded again only where the ``tol_feas`` grid's minimum lies below the
    bound, as none of them lies below that minimum.  An outcome without
    bounds is refuted by nothing.  The pairs are checked one at a time, as
    the caller asks for them."""
    work = sum(points_per_axis ** len(inst.box.names) * (1 + len(inst.constraints))
               for inst, _ in checked)
    oracle = _grid_scan if work <= _SCAN_WORK else grid_minimize
    for inst, bnb in checked:
        args = inst.objective, inst.constraints, inst.box, points_per_axis
        grid = oracle(*args, tol_feas=tol_feas, parameters=inst.parameters)
        bounds = bnb.value_bounds
        refuted = bounds is not None and grid.optimal and grid.value < bounds.lo
        if refuted and bnb.optimal:
            exact = oracle(*args, tol_feas=0.0, parameters=inst.parameters)
            refuted = exact.optimal and exact.value < bounds.lo
        yield grid, refuted
