"""Certified box-constrained global minimization.

Two engines share one outcome type:

* ``minimize`` -- deterministic best-first interval branch-and-bound over
  compiled kernels (``expr.compile_expr``), which the tests pin bit for bit
  to the recursive walks over floats and intervals (``expr.evaluate`` and
  ``tests/conftest.py::reference_interval``).  The kernels take the box's
  variables, then the bound values (``parameters``): variables held fixed,
  which are appended to every call, as floats to a point and as ``(v, v)``
  pairs to a box, and never bisected.
  A tree keeps its kernels, so a tree that many solves share compiles once,
  and a solve binds its objective and constraints by one rule, stated in
  ``ConstraintSpec.bind`` and ``_Binding``: what the bound values do not
  decide once per tree and names, the rest once per spec (per solve for
  the objective); each push, the root's and every child's alike, analyses
  a constraint through its binding, which keeps its answers for the last
  box it was asked about.
  Incumbents are candidates that pass the ``tol_feas`` check: box midpoints
  and corners, the corners a contraction gives a box, and one secant step
  at the root.  The first one becomes the incumbent even if its value is
  +inf, and later ones must pass the strict ``v < best`` update test, so a
  point offered again could not change the incumbent; a solve keeps the set
  of points it has offered, and offers none twice.  A child offers only its
  corners (``domains.corner_values``) on the split plane, the others being
  its parent's, so the padded corners of a contracted box, one float
  outside the ends that were offered, are never offered; a box that the
  monotonicity test below reduces to a point, one of its corners, offers
  nothing; and the secant step is offered only where it moved.  A node
  leaves the search certified infeasible by a constraint's interval bound
  or by the contraction, contributing nothing, or settled, contributing
  its objective lower bound ``lb`` to one minimum: retired at
  the heap front when ``domains.split``, the one bisection rule, cannot cut
  it, whatever its midpoint, or set aside by the one comparison
  ``lb >= best - tol_opt``, at push and at the heap front, where it stops
  the search.  The bracket is ``[min(settled lbs, best), best]``.  ``infeasible`` needs every leaf
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

  Before a box is bounded, queued or offers candidates, it is contracted
  against each constraint its interval tests leave undecided: mean-value
  contraction, also called interval Newton or box consistency (Hansen &
  Walster, ch. 6 and 10; Benhamou, Goualard, Granvilliers & Puget,
  "Revising hull and box consistency", ICLP 1999).  With m the box's
  midpoint and D the interval gradient of the signed value s over the box
  (``expr.compile_gradient``, along the box's coordinates), every point x
  kept satisfies ``s(m) + sum_i D_i (x_i - m_i) <= target``; solved for each
  coordinate and intersected with the box, with each new end moved outward
  by one float, this gives the contracted box (``_contract``), one per
  constraint, and the box kept is their intersection (``_meet``, one pass
  over the axes however many constraints there are).  The target is 0, the
  exact constraint: a minimizer on a constraint's boundary, as in every
  lower-bounding solve of the paper's loops, becomes a corner of the
  contracted box, whose new corners are offered at once, at the ends as
  rounded to nearest, and the box's bound then settles it without a
  bisection.  Where the boxes contracted to 0 do not meet, the boxes
  contracted to ``tol_feas``, which hold them, are intersected instead, and
  only an empty ``tol_feas`` intersection certifies a box infeasible, so
  ``infeasible`` keeps its meaning and the grid oracle, which tests
  ``tol_feas``, still agrees with it.  A contraction to 0 may cut away
  points that pass the ``tol_feas`` test, so ``value_bounds.lo`` bounds the
  minimum over the exactly feasible points, as well as the incumbent's
  value, and a grid cross-check of it takes the grid points that pass the
  constraints exactly (``grid_minimize(..., tol_feas=0.0)``, as
  ``gsiplab verify`` does).  The contraction evaluates each undecided
  constraint once at m, and m's own feasibility test reads those values;
  the midpoint of a contracted box is offered when the box is cut.  Its arithmetic rounds to
  nearest, as the interval kernels do, the outward step being its margin.

  The secant step is the local step that interval codes add to sharpen the
  incumbent (Hansen & Walster).  When the root is queued, not settled, its
  queued box, after the contraction and the monotonicity test above,
  offers its midpoint with each coordinate moved to the regula-falsi zero
  of the objective's partial derivative between the centres of the two
  faces across that axis (``expr.compile_gradient`` on the faces' centres
  as boxes of one point), where the derivative is < 0 at the lower face
  and > 0 at the upper one and the zero lies strictly inside the box.  The
  step is exact where the objective is quadratic along each axis, as every
  LLP of the paper's counterexample is, so the first comparison at the
  heap front stops such a search at its root, where bisection alone would
  go some 20 levels down to put a candidate within the square root of
  ``tol_opt`` of an interior minimizer.  It costs two gradient-kernel
  calls per axis and is not offered where it is the midpoint.  It adds a
  candidate, not a bound, so ``value_bounds`` stays certified.

* ``grid_minimize`` -- brute-force evaluation on the full tensor grid,
  kept deliberately independent of the interval machinery that certifies
  ``minimize``'s bounds, so that it can serve as a cross-checking oracle.
  It evaluates through ``evaluate_array``'s array kernels, which share no
  code with the point and interval kernels, and which the tests pin bit for
  bit to the recursive walk over arrays.  Grid points are feasible by
  ``ConstraintSpec.satisfied``, the rule ``minimize`` applies to its
  candidates, and a point whose value is NaN is never the minimum, as a NaN
  is never ``minimize``'s incumbent.  The grid is evaluated in blocks of
  rows of its first axis, so that a block's arrays stay in cache.  A block
  evaluates its constraints before its objective, and once none of its
  points passes, it skips the trees that no feasible point needs, save
  those that can raise ``EvaluationError``.  It proves no bound.  It is
  the only user of numpy here and imports it, and ``gsiplab.arrays``, when
  called.
"""
from __future__ import annotations

import heapq
import itertools
import math
from typing import Optional, Sequence

from .domains import BoxDomain, _validated, corner_values, midpoint_value, split
# minimize calls neither evaluate nor interval_eval; they stay bound here
# because bench/tracer.py counts the point and interval evaluations made
# through these names
from .expr import (Expr, Interval, compile_expr, compile_gradient,  # noqa: F401
                   evaluate, evaluate_array, interval_eval)
from .immutable import frozen


_BOUND = "_bound"  # the attribute of a spec that holds its bindings (_Binding)
_FORMS = "_forms"  # the attribute of a tree that holds its binding forms (_Form)

# the outcomes of a constraint's interval test on a box
VIOLATED, UNDECIDED, SATISFIED = "violated", "undecided", "satisfied"


class NodeBudgetExceeded(RuntimeError):
    """Branch-and-bound exhausted its node budget before certifying a result."""


class UndecidedError(RuntimeError):
    """Branch-and-bound found no feasible point but settled some boxes."""


@frozen
class ConstraintSpec:
    """Inequality ``expr <= 0`` (sense "le") or ``expr >= 0`` (sense "ge").

    One rule decides feasibility: the signed value, ``sign * expr``, is at
    most ``tol_feas``.  Negation is exact and a NaN fails, so "ge" means
    ``expr >= -tol_feas``.  ``parameters`` are bound values, ``(name,
    value)`` pairs: variables of ``expr`` that the solver holds fixed and
    never bisects.

    A spec keeps its bindings (``bind``), keyed by the box's names and the
    tolerance, as a tree keeps its compiled kernels.  The fields do not
    change, so equality, hashing and ``repr`` ignore the bindings, and
    copies and pickles leave them out."""

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
        """Whether ``value`` (a float, or elementwise an array) passes: the
        rule above, written ``value <= tol_feas`` for "le" and ``value >=
        -tol_feas`` for "ge", which is the same test, as negation is exact
        and a NaN fails both, with no array of signed values built."""
        if self.sense == "le":
            return value <= tol_feas
        return value >= -tol_feas

    def bind(self, names: Sequence[str], tol_feas: float) -> "_Binding":
        """The spec bound over points and boxes of ``names`` at ``tol_feas``
        (``_Binding``), made at the first request and kept on the spec (a
        ``@frozen`` value: the attribute goes straight into its ``__dict__``,
        outside its fields).

        The binding rule: the part of a binding that the bound values do not
        decide -- the check that none is named like a coordinate, and the
        tree's kernels over the names, then theirs -- is made once per tree
        and names and kept on the tree (``_Form``), where each solve's
        objective fetches it too; a spec's binding adds its own values, their
        ``(v, v)`` pairs and its kept analysis.  So a spec that a loop builds
        afresh at each iterate binds at the cost of splitting its values."""
        kept = self.__dict__.get(_BOUND)
        if kept is None:
            kept = self.__dict__[_BOUND] = {}
        key = (tuple(names), tol_feas)
        k = kept.get(key)
        if k is None:
            k = kept[key] = _Binding(self, *key)
        return k


class _Form:
    """The part of a binding that its bound values do not decide
    (``ConstraintSpec.bind``): a tree's point, interval and gradient kernels
    over a box's ``names`` followed by the bound values' ``pnames``, made
    once the two are known to share no name."""

    __slots__ = ("point", "interval", "gradient")

    def __init__(self, expr: Expr, names: tuple[str, ...], pnames: tuple[str, ...]):
        _disjoint(names, pnames)
        self.point, self.interval = compile_expr(expr, (*names, *pnames))
        self.gradient = compile_gradient(expr, names, pnames)


def _form(expr: Expr, names: tuple[str, ...], pnames: tuple[str, ...]) -> _Form:
    """``expr``'s ``_Form`` over ``names`` then ``pnames``, made at the first
    request and kept on the tree, beside its kernels."""
    kept = expr.__dict__.get(_FORMS)
    if kept is None:
        kept = expr.__dict__[_FORMS] = {}
    key = (names, pnames)
    form = kept.get(key)
    if form is None:
        form = kept[key] = _Form(expr, *key)
    return form


def _disjoint(names: tuple[str, ...], pnames: tuple[str, ...]) -> None:
    """Raise ``ValueError`` where a bound value is named like a coordinate
    of the box."""
    if set(pnames) & set(names):
        raise ValueError(f"bound values {pnames} share names with the box {names}")


def _split(parameters: Sequence[tuple[str, float]]):
    """The names and the values of bound values given as ``(name, value)``
    pairs, as two tuples."""
    return tuple(zip(*parameters)) or ((), ())


class _Binding:
    """A spec bound over one box's names and a tolerance
    (``ConstraintSpec.bind``), and its analysis of the last box a solve asked
    about.

    ``satisfied(point)`` is whether a point passes ``satisfied``;
    ``decide(bounds)`` whether a box of ``(lo, hi)`` pairs is certified to
    violate the constraint (``VIOLATED``), certified to satisfy it at every
    point (``SATISFIED``) or neither (``UNDECIDED``), by the signed value's
    interval.  ``cut(bounds, mid)`` is the analysis of a box on which
    ``decide`` left the constraint undecided, ``mid`` being its midpoint:
    the signed value at ``mid``, which passes ``satisfied`` exactly where it
    is at most the tolerance, the signed value's interval gradient over the
    box (``expr.compile_gradient``, along the box's names), and the box
    contracted to the target 0 (``_contract``, None where that is empty).
    Every kernel call appends the spec's bound values: as floats to a point,
    as ``(v, v)`` pairs to a box.

    The kernels are the tree's ``_Form``, shared by every spec on the tree
    bound over the same names; the rest is the spec's own.  ``decide`` and
    ``cut`` keep their answers for the last box they were asked about, and
    give them again when asked about that box: a box is the same when its
    bounds are the same tuple object, which cannot change (an equal tuple
    may hold a zero of the other sign), and which the entry holds, so its
    identity cannot pass to another box; the bound values are the binding's
    own and never change, so the entry cannot answer for other values; and
    the entry is replaced whole, so it always holds one box's own answers.
    Every push, the root's and each child's alike, goes through them, so a
    cut that the lower-bounding solves of a loop share, each from the box X
    with one cut more than the last and each settled at X, is analysed there
    once per run; after a solve that bisects, the entry holds a child's
    answers, and the next solve from X makes the root's again.  A binding
    refers to its form, its values and its entry, none of which refers back,
    so it is no reference cycle and is freed with its spec by reference
    counting alone."""

    __slots__ = ("form", "sign", "tol_feas", "values", "pairs", "last")

    def __init__(self, spec: ConstraintSpec, names: tuple[str, ...], tol_feas: float):
        pnames, values = _split(spec.parameters)
        self.form = _form(spec.expr, names, pnames)
        self.sign, self.tol_feas = spec.sign, tol_feas
        self.values, self.pairs = values, tuple(zip(values, values))
        self.last = (None, None, None)   # a box's bounds, its verdict, its cut

    def satisfied(self, x) -> bool:
        return self.sign * self.form.point(x + self.values) <= self.tol_feas

    def decide(self, bounds) -> str:
        kept, verdict, _ = self.last
        if kept is not bounds or verdict is None:
            lo, hi = self.form.interval(bounds + self.pairs)
            if self.sign < 0.0:
                lo, hi = -hi, -lo
            tol_feas = self.tol_feas
            verdict = (VIOLATED if lo > tol_feas else
                       SATISFIED if hi <= tol_feas else UNDECIDED)
            self.last = (bounds, verdict, None)
        return verdict

    def cut(self, bounds, mid):
        kept, verdict, c = self.last
        if kept is not bounds or c is None:
            sign, form = self.sign, self.form
            slopes = form.gradient(bounds + self.pairs)[1]
            if sign < 0.0:
                slopes = [(-hi, -lo) for lo, hi in slopes]
            value = sign * form.point(mid + self.values)
            c = value, slopes, _contract(bounds, mid, value, slopes, 0.0)
            self.last = (bounds, verdict if kept is bounds else None, c)
        return c


@frozen
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


def _contract(bounds, mid, value, slopes, target):
    """Mean-value contraction of a box by a signed constraint ``s``: the
    bounds of the hull of the box's points where ``s`` can be at most
    ``target``, or None where there are none.

    ``value`` is s at ``mid``, a point of the box, and ``slopes`` the
    interval gradient D of s over the box, so s(x) lies in s(m) +
    sum_i D_i (x_i - m_i) at every point x of the box.  A point with
    s(x) <= target thus has, along each axis i, a slope d in D_i with
    d (x_i - m_i) <= b_i, where b_i is the target less s(m) and less the
    least sum_{j != i} D_j (X_j - m_j).  The x_i that do form one interval
    around m_i where b_i >= 0, and two pieces, one on each side of m_i,
    where b_i < 0; a slope range that holds 0 leaves a side unbounded.  The
    hull of the pieces within X_i, each new end moved outward by one float
    (``math.nextafter``), replaces X_i.  A value that is not finite cuts
    nothing, and where b_i >= 0 an infinite slope bounds nothing, as
    b_i / inf would cut at m_i itself.  Every end is monotone in
    ``target``, so a box contracted to a lower target lies inside the one
    contracted to a higher target."""
    if not math.isfinite(value):
        return bounds
    # the least of D_j (x_j - m_j) over X_j: an offset of 0 adds 0 whatever
    # the slope, as the box holds no other value there
    least = [min(dh * (lo - m) if lo != m else 0.0, dl * (hi - m) if hi != m else 0.0)
             for (lo, hi), m, (dl, dh) in zip(bounds, mid, slopes)]
    inf, step = math.inf, math.nextafter
    box = []
    for i, ((lo, hi), m, (dl, dh)) in enumerate(zip(bounds, mid, slopes)):
        b = target - value - sum(least[:i] + least[i + 1:])
        if b >= 0.0:
            # m_i is kept: below it a negative slope bounds x_i, above it a
            # positive one
            a = max(lo, step(m + b / dh, -inf)) if -inf < dh < 0.0 else lo
            z = min(hi, step(m + b / dl, inf)) if 0.0 < dl < inf else hi
        else:
            # m_i is not: a piece below it ending at z, where a positive
            # slope lets s fall, one above it starting at a, where a negative
            # one does; their hull
            z = min(hi, step(m + b / dh, inf)) if dh > 0.0 else -inf
            a = max(lo, step(m + b / dl, -inf)) if dl < 0.0 else inf
            a, z = (lo if lo <= z else a), (hi if a <= hi else z)
        if a > z:
            return None
        box.append((a, z))
    return tuple(box)


def _meet(bounds, boxes):
    """The intersection of a box's bounds with each box of ``boxes``, None
    where it is empty or one of them is None, in one pass over the axes.

    An end gives way only to a strictly tighter one, taken in the order of
    ``boxes``, as ``max`` and ``min`` keep the first of equal values, so the
    result, a zero end's sign included, is that of folding a two-box meet
    over ``boxes``; the ends only tighten, so an axis such a fold would
    empty part way is empty at the end."""
    if not boxes:
        return bounds
    if None in boxes:
        return None
    out = []
    for i, (lo, hi) in enumerate(bounds):
        for box in boxes:
            a, z = box[i]
            if a > lo:
                lo = a
            if z < hi:
                hi = z
        if lo > hi:
            return None
        out.append((lo, hi))
    return tuple(out)


def _new_corners(old, new):
    """The corners of the box ``new``, contracted from ``old``, that are not
    corners of ``old``, taken at the ends as rounded to nearest: a moved end
    one float inward, which undoes ``_contract``'s outward step (``+ 0.0``
    makes the -0.0 that steps up from -5e-324 the 0.0 it came from)."""
    axes = []
    for (olo, ohi), (lo, hi) in zip(old, new):
        a = math.nextafter(lo, hi) + 0.0 if lo > olo else lo
        z = math.nextafter(hi, lo) + 0.0 if hi < ohi else hi
        axes.append((a,) if a == z else (a, z))
    return [corner for corner in itertools.product(*axes)
            if any(v != lo and v != hi for v, (lo, hi) in zip(corner, old))]


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
    pnames, values = _split(parameters)
    form = _form(objective, names, pnames)
    obj_point, obj_interval, obj_gradient = form.point, form.interval, form.gradient
    pairs = tuple(zip(values, values))
    bindings = [c.bind(names, tol_feas) for c in constraints]

    heap: list = []
    counter = itertools.count()
    best_val = math.inf
    best_pt: Optional[tuple[float, ...]] = None
    settled_lb = math.inf  # least lb of the settled nodes
    settled = False
    offered = set()  # the points offered, and midpoints known infeasible

    def consider(point, active, checked: bool = False) -> None:
        """Offer a candidate incumbent from a box on which the constraints
        outside ``active`` are certified satisfied; ``checked`` when the
        point is known to pass the tests of ``active``.  A point offered
        before is skipped."""
        nonlocal best_val, best_pt
        if point in offered:
            return
        offered.add(point)
        if not checked:
            for j in active:
                if not bindings[j].satisfied(point):
                    return
        v = obj_point(point + values)
        if v < best_val or (best_pt is None and v == math.inf):
            # the interval kernels round to nearest, so a constraint they
            # certified satisfied can still fail the point test by an ulp:
            # a new incumbent also passes the point tests outside ``active``
            if len(active) < len(bindings):
                inside = set(active)
                if not all(k.satisfied(point) for j, k in enumerate(bindings)
                           if j not in inside):
                    return
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
        slopes = obj_gradient(bounds + pairs)[1]
        return tuple((lo, lo) if dlo >= 0.0 else (hi, hi) if dhi <= 0.0 else (lo, hi)
                     for (lo, hi), (dlo, dhi) in zip(bounds, slopes))

    def secant(bounds):
        """The box's midpoint with each coordinate moved to the regula-falsi
        zero of the objective's partial derivative along it, taken at the
        centres of the two faces across it: where the derivative is < 0 at
        the lower face and > 0 at the upper one, and the zero lies strictly
        inside the box.  Exact where the objective is quadratic along that
        axis; a NaN derivative fails both tests and keeps the midpoint's."""
        mid = tuple(map(midpoint_value, bounds))
        at = tuple((v, v) for v in mid)
        point = list(mid)
        for i, (lo, hi) in enumerate(bounds):
            if lo < hi:
                dl = obj_gradient(at[:i] + ((lo, lo),) + at[i + 1:] + pairs)[1][i][1]
                dh = obj_gradient(at[:i] + ((hi, hi),) + at[i + 1:] + pairs)[1][i][0]
                if dl < 0.0 < dh:
                    r = lo - dl * (hi - lo) / (dh - dl)
                    if lo < r < hi:
                        point[i] = r
        return tuple(point), mid

    def push(b: BoxDomain, corners, active) -> None:
        """Contract a box, bound it, then queue or settle it.  ``corners``
        are the box's corners to offer, ``active`` the constraints not
        certified satisfied on its parent."""
        bounds = b.bounds
        # every verdict before any cut, so a violated constraint costs no
        # gradient
        undecided = []
        for j in active:
            verdict = bindings[j].decide(bounds)
            if verdict is VIOLATED:
                return
            if verdict is UNDECIDED:
                undecided.append(j)
        mid = tuple(map(midpoint_value, bounds))
        passes = True
        cuts = []
        for j in undecided:
            # one point evaluation per constraint at mid serves both the
            # contraction and mid's feasibility test
            c = bindings[j].cut(bounds, mid)   # value, slopes, box contracted to 0
            passes = passes and c[0] <= tol_feas
            cuts.append(c)
        # the box contracted to the exact target, or where the constraints'
        # boxes do not meet, to tol_feas, whose boxes hold the exact ones;
        # where those do not meet either, the box is certified infeasible
        contracted = _meet(bounds, [exact for _, _, exact in cuts])
        if contracted is None:
            contracted = _meet(bounds, [_contract(bounds, mid, value, slopes, tol_feas)
                                        for value, slopes, _ in cuts])
            if contracted is None:
                return
        if passes:
            consider(mid, undecided, checked=True)
        else:
            offered.add(mid)
        for corner in corners:
            consider(corner, undecided)
        if contracted != bounds:
            for corner in _new_corners(bounds, contracted):
                consider(corner, undecided)
            bounds = contracted
            b = _validated(names, bounds)
        lb = obj_interval(bounds + pairs)[0]
        if settle(lb):
            return
        if not undecided:
            reduced = monotone(bounds)
            if reduced != bounds:
                # the reduced box's corners are corners of b, whose padded
                # ones, of a contracted box, are skipped on purpose (see the
                # bisection below), so a box reduced to a point offers nothing
                if any(lo != hi for lo, hi in reduced):
                    consider(tuple(map(midpoint_value, reduced)), ())
                lb = obj_interval(reduced + pairs)[0]
                if settle(lb):
                    return
                b = _validated(names, reduced)
        heapq.heappush(heap, (lb, next(counter), b, undecided))

    push(box, itertools.product(*map(corner_values, box.bounds)),
         range(len(constraints)))
    if heap:
        # the root did not settle: its queued box, contracted and reduced,
        # offers the secant step, which the first settle below then reads
        _, _, b, active = heap[0]
        point, mid = secant(b.bounds)
        if point != mid:
            consider(point, active)
    pops = 0
    while heap:
        lb, _, b, active = heapq.heappop(heap)
        if settle(lb):
            break  # b had the least lb of the nodes left in the heap
        at = split(b.bounds)
        if at is None:
            settle(lb, retired=True)
            continue
        pops += 1
        if pops > node_budget:
            raise NodeBudgetExceeded(f"node budget {node_budget} exhausted")
        left, right = b.bisect()
        # A child's corners off the split plane are corners of b, so the
        # children offer only the plane corners.  The corners a contraction
        # gave b lie one float outside the ends, rounded to nearest, that
        # were offered; they are skipped on purpose, at the cost of at most
        # an ulp-scale gap between the incumbent and the lower bound, which
        # tol_opt covers.
        i, mid = at
        plane = list(itertools.product(*[
            (mid,) if j == i else corner_values(p) for j, p in enumerate(b.bounds)]))
        push(left, plane, active)
        push(right, plane, active)

    if best_pt is None:
        if settled:
            raise UndecidedError("no feasible point found, and boxes too "
                                 "narrow to bisect were not certified infeasible")
        return MinimizeOutcome("infeasible", value_bounds=Interval(math.inf, math.inf))
    return MinimizeOutcome("optimal", dict(zip(names, best_pt)), best_val,
                           Interval(min(settled_lb, best_val), best_val))


# the most grid points grid_minimize evaluates at once: few enough that a
# block's arrays stay in a core's cache, enough that a block's Python does not
# dominate
_BLOCK_POINTS = 1 << 15


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

    The variables are bound to an open grid: axis ``i`` is an array of shape
    ``(1, ..., n, ..., 1)``, whose values are ``np.linspace(lo, hi, n)``'s,
    bit for bit, built by its recipe (``arrays.linspace``), save where
    ``hi - lo`` overflows and that recipe's points are not finite.
    ``evaluate_array`` thus works on one axis's values until an operation
    mixes two axes, where broadcasting builds the full grid.  Broadcasting
    only repeats operands, so every grid value comes from the same float
    operations as on a dense grid, bit for bit.  The grid is evaluated in
    blocks of rows of the first axis, of at most ``_BLOCK_POINTS`` points
    (one row, if a row holds more), so that the arrays of a block stay in
    cache.  Each tree's values over a block are an ``arrays.OpenGrid``, one
    per tree for the whole call, in which only the first axis changes from
    block to block: so the tree's nodes that do not span that axis are
    computed once, at its first evaluation, and kept on it, and its other
    temporaries go into the thread's reused buffers, the same memory for
    every block and every call: at most as many buffers as a tree's kernel
    has temporaries live at once, each as long as the largest block seen.

    A block evaluates its constraints first, in their order, and its
    objective last; once no point of the block passes, the trees still to
    come are skipped, except those that can raise ``EvaluationError``
    (``arrays.can_raise``, decided when a tree's kernel is generated), so an
    error surfaces whether or not a point passes.

    The minimum is the first in C order among the grid points that are
    feasible and whose value is not NaN, as a NaN never becomes
    ``minimize``'s incumbent; a grid without such a point is infeasible.
    """
    # arrays imports numpy: compiled first, its transient memory is reused
    # by numpy's import instead of adding to the process's peak
    from .arrays import OpenGrid, can_raise, linspace

    import numpy as np

    n = points_per_axis
    if n < 2:
        raise ValueError("points_per_axis must be at least 2")
    dims = len(box.names)
    shape = (n,) * dims
    ticks = [linspace(lo, hi, n) for lo, hi in box.bounds]
    grid = [a.reshape((1,) * i + (-1,) + (1,) * (dims - 1 - i))
            for i, a in enumerate(ticks)]
    row = math.prod(shape[1:])
    rows = max(1, _BLOCK_POINTS // row)
    # each tree with the values of its names over a block (the box's axes,
    # then its bound values), its test (None for the objective) and whether
    # it can raise, which the names bound decide, not the block
    axes = dict(zip(box.names, grid))
    trees = []
    for e, bound, test in [*((c.expr, c.parameters, c.satisfied) for c in constraints),
                           (objective, parameters, None)]:
        env = OpenGrid(dims, axes)
        if bound:
            _disjoint(box.names, _split(bound)[0])   # as in minimize
            env.update(bound)
        trees.append((e, env, test, can_raise(e, env)))
    best = None   # the first minimum so far: (value, flat index)
    block = shape
    for start in range(0, n if dims else 1, rows):
        # rows [start, start + rows) of the first axis; a box without axes
        # is one block of one point, and a grid of one block keeps its axis
        if dims and rows < n:
            axis = grid[0][start:start + rows]
            for _, env, _, _ in trees:
                env[box.names[0]] = axis
            block = axis.shape[:1] + shape[1:]
        # which points pass the constraints evaluated so far; True, not an
        # array, until one is, so that the reduction below takes no mask
        ok = True
        live = True   # whether any point passes
        for e, env, test, raises in trees:
            if live or raises:
                # the values live in reused buffers until the next tree's
                # evaluation, so each is read before it
                vals = np.asarray(evaluate_array(e, env), dtype=float)
                if test is not None:
                    passed = test(vals, tol_feas)
                    ok = passed if ok is True else ok & passed
                    live = bool(ok.any())
        if not live:
            continue
        # the block's least feasible value, which fmin takes over the values
        # that are not NaN (+inf if there is none), and the first point in C
        # order that takes it, if one does
        if vals.shape != block:
            vals = np.broadcast_to(vals, block)
        least = np.fmin.reduce(vals, axis=None, where=ok, initial=np.inf)
        hits = vals == least
        if ok is not True:
            hits &= ok
        first = int(hits.argmax())
        if not hits.item(first):   # every feasible value is NaN
            continue
        if best is None or least < best[0]:
            best = float(least), start * row + first
    if best is None:
        return INFEASIBLE
    value, flat = best
    index = []   # the point's index along each axis, the last axis first
    for _ in ticks:
        flat, i = divmod(flat, n)
        index.append(i)
    point = {name: a.item(i) for name, a, i in zip(box.names, ticks, reversed(index))}
    return MinimizeOutcome("optimal", point, value)

