"""Shared randomized generators for the fuzz and oracle-agreement suites."""
from __future__ import annotations

import math
import random

import numpy as np
from hypothesis import settings

from gsiplab import expr as ex
from gsiplab.domains import BoxDomain
from gsiplab.globalopt import ConstraintSpec
from gsiplab.gsip import GsipProblem

# Tier-1 runs are reproducible: each test draws its examples from a fixed seed
# and replays no example database.  Explore with fresh random examples through
# ``pytest --hypothesis-profile default``.
settings.register_profile("tier1", derandomize=True, database=None)
settings.load_profile("tier1")


def reference_array(e: ex.Expr, env):
    """The recursive walk over numpy arrays, ``evaluate_array``'s and (with
    ``reference_grid``) the grid kernel's bit-for-bit reference: ``expr``'s
    walker with Python's operators for neg, add, sub and mul, and this
    domain for the rest.  Its values are fresh arrays, except a variable's,
    which is the caller's own."""
    def divide(a, b):
        if np.any(b == 0.0):
            raise ex.EvaluationError("division by zero")
        return a / b
    return ex._walker(lambda v: v, divide, np.float_power, np.minimum,
                      np.maximum)(e, env)


def reference_grid(e: ex.Expr, env):
    """The reference walk over arrays under the grid kernel's rule: a point
    where a divisor is zero fails, as a point that fails a constraint does,
    where ``reference_array`` raises.  Its ``(passed, values)``: which points
    every divisor's test passes (a bool, or a boolean array over the axes
    the divisors span) and the walk's values, bit for bit ``reference_array``'s
    where it raises nothing.  It runs under ``np.errstate``, as a kernel
    that divides by an array does."""
    passed = True

    def divide(a, b):
        nonlocal passed
        passed = passed & (b != 0.0)
        try:
            return a / b
        except ZeroDivisionError:   # float by float: no point passes
            return math.nan
    with np.errstate(divide="ignore", invalid="ignore"):
        values = ex._walker(lambda v: v, divide, np.float_power, np.minimum,
                            np.maximum)(e, env)
    return passed, values


class ReferenceInterval(ex.Interval):
    """An ``Interval`` with the natural interval arithmetic, operation by
    operation as the interval kernels compute it: each result is a new
    ``ReferenceInterval``, whose constructor raises ``EmptyIntervalError``
    where the kernels check their pairs."""

    def __add__(self, other):
        return ReferenceInterval(self.lo + other.lo, self.hi + other.hi)

    def __sub__(self, other):
        return ReferenceInterval(self.lo - other.hi, self.hi - other.lo)

    def __neg__(self):
        return ReferenceInterval(-self.hi, -self.lo)

    def __mul__(self, other):
        p = (self.lo * other.lo, self.lo * other.hi,
             self.hi * other.lo, self.hi * other.hi)
        return ReferenceInterval(min(p), max(p))

    def divide(self, other):
        if other.lo <= 0.0 <= other.hi:
            raise ex.EvaluationError("division by an interval containing zero")
        return self * ReferenceInterval(1.0 / other.hi, 1.0 / other.lo)

    def __pow__(self, n):
        if n == 0:
            return ReferenceInterval(1.0, 1.0)
        if n % 2 == 1:
            return ReferenceInterval(self.lo ** n, self.hi ** n)
        # even power: tighten to [0, max^n] when the interval straddles zero
        hi_abs = max(abs(self.lo), abs(self.hi))
        if self.lo <= 0.0 <= self.hi:
            return ReferenceInterval(0.0, hi_abs ** n)
        lo_abs = min(abs(self.lo), abs(self.hi))
        return ReferenceInterval(lo_abs ** n, hi_abs ** n)

    def min_with(self, other):
        return ReferenceInterval(min(self.lo, other.lo), min(self.hi, other.hi))

    def max_with(self, other):
        return ReferenceInterval(max(self.lo, other.lo), max(self.hi, other.hi))


def reference_interval(e: ex.Expr, env):
    """The recursive walk over intervals, the interval kernels' bit-for-bit
    reference: ``expr``'s walker with ``ReferenceInterval``'s arithmetic.
    ``env`` maps each name to its ``(lo, hi)`` pair."""
    return ex._walker(lambda v: ReferenceInterval(v, v), ReferenceInterval.divide,
                      pow, ReferenceInterval.min_with, ReferenceInterval.max_with)(
        e, {n: ReferenceInterval(*b) for n, b in env.items()})


def random_expr(rng: random.Random, names, depth: int, allow_div: bool = True):
    """Random well-formed expression tree over the given variable names."""
    if depth == 0 or rng.random() < 0.3:
        if names and rng.random() < 0.6:
            return ex.var(rng.choice(names))
        return ex.const(rng.uniform(-5.0, 5.0))
    kinds = ["add", "sub", "mul", "neg", "pow", "min", "max"]
    if allow_div:
        kinds.append("div")
    k = rng.choice(kinds)
    if k == "neg":
        return ex.neg(random_expr(rng, names, depth - 1, allow_div))
    if k == "pow":
        return ex.ipow(random_expr(rng, names, depth - 1, allow_div), rng.randint(0, 4))
    if k == "div":
        # constant divisor bounded away from zero keeps every evaluation finite
        mag = rng.uniform(0.5, 3.0)
        divisor = ex.const(mag if rng.random() < 0.5 else -mag)
        return ex.div(random_expr(rng, names, depth - 1, allow_div), divisor)
    a = random_expr(rng, names, depth - 1, allow_div)
    b = random_expr(rng, names, depth - 1, allow_div)
    return {"add": ex.add, "sub": ex.sub, "mul": ex.mul,
            "min": ex.emin, "max": ex.emax}[k](a, b)


def random_box(rng: random.Random, names) -> BoxDomain:
    coords = []
    for n in names:
        lo = rng.uniform(-3.0, 3.0)
        coords.append((n, lo, lo + rng.uniform(0.05, 2.0)))
    return BoxDomain(coords)


def sample_point(rng: random.Random, box: BoxDomain) -> dict[str, float]:
    return {n: rng.uniform(lo, hi) for n, lo, hi in box.coords}


def shrink_box(rng: random.Random, box: BoxDomain) -> BoxDomain:
    coords = []
    for n, lo, hi in box.coords:
        a = rng.uniform(lo, hi)
        b = rng.uniform(lo, hi)
        coords.append((n, min(a, b), max(a, b)))
    return BoxDomain(coords)


def random_polynomial(rng: random.Random, names, max_degree: int = 4,
                      max_terms: int = 5):
    """Sparse polynomial built from random monomials of total degree <= max_degree."""
    terms = []
    for _ in range(rng.randint(1, max_terms)):
        degrees = []
        budget = max_degree
        for n in names:
            d = rng.randint(0, budget)
            degrees.append(d)
            budget -= d
        term = ex.const(rng.uniform(-3.0, 3.0))
        for n, d in zip(names, degrees):
            if d:
                term = ex.mul(term, ex.ipow(ex.var(n), d))
        terms.append(term)
    poly = terms[0]
    for t in terms[1:]:
        poly = ex.add(poly, t)
    return poly


def random_poly_instance(seed: int):
    """Objective, constraints, box for the oracle-agreement suite."""
    rng = random.Random(seed)
    names = ["u", "v"][: rng.randint(1, 2)]
    box = random_box(rng, names)
    objective = random_polynomial(rng, names)
    constraints = tuple(
        ConstraintSpec(random_polynomial(rng, names, max_terms=3),
                       rng.choice(["le", "ge"]))
        for _ in range(rng.randint(0, 2)))
    return objective, constraints, box


def random_problem(rng: random.Random) -> GsipProblem:
    n_out = rng.randint(1, 2)
    n_in = rng.randint(1, 2)
    outer = []
    for i in range(n_out):
        lo = rng.uniform(-4.0, 4.0)
        outer.append((f"p{i}", lo, lo + rng.uniform(0.1, 3.0)))
    inner = []
    for i in range(n_in):
        lo = rng.uniform(-4.0, 4.0)
        inner.append((f"q{i}", lo, lo + rng.uniform(0.1, 3.0)))
    outer_names = [n for n, _, _ in outer]
    all_names = outer_names + [n for n, _, _ in inner]
    return GsipProblem(
        name=f"fuzz_{rng.randint(0, 10**6)}",
        X=BoxDomain(outer), Y=BoxDomain(inner),
        f=random_expr(rng, outer_names, rng.randint(1, 4)),
        g=random_expr(rng, all_names, rng.randint(1, 4)),
        h=tuple(random_expr(rng, all_names, rng.randint(1, 3))
                for _ in range(rng.randint(1, 3))),
        f_star=rng.uniform(-10, 10) if rng.random() < 0.5 else None,
        f_L=rng.uniform(-10, 10) if rng.random() < 0.5 else None,
    )
