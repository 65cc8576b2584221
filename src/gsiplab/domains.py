"""Axis-aligned boxes with named coordinates.

A box stores its names and its ``(lo, hi)`` pairs separately, in coordinate
order; the pairs are the format the compiled interval kernels take
(``expr.compile_expr``), so a solver passes ``box.bounds`` to them as is.
``corner_values`` is the one rule for a box's corners, ``midpoint_value``
the one rule for its midpoint, and ``split`` the one rule for bisection:
whether a box can be cut and where, the plane ``bisect`` cuts it at.
"""
from __future__ import annotations

import itertools
import math
from typing import Iterable, Mapping, Optional

from .expr import Interval
from .immutable import frozen


# a box no wider than this is not cut
MIN_WIDTH = 1e-9


def corner_values(bound: tuple[float, float]) -> tuple[float, ...]:
    """A coordinate's values at the corners of a box: both ends, or the one
    value of a degenerate axis."""
    lo, hi = bound
    return (lo,) if lo == hi else (lo, hi)


def midpoint_value(bound: tuple[float, float]) -> float:
    """A coordinate's value at the midpoint of a box: ``0.5 * (lo + hi)``, or
    ``0.5 * lo + 0.5 * hi`` where that sum overflows, since both halves are
    exact there.  For finite bounds either is finite and, rounding being
    monotone, lies in ``[lo, hi]``."""
    lo, hi = bound
    mid = 0.5 * (lo + hi)
    return mid if math.isfinite(mid) else 0.5 * lo + 0.5 * hi


def split(bounds) -> Optional[tuple[int, float]]:
    """Where a box of ``(lo, hi)`` pairs is cut: its widest axis (the first
    of equals) and that axis's midpoint.  ``None`` when the box cannot be
    cut: it has no axes, it is no wider than ``MIN_WIDTH``, or the midpoint
    is one of the axis's ends, as between two adjacent floats."""
    if not bounds:
        return None
    widths = [hi - lo for lo, hi in bounds]
    i = widths.index(max(widths))
    lo, hi = bounds[i]
    mid = midpoint_value(bounds[i])
    return (i, mid) if widths[i] > MIN_WIDTH and lo < mid < hi else None


@frozen
class BoxDomain:
    """Ordered list of (variable name, lo, hi) with lo <= hi and unique names."""

    names: tuple[str, ...]
    bounds: tuple[tuple[float, float], ...]

    def __init__(self, coords: Iterable[tuple[str, float, float]]):
        coords = tuple((str(n), float(lo), float(hi)) for n, lo, hi in coords)
        object.__setattr__(self, "names", tuple(n for n, _, _ in coords))
        object.__setattr__(self, "bounds", tuple((lo, hi) for _, lo, hi in coords))
        seen = set()
        for n, lo, hi in coords:
            if n in seen:
                raise ValueError(f"duplicate coordinate name {n!r}")
            seen.add(n)
            if not (math.isfinite(lo) and math.isfinite(hi)):
                raise ValueError(f"bounds of {n!r} must be finite")
            if lo > hi:
                raise ValueError(f"bounds of {n!r} are empty: [{lo}, {hi}]")

    @property
    def coords(self) -> tuple[tuple[str, float, float], ...]:
        """The (name, lo, hi) triples the constructor takes."""
        return tuple((n, lo, hi) for n, (lo, hi) in zip(self.names, self.bounds))

    @property
    def dim(self) -> int:
        return len(self.names)

    def intervals(self) -> dict[str, Interval]:
        return {n: Interval(lo, hi) for n, (lo, hi) in zip(self.names, self.bounds)}

    def midpoint(self) -> dict[str, float]:
        return dict(zip(self.names, map(midpoint_value, self.bounds)))

    def corners(self) -> list[dict[str, float]]:
        """Every corner once, the first coordinate varying slowest."""
        return [dict(zip(self.names, p))
                for p in itertools.product(*map(corner_values, self.bounds))]

    def bisect(self) -> tuple["BoxDomain", "BoxDomain"]:
        """The halves ``split`` cuts the box into; ``ValueError`` if it cannot."""
        cut = split(self.bounds)
        if cut is None:
            raise ValueError(f"box too narrow to bisect: {self.coords}")
        i, mid = cut
        lo, hi = self.bounds[i]
        head, tail = self.bounds[:i], self.bounds[i + 1:]
        return (_validated(self.names, head + ((lo, mid),) + tail),
                _validated(self.names, head + ((mid, hi),) + tail))

    def contains(self, point: Mapping[str, float], slack: float = 0.0) -> bool:
        try:
            return all(lo - slack <= point[n] <= hi + slack
                       for n, (lo, hi) in zip(self.names, self.bounds))
        except KeyError:
            return False


def _validated(names, bounds) -> BoxDomain:
    """A BoxDomain over coordinates already known to be valid."""
    box = object.__new__(BoxDomain)
    object.__setattr__(box, "names", names)
    object.__setattr__(box, "bounds", bounds)
    return box
