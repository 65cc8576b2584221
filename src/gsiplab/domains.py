"""Axis-aligned boxes with named coordinates.

A box stores its names and its ``(lo, hi)`` pairs separately, in coordinate
order; the pairs are the format the compiled interval kernels take
(``expr.compile_expr``), so a solver passes ``box.bounds`` to them as is.
``corner_values`` is the one rule for a box's corners.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Mapping

from .expr import Interval


def corner_values(bound: tuple[float, float]) -> tuple[float, ...]:
    """A coordinate's values at the corners of a box: both ends, or the one
    value of a degenerate axis."""
    lo, hi = bound
    return (lo,) if lo == hi else (lo, hi)


@dataclass(frozen=True)
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
        return {n: 0.5 * (lo + hi) for n, (lo, hi) in zip(self.names, self.bounds)}

    def corners(self) -> list[dict[str, float]]:
        """Every corner once, the first coordinate varying slowest."""
        return [dict(zip(self.names, p))
                for p in itertools.product(*map(corner_values, self.bounds))]

    @property
    def max_width(self) -> float:
        return max([hi - lo for lo, hi in self.bounds], default=0.0)

    def widest_index(self) -> int:
        widths = [hi - lo for lo, hi in self.bounds]
        return widths.index(max(widths))

    def bisect(self) -> tuple["BoxDomain", "BoxDomain"]:
        i = self.widest_index()
        lo, hi = self.bounds[i]
        mid = 0.5 * (lo + hi)
        # the children inherit every other bound from this validated box; of
        # the checks in __init__ only finiteness can fail for mid (rounding is
        # monotone, so a finite mid lies in [lo, hi])
        if not math.isfinite(mid):
            raise ValueError(f"bounds of {self.names[i]!r} must be finite")
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
