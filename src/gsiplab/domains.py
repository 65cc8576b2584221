"""Axis-aligned boxes with named coordinates."""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping

from .expr import Interval


@dataclass(frozen=True)
class BoxDomain:
    """Ordered list of (variable name, lo, hi) with lo <= hi and unique names."""

    coords: tuple[tuple[str, float, float], ...]

    def __init__(self, coords: Iterable[tuple[str, float, float]]):
        coords = tuple((str(n), float(lo), float(hi)) for n, lo, hi in coords)
        object.__setattr__(self, "coords", coords)
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
    def names(self) -> tuple[str, ...]:
        return tuple(n for n, _, _ in self.coords)

    @property
    def dim(self) -> int:
        return len(self.coords)

    def intervals(self) -> dict[str, Interval]:
        return {n: Interval(lo, hi) for n, lo, hi in self.coords}

    def bounds(self) -> tuple[tuple[float, float], ...]:
        """The (lo, hi) pairs in coordinate order, as compiled interval
        kernels take them (``expr.compile_expr``)."""
        return tuple([(lo, hi) for _, lo, hi in self.coords])

    def midpoint(self) -> dict[str, float]:
        return {n: 0.5 * (lo + hi) for n, lo, hi in self.coords}

    def corners(self) -> list[dict[str, float]]:
        pts = [{}]
        for n, lo, hi in self.coords:
            nxt = []
            for p in pts:
                for v in ((lo,) if lo == hi else (lo, hi)):
                    q = dict(p)
                    q[n] = v
                    nxt.append(q)
            pts = nxt
        return pts

    @property
    def max_width(self) -> float:
        return max([hi - lo for _, lo, hi in self.coords], default=0.0)

    def widest_index(self) -> int:
        widths = [hi - lo for _, lo, hi in self.coords]
        return widths.index(max(widths))

    def bisect(self) -> tuple["BoxDomain", "BoxDomain"]:
        i = self.widest_index()
        n, lo, hi = self.coords[i]
        mid = 0.5 * (lo + hi)
        # the children inherit every other bound from this validated box; of
        # the checks in __init__ only finiteness can fail for mid (rounding is
        # monotone, so a finite mid lies in [lo, hi])
        if not math.isfinite(mid):
            raise ValueError(f"bounds of {n!r} must be finite")
        left = self.coords[:i] + ((n, lo, mid),) + self.coords[i + 1:]
        right = self.coords[:i] + ((n, mid, hi),) + self.coords[i + 1:]
        return _validated(left), _validated(right)

    def contains(self, point: Mapping[str, float], slack: float = 0.0) -> bool:
        try:
            return all(lo - slack <= point[n] <= hi + slack for n, lo, hi in self.coords)
        except KeyError:
            return False


def _validated(coords) -> BoxDomain:
    """A BoxDomain over coordinates already known to be valid."""
    box = object.__new__(BoxDomain)
    object.__setattr__(box, "coords", coords)
    return box
