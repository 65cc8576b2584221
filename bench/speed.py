"""Machine-speed reference for the benchmark's end-to-end timings.

On a shared VM the speed of the CPU is not constant: on a 2-vCPU Xeon VM it
switched between two levels a factor 2 apart, in spells of a few seconds to
minutes, so that raw wall times of whole 30 s runs spread by 15-50 % and no
statistic over one run's samples (minimum, median, quartile) could hide a
spell that outlasted the run.

The ``Sampler`` measures that speed while the workload runs.  An interval
timer interrupts the process every ``INTERVAL_S`` and the signal handler
times one fixed probe: pure-Python point and interval evaluation of a small
expression tree, the same kind of work as gsiplab's branch and bound, written
here so that no change to gsiplab changes it.  An operation's latency is then
expressed in reference seconds: its wall time times the mean speed of the
probes around it, a probe's speed being ``REFERENCE_PROBE_S`` over its time.
The mean of speeds integrates over an operation that spans a change of
speed, and a probe that was preempted only counts as a slow moment.  A
program that gets faster gives smaller reference times; a machine that gets
slower does not.

The probes take about 1 % of the process's time, in every run alike.
"""
from __future__ import annotations

import bisect
import signal
import statistics
import time
from array import array

INTERVAL_S = 0.02
# probes within this much of an operation's interval give its speed
WINDOW_PAD_S = 0.2
# a probe's time at reference speed, about its median on a 2-vCPU Xeon VM
REFERENCE_PROBE_S = 2.5e-4


class _Iv:
    __slots__ = ("lo", "hi")

    def __init__(self, lo, hi):
        self.lo, self.hi = lo, hi

    def __add__(self, o):
        return _Iv(self.lo + o.lo, self.hi + o.hi)

    def __mul__(self, o):
        p = (self.lo * o.lo, self.lo * o.hi, self.hi * o.lo, self.hi * o.hi)
        return _Iv(min(p), max(p))


class _Node:
    __slots__ = ("kind", "a", "b")

    def __init__(self, kind, a=None, b=None):
        self.kind, self.a, self.b = kind, a, b


def _point(n, env):
    if n.kind == "c":
        return n.a
    if n.kind == "x":
        return env[n.a]
    if n.kind == "+":
        return _point(n.a, env) + _point(n.b, env)
    return _point(n.a, env) * _point(n.b, env)


def _interval(n, env):
    if n.kind == "c":
        return _Iv(n.a, n.a)
    if n.kind == "x":
        return env[n.a]
    if n.kind == "+":
        return _interval(n.a, env) + _interval(n.b, env)
    return _interval(n.a, env) * _interval(n.b, env)


def _tree(depth, i):
    if depth == 0:
        return _Node("x", "uv"[i % 2]) if i % 3 else _Node("c", 0.25 * (i % 7) - 0.8)
    return _Node("+" if depth % 2 else "*", _tree(depth - 1, 2 * i),
                 _tree(depth - 1, 2 * i + 1))


_TREE = _tree(5, 1)
_POINT = {"u": 0.3, "v": -0.7}
_BOX = {"u": _Iv(0.1, 0.4), "v": _Iv(-0.9, -0.5)}


def probe():
    for _ in range(4):
        _point(_TREE, _POINT)
        _interval(_TREE, _BOX)


class Sampler:
    """Times ``probe`` every ``INTERVAL_S`` while the ``with`` block runs."""

    def __init__(self):
        self.starts = array("d")
        self.durations = array("d")
        self._probing = False

    def _on_alarm(self, _signum, _frame):
        # an alarm during a probe that was held up is dropped, so that the
        # probes are recorded in time order
        if self._probing:
            return
        self._probing = True
        try:
            t0 = time.perf_counter()
            probe()
            self.starts.append(t0)
            self.durations.append(time.perf_counter() - t0)
        finally:
            self._probing = False

    def __enter__(self):
        self._on_alarm(signal.SIGALRM, None)  # scale() always has a probe
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def scale(self, start: float, seconds: float) -> float:
        """Reference seconds per wall second from ``start`` for ``seconds``."""
        lo = bisect.bisect_left(self.starts, start - WINDOW_PAD_S)
        hi = bisect.bisect_right(self.starts, start + seconds + WINDOW_PAD_S)
        around = self.durations[lo:hi] or self.durations
        return statistics.fmean(REFERENCE_PROBE_S / d for d in around)
