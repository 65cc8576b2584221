"""Array kernels: ``expr.evaluate_array`` over numpy arrays.

A tree's array kernel is one generated Python function of straight-line
code, as its point, interval and gradient kernels are (``expr``), kept on
the tree the same way and keyed also by how many of its names are arrays,
which come first.  Each node over an array is one numpy call, the one that
walking the tree with Python's operators would make: ``np.negative``,
``np.add``, ``np.subtract``, ``np.multiply``, ``np.divide`` after the
``np.any(b == 0.0)`` check, ``np.float_power``, ``np.minimum`` and
``np.maximum``.  A subtree over no array is evaluated as that walk would,
with Python's float operators and numpy's scalar calls.  Each shared subtree
is computed once.  So every value is that walk's, bit for bit (but for the
sign of a NaN, see ``expr``); the tests keep the walk as the reference.

Each node over an array writes into the array its kernel is given (``out=``).
A kernel's temporaries get slots when it is generated, by liveness
(``_ArrayEmitter.layout``).  Over an open grid (``OpenGrid``, the grid
oracle's blocks), a slot is a view of one of the thread's flat buffers
(``_Buffers``), shaped at call time by the grid axes the temporary spans, so
one kernel serves every block.  The buffers live as long as the thread, so
the grid's blocks reuse memory already mapped, where arrays allocated afresh
for each block were mapped and faulted in again by the C library.  Over plain
arrays every temporary is a new array and the result is the caller's own.

The grid oracle blocks its grid along the first axis, and between two
evaluations over one ``OpenGrid`` only that axis's values change.  So a node
over arrays that does not span the first axis, a *block-invariant* node, has
the same value over every block: the kernel computes it at its first
evaluation over a grid, into a fresh array, keeps it on the grid
(``OpenGrid.keep``), and later evaluations read it from there.  Those take
the kernel's second path, the first one's lines without those of the nodes
that do not span the first axis (nor the checks of their divisors, which
passed).  A block-invariant node takes no slot.  The first path makes the
walk's numpy calls, in its order, and the second the same calls over the
first axis, on the same operands, so every value is the walk's bit for bit,
and a divisor's check fails at the same evaluation as the walk's.  An
evaluation over plain arrays takes the first path, with a fresh, empty
``keep``.

This module imports numpy.  ``expr.evaluate_array`` imports it at its first
call and the grid oracle when called, so the rest of the package loads
without numpy and without compiling this module.
"""
from __future__ import annotations

import math
import threading
from typing import Mapping

import numpy as np

from .expr import _BINARY, Expr, _cached, _Emitter

_ARRAY = "array"   # the kind of an array kernel on the tree


class OpenGrid(dict):
    """The values of the names over one block of an open grid, for
    ``expr.evaluate_array``.

    The first ``axes`` names hold the grid's axes, in order: axis ``i`` is an
    array of ``axes`` dimensions, of length 1 along each but the ``i``-th;
    the other names hold floats.  Between two evaluations over one grid,
    only the values of the first axis may change (the block's rows); the
    values of its block-invariant nodes, the nodes over arrays that do not
    span that axis, are computed at the first evaluation of each kernel and
    kept in ``keep``, by kernel.  An evaluation over an ``OpenGrid`` writes
    its other temporaries into this thread's reused buffers (``_Buffers``)
    and may return one of them, or a kept array, so its result is valid only
    until the next evaluation over an ``OpenGrid`` on the same thread, and
    must not be written.
    """

    __slots__ = ("axes", "keep")

    def __init__(self, axes: int, values: Mapping):
        super().__init__(values)
        self.axes = axes
        self.keep: dict = {}


def evaluate(e: Expr, point: Mapping):
    """``e`` over ``point`` by its array kernel: the names whose values are
    numpy arrays are its arrays."""
    if isinstance(point, OpenGrid):
        axes, args = point.axes, tuple(point.values())
        kernel, layout, _ = _kernel(e, tuple(point), axes)
        # an axis is 1 long along every dimension but its own
        return kernel(args, _BUFFERS.views(layout, tuple(a.size for a in args[:axes])),
                      point.keep)
    arrays = [n for n, v in point.items() if isinstance(v, np.ndarray)]
    names = (*arrays, *(n for n in point if n not in arrays))
    kernel, layout, _ = _kernel(e, names, len(arrays))
    return kernel(tuple(point[n] for n in names), (None,) * len(layout), {})


def linspace(lo: float, hi: float, n: int):
    """``np.linspace(lo, hi, n)`` for floats ``lo`` and ``hi`` and ``n >=
    2``, bit for bit, by its own recipe without its set-up: ``arange(n)``
    times the step (divided by ``n - 1``, then times the span, where the step
    underflows to 0), plus ``lo``, and ``hi`` as the last point.  Where the
    span overflows, which makes that recipe's points inf and NaN, point i is
    ``lo + i*(hi/(n-1)) - i*(lo/(n-1))`` instead, whose terms are finite."""
    out = np.arange(n, dtype=float)
    span = hi - lo
    if math.isinf(span):
        # up to the last point, hi, set below, where i*(hi/(n-1)) may overflow
        i = out[:-1]
        i[:] = lo + i * (hi / (n - 1)) - i * (lo / (n - 1))
    else:
        step = span / (n - 1)
        if step == 0:
            out /= n - 1
            out *= span
        else:
            out *= step
        out += lo
    out[-1] = hi
    return out


def can_raise(e: Expr, grid: OpenGrid) -> bool:
    """Whether ``evaluate`` can raise ``EvaluationError`` on ``e`` over
    ``grid``'s names: ``e`` holds a division, or a variable that ``grid``
    does not bind.  Decided when the kernel is generated, not by the
    values."""
    return _kernel(e, tuple(grid), grid.axes)[2]


def _kernel(e: Expr, names: tuple, axes: int):
    """``e``'s array kernel over ``names``, the first ``axes`` of them
    arrays, with its layout and whether it can raise, made at the first
    request and kept on the tree."""
    return _cached(e, names, (_ARRAY, axes), lambda index: _generate(e, index, axes))


class _Buffers(threading.local):
    """This thread's flat float64 buffers, one per slot of the kernels run
    over an ``OpenGrid``, each as long as the largest block seen: ``slots *
    size`` floats in all, for the most slots a kernel has used.  The views of
    them that kernels write into are kept per layout and block shape until
    the buffers grow."""

    def __init__(self):
        self.flat: list = []
        self.size = 0
        self.kept: dict = {}

    def views(self, layout, lengths) -> tuple:
        """The out views of a kernel of ``layout`` over a block of the axes'
        ``lengths``: each temporary's slot, shaped by the axes it spans."""
        out = self.kept.get((layout, lengths))
        if out is None:
            size = math.prod(lengths)
            if size > self.size:
                self.flat, self.size, self.kept = [], size, {}
            while len(self.flat) < max((s + 1 for s, _ in layout), default=0):
                self.flat.append(np.empty(self.size))
            shapes = [tuple(n if mask >> i & 1 else 1 for i, n in enumerate(lengths))
                      for _, mask in layout]
            out = self.kept[layout, lengths] = tuple(
                self.flat[s][:math.prod(shape)].reshape(shape)
                for (s, _), shape in zip(layout, shapes))
        return out


_BUFFERS = _Buffers()


def _generate(e: Expr, index: Mapping[str, int], axes: int):
    """The array kernel of ``e``, whose first ``axes`` names of ``index`` are
    arrays, its layout and whether it can raise: a function of the argument
    tuple, one out array (or None) per temporary, in the layout's order, and
    the ``keep`` of the grid, whose body raises ``EvaluationError`` only
    where it checks a divisor or meets a variable ``index`` lacks.

    A kernel with block-invariant nodes has two paths: with nothing kept for
    it in ``keep``, every line, after which it keeps the values that the
    lines over the first axis read; with them kept, only those lines."""
    emitter = _ArrayEmitter(index, axes)
    result, _ = emitter.node(e)
    head = ["def kernel(arg, out, keep):"]
    if emitter.temps:
        head.append("".join(f"o{v[1:]}, " for v, _, _ in emitter.temps) + "= out")
    body = [*emitter.lines, f"return {result}"]
    if emitter.hoisted:
        key = emitter.bind(object())
        kept = "".join(f"{v}, " for v in emitter.kept(result))
        rest = [line for line, mask in zip(emitter.lines, emitter.spans) if mask & 1]
        body = [f"kept = keep.get({key})",
                "if kept is not None:",
                f"    {kept}= kept",
                *(f"    {line}" for line in rest),
                f"    return {result}",
                *emitter.lines,
                f"keep[{key}] = {kept}",
                f"return {result}"]
    source = "\n    ".join([*head, *body])
    exec(compile(source, "<array kernel>", "exec"), emitter.namespace)
    return emitter.namespace["kernel"], emitter.layout(), emitter.raises


# the numpy function of each operation
_UFUNCS = {"neg": "negative", "add": "add", "sub": "subtract", "mul": "multiply",
           "div": "divide", "pow": "float_power", "min": "minimum", "max": "maximum"}


class _ArrayEmitter(_Emitter):
    """The body of an array kernel.  A node's operands are its value and
    the grid axes it spans, as a bit mask (0 for a value over no array)."""

    def __init__(self, index: Mapping[str, int], axes: int):
        super().__init__(index, _ARRAY, axes)
        # the temporaries: value name, axes and the temporaries it reads
        self.temps: list[tuple[str, int, list[str]]] = []
        # the axes each line's values span: a divisor's for its check
        self.spans: list[int] = []
        # the values that do not span the first axis, and those of them that
        # a node over the first axis reads, in order (dicts as ordered sets)
        self.invariant: dict[str, None] = {}
        self.read: dict[str, None] = {}
        # whether a node over arrays does not span the first axis
        self.hoisted = False
        # whether a line raises EvaluationError: a divisor's check, or a
        # variable not in the index
        self.raises = False
        self.namespace.update({f"_{name}": getattr(np, name)
                               for name in (*_UFUNCS.values(), "any")})

    def emit(self, line: str, axes: int) -> None:
        self.lines.append(line)
        self.spans.append(axes)

    def kept(self, result: str) -> list[str]:
        """The values the second path reads from ``keep``: those a node
        over the first axis reads that do not span it, and the result, if
        it does not."""
        return [*self.read, *((result,) if result in self.invariant else ())]

    def value(self, e: Expr, kids, n: int) -> tuple[str, int]:
        """A node over an array is one numpy call, which writes into its out
        view unless the node does not span the first axis; a node over none
        is the float operation (or numpy scalar call) of the walk over
        arrays, Python's operator where the walk uses one."""
        k = e.kind
        if k == "const":
            return self.bind(e.value), 0
        v = f"v{n}"
        if k == "var":
            self.variable(e, v)
            i = self.index.get(e.name)
            self.raises |= i is None
            axes = 1 << i if i in self.dims else 0
            self.spans.append(axes)
        else:
            axes = self.operation(e, kids, v, n)
        if axes & 1:
            self.read.update((a, None) for a, _ in kids if a in self.invariant)
        else:
            self.invariant[v] = None
        return v, axes

    def operation(self, e: Expr, kids, v: str, n: int) -> int:
        """The lines of operation ``e`` into ``v``, and the axes it spans."""
        k = e.kind
        ops = [a for a, _ in kids]
        axes = 0
        for _, mask in kids:
            axes |= mask
        if k == "pow":
            ops.append(self.bind(e.exponent))
        elif k == "div":
            self.raises = True
            c, mask = kids[1]
            self.emit(f"if _any({c} == 0.0): _division_by_zero()" if mask else
                      f"if {c} == 0.0: _division_by_zero()", mask)
        if axes & 1:
            temps = {t for t, _, _ in self.temps}
            self.temps.append((v, axes, [a for a in ops if a in temps]))
            self.emit(f"{v} = _{_UFUNCS[k]}({', '.join(ops)}, out=o{n})", axes)
        elif axes:
            self.hoisted = True
            self.emit(f"{v} = _{_UFUNCS[k]}({', '.join(ops)})", axes)
        elif k == "neg":
            self.emit(f"{v} = -{ops[0]}", axes)
        elif k in _BINARY or k == "div":
            self.emit(f"{v} = {ops[0]} {_BINARY.get(k, '/')} {ops[1]}", axes)
        else:
            self.emit(f"{v} = _{_UFUNCS[k]}({', '.join(ops)})", axes)
        return axes

    def layout(self) -> tuple[tuple[int, int], ...]:
        """Each temporary's slot and axes, in the order of the out views.

        A slot is free once the last node that reads its temporary has run.
        A node writes into the slot of a temporary it reads for the last
        time and that spans the same axes, where numpy works in place, else
        into a free slot, or a new one: its other inputs stay whole while it
        is written, so it never overlaps an input of another shape, which
        numpy would copy first.  The slots are as many as the most
        temporaries ever live at once, a node's output and inputs
        included."""
        last = {t: j for j, (_, _, inputs) in enumerate(self.temps) for t in inputs}
        slot: dict[str, int] = {}
        axes = {v: mask for v, mask, _ in self.temps}
        free: list[int] = []
        slots = 0
        for j, (v, mask, inputs) in enumerate(self.temps):
            dying = [t for t in dict.fromkeys(inputs) if last[t] == j]
            same = [t for t in dying if axes[t] == mask][:1]
            if same:
                slot[v] = slot[same[0]]
            elif free:
                slot[v] = free.pop()
            else:
                slot[v], slots = slots, slots + 1
            free += [slot[t] for t in dying if t not in same]
        return tuple((slot[v], mask) for v, mask, _ in self.temps)
