"""The grid oracle's one kernel per grid (``grid_kernel``).

A grid kernel is one generated Python function of straight-line code, as a
tree's point, interval and gradient kernels are, by a subclass of their
emitter (``gsiplab.kernels``), kept on the objective the same way, made from
a whole minimization: a list of constraint trees, each with its sense, and
an objective, each with the names of its bound values, over an open grid of
the box's names.  Each node over an array is one numpy call, the one that
the walk over arrays (``expr.evaluate_array``) makes; a node over none is
evaluated as that walk would, with Python's float operators and numpy's
scalar calls.  So every value where a point passes is that walk's, bit for
bit (but for the sign of a NaN, see ``gsiplab.kernels``), and the tests keep
the walk as the reference.  The kernel's argument list holds the grid's
axes, then every tree's bound values, as floats, so one kernel serves every
call whatever the values, and a tree met twice (two cuts) reads its own
values each time.  A variable that neither the box nor the tree's bound
values bind raises ``EvaluationError`` when the kernel is generated.  Values
are numbered across the trees, so a subtree two trees share is computed
once.

Per block of the grid the kernel runs every tree's lines in order, each
constraint's followed by its test and the objective's by the return, as
the walk would run them, under one rule: every test narrows a running
mask, and the kernel returns ``None, None`` as soon as no point passes.  A
constraint's test is ``ConstraintSpec.satisfied``'s rule, a division's
``divisor != 0.0``: a point that divides by zero fails, where the walk
raises.  A test whose operand spans no grid axis (a tree of bound values
and constants), or only axes other than the first (the one the blocks
split), is the same on every block: where none of its own points passes,
it fails every block alike, so the kernel returns ``False, None``, and the
grid oracle runs no further block.  A numpy call warns as the walk's does,
save that a kernel that divides by an array runs under ``np.errstate``, so
that a point it masks warns of nothing; the lines after a return run on no
block, and warn of nothing.

Each node over the grid's first axis writes into a view of one of the
thread's flat buffers (``_Buffers``), shaped at call time by the grid axes
it spans; the slots are given when the kernel is generated, by liveness
(``_ArrayEmitter.layout``), so one kernel serves every block, and the
grid's blocks reuse memory already mapped, where arrays allocated afresh
for each block were mapped and faulted in again by the C library.  A node
over the other axes alone writes a fresh array, of one row of the grid at
most.

This module imports numpy.  The grid oracle imports it when called, so the
rest of the package loads without numpy and without compiling this module.
"""
from __future__ import annotations

import math
import threading
from typing import Mapping, Sequence

import numpy as np

from .expr import _KERNELS, Expr
from .immutable import kept
from .kernels import _BINARY, _Emitter, _unknown

# the kind of a grid kernel on the tree
_GRID = "grid"


def grid_kernel(objective: Expr, parameters: tuple,
                constraints: Sequence[tuple[Expr, str, tuple]], names: tuple):
    """The grid kernel of minimizing ``objective``, whose bound values are
    named ``parameters``, subject to ``constraints``, ``(tree, sense, names
    of its bound values)`` triples, over an open grid of the box's
    ``names``; made at the first request and kept on the objective.

    It is keyed by the identity of the constraint trees, with their senses
    and bound names, and it holds those trees, so that an id cannot pass to
    another tree while it is kept.

    ``kernel(arg, lengths, tol)`` runs the kernel over one block: ``arg``
    holds the block's axes (axis ``i`` an array of ``len(names)``
    dimensions, of length 1 along each but the ``i``-th; only the first
    changes from block to block), then the bound values of each constraint
    and of the objective, in order; ``lengths`` the block's shape; ``tol``
    the constraints' ``tol_feas``.  It returns ``(ok, values)``: ``ok`` is
    ``None`` where no point of the block passes its tests (the
    constraints', and each divisor's ``!= 0.0``), ``False`` where no point
    of any block can, as a test alike on every block fails, and then
    ``values`` is ``None`` too; ``True`` where every point passes, else a
    boolean mask of the block (or broadcast to it); ``values`` are the
    objective's, an array or a float, valid only until the next grid kernel
    call on the same thread, and not to be written.  Generating it raises
    ``EvaluationError`` where a tree reads a variable bound nowhere.
    """
    kind = (_GRID, parameters,
            tuple((id(e), sense, pnames) for e, sense, pnames in constraints))
    return kept(objective, _KERNELS, (kind, tuple(names)),
                lambda e, _: _generate_grid(e, parameters, constraints, names))


class _Buffers(threading.local):
    """This thread's flat float64 buffers, one per slot of the grid kernels,
    each as long as the largest block seen: ``slots * size`` floats in all,
    for the most slots a kernel has used.  The views of them that kernels
    write into are kept per layout and block shape until the buffers
    grow."""

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


def _test(passed, ok):
    """The running mask ``ok & passed`` after a test ``passed`` (an array or
    a bool): ``True`` where every point passes, ``None`` where none does."""
    if ok is not True:
        passed = passed & ok
    n = np.count_nonzero(passed)
    return None if n == 0 else True if n == np.size(passed) else passed


def _check(passed: str, axes: int) -> list[str]:
    """The lines of a test whose points pass where ``passed`` holds, over
    the grid ``axes`` it spans: the running mask narrowed by it, and the
    return once no point passes.  A test over no axis, or over axes other
    than the first (the one the blocks split), is the same on every block,
    so it first returns ``False, None`` once none of its own points passes,
    which fails every block alike."""
    if axes & 1:
        return [f"if (ok := _test({passed}, ok)) is None: return None, None"]
    if axes:
        return [f"if not (t := {passed}).any(): return False, None",
                "if (ok := _test(t, ok)) is None: return None, None"]
    return [f"if not {passed}: return False, None"]


def _generate_grid(objective: Expr, parameters: tuple,
                   constraints: Sequence[tuple[Expr, str, tuple]], names: tuple):
    """The grid kernel (``grid_kernel``) over an open grid of the box's
    ``names``.

    Each tree's lines are written in turn, with a name index of its own (the
    box's names, then its bound values' slots of the argument list), each
    constraint's ending with its test and the objective's with the return,
    into one body that runs on every block, in that order.  A kernel that
    divides by an array runs under ``np.errstate``: a point it masks warns
    of nothing."""
    box = {n: i for i, n in enumerate(names)}
    trees = [*constraints, (objective, None, parameters)]
    emitter = _ArrayEmitter(len(box))
    slot = len(box)
    for e, sense, pnames in trees:
        index = {**box, **{n: slot + i for i, n in enumerate(pnames)}}
        slot += len(pnames)
        result, axes = emitter.tree(e, index)
        # ConstraintSpec.satisfied: value <= tol_feas for "le", value >=
        # -tol_feas for "ge"
        emitter.read(result, [f"return ok, {result}"] if sense is None else
                     _check(f"{result} <= tol" if sense == "le" else
                            f"{result} >= -tol", axes))
    body = ["ok = True", *emitter.lines]
    if emitter.divides:
        body = ["with _errstate(divide='ignore', invalid='ignore'):",
                *(f"    {line}" for line in body)]
    layout = emitter.layout()
    emitter.namespace.update(_views=_BUFFERS.views, _layout=layout,
                             _trees=[e for e, _, _ in trees])
    if layout:
        body.insert(0, "".join(f"o{v[1:]}, " for v, _, _ in emitter.temps if v)
                    + "= _views(_layout, lengths)")
    source = "\n    ".join(["def kernel(arg, lengths, tol):", *body])
    exec(compile(source, "<grid kernel>", "exec"), emitter.namespace)
    return emitter.namespace["kernel"]


# the numpy function of each operation
_UFUNCS = {"neg": "negative", "add": "add", "sub": "subtract", "mul": "multiply",
           "div": "divide", "pow": "float_power", "min": "minimum", "max": "maximum"}


class _ArrayEmitter(_Emitter):
    """The body of a grid kernel, whose nodes over the first axis write into
    out views.  A node's operands are its value and the grid axes it spans,
    as a bit mask (0 for a value over no array)."""

    def __init__(self, axes: int):
        super().__init__({}, _GRID, axes)
        # the temporaries, in order: value name (None for a read that
        # writes nothing, a test's or the return's), axes and the
        # temporaries it reads; and their value names
        self.temps: list[tuple] = []
        self.slotted: set[str] = set()
        # whether the kernel divides by an array
        self.divides = False
        self.namespace.update({f"_{name}": getattr(np, name)
                               for name in (*_UFUNCS.values(), "errstate")}, _test=_test)

    def tree(self, e: Expr, index: Mapping[str, int]) -> tuple[str, int]:
        """The operands of tree ``e`` over ``index``."""
        self.index = index
        self.memo = {}   # a tree met again may read other bound values
        return self.node(e)

    def read(self, value: str, lines: list[str]) -> None:
        """``lines``, a test or the return, which read ``value``, a tree's
        result, after the tree's lines."""
        if value in self.slotted:
            self.temps.append((None, 0, [value]))
        self.lines += lines

    def value(self, e: Expr, kids, n: int) -> tuple[str, int]:
        """A node over an array is one numpy call, which writes into its out
        view where it spans the first axis; a node over none is the float
        operation (or numpy scalar call) of the walk over arrays, Python's
        operator where the walk uses one."""
        k = e.kind
        if k == "const":
            return self.bind(e.value), 0
        v = f"v{n}"
        if k == "var":
            if e.name not in self.index:
                # straight-line code would read it on every block
                _unknown(e.name)()
            self.variable(e, v)
            i = self.index.get(e.name)
            return v, 1 << i if i in self.dims else 0
        return v, self.operation(e, kids, v, n)

    def operation(self, e: Expr, kids, v: str, n: int) -> int:
        """The lines of operation ``e`` into ``v``, and the axes it spans."""
        k = e.kind
        ops = [a for a, _ in kids]
        emit = self.lines.append
        axes = 0
        for _, mask in kids:
            axes |= mask
        if k == "pow":
            ops.append(self.bind(e.exponent))
        elif k == "div":
            # a test like a constraint's
            c, mask = kids[1]
            self.lines += _check(f"{c} != 0.0", mask)
            self.divides |= mask != 0
        if axes & 1:
            self.slotted.add(v)
            self.temps.append((v, axes, [a for a in ops if a in self.slotted]))
            emit(f"{v} = _{_UFUNCS[k]}({', '.join(ops)}, out=o{n})")
        elif k == "neg" and not axes:
            emit(f"{v} = -{ops[0]}")
        elif (k in _BINARY or k == "div") and not axes:
            emit(f"{v} = {ops[0]} {_BINARY.get(k, '/')} {ops[1]}")
        else:
            emit(f"{v} = _{_UFUNCS[k]}({', '.join(ops)})")
        return axes

    def layout(self) -> tuple[tuple[int, int], ...]:
        """Each temporary's slot and axes, in the order of the out views.

        A slot is free once the last node, test or return that reads its
        temporary has run.  A node writes into the slot of a temporary it
        reads for the last time and that spans the same axes, where numpy
        works in place, else into a free slot, or a new one: its other
        inputs stay whole while it is written, so it never overlaps an input
        of another shape, which numpy would copy first.  The slots are as
        many as the most temporaries ever live at once, a node's output and
        inputs included."""
        last = {t: j for j, (_, _, inputs) in enumerate(self.temps) for t in inputs}
        slot: dict[str, int] = {}
        axes = {v: mask for v, mask, _ in self.temps}
        free: list[int] = []
        slots = 0
        for j, (v, mask, inputs) in enumerate(self.temps):
            dying = [t for t in dict.fromkeys(inputs) if last[t] == j]
            same = [t for t in dying if v and axes[t] == mask][:1]
            if same:
                slot[v] = slot[same[0]]
            elif free and v:
                slot[v] = free.pop()
            elif v:
                slot[v], slots = slots, slots + 1
            free += [slot[t] for t in dying if t not in same]
        return tuple((slot[v], mask) for v, mask, _ in self.temps if v)
