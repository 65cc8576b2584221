"""The ``.gsip`` problem text format: parser and canonical serializer.

Line-oriented grammar (``#`` starts a comment, blank lines ignored):

    problem "<name>"
    outer <var> in [<lo>, <hi>]      # repeatable
    inner <var> in [<lo>, <hi>]      # repeatable
    objective: <expr>
    g: <expr>
    h: <expr>                        # repeatable
    f_star: <real>                   # optional
    f_L: <real>                      # optional

Expressions use ``+ - * / ^`` with standard precedence, unary minus,
parentheses, ``min(a,b)``/``max(a,b)``, and decimal literals.  ``^`` takes a
nonnegative integer literal exponent.

An expression may nest at most ``MAX_DEPTH`` levels deep, counted two ways:
the parentheses, ``min``/``max`` calls and unary minus signs around any
token, and the operations on any path from the root of its tree to a leaf.
Deeper text is a ``ProblemSyntaxError`` at the token that crosses the limit:
the parser and every walker over the tree recurse once or more per level.

``parse_problem`` reads the text straight into a ``GsipProblem``.  It checks
only that the required lines are present; ``GsipProblem`` and ``BoxDomain``
check everything else (names, bounds, variable scoping), and their errors
reach the caller as ``ProblemValidationError``.
"""
from __future__ import annotations

import math
import re

from . import expr as ex
from .domains import BoxDomain
from .expr import Expr
from .gsip import GsipProblem


# Sized by measurement on CPython 3.11 under pytest, with the interpreter's
# default recursion limit of 1000: the parser takes 5 frames per parenthesis
# and fails past 189 of them, and compiling a tree for the solver takes 3
# frames per level, so that `run` and `verify` fail past about 313 levels.
# 100 keeps at least half the stack free.
MAX_DEPTH = 100


class ProblemSyntaxError(ValueError):
    """Syntax error with 1-based line and column."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


class ProblemValidationError(ValueError):
    """Well-formed text that does not describe a valid problem."""


_NAME = r"[A-Za-z_][A-Za-z0-9_]*"
_TOKEN_RE = re.compile(rf"""
    (?P<num>\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?|\d+(?:[eE][+-]?\d+)?)
  | (?P<name>{_NAME})
  | (?P<str>"[^"]*")
  | (?P<sym>[-+*/^()\[\],:])
  | (?P<ws>\s+)
  | (?P<bad>.)
""", re.VERBOSE)


def _tokenize(text: str, line_no: int):
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        col = m.start() + 1
        if m.lastgroup == "ws":
            continue
        if m.lastgroup == "bad":
            raise ProblemSyntaxError(f"unexpected character {m.group()!r}", line_no, col)
        tokens.append((m.lastgroup, m.group(), col))
    tokens.append(("eof", "", len(text) + 1))
    return tokens


class _ExprParser:
    """Recursive-descent parser over one line's token stream."""

    def __init__(self, tokens, line_no: int):
        self.tokens = tokens
        self.pos = 0
        self.line_no = line_no
        self.nesting = 0
        self.depths: dict[int, int] = {}  # id of a built node -> its depth

    def open_level(self):
        """Enter a parenthesis, a ``min``/``max`` call or a unary minus at
        the cursor; the parser recurses once for each."""
        self.nesting += 1
        if self.nesting > MAX_DEPTH:
            self.error(f"expression nests deeper than {MAX_DEPTH} levels")

    def build(self, col: int, make, *children: Expr) -> Expr:
        """``make(*children)``, unless its tree would be deeper than
        ``MAX_DEPTH`` operations: then an error at column ``col``.  The nodes
        are keyed by id, as hashing one walks its whole tree; every node
        built stays in the tree, so no id is reused during the parse."""
        depth = 1 + max(self.depths.get(id(c), 0) for c in children)
        if depth > MAX_DEPTH:
            raise ProblemSyntaxError(
                f"expression nests deeper than {MAX_DEPTH} levels", self.line_no, col)
        node = make(*children)
        self.depths[id(node)] = depth
        return node

    def peek(self):
        return self.tokens[self.pos]

    def next(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def error(self, message: str):
        _, _, col = self.peek()
        raise ProblemSyntaxError(message, self.line_no, col)

    def expect_sym(self, sym: str):
        kind, val, _ = self.peek()
        if kind != "sym" or val != sym:
            self.error(f"expected {sym!r}, found {val or 'end of line'!r}")
        return self.next()

    def at_sym(self, sym: str) -> bool:
        kind, val, _ = self.peek()
        return kind == "sym" and val == sym

    def parse_expression(self) -> Expr:
        node = self.parse_term()
        while self.at_sym("+") or self.at_sym("-"):
            _, op, col = self.next()
            rhs = self.parse_term()
            node = self.build(col, ex.add if op == "+" else ex.sub, node, rhs)
        return node

    def parse_term(self) -> Expr:
        node = self.parse_factor()
        while self.at_sym("*") or self.at_sym("/"):
            _, op, col = self.next()
            rhs = self.parse_factor()
            node = self.build(col, ex.mul if op == "*" else ex.div, node, rhs)
        return node

    def parse_factor(self) -> Expr:
        if self.at_sym("-"):
            self.open_level()
            _, _, col = self.next()
            node = self.build(col, ex.neg, self.parse_factor())
            self.nesting -= 1
            return node
        return self.parse_power()

    def parse_power(self) -> Expr:
        base = self.parse_atom()
        if self.at_sym("^"):
            _, _, col = self.next()
            kind, val, _ = self.peek()
            if kind != "num" or not re.fullmatch(r"\d+", val):
                self.error("exponent must be a nonnegative integer literal")
            self.next()
            return self.build(col, lambda b: ex.ipow(b, int(val)), base)
        return base

    def number(self) -> float:
        """The value of the number token at the cursor; a literal too large
        for a float is an error, as the text could not write it back."""
        _, val, col = self.next()
        value = float(val)
        if math.isinf(value):
            raise ProblemSyntaxError(f"number {val} is too large for a float",
                                     self.line_no, col)
        return value

    def parse_atom(self) -> Expr:
        kind, val, col = self.peek()
        if kind == "num":
            return ex.const(self.number())
        if kind == "name":
            self.next()
            if val in ("min", "max"):
                self.open_level()
                self.expect_sym("(")
                a = self.parse_expression()
                self.expect_sym(",")
                b = self.parse_expression()
                self.expect_sym(")")
                self.nesting -= 1
                return self.build(col, ex.emin if val == "min" else ex.emax, a, b)
            return ex.var(val)
        if self.at_sym("("):
            self.open_level()
            self.next()
            node = self.parse_expression()
            self.expect_sym(")")
            self.nesting -= 1
            return node
        self.error(f"expected expression, found {val or 'end of line'!r}")

    def parse_signed_real(self) -> float:
        sign = 1.0
        while self.at_sym("-") or self.at_sym("+"):
            _, op, _ = self.next()
            if op == "-":
                sign = -sign
        kind, val, _ = self.peek()
        if kind != "num":
            self.error(f"expected a number, found {val or 'end of line'!r}")
        return sign * self.number()

    def expect_eof(self):
        kind, val, _ = self.peek()
        if kind != "eof":
            self.error(f"unexpected trailing input {val!r}")


def parse_expression(text: str, line_no: int = 1) -> Expr:
    """Parse a standalone expression string."""
    p = _ExprParser(_tokenize(text, line_no), line_no)
    node = p.parse_expression()
    p.expect_eof()
    return node


def _parse_bounds_line(p: _ExprParser):
    kind, val, _ = p.peek()
    if kind != "name":
        p.error("expected a variable name")
    if val in ("min", "max"):
        p.error(f"{val!r} names a function and cannot name a variable")
    p.next()
    name = val
    k2, v2, _ = p.peek()
    if k2 != "name" or v2 != "in":
        p.error("expected 'in'")
    p.next()
    p.expect_sym("[")
    lo = p.parse_signed_real()
    p.expect_sym(",")
    hi = p.parse_signed_real()
    p.expect_sym("]")
    p.expect_eof()
    return name, lo, hi


def parse_problem(text: str) -> GsipProblem:
    """Parse ``.gsip`` text into a ``GsipProblem``."""
    outer: list[tuple[str, float, float]] = []
    inner: list[tuple[str, float, float]] = []
    h: list[Expr] = []
    once: dict[str, object] = {}  # the value of each line that may appear once

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip("\r").strip()
        if not line:
            continue
        tokens = _tokenize(line, line_no)
        p = _ExprParser(tokens, line_no)
        kind, head, col = p.peek()
        if kind != "name":
            raise ProblemSyntaxError(f"expected a keyword, found {head!r}", line_no, col)
        p.next()

        if head in ("outer", "inner"):
            var_name, lo, hi = _parse_bounds_line(p)
            target = outer if head == "outer" else inner
            if any(var_name == n for n, _, _ in outer + inner):
                raise ProblemSyntaxError(f"duplicate declaration of {var_name!r}", line_no, col)
            target.append((var_name, lo, hi))
            continue
        if head == "problem":
            k2, v2, c2 = p.peek()
            if k2 != "str":
                raise ProblemSyntaxError('expected a quoted problem name', line_no, c2)
            p.next()
            value = v2[1:-1]
        elif head in ("objective", "g", "h"):
            p.expect_sym(":")
            value = p.parse_expression()
        elif head in ("f_star", "f_L"):
            p.expect_sym(":")
            value = p.parse_signed_real()
        else:
            raise ProblemSyntaxError(f"unknown keyword {head!r}", line_no, col)
        p.expect_eof()
        if head == "h":
            h.append(value)
        elif head in once:
            raise ProblemSyntaxError(f"duplicate {head!r} line", line_no, col)
        else:
            once[head] = value

    for label in ("problem", "objective", "g"):
        if label not in once:
            raise ProblemValidationError(f"missing {label!r} line")
    try:
        return GsipProblem(once["problem"], BoxDomain(outer), BoxDomain(inner),
                           once["objective"], once["g"], tuple(h),
                           once.get("f_star"), once.get("f_L"))
    except ValueError as e:
        raise ProblemValidationError(str(e)) from None


# -- canonical serialization ------------------------------------------------

_LVL_SUM, _LVL_PROD, _LVL_UNARY, _LVL_POW, _LVL_ATOM = 1, 2, 3, 4, 5


def _fmt_real(v: float) -> str:
    if not math.isfinite(v):
        raise ValueError(f"number {v!r} cannot be written: the text has "
                         "literals for finite numbers only")
    return repr(float(v))


def _level(e: Expr) -> int:
    if e.kind == "const":
        return _LVL_UNARY if e.value < 0 else _LVL_ATOM
    return {
        "var": _LVL_ATOM, "min": _LVL_ATOM, "max": _LVL_ATOM,
        "neg": _LVL_UNARY, "pow": _LVL_POW,
        "mul": _LVL_PROD, "div": _LVL_PROD,
        "add": _LVL_SUM, "sub": _LVL_SUM,
    }[e.kind]


def format_expr(e: Expr, min_level: int = _LVL_SUM) -> str:
    if _level(e) < min_level:
        return "(" + format_expr(e, _LVL_SUM) + ")"
    k = e.kind
    if k == "const":
        return _fmt_real(e.value)
    if k == "var":
        return e.name
    if k == "neg":
        return "-" + format_expr(e.children[0], _LVL_UNARY)
    if k == "pow":
        return format_expr(e.children[0], _LVL_ATOM) + "^" + str(e.exponent)
    if k in ("min", "max"):
        return f"{k}({format_expr(e.children[0])}, {format_expr(e.children[1])})"
    a, b = e.children
    if k == "add":
        return format_expr(a, _LVL_SUM) + " + " + format_expr(b, _LVL_PROD)
    if k == "sub":
        return format_expr(a, _LVL_SUM) + " - " + format_expr(b, _LVL_PROD)
    op = "*" if k == "mul" else "/"
    return format_expr(a, _LVL_PROD) + op + format_expr(b, _LVL_UNARY)


def serialize_problem(p: GsipProblem) -> str:
    """Canonical text; ``parse_problem`` maps it back to an equal problem.

    Raises ``ValueError`` for a name or number the text cannot carry: a
    problem name with a quote, ``#`` or a line break, a variable name that is
    not an identifier or is ``min``/``max``, or a constant, ``f_star`` or
    ``f_L`` that is not finite.
    """
    if '"' in p.name or "#" in p.name or p.name.splitlines() != [p.name]:
        raise ValueError(f"problem name {p.name!r} cannot be written: it "
                         "contains a quote, '#' or a line break")
    for n in p.X.names + p.Y.names:
        if not re.fullmatch(_NAME, n) or n in ("min", "max"):
            raise ValueError(f"variable name {n!r} cannot be written: it is "
                             "not an identifier other than min and max")
    lines = [f'problem "{p.name}"']
    for n, lo, hi in p.X.coords:
        lines.append(f"outer {n} in [{_fmt_real(lo)}, {_fmt_real(hi)}]")
    for n, lo, hi in p.Y.coords:
        lines.append(f"inner {n} in [{_fmt_real(lo)}, {_fmt_real(hi)}]")
    lines.append(f"objective: {format_expr(p.f)}")
    lines.append(f"g: {format_expr(p.g)}")
    for e in p.h:
        lines.append(f"h: {format_expr(e)}")
    if p.f_star is not None:
        lines.append(f"f_star: {_fmt_real(p.f_star)}")
    if p.f_L is not None:
        lines.append(f"f_L: {_fmt_real(p.f_L)}")
    return "\n".join(lines) + "\n"
