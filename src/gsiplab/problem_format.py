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

``parse_problem`` reads the text straight into a ``GsipProblem``.  It checks
only that the required lines are present; ``GsipProblem`` and ``BoxDomain``
check everything else (names, bounds, variable scoping), and their errors
reach the caller as ``ProblemValidationError``.
"""
from __future__ import annotations

import re

from . import expr as ex
from .domains import BoxDomain
from .expr import Expr
from .gsip import GsipProblem


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
            _, op, _ = self.next()
            rhs = self.parse_term()
            node = ex.add(node, rhs) if op == "+" else ex.sub(node, rhs)
        return node

    def parse_term(self) -> Expr:
        node = self.parse_factor()
        while self.at_sym("*") or self.at_sym("/"):
            _, op, _ = self.next()
            rhs = self.parse_factor()
            node = ex.mul(node, rhs) if op == "*" else ex.div(node, rhs)
        return node

    def parse_factor(self) -> Expr:
        if self.at_sym("-"):
            self.next()
            return ex.neg(self.parse_factor())
        return self.parse_power()

    def parse_power(self) -> Expr:
        base = self.parse_atom()
        if self.at_sym("^"):
            self.next()
            kind, val, col = self.peek()
            if kind != "num" or not re.fullmatch(r"\d+", val):
                self.error("exponent must be a nonnegative integer literal")
            self.next()
            return ex.ipow(base, int(val))
        return base

    def parse_atom(self) -> Expr:
        kind, val, col = self.peek()
        if kind == "num":
            self.next()
            return ex.const(float(val))
        if kind == "name":
            self.next()
            if val in ("min", "max"):
                self.expect_sym("(")
                a = self.parse_expression()
                self.expect_sym(",")
                b = self.parse_expression()
                self.expect_sym(")")
                return ex.emin(a, b) if val == "min" else ex.emax(a, b)
            return ex.var(val)
        if self.at_sym("("):
            self.next()
            node = self.parse_expression()
            self.expect_sym(")")
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
        self.next()
        return sign * float(val)

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
    name = None
    outer: list[tuple[str, float, float]] = []
    inner: list[tuple[str, float, float]] = []
    objective = None
    g = None
    h: list[Expr] = []
    f_star = None
    f_L = None

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

        if head == "problem":
            k2, v2, c2 = p.peek()
            if k2 != "str":
                raise ProblemSyntaxError('expected a quoted problem name', line_no, c2)
            p.next()
            p.expect_eof()
            if name is not None:
                raise ProblemSyntaxError("duplicate 'problem' line", line_no, col)
            name = v2[1:-1]
        elif head in ("outer", "inner"):
            var_name, lo, hi = _parse_bounds_line(p)
            target = outer if head == "outer" else inner
            if any(var_name == n for n, _, _ in outer + inner):
                raise ProblemSyntaxError(f"duplicate declaration of {var_name!r}", line_no, col)
            target.append((var_name, lo, hi))
        elif head in ("objective", "g", "h", "f_star", "f_L"):
            p.expect_sym(":")
            if head in ("f_star", "f_L"):
                value = p.parse_signed_real()
                p.expect_eof()
                if head == "f_star":
                    f_star = value
                else:
                    f_L = value
            else:
                node = p.parse_expression()
                p.expect_eof()
                if head == "objective":
                    if objective is not None:
                        raise ProblemSyntaxError("duplicate 'objective' line", line_no, col)
                    objective = node
                elif head == "g":
                    if g is not None:
                        raise ProblemSyntaxError("duplicate 'g' line", line_no, col)
                    g = node
                else:
                    h.append(node)
        else:
            raise ProblemSyntaxError(f"unknown keyword {head!r}", line_no, col)

    for label, value in (("problem", name), ("objective", objective), ("g", g)):
        if value is None:
            raise ProblemValidationError(f"missing {label!r} line")
    try:
        return GsipProblem(name, BoxDomain(outer), BoxDomain(inner),
                           objective, g, tuple(h), f_star, f_L)
    except ValueError as e:
        raise ProblemValidationError(str(e)) from None


# -- canonical serialization ------------------------------------------------

_LVL_SUM, _LVL_PROD, _LVL_UNARY, _LVL_POW, _LVL_ATOM = 1, 2, 3, 4, 5


def _fmt_real(v: float) -> str:
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

    Raises ``ValueError`` for a name the text cannot carry: a problem name
    with a quote, ``#`` or a line break, or a variable name that is not an
    identifier or is ``min``/``max``.
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
