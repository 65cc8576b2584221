import math
import random
from pathlib import Path

import pytest

from conftest import random_problem
from gsiplab import expr as ex
from gsiplab.domains import BoxDomain
from gsiplab.gsip import GsipProblem, builtin_problems, get_builtin
from gsiplab.problem_format import (ProblemSyntaxError, ProblemValidationError,
                                    format_expr, parse_expression,
                                    parse_problem, serialize_problem)

GOLDEN = Path(__file__).parent / "golden"


def _cex1_with(**changes) -> GsipProblem:
    """cex1 with some fields changed, built from its fields."""
    p = get_builtin("cex1")
    fields = {n: getattr(p, n) for n in GsipProblem.__match_args__}
    return GsipProblem(**{**fields, **changes})

CEX1_SOURCE = """\
# divergence counterexample
problem "cex1"
outer x in [-1, 1]
inner y in [-1, 1]
objective: -x
g: (x - y)^2 - 10
h: -2*x + y
f_L: 0.5
"""


class TestParsing:
    def test_cex1_source(self):
        p = parse_problem(CEX1_SOURCE)
        assert p.name == "cex1"
        assert p.X.coords == (("x", -1.0, 1.0),)
        assert p.Y.coords == (("y", -1.0, 1.0),)
        x, y = ex.var("x"), ex.var("y")
        assert p.f == -x
        assert p.g == (x - y) ** 2 - 10.0
        assert p.h == (-2.0 * x + y,)
        assert p.f_star is None
        assert p.f_L == 0.5

    def test_undeclared_variable(self):
        bad = CEX1_SOURCE.replace("objective: -x", "objective: -z")
        with pytest.raises(ProblemValidationError, match="z"):
            parse_problem(bad)

    def test_inner_variable_in_objective_rejected(self):
        bad = CEX1_SOURCE.replace("objective: -x", "objective: -y")
        with pytest.raises(ProblemValidationError):
            parse_problem(bad)

    def test_duplicate_declaration(self):
        bad = CEX1_SOURCE + "inner x in [0, 1]\n"
        with pytest.raises(ProblemSyntaxError, match="duplicate"):
            parse_problem(bad)

    def test_syntax_error_has_position(self):
        with pytest.raises(ProblemSyntaxError) as err:
            parse_problem('problem "t"\nouter x in [0 1]\n')
        assert err.value.line == 2
        assert err.value.column > 0

    def test_empty_bounds_rejected(self):
        bad = CEX1_SOURCE.replace("outer x in [-1, 1]", "outer x in [2, 1]")
        with pytest.raises(ValueError):
            parse_problem(bad)

    @pytest.mark.parametrize("keyword", ["min", "max"])
    def test_function_name_cannot_name_a_variable(self, keyword):
        bad = CEX1_SOURCE + f"inner {keyword} in [0, 1]\n"
        with pytest.raises(ProblemSyntaxError, match=keyword):
            parse_problem(bad)

    def test_crlf_accepted(self):
        p = parse_problem(CEX1_SOURCE.replace("\n", "\r\n"))
        assert p == parse_problem(CEX1_SOURCE)

    def test_fractional_exponent_rejected(self):
        with pytest.raises(ProblemSyntaxError):
            parse_expression("x^2.5")

    def test_negative_exponent_rejected(self):
        with pytest.raises(ProblemSyntaxError):
            parse_expression("x^-2")

    def test_a_first_power_is_its_base(self):
        # u^1 is u (expr.ipow), so fmt writes it as u
        assert parse_expression("x^1") == ex.var("x")
        e = parse_expression("x^1 + (x - y)^1*y^2")
        assert e == parse_expression("x + (x - y)*y^2")
        assert format_expr(e) == "x + (x - y)*y^2"


class TestSerialization:
    def test_cex1_round_trip(self):
        p = parse_problem(CEX1_SOURCE)
        assert parse_problem(serialize_problem(p)) == p

    def test_h_constraints_keep_order(self):
        src = CEX1_SOURCE + "h: x + y\n"
        p = parse_problem(src)
        assert len(p.h) == 2
        text = serialize_problem(p)
        assert text.index("h: -2.0*x + y") < text.index("h: x + y")
        assert parse_problem(text) == p

    def test_reference_value_lines_golden(self):
        # golden file frozen from the first serialization of the builtin
        text = serialize_problem(builtin_problems()[0])
        assert "f_star: 0.5" in text and "f_L: 0.5" in text
        assert text == (GOLDEN / "cex1.gsip").read_text()

    @pytest.mark.parametrize("name", [
        'a"b', "a#b", "a\rb", "a\nb", "trailing\n", "a\x0bb", "a\u2028b"])
    def test_unwritable_problem_name_rejected(self, name):
        p = _cex1_with(name=name)
        with pytest.raises(ValueError, match="problem name"):
            serialize_problem(p)

    @pytest.mark.parametrize("field,value", [
        ("f", -ex.var("x") * math.inf), ("g", ex.var("y") - math.nan),
        ("f_star", math.inf), ("f_L", -math.inf)])
    def test_non_finite_number_rejected(self, field, value):
        p = _cex1_with(**{field: value})
        with pytest.raises(ValueError, match="cannot be written"):
            serialize_problem(p)

    @pytest.mark.parametrize("outer,inner", [
        ("min", "y"), ("x", "max"), ("2x", "y"), ("x", "y-1"), ("x y", "y"),
        ("\u00e9", "y")])
    def test_unwritable_variable_name_rejected(self, outer, inner):
        x, y = ex.var(outer), ex.var(inner)
        p = GsipProblem("t", BoxDomain([(outer, -1, 1)]),
                        BoxDomain([(inner, -1, 1)]), -x, y - 10.0, (x + y,))
        with pytest.raises(ValueError, match="variable name"):
            serialize_problem(p)

    def test_unusual_but_writable_names_round_trip(self):
        # keywords other than min/max are plain identifiers in the grammar
        names = ("outer", "in")
        x, y = (ex.var(n) for n in names)
        p = GsipProblem("spaces, 'quotes' & é", BoxDomain([(names[0], -1, 1)]),
                        BoxDomain([(names[1], -1, 1)]), -x, y - 10.0, (x + y,))
        assert parse_problem(serialize_problem(p)) == p

    def test_builtins_round_trip(self):
        for p in builtin_problems():
            assert parse_problem(serialize_problem(p)) == p


class TestExpressionFormatting:
    @pytest.mark.parametrize("text", [
        "x + y*z", "(x + y)*z", "x - (y - z)", "x - y - z",
        "-x^2", "(-x)^2", "x/y/z", "x/(y/z)", "min(x, max(y, z))",
        "-(x + y)", "x*-y", "2.0 - -3.0",
    ])
    def test_round_trip_preserves_structure(self, text):
        e = parse_expression(text)
        assert parse_expression(format_expr(e)) == e

    def test_a_power_of_negative_zero_round_trips(self):
        # -0.0 == 0.0, so the sign bit decides the parentheses: "-0.0^2"
        # would parse back as -(0.0^2), whose value is -0.0, not 0.0
        zero = ex.const(-0.0)
        for e in (zero ** 2, zero ** 3, zero ** 2 * ex.var("x")):
            text = format_expr(e)
            assert text.startswith("(-0.0)^")
            assert repr(parse_expression(text)) == repr(e)

    def test_fuzzed_expressions_round_trip(self):
        rng = random.Random(99)
        from conftest import random_expr
        for _ in range(300):
            e = random_expr(rng, ["x", "y", "z"], rng.randint(0, 6))
            assert parse_expression(format_expr(e)) == e


class TestFuzzedDocuments:
    def test_round_trip_identity(self):
        rng = random.Random(20260823)
        for _ in range(100):
            p = random_problem(rng)
            assert parse_problem(serialize_problem(p)) == p

    def test_parse_errors_are_diagnostics(self):
        # mangled inputs must raise structured errors, never crash elsewhere
        rng = random.Random(5)
        text = serialize_problem(random_problem(rng))
        for cut in range(0, len(text), 17):
            mangled = text[:cut] + "@" + text[cut:]
            try:
                p = parse_problem(mangled)
            except (ProblemSyntaxError, ProblemValidationError):
                continue
            # the only harmless place for the junk is inside the quoted name
            assert "@" in p.name
