"""The value classes (``gsiplab.immutable.frozen``): construction, equality,
hashing, ``repr``, immutability, validation, pickling and copying."""
import copy
import json
import math
import os
import pickle
import re
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import ReferenceInterval
from gsiplab import algorithms, gsip
from gsiplab import expr as ex
from gsiplab.algorithms import AlgorithmConfig, IterateRecord, RunResult
from gsiplab.domains import BoxDomain
from gsiplab.expr import EmptyIntervalError, Expr, Interval
from gsiplab.globalopt import ConstraintSpec, MinimizeOutcome
from gsiplab.gsip import GsipProblem, SlaterCertificate, SubproblemInstance
from gsiplab.immutable import frozen, kept

x, y = ex.var("x"), ex.var("y")


def _samples():
    """One value of each value class of the package."""
    p = gsip.get_builtin("cex1")
    out = MinimizeOutcome("optimal", {"x": 1.0}, -1.0, Interval(-1.0, -1.0))
    record = IterateRecord(1, {"x": 1.0}, -1.0, out, None, None, {"y": 0.5}, 2)
    return [
        Interval(0.0, 1.0), x * 2.0 - y, BoxDomain([("x", -1.0, 1.0)]),
        ConstraintSpec(x - y, "ge", (("y", 0.5),)), out, p,
        SlaterCertificate({"x": 0.0}, 0.5, 0.25),
        SubproblemInstance(-x, (ConstraintSpec(x),), p.X, (("y", 1.0),)),
        AlgorithmConfig(variant=algorithms.LLP_ONLY, max_iter=3),
        record, RunResult((record,), algorithms.ITERATION_CAP, -1.0),
    ]


SAMPLES = _samples()
IDS = [type(v).__name__ for v in SAMPLES]
SRC = Path(__file__).resolve().parent.parent / "src"


class TestRepr:
    def test_nested_values_read_as_their_constructor_calls(self):
        out = MinimizeOutcome("optimal", {"x": 1.0}, 2.0, Interval(0.0, 1.0))
        assert repr(out) == (
            "MinimizeOutcome(status='optimal', minimizer={'x': 1.0}, "
            "value=2.0, value_bounds=Interval(lo=0.0, hi=1.0))")

    def test_a_subclass_shows_its_own_name(self):
        assert repr(ReferenceInterval(0.0, 1.0)) == "ReferenceInterval(lo=0.0, hi=1.0)"


class TestEquality:
    def test_only_within_a_class(self):
        assert Interval(0.0, 1.0) == Interval(0.0, 1.0)
        assert Interval(0.0, 1.0) != Interval(0.0, 2.0)
        assert Interval(0.0, 1.0) != (0.0, 1.0)
        assert Interval(0.0, 1.0).__eq__((0.0, 1.0)) is NotImplemented
        assert Interval(0.0, 1.0) != ReferenceInterval(0.0, 1.0)

    def test_equal_values_hash_equal(self):
        assert hash(Interval(0.0, 1.0)) == hash(Interval(0.0, 1.0))
        assert hash(x * 2.0 - y) == hash(ex.var("x") * 2.0 - ex.var("y"))
        assert hash(gsip.get_builtin("cex1")) == hash(gsip.get_builtin("cex1"))
        assert len({AlgorithmConfig(), AlgorithmConfig(), AlgorithmConfig(alpha=0.5)}) == 2

    def test_a_value_with_a_dict_field_is_unhashable(self):
        with pytest.raises(TypeError):
            hash(SlaterCertificate({"x": 0.0}, 0.5, 0.25))


class TestImmutability:
    @pytest.mark.parametrize("value", SAMPLES, ids=IDS)
    def test_fields_cannot_be_assigned_or_deleted(self, value):
        name = type(value).__match_args__[0]
        before = getattr(value, name)
        with pytest.raises(AttributeError, match="cannot assign"):
            setattr(value, name, None)
        with pytest.raises(AttributeError, match="cannot delete"):
            delattr(value, name)
        with pytest.raises(AttributeError):
            value.unknown = 1
        assert getattr(value, name) is before


class TestConstruction:
    def test_positional_keyword_and_default(self):
        assert (ConstraintSpec(x, "le", ())
                == ConstraintSpec(expr=x, parameters=(), sense="le")
                == ConstraintSpec(x))
        assert Expr("var", name="x") == Expr("var", 0.0, "x", 0, ()) == x
        cfg = AlgorithmConfig()
        assert (cfg.variant, cfg.alpha, cfg.max_iter) == (algorithms.SIP_LLP, 0.95, 50)
        with pytest.raises(TypeError):
            Interval(0.0)
        with pytest.raises(TypeError):
            Interval(0.0, 1.0, hi=2.0)

    def test_match_args_are_the_fields_in_order(self):
        assert Interval.__match_args__ == ("lo", "hi")
        assert GsipProblem.__match_args__ == (
            "name", "X", "Y", "f", "g", "h", "f_star", "f_L")
        assert AlgorithmConfig.__match_args__ == (
            "variant", "alpha", "tol_feas", "tol_opt", "max_iter",
            "initial_yset", "aux_tie_break")

    def test_a_class_keeps_its_own_init(self):
        box = BoxDomain([("x", 0, 1), ("y", -1, 2)])
        assert box.names == ("x", "y")
        assert box.bounds == ((0.0, 1.0), (-1.0, 2.0))
        assert repr(box) == "BoxDomain(names=('x', 'y'), bounds=((0.0, 1.0), (-1.0, 2.0)))"

    def test_a_plain_class_becomes_a_value(self):
        @frozen
        class Pair:
            a: int
            b: str = "b"

        assert Pair(1) == Pair(a=1, b="b") != Pair(1, "c")
        assert repr(Pair(1)).endswith(".<locals>.Pair(a=1, b='b')")
        assert Pair.__init__.__qualname__.endswith("Pair.__init__")

    @pytest.mark.parametrize("build,error,match", [
        (lambda: Interval(1.0, 0.0), EmptyIntervalError, "empty interval"),
        (lambda: Interval(math.nan, 1.0), EmptyIntervalError, "empty interval"),
        (lambda: ConstraintSpec(x, "eq"), ValueError, "sense must be"),
        (lambda: AlgorithmConfig(variant="bogus"), ValueError, "variant must be"),
        (lambda: GsipProblem("t", BoxDomain([("x", -1, 1)]),
                             BoxDomain([("#level", -1, 1)]), -x, x, (x,)),
         ValueError, "reserved"),
    ])
    def test_post_init_checks_still_raise(self, build, error, match):
        with pytest.raises(error, match=match):
            build()


class TestPickleAndCopy:
    @pytest.mark.parametrize("value", SAMPLES, ids=IDS)
    def test_round_trips_give_equal_values(self, value):
        for twin in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value),
                     copy.copy(value)):
            assert twin == value
            assert not twin != value

    @pytest.mark.parametrize("value", SAMPLES, ids=IDS)
    def test_the_state_is_the_fields(self, value):
        assert list(value.__getstate__()) == list(value.__match_args__)

    def test_derived_state_stays_out(self):
        # a cached property, a tree's kernels and a spec's bindings are
        # rebuilt where they are needed, never copied or pickled
        p = gsip.get_builtin("cex1")
        before = pickle.dumps(p)
        cut = p.cut
        spec = ConstraintSpec(cut, "ge")
        spec.bind(p.Y.names + p.X.names, 1e-9)
        for value in (p, spec, cut):   # each keeps derived state now
            assert len(vars(value)) > len(value.__match_args__)
        assert pickle.dumps(p) == before
        for value in (p, spec, cut):
            for twin in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value),
                         copy.copy(value)):
                assert vars(twin).keys() == set(value.__match_args__)
                assert twin == value
        assert pickle.loads(before).cut == cut

    def test_a_kept_value_is_made_once_per_key(self):
        made = []

        def make(obj, key):
            made.append((obj, key))
            return [key]
        box = BoxDomain([("x", -1.0, 1.0)])
        first = kept(box, "_made", 3, make)
        assert kept(box, "_made", 3, make) is first
        assert kept(box, "_made", 4, make) == [4]
        assert made == [(box, 3), (box, 4)]
        assert box == BoxDomain([("x", -1.0, 1.0)])
        assert vars(copy.copy(box)).keys() == set(box.__match_args__)

    def test_cached_properties_survive(self):
        p = gsip.get_builtin("cex1")
        cut = p.cut
        for twin in (pickle.loads(pickle.dumps(p)), copy.deepcopy(p)):
            assert twin == p
            assert twin.cut == cut


@pytest.fixture(scope="module")
def frozen_sources():
    """The sources that ``frozen`` compiled while the package's modules
    were imported, by class name: a fresh interpreter with a spy on
    ``compile``."""
    script = """
import builtins, json
made, compile_ = {}, builtins.compile
def spy(source, filename, *args, **kwargs):
    if filename.startswith("<frozen "):
        made.setdefault(filename[len("<frozen "):-1], []).append(source)
    return compile_(source, filename, *args, **kwargs)
builtins.compile = spy
import gsiplab.algorithms
print(json.dumps(made))
"""
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=str(SRC)))
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def _generated_methods(cls) -> dict:
    """``__eq__``, ``__hash__``, ``__repr__`` and ``__getstate__`` written
    out as source over ``cls``'s fields, as ``frozen`` once compiled them
    per class: the reference the shared functions must match."""
    names = tuple(cls.__annotations__)
    mine = "".join(f"self.{n}, " for n in names)
    theirs = "".join(f"other.{n}, " for n in names)
    shown = ", ".join(f"{n}={{self.{n}!r}}" for n in names)
    state = ", ".join(f"{n!r}: self.{n}" for n in names)
    namespace = {}
    exec("\n".join([
        "def __eq__(self, other):",
        "    if other.__class__ is self.__class__:",
        f"        return ({mine}) == ({theirs})",
        "    return NotImplemented",
        "def __hash__(self):",
        f"    return hash(({mine}))",
        "def __repr__(self):",
        f"    return f'{{self.__class__.__qualname__}}({shown})'",
        "def __getstate__(self):",
        f"    return {{{state}}}",
    ]), namespace)
    return namespace


class TestSharedMethods:
    """Each value class compiles its ``__init__`` alone, and shares the
    other methods, whose results are those of methods generated for it."""

    @pytest.mark.parametrize("value", SAMPLES, ids=IDS)
    def test_a_class_compiles_its_init_alone(self, value, frozen_sources):
        cls = type(value)
        sources = frozen_sources.get(cls.__qualname__, [])
        # BoxDomain defines its own __init__, and compiles nothing
        assert len(sources) == (cls is not BoxDomain)
        for source in sources:
            assert re.findall(r"^def (\w+)", source, re.MULTILINE) == ["__init__"]

    @pytest.mark.parametrize("value", SAMPLES, ids=IDS)
    def test_repr_hash_and_state_are_the_generated_ones(self, value):
        generated = _generated_methods(type(value))
        assert repr(value) == generated["__repr__"](value)
        state = value.__getstate__()
        assert state == generated["__getstate__"](value)
        assert list(state) == list(generated["__getstate__"](value))
        try:
            want = generated["__hash__"](value)
        except TypeError:   # a field is a dict
            with pytest.raises(TypeError):
                hash(value)
        else:
            assert hash(value) == want
        assert type(value).__match_args__ == tuple(type(value).__annotations__)

    @pytest.mark.parametrize("value", SAMPLES, ids=IDS)
    def test_equality_is_the_generated_one_against_every_class(self, value):
        eq = _generated_methods(type(value))["__eq__"]
        twins = [copy.copy(value), pickle.loads(pickle.dumps(value))]
        for other in [*SAMPLES, *twins, (value,), None]:
            got, want = value.__eq__(other), eq(value, other)
            assert got is want if want is NotImplemented else got == want
        assert all(value == twin for twin in twins)

    @pytest.mark.parametrize("value", SAMPLES, ids=IDS)
    def test_copies_and_pickles_read_as_the_value(self, value):
        for twin in (copy.copy(value), pickle.loads(pickle.dumps(value))):
            assert type(twin) is type(value)
            assert repr(twin) == repr(value)
            assert vars(twin) == _generated_methods(type(value))["__getstate__"](value)
