"""Layer tracer for the gsiplab benchmark.

The tracer wraps public functions of gsiplab's modules from outside, for the
length of one traced pass, and records a span (name, start, end, parent) for
each call.  Spans live in flat arrays in memory and are reduced to per-layer
metrics when the pass ends.  A span's name is ``<layer>.<function>``; a
layer's self time is the time its spans cover minus the time covered by their
child spans, so the self times of all layers (``bench`` included) add up to
the duration of the ``bench.pass`` root span.

Every hook is resolved once, at start-up (``resolve``).  A hook that no
longer resolves makes the metrics built on it absent, with the reason; the
run goes on and untraced passes never see a wrapper.
"""
from __future__ import annotations

import contextlib
import importlib
import sys
import time
from array import array
from dataclasses import dataclass


@dataclass(frozen=True)
class Hook:
    span: str          # "<layer>.<function>"
    module: str        # module that binds the name
    attr: str          # attribute path in that module, e.g. "BoxDomain.bisect"
    everywhere: bool   # wrap every gsiplab module that binds the same object


HOOKS = (
    # expr: the calls globalopt makes (recursion inside expr is not counted)
    Hook("expr.evaluate", "gsiplab.globalopt", "evaluate", False),
    Hook("expr.interval_eval", "gsiplab.globalopt", "interval_eval", False),
    Hook("expr.evaluate_array", "gsiplab.globalopt", "evaluate_array", False),
    Hook("expr.substitute", "gsiplab.gsip", "substitute", False),
    Hook("domains.bisect", "gsiplab.domains", "BoxDomain.bisect", False),
    Hook("domains.midpoint", "gsiplab.domains", "BoxDomain.midpoint", False),
    Hook("domains.corners", "gsiplab.domains", "BoxDomain.corners", False),
    Hook("domains.intervals", "gsiplab.domains", "BoxDomain.intervals", False),
    Hook("globalopt.minimize", "gsiplab.globalopt", "minimize", True),
    Hook("globalopt.grid_minimize", "gsiplab.globalopt", "grid_minimize", True),
    Hook("gsip.build_lower_bounding", "gsiplab.gsip", "build_lower_bounding", True),
    Hook("gsip.build_llp", "gsiplab.gsip", "build_llp", True),
    Hook("gsip.build_aux_llp", "gsiplab.gsip", "build_aux_llp", True),
    Hook("gsip.build_sip_llp", "gsiplab.gsip", "build_sip_llp", True),
    Hook("algorithms.run", "gsiplab.algorithms", "run", True),
    Hook("algorithms.diagnose_trace", "gsiplab.algorithms", "diagnose_trace", True),
    Hook("problem_format.parse_problem", "gsiplab.problem_format", "parse_problem", True),
    Hook("problem_format.serialize_problem", "gsiplab.problem_format",
         "serialize_problem", True),
    Hook("cli.main", "gsiplab.cli", "main", True),
)

# Each minimize call made by the algorithms module is attributed to the
# builder that produced the instance it solves, through these names.
SOLVE_KINDS = {"lb": "build_lower_bounding", "llp": "build_llp",
               "aux": "build_aux_llp", "sip": "build_sip_llp"}
ATTRIBUTION_MODULE = "gsiplab.algorithms"

LAYERS = ("expr", "domains", "globalopt", "gsip", "algorithms",
          "problem_format", "cli", "bench")


@dataclass(frozen=True)
class Plan:
    """Hooks resolved at start-up: the bindings to wrap, and what is absent."""

    bindings: tuple        # (span name, ((owner, attr), ...)) per found hook
    attribution: tuple     # (kind, attr) to wrap in ATTRIBUTION_MODULE
    absent: dict           # span name or "algorithms.kinds" -> reason


def _is_gsiplab(name: str) -> bool:
    return name == "gsiplab" or name.startswith("gsiplab.")


def resolve(hooks=HOOKS) -> Plan:
    bindings = []
    absent = {}
    for hook in hooks:
        try:
            owner = importlib.import_module(hook.module)
            *path, attr = hook.attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            fn = getattr(owner, attr)
        except (ImportError, AttributeError) as e:
            absent[hook.span] = f"hook {hook.module}.{hook.attr} not found: {e}"
            continue
        owners = [owner]
        if hook.everywhere:
            owners += [m for name, m in sorted(sys.modules.items())
                       if _is_gsiplab(name) and m is not owner
                       and getattr(m, attr, None) is fn]
        bindings.append((hook.span, tuple((o, attr) for o in owners)))

    attribution = ()
    try:
        mod = importlib.import_module(ATTRIBUTION_MODULE)
        for attr in ("minimize", *SOLVE_KINDS.values()):
            getattr(mod, attr)
        if "globalopt.minimize" in absent:
            raise AttributeError("globalopt.minimize is not traced")
        attribution = tuple(SOLVE_KINDS.items())
    except (ImportError, AttributeError) as e:
        absent["algorithms.kinds"] = f"solve attribution hooks not found: {e}"
    return Plan(tuple(bindings), attribution, absent)


class Tracer:
    """Wrappers and spans of one traced pass; use as a context manager."""

    def __init__(self, plan: Plan):
        self.plan = plan
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.errors: dict[int, str] = {}   # span index -> exception type name
        self.kinds: dict[int, str] = {}    # minimize span index -> solve kind
        self.lb_cuts = 0
        self.iterations = 0
        self._stack = [-1]
        self._restore: list = []
        self._built: dict[int, tuple] = {}
        self._last_kind = None

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _wrap(self, fn, span_name: str, on_result=None):
        nid = self._id(span_name)
        name_id, parent, start, end = self.name_id, self.parent, self.start, self.end
        stack, errors, clock = self._stack, self.errors, time.perf_counter

        def traced(*args, **kwargs):
            i = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            except Exception as e:
                end[i] = clock()
                stack.pop()
                errors[i] = type(e).__name__
                raise
            end[i] = clock()
            stack.pop()
            if on_result is not None:
                on_result(result)
            return result
        return traced

    @contextlib.contextmanager
    def span(self, span_name: str):
        """A span around the benchmark's own code."""
        i = len(self.start)
        self.name_id.append(self._id(span_name))
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(time.perf_counter())
        try:
            yield
        finally:
            self.end[i] = time.perf_counter()
            self._stack.pop()

    def _count_cuts(self, inst):
        self.lb_cuts += len(inst.constraints)

    def _count_iterations(self, result):
        self.iterations += len(result.trace)

    def _patch(self, owner, attr, make):
        current = getattr(owner, attr)
        setattr(owner, attr, make(current))
        self._restore.append((owner, attr, current))

    def __enter__(self):
        on_results = {"gsip.build_lower_bounding": self._count_cuts,
                      "algorithms.run": self._count_iterations}
        for span_name, owners in self.plan.bindings:
            on_result = on_results.get(span_name)
            for owner, attr in owners:
                self._patch(owner, attr,
                            lambda fn: self._wrap(fn, span_name, on_result))
        if self.plan.attribution:
            mod = sys.modules[ATTRIBUTION_MODULE]
            for kind, attr in self.plan.attribution:
                self._patch(mod, attr, lambda fn: self._attribute_build(fn, kind))
            self._patch(mod, "minimize", self._attribute_solve)
        return self

    def __exit__(self, *exc):
        while self._restore:
            owner, attr, fn = self._restore.pop()
            setattr(owner, attr, fn)
        self._built.clear()
        return False

    def _attribute_build(self, fn, kind):
        def build(*args, **kwargs):
            inst = fn(*args, **kwargs)
            self._built[id(inst.objective)] = (kind, inst)  # inst keeps the id alive
            self._last_kind = kind
            return inst
        return build

    def _attribute_solve(self, fn):
        def solve(objective, *args, **kwargs):
            # a derived instance (the aux tie-break re-solve) has an objective
            # no builder made; it belongs to the most recent builder
            entry = self._built.get(id(objective))
            # the next span opened is the globalopt.minimize span of this call
            self.kinds[len(self.start)] = entry[0] if entry else self._last_kind
            return fn(objective, *args, **kwargs)
        return solve


class Absent(Exception):
    """A metric's hook was not found."""


class Summary:
    """Per-span-name and per-layer totals of one traced pass."""

    def __init__(self, tracer: Tracer):
        n = len(tracer.start)
        ids, parent = tracer.name_id, tracer.parent
        dur = array("d", (e - s for s, e in zip(tracer.start, tracer.end)))
        child = array("d", bytes(8 * n))
        for i, p in enumerate(parent):
            if p >= 0:
                child[p] += dur[i]
        k = len(tracer.names)
        count, total, self_s = [0] * k, [0.0] * k, [0.0] * k
        minimize = tracer._ids.get("globalopt.minimize", -1)
        bisect = tracer._ids.get("domains.bisect", -1)
        self.solve_nodes: dict[int, int] = {}   # minimize span -> bisect calls
        self.solve_s: dict[int, float] = {}
        self.root_s = 0.0
        for i in range(n):
            j = ids[i]
            count[j] += 1
            total[j] += dur[i]
            self_s[j] += dur[i] - child[i]
            p = parent[i]
            if j == minimize:
                self.solve_nodes.setdefault(i, 0)
                self.solve_s[i] = dur[i]
            elif j == bisect and p >= 0 and ids[p] == minimize:
                self.solve_nodes[p] += 1
            if p < 0:
                self.root_s += dur[i]
        self._count = dict(zip(tracer.names, count))
        self._total = dict(zip(tracer.names, total))
        self.layer_self = dict.fromkeys(LAYERS, 0.0)
        for name, v in zip(tracer.names, self_s):
            self.layer_self[name.split(".", 1)[0]] += v
        self.absent = tracer.plan.absent
        self._exhausted = sum(tracer.errors.get(i) == "NodeBudgetExceeded"
                              for i in self.solve_s)
        self._kinds = tracer.kinds
        self._lb_cuts = tracer.lb_cuts
        self._iterations = tracer.iterations

    def _need(self, span: str):
        if span in self.absent:
            raise Absent(self.absent[span])

    def count(self, span: str) -> int:
        self._need(span)
        return self._count.get(span, 0)

    def total(self, span: str) -> float:
        self._need(span)
        return self._total.get(span, 0.0)

    def layer(self, layer: str) -> float:
        for span in self.absent:
            if span.startswith(layer + "."):
                raise Absent(self.absent[span])
        return self.layer_self[layer]

    def nodes(self) -> int:
        self._need("domains.bisect")
        self._need("globalopt.minimize")
        return sum(self.solve_nodes.values())

    def max_solve_nodes(self) -> int:
        self.nodes()
        return max(self.solve_nodes.values(), default=0)

    def budget_exhausted(self) -> int:
        self._need("globalopt.minimize")
        return self._exhausted

    def lb_cuts(self) -> int:
        self._need("gsip.build_lower_bounding")
        return self._lb_cuts

    def iterations(self) -> int:
        self._need("algorithms.run")
        return self._iterations

    def kind(self, kind: str):
        """(solves, nodes, seconds) of the minimize calls of one kind."""
        self._need("algorithms.kinds")
        self.nodes()
        spans = [i for i, k in self._kinds.items() if k == kind]
        return (len(spans), sum(self.solve_nodes[i] for i in spans),
                sum((self.solve_s[i] for i in spans), 0.0))


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


_DOMAINS = ("domains.bisect", "domains.midpoint", "domains.corners",
            "domains.intervals")
_BUILDS = tuple(f"gsip.{attr}" for attr in SOLVE_KINDS.values())

# name -> (unit, value of a Summary); the order is the order of the output
LAYER_METRICS = {
    "expr.point_evals": ("count", lambda s: s.count("expr.evaluate")),
    "expr.point_s": ("s", lambda s: s.total("expr.evaluate")),
    "expr.interval_evals": ("count", lambda s: s.count("expr.interval_eval")),
    "expr.interval_s": ("s", lambda s: s.total("expr.interval_eval")),
    "expr.point_evals_per_node": (
        "evals/node", lambda s: _ratio(s.count("expr.evaluate"), s.nodes())),
    "expr.array_evals": ("count", lambda s: s.count("expr.evaluate_array")),
    "expr.array_s": ("s", lambda s: s.total("expr.evaluate_array")),
    "expr.substitute_calls": ("count", lambda s: s.count("expr.substitute")),
    "expr.substitute_s": ("s", lambda s: s.total("expr.substitute")),
    "domains.box_calls": ("count", lambda s: sum(s.count(n) for n in _DOMAINS)),
    "domains.box_s": ("s", lambda s: sum(s.total(n) for n in _DOMAINS)),
    "globalopt.solves": ("count", lambda s: s.count("globalopt.minimize")),
    "globalopt.nodes": ("count", lambda s: s.nodes()),
    "globalopt.max_solve_nodes": ("count", Summary.max_solve_nodes),
    "globalopt.budget_exhausted": ("count", Summary.budget_exhausted),
    "globalopt.solve_s": ("s", lambda s: s.total("globalopt.minimize")),
    "globalopt.nodes_per_s": (
        "1/s", lambda s: _ratio(s.nodes(), s.total("globalopt.minimize"))),
    "globalopt.grid_calls": ("count", lambda s: s.count("globalopt.grid_minimize")),
    "globalopt.grid_s": ("s", lambda s: s.total("globalopt.grid_minimize")),
    "gsip.builds": ("count", lambda s: sum(s.count(n) for n in _BUILDS)),
    "gsip.build_s": ("s", lambda s: sum(s.total(n) for n in _BUILDS)),
    "gsip.lb_cuts": ("count", Summary.lb_cuts),
    "algorithms.runs": ("count", lambda s: s.count("algorithms.run")),
    "algorithms.iterations": ("count", Summary.iterations),
    "algorithms.diagnose_s": ("s", lambda s: s.total("algorithms.diagnose_trace")),
    **{f"algorithms.{kind}_{what}": (unit, lambda s, k=kind, j=j: s.kind(k)[j])
       for kind in SOLVE_KINDS
       for j, (what, unit) in enumerate((("solves", "count"), ("nodes", "count"),
                                         ("solve_s", "s")))},
    "problem_format.parse_calls": (
        "count", lambda s: s.count("problem_format.parse_problem")),
    "problem_format.parse_s": ("s", lambda s: s.total("problem_format.parse_problem")),
    "problem_format.serialize_s": (
        "s", lambda s: s.total("problem_format.serialize_problem")),
    "cli.main_s": ("s", lambda s: s.total("cli.main")),
    **{f"{layer}.self_s": ("s", lambda s, layer=layer: s.layer(layer))
       for layer in LAYERS},
    "trace.traced_pass_s": ("s", lambda s: s.root_s),
}


def layer_metrics(summary: Summary) -> dict:
    """name -> (unit, value or None, reason it is absent or None)."""
    out = {}
    for name, (unit, fn) in LAYER_METRICS.items():
        try:
            out[name] = (unit, fn(summary), None)
        except Absent as e:
            out[name] = (unit, None, str(e))
    return out

