"""Inputs, operations and correctness checks of the gsiplab benchmark.

A workload is a fixed list of operations run one after another by one
client (a closed loop: the next operation starts when the previous one has
returned).  Only an operation's call is timed.  Its check runs after the
pass, outside the timed region; a failed check or an operation that raises
is counted as a failed operation and never ends the run.

The inputs are built here; the workload seed orders the operations.  The
random-polynomial recipe is a copy of ``tests/conftest.py::
random_poly_instance`` (the benchmark's test checks that both give the same
instances), and the cex1 problem file is the benchmark's own ``cex1.gsip``.  Every call into gsiplab
goes through a module attribute (``globalopt.minimize``, ``cli.main``...)
looked up at call time, so that the tracer's wrappers see it.
"""
from __future__ import annotations

import contextlib
import io
import os
import random
import re
import subprocess
import sys
import time
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable, NamedTuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from gsiplab import algorithms, cli, domains, globalopt, gsip  # noqa: E402
from gsiplab import expr as ex  # noqa: E402

CEX1_FILE = Path(__file__).with_name("cex1.gsip")
CLI_CHILD = Path(__file__).with_name("cli_child.py")


class CheckFailed(AssertionError):
    """An operation returned a wrong result."""


def expect(condition: bool, message: str):
    if not condition:
        raise CheckFailed(message)


@dataclass(frozen=True)
class Op:
    """One operation: ``call`` is timed, ``check`` validates its result.

    ``call`` receives the results of the operations run before it in the
    same pass, keyed by operation name.
    """

    name: str
    call: Callable[[dict], object]
    check: Callable[[object], None]


@dataclass(frozen=True)
class Workload:
    name: str
    ops: tuple[Op, ...]
    # the same operations run in this process, for the traced run; for `cli`
    # these call `gsiplab.cli.main` instead of starting a subprocess
    traced_ops: tuple[Op, ...]
    # trailing operations that use the results of earlier ones stay last
    pinned: int = 0

    @property
    def in_subprocesses(self) -> bool:
        return self.traced_ops is not self.ops

    def shuffled(self, rng: random.Random) -> tuple[Op, ...]:
        """The operations in a new order, the pinned ones still last."""
        free = len(self.ops) - self.pinned
        return tuple(rng.sample(self.ops[:free], free)) + self.ops[free:]


@dataclass(frozen=True)
class Pass:
    wall: float
    names: tuple[str, ...]
    starts: tuple[float, ...]
    latencies: tuple[float, ...]
    own_scales: tuple[float | None, ...]
    failures: tuple[tuple[str, str], ...]


@contextlib.contextmanager
def _no_span(name):
    yield


def run_pass(ops, span=_no_span) -> Pass:
    """Run every operation once, in order, then check the results."""
    results: dict = {}
    errors: dict = {}
    starts = []
    latencies = []
    own_scales = []
    with span("bench.pass"):
        start = time.perf_counter()
        for op in ops:
            t0 = time.perf_counter()
            with span("bench.op"):
                try:
                    results[op.name] = op.call(results)
                except Exception as e:  # a raising operation is a failed one
                    errors[op.name] = f"{type(e).__name__}: {e}"
            starts.append(t0)
            latencies.append(time.perf_counter() - t0)
            # a subprocess that measured its own speed (speed.py) returns it
            own_scales.append(getattr(results.get(op.name), "speed_scale", None))
        wall = time.perf_counter() - start
    failures = []
    for op in ops:
        if op.name in errors:
            failures.append((op.name, errors[op.name]))
            continue
        try:
            op.check(results[op.name])
        except Exception as e:  # a check that cannot run is a failed check
            failures.append((op.name, f"{type(e).__name__}: {e}"))
    return Pass(wall, tuple(op.name for op in ops), tuple(starts),
                tuple(latencies), tuple(own_scales), tuple(failures))


# -- oracle50 -----------------------------------------------------------------

ORACLE_INSTANCES = 50
ORACLE_TOL_OPT = 1e-3
ORACLE_NODE_BUDGET = 400_000
ORACLE_GRID = 401


@dataclass(frozen=True)
class PolyInstance:
    """A random instance as gsiplab objects plus a plain-Python copy of its
    polynomials, which the check evaluates independently of gsiplab."""

    objective: object
    constraints: tuple
    box: object
    coords: tuple[tuple[str, float, float], ...]
    objective_terms: tuple
    constraint_terms: tuple  # (sense, terms) per constraint


def _random_box(rng: random.Random, names):
    coords = []
    for n in names:
        lo = rng.uniform(-3.0, 3.0)
        coords.append((n, lo, lo + rng.uniform(0.05, 2.0)))
    return tuple(coords)


def _random_polynomial(rng: random.Random, names, max_degree: int = 4,
                       max_terms: int = 5):
    """Sparse polynomial of random monomials; returns (Expr, terms) where
    terms is ((coefficient, degrees), ...) with degrees aligned to names."""
    exprs = []
    terms = []
    for _ in range(rng.randint(1, max_terms)):
        degrees = []
        budget = max_degree
        for _n in names:
            d = rng.randint(0, budget)
            degrees.append(d)
            budget -= d
        coef = rng.uniform(-3.0, 3.0)
        term = ex.const(coef)
        for n, d in zip(names, degrees):
            if d:
                term = ex.mul(term, ex.ipow(ex.var(n), d))
        exprs.append(term)
        terms.append((coef, tuple(degrees)))
    poly = exprs[0]
    for t in exprs[1:]:
        poly = ex.add(poly, t)
    return poly, tuple(terms)


def random_poly_instance(seed: int) -> PolyInstance:
    rng = random.Random(seed)
    names = ["u", "v"][: rng.randint(1, 2)]
    coords = _random_box(rng, names)
    objective, objective_terms = _random_polynomial(rng, names)
    constraints = []
    constraint_terms = []
    for _ in range(rng.randint(0, 2)):
        poly, terms = _random_polynomial(rng, names, max_terms=3)
        sense = rng.choice(["le", "ge"])
        constraints.append(globalopt.ConstraintSpec(poly, sense))
        constraint_terms.append((sense, terms))
    return PolyInstance(objective, tuple(constraints), domains.BoxDomain(coords),
                        coords, objective_terms, tuple(constraint_terms))


def poly_value(terms, names, point) -> float:
    """Evaluate in the same operation order as gsiplab's tree evaluation."""
    total = None
    for coef, degrees in terms:
        t = coef
        for n, d in zip(names, degrees):
            if d:
                t = t * point[n] ** d
        total = t if total is None else total + t
    return total


def _solve_with_oracle(inst: PolyInstance, _results):
    bnb = globalopt.minimize(inst.objective, inst.constraints, inst.box,
                             tol_opt=ORACLE_TOL_OPT,
                             node_budget=ORACLE_NODE_BUDGET)
    oracle = globalopt.grid_minimize(inst.objective, inst.constraints,
                                     inst.box, ORACLE_GRID)
    return bnb, oracle


def _check_oracle(inst: PolyInstance, out):
    """The assertions of test_solver_matches_dense_grid_oracle."""
    bnb, oracle = out
    names = [n for n, _, _ in inst.coords]
    expect(bnb.status in ("optimal", "infeasible"), f"status {bnb.status!r}")
    if bnb.status == "optimal":
        x = bnb.minimizer
        expect(set(x) == set(names), f"minimizer variables {sorted(x)}")
        expect(all(lo - 1e-12 <= x[n] <= hi + 1e-12 for n, lo, hi in inst.coords),
               "minimizer outside the box")
        for sense, terms in inst.constraint_terms:
            v = poly_value(terms, names, x)
            expect(v <= 1e-9 if sense == "le" else v >= -1e-9,
                   f"minimizer violates a {sense} constraint: {v}")
        v = poly_value(inst.objective_terms, names, x)
        lo, hi = bnb.value_bounds.lo, bnb.value_bounds.hi
        expect(lo - 1e-12 <= v <= hi + 1e-12, f"value {v} outside [{lo}, {hi}]")
        if oracle.status == "optimal":
            expect(lo <= oracle.value + 1e-12,
                   f"certified bound {lo} above grid value {oracle.value}")
            expect(bnb.value <= oracle.value + ORACLE_TOL_OPT + 1e-12,
                   f"incumbent {bnb.value} misses grid value {oracle.value}")
    else:
        expect(oracle.status == "infeasible",
               "certified infeasible but the grid found a feasible point")


def _oracle50(seed: int) -> Workload:
    # The instances are always the test suite's 50; the seed only orders them.
    # Instance sets drawn per seed would differ in how many deep solves they
    # hold, and so in cost by far more than the run-to-run noise.
    seeds = list(range(ORACLE_INSTANCES))
    random.Random(seed).shuffle(seeds)
    ops = []
    for s in seeds:
        inst = random_poly_instance(s)
        ops.append(Op(f"instance {s}", partial(_solve_with_oracle, inst),
                      partial(_check_oracle, inst)))
    ops = tuple(ops)
    return Workload("oracle50", ops, ops)


# -- paper-loops --------------------------------------------------------------

PAPER_MAX_ITER = 20
# expectations, as module constants so that the benchmark's test can break one
LLP_ONLY_CEX1_BOUNDS = tuple(-(2.0 ** (1 - k)) for k in range(1, PAPER_MAX_ITER + 1))
AUX_LLP_CEX2_STALL = 0.0
SIP_LLP_BOUND = 0.5
SIP_LLP_ITERATIONS = 2


def _run_variant(problem, variant: str, _results):
    return algorithms.run(problem, algorithms.AlgorithmConfig(
        variant=variant, max_iter=PAPER_MAX_ITER))


def _check_run(problem, variant: str, result):
    expect(result.final_lower_bound <= problem.f_L + 1e-9,
           f"final bound {result.final_lower_bound} above f_L {problem.f_L}")
    if (variant, problem.name) == (algorithms.LLP_ONLY, "cex1"):
        bounds = tuple(r.f_lower for r in result.trace)
        expect(len(bounds) == len(LLP_ONLY_CEX1_BOUNDS),
               f"{len(bounds)} iterations, expected {len(LLP_ONLY_CEX1_BOUNDS)}")
        for k, (got, want) in enumerate(zip(bounds, LLP_ONLY_CEX1_BOUNDS), 1):
            expect(abs(got - want) <= 1e-6, f"f_L{k} = {got}, expected {want}")
    elif (variant, problem.name) == (algorithms.AUX_LLP, "cex2"):
        expect(result.status == "stalled", f"status {result.status!r}")
        expect(abs(result.final_lower_bound - AUX_LLP_CEX2_STALL) <= 1e-6,
               f"stalled at {result.final_lower_bound}")
    elif variant == algorithms.SIP_LLP:
        expect(result.status == "converged_feasible", f"status {result.status!r}")
        expect(len(result.trace) == SIP_LLP_ITERATIONS,
               f"{len(result.trace)} iterations")
        expect(abs(result.final_lower_bound - SIP_LLP_BOUND) <= 1e-4,
               f"final bound {result.final_lower_bound}")


def _check_diagnose(violations):
    expect(len(violations) > 0, "diagnose_trace found no violations")


def _paper_loops(seed: int) -> Workload:
    problems = {name: gsip.get_builtin(name) for name in ("cex1", "cex2")}
    runs = [(v, name) for v in algorithms.VARIANTS for name in problems]
    random.Random(seed).shuffle(runs)
    ops = [Op(f"run {v} {name}", partial(_run_variant, problems[name], v),
              partial(_check_run, problems[name], v)) for v, name in runs]
    llp_cex1 = f"run {algorithms.LLP_ONLY} cex1"
    ops.append(Op("diagnose llp-only cex1",
                  lambda results: algorithms.diagnose_trace(
                      problems["cex1"], results[llp_cex1]),
                  _check_diagnose))
    ops = tuple(ops)
    return Workload("paper-loops", ops, ops, pinned=1)


# -- cli ----------------------------------------------------------------------

_STATUS_RE = re.compile(r"^status=(\S+) final_lower_bound=(\S+)$")
_VERIFY_RE = re.compile(r"^checked (\d+) subproblems, max discrepancy (\S+)$")


def _check_status(status: str, bound: float, out):
    code, stdout, _ = out
    expect(code == 0, f"exit code {code}")
    lines = stdout.splitlines()
    m = _STATUS_RE.match(lines[-1]) if lines else None
    expect(m is not None, "no status line")
    expect(m.group(1) == status, f"status {m.group(1)!r}, expected {status!r}")
    expect(abs(float(m.group(2)) - bound) <= 1e-6,
           f"final_lower_bound {m.group(2)}, expected {bound}")


def _check_verify(out):
    code, stdout, _ = out
    expect(code == 0, f"exit code {code}")
    m = _VERIFY_RE.match(stdout.splitlines()[-1]) if stdout else None
    expect(m is not None, "no summary line")
    expect(int(m.group(1)) > 0 and float(m.group(2)) <= 1e-3,
           f"summary {m.group(0)!r}")


def _check_fmt(expected_text: str, out):
    code, stdout, _ = out
    expect(code == 0, f"exit code {code}")
    expect(stdout == expected_text, "fmt output differs from the canonical file")


def _check_list(out):
    code, stdout, _ = out
    expect(code == 0, f"exit code {code}")
    names = [line.split(":", 1)[0] for line in stdout.splitlines()]
    expect(names == ["cex1", "cex2"], f"listed {names}")


class CliOutput(NamedTuple):
    code: int
    stdout: str
    speed_scale: float | None  # measured by the subprocess, see cli_child.py


def _cli_subprocess(argv, env, _results):
    proc = subprocess.run([sys.executable, str(CLI_CHILD), *argv],
                          capture_output=True, text=True, env=env, cwd=ROOT,
                          timeout=120)
    last = proc.stderr.rstrip().rpartition("\n")[2]
    scale = float(last.split()[1]) if last.startswith("speed-scale ") else None
    return CliOutput(proc.returncode, proc.stdout, scale)


def _cli_inprocess(argv, _results):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.main(list(argv))
        except SystemExit as e:  # argparse usage errors
            code = e.code
    return CliOutput(code, out.getvalue(), None)


def _cli(seed: int) -> Workload:
    text = CEX1_FILE.read_text(encoding="utf-8")
    path = str(CEX1_FILE)
    commands = [
        ("run llp-only file", ["run", "--file", path, "--variant", "llp-only",
                               "--max-iter", "20", "--format", "json"],
         partial(_check_status, "iteration_cap", LLP_ONLY_CEX1_BOUNDS[-1])),
        ("run aux-llp cex2", ["run", "--problem", "cex2", "--variant", "aux-llp"],
         partial(_check_status, "stalled", AUX_LLP_CEX2_STALL)),
        ("verify cex1", ["verify", "--problem", "cex1"], _check_verify),
        ("fmt file", ["fmt", path], partial(_check_fmt, text)),
        ("list", ["list"], _check_list),
    ]
    random.Random(seed).shuffle(commands)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    ops = tuple(Op(name, partial(_cli_subprocess, argv, env), check)
                for name, argv, check in commands)
    traced = tuple(Op(name, partial(_cli_inprocess, argv), check)
                   for name, argv, check in commands)
    return Workload("cli", ops, traced)


WORKLOADS = {"oracle50": _oracle50, "paper-loops": _paper_loops, "cli": _cli}


def build(name: str, seed: int) -> Workload:
    return WORKLOADS[name](seed)
