"""Tests of the benchmark itself: inputs, checks and tracer."""
import importlib.util
import json
import shutil
import signal
import subprocess
import sys

import pytest

import run
import speed
import tracer
import workloads
from gsiplab import globalopt
from gsiplab.expr import evaluate


def _load_test_suite_conftest():
    path = workloads.ROOT / "tests" / "conftest.py"
    spec = importlib.util.spec_from_file_location("gsiplab_tests_conftest", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_default_seed_gives_the_test_suite_instances():
    conftest = _load_test_suite_conftest()
    for seed in range(workloads.ORACLE_INSTANCES):
        objective, constraints, box = conftest.random_poly_instance(seed)
        inst = workloads.random_poly_instance(seed)
        assert (inst.objective, inst.constraints, inst.box) == (objective, constraints, box)
        names = box.names
        point = box.midpoint()
        assert workloads.poly_value(inst.objective_terms, names, point) == \
            evaluate(objective, point)
        for (sense, terms), c in zip(inst.constraint_terms, constraints):
            assert sense == c.sense
            assert workloads.poly_value(terms, names, point) == evaluate(c.expr, point)


def test_paper_loops_pass_is_correct():
    wl = workloads.build("paper-loops", 0)
    p = workloads.run_pass(wl.ops)
    assert p.failures == ()
    assert len(p.latencies) == 7


def test_broken_expectation_makes_operations_fail(monkeypatch):
    monkeypatch.setattr(workloads, "SIP_LLP_BOUND", 0.75)
    wl = workloads.build("paper-loops", 0)
    p = workloads.run_pass(wl.ops)
    assert {name for name, _ in p.failures} == {"run sip-llp cex1", "run sip-llp cex2"}
    assert len(p.latencies) == len(wl.ops)


def test_broken_expectation_shows_in_the_result_line(monkeypatch, capsys):
    monkeypatch.setattr(workloads, "SIP_LLP_BOUND", 0.75)
    assert run.main(["--workload", "paper-loops", "--seconds", "0"]) == 0
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is False
    assert result["failed"] == 2 * run.MIN_PASSES
    assert result["attempted"] == 7 * run.MIN_PASSES
    assert result["metrics"]["ok_frac"]["value"] == pytest.approx(1 - 2 / 7)


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(workloads.ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(workloads.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "cli",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_raising_operation_fails_without_ending_the_pass():
    def boom(_results):
        raise RuntimeError("boom")

    ops = (workloads.Op("boom", boom, lambda out: None),
           workloads.Op("after", lambda results: 1, lambda out: None))
    p = workloads.run_pass(ops)
    assert p.failures == (("boom", "RuntimeError: boom"),)
    assert len(p.latencies) == 2


def test_cli_commands_pass_their_checks_in_process():
    wl = workloads.build("cli", 0)
    assert workloads.run_pass(wl.traced_ops).failures == ()


def _traced_pass(plan, ops):
    with tracer.Tracer(plan) as tr:
        p = workloads.run_pass(ops, span=tr.span)
    return p, tracer.layer_metrics(tracer.Summary(tr))


def test_traced_counts_repeat_and_self_times_add_up():
    plan = tracer.resolve()
    assert plan.absent == {}
    ops = workloads.build("paper-loops", 0).ops
    runs = [_traced_pass(plan, ops) for _ in range(2)]
    counts = [{n: v for n, (unit, v, _) in m.items() if unit == "count"}
              for _, m in runs]
    assert counts[0] == counts[1]
    assert counts[0]["globalopt.nodes"] > 0
    assert counts[0]["algorithms.runs"] == 6
    assert counts[0]["globalopt.solves"] == sum(
        counts[0][f"algorithms.{kind}_solves"] for kind in tracer.SOLVE_KINDS)
    for p, m in runs:
        assert p.failures == ()
        layer_sum = sum(m[f"{layer}.self_s"][1] for layer in tracer.LAYERS)
        assert layer_sum == pytest.approx(m["trace.traced_pass_s"][1], rel=1e-9)


def test_missing_hook_is_absent_and_wrappers_are_removed():
    hooks = tuple(tracer.Hook(h.span, h.module, "evaluate_removed", h.everywhere)
                  if h.span == "expr.evaluate" else h for h in tracer.HOOKS)
    plan = tracer.resolve(hooks)
    assert set(plan.absent) == {"expr.evaluate"}
    before = (globalopt.minimize, globalopt.evaluate, workloads.cli.main)
    p, m = _traced_pass(plan, workloads.build("paper-loops", 0).ops)
    assert (globalopt.minimize, globalopt.evaluate, workloads.cli.main) == before
    assert p.failures == ()
    absent = {n for n, (_, v, reason) in m.items() if reason}
    assert absent == {"expr.point_evals", "expr.point_s",
                      "expr.point_evals_per_node", "expr.self_s"}
    assert all(m[n][1] is None for n in absent)
    assert m["globalopt.nodes"][1] > 0


def test_benchmark_json_lists_every_layer_metric():
    doc = json.loads((workloads.ROOT / "BENCHMARK.json").read_text())
    listed = {m["name"]: m["unit"] for m in doc["per_layer"]}
    for name, (unit, _) in tracer.LAYER_METRICS.items():
        assert listed.get(name) == unit, name


def test_speed_sampler_probes_and_restores_the_signal_handler():
    before = signal.getsignal(signal.SIGALRM)
    with speed.Sampler() as sampler:
        p = workloads.run_pass(workloads.build("paper-loops", 0).ops)
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(sampler.durations) > 0
    scales = [sampler.scale(t0, lat) for t0, lat in zip(p.starts, p.latencies)]
    assert all(s > 0 for s in scales)


def test_cli_subprocess_reports_its_own_speed_scale():
    op = next(op for op in workloads.build("cli", 0).ops if op.name == "list")
    p = workloads.run_pass((op,))
    assert p.failures == ()
    assert p.own_scales[0] > 0
