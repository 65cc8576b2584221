#!/usr/bin/env python3
"""gsiplab benchmark.

    python3 bench/run.py --workload {oracle50,paper-loops,cli} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout; gsiplab is imported from its ``src``
directory, no install is needed.  One client runs a workload's operations one
at a time, in passes, for about ``--seconds`` seconds.

``--trace 0`` prints the end-to-end metrics.  Every time among them is in
reference seconds (``speed.py``): wall time scaled by the machine's speed at
that moment, measured by a fixed probe that a timer signal runs every 20 ms,
so that a shared machine's slow spells do not read as a slower program.  A
subprocess (a ``cli`` command, a set-up probe) measures its own speed.
Each pass runs the operations in a new order drawn from the seed; an
operation's latency is its median over the passes.

- ``setup_s``: median, over fresh interpreters, of importing gsiplab and
  building the workload's inputs;
- ``pass_s``: one pass, the sum of the operations' latencies;
- ``op_gmean_ms``: the typical operation's latency, the geometric mean over
  the operations; the median operation's latency falls, on oracle50, in a
  gap between two operations, and spread twice as much from run to run;
- ``op_tail_ms``: the slowest operation's latency (the 100th percentile over
  the workload's operations, which are too few for a percentile with ten
  samples beyond it);
- ``ok_frac``: share of the operations attempted that returned and passed
  their check (a failed operation is counted, never fatal);
- ``peak_rss_mb``: peak resident memory of this process, or for ``cli`` of
  the largest gsiplab subprocess.

``--trace 1`` alternates untraced passes with passes under the layer tracer
(``tracer.py``) and prints the per-layer metrics of the fastest traced pass,
whose layer self times add up to its ``trace.traced_pass_s``, and the tracing
overhead against the fastest untraced pass, in wall seconds.  Counts must
repeat exactly across traced passes; a mismatch is a failure.

Human-readable notes go first; the last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics.
"""
from __future__ import annotations

import argparse
import gc
import json
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed

ROOT = Path(__file__).resolve().parent.parent
SETUP_PROBES = 15
MIN_PASSES = 3
MIN_TRACED_PASSES = 2


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("oracle50", "paper-loops", "cli"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="only import gsiplab and build the inputs, then "
                             "print the time it took, in reference seconds")
    return parser.parse_args(argv)


def setup_seconds(args) -> list[float]:
    """Set-up time of fresh interpreters: import gsiplab and build inputs."""
    samples = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__)), "--setup-probe",
             "--workload", args.workload, "--seed", str(args.seed)],
            capture_output=True, text=True, cwd=ROOT, timeout=120, check=True)
        samples.append(json.loads(proc.stdout.splitlines()[-1])["setup_s"])
    return samples


def run_passes(make_pass, seconds: float, min_passes: int) -> list:
    """Passes until the next one would end after `seconds`."""
    passes = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        gc.collect()
        passes.append(make_pass())
        now = time.perf_counter()
        if len(passes) >= min_passes and now - start + (now - t0) > seconds:
            return passes


def median_latencies(passes, sampler) -> list[float]:
    """Each operation's median latency over the passes, in reference seconds."""
    samples = {}
    for p in passes:
        for name, t0, lat, own in zip(p.names, p.starts, p.latencies, p.own_scales):
            scale = own if own is not None else sampler.scale(t0, lat)
            samples.setdefault(name, []).append(lat * scale)
    return [statistics.median(v) for v in samples.values()]


def measure(wl, args, workloads):
    # every pass runs the operations in a new order drawn from the seed, so
    # that no operation's latency depends on a single predecessor
    rng = random.Random(args.seed)
    with speed.Sampler() as sampler:
        passes = run_passes(lambda: workloads.run_pass(wl.shuffled(rng)),
                            args.seconds, MIN_PASSES)
        who = resource.RUSAGE_CHILDREN if wl.in_subprocesses else resource.RUSAGE_SELF
        peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024.0  # KiB on Linux
        setup = setup_seconds(args)

    latency = median_latencies(passes, sampler)
    attempted = sum(len(p.latencies) for p in passes)
    failures = [f for p in passes for f in p.failures]
    notes = [
        f"{wl.name}: {len(passes)} passes of {len(wl.ops)} operations, "
        f"{attempted} attempted, {len(failures)} failed "
        f"(fail_frac {len(failures) / attempted})",
        "pass wall times (s): " + " ".join(f"{p.wall:.4f}" for p in passes),
        f"op_tail_ms is p100 over {len(latency)} operations, each the median "
        f"of {len(passes)} samples",
        f"{len(sampler.durations)} speed probes; reference seconds per wall "
        f"second, deciles: " + " ".join(
            f"{speed.REFERENCE_PROBE_S / d:.3f}"
            for d in reversed(statistics.quantiles(sampler.durations, n=10))),
        "setup_s samples (s): " + " ".join(f"{s:.4f}" for s in setup),
    ]
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "pass_s": (sum(latency), "s"),
        "op_gmean_ms": (statistics.geometric_mean(latency) * 1e3, "ms"),
        "op_tail_ms": (max(latency) * 1e3, "ms"),
        "ok_frac": (1.0 - len(failures) / attempted, "fraction"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    return attempted, failures, metrics, notes


def measure_traced(wl, args, workloads, tracer):
    plan = tracer.resolve()
    separate = wl.in_subprocesses

    def cycle():
        untraced = workloads.run_pass(wl.ops)
        gc.collect()
        inproc = workloads.run_pass(wl.traced_ops) if separate else untraced
        gc.collect()
        with tracer.Tracer(plan) as tr:
            traced = workloads.run_pass(wl.traced_ops, span=tr.span)
        return untraced, inproc, traced, tracer.layer_metrics(tracer.Summary(tr))

    cycles = run_passes(cycle, args.seconds, MIN_TRACED_PASSES)
    passes = []
    for untraced, inproc, traced, _ in cycles:
        passes += [untraced, traced] + ([inproc] if separate else [])
    attempted = sum(len(p.latencies) for p in passes)
    failures = [f for p in passes for f in p.failures]
    layers = [c[3] for c in cycles]
    counts = {n: v for n, (unit, v, _) in layers[0].items() if unit == "count"}
    for i, m in enumerate(layers[1:], 2):
        attempted += 1
        diff = sorted(n for n, v in counts.items() if m[n][1] != v)
        if diff:
            failures.append((f"traced pass {i}", f"counts differ from pass 1: {diff}"))

    # the fastest traced pass, whole, so that its layer self times add up
    fastest = min(layers, key=lambda m: m["trace.traced_pass_s"][1])
    metrics = {n: (v, unit, reason) for n, (unit, v, reason) in fastest.items()}
    traced_s = metrics["trace.traced_pass_s"][0]
    untraced_s = min(c[1].wall for c in cycles)
    startup_s = min(c[0].wall for c in cycles) - untraced_s if separate else 0.0
    metrics["cli.startup_s"] = (startup_s, "s", None)
    metrics["trace.untraced_pass_s"] = (untraced_s, "s", None)
    metrics["trace.overhead_s"] = (traced_s - untraced_s, "s", None)

    selfs = {layer: metrics[f"{layer}.self_s"][0] for layer in tracer.LAYERS}
    notes = [
        f"{wl.name}: {len(cycles)} cycles of an untraced and a traced pass, "
        f"{attempted} operations and count checks attempted, "
        f"{len(failures)} failed",
        f"tracing overhead: {traced_s - untraced_s:.4f} s on "
        f"{untraced_s:.4f} s untraced",
        "layer self time (s): " + ", ".join(
            f"{layer} {v:.4f}" if v is not None else f"{layer} absent"
            for layer, v in selfs.items()),
    ]
    if None not in selfs.values():
        notes.append(f"sum of layer self times {sum(selfs.values()):.4f} s; "
                     f"traced pass {traced_s:.4f} s")
    notes += [f"absent {n}: {r}" for n, (_, _, r) in metrics.items() if r]
    return attempted, failures, metrics, notes


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "gsiplab" / "__init__.py").is_file():
        print(f"error: no gsiplab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    with speed.Sampler() as sampler:
        t0 = time.perf_counter()
        import workloads
        wl = workloads.build(args.workload, args.seed)
        setup = time.perf_counter() - t0
    if args.setup_probe:
        print(json.dumps({"setup_s": setup * sampler.scale(t0, setup)}))
        return 0

    if args.trace:
        import tracer
        attempted, failures, metrics, notes = measure_traced(wl, args, workloads, tracer)
        out = {}
        for name, (value, unit, reason) in metrics.items():
            out[name] = {"value": value, "unit": unit}
            if reason:
                out[name]["absent"] = reason
    else:
        attempted, failures, metrics, notes = measure(wl, args, workloads)
        out = {name: {"value": value, "unit": unit}
               for name, (value, unit) in metrics.items()}

    for note in notes:
        print(note)
    for name, reason in failures[:20]:
        print(f"FAILED {name}: {reason}")
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
