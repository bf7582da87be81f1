"""Orthoglide benchmark: one seeded, closed-loop workload per invocation.

    python3 perfbench/run.py --workload sim_free --seed 1 --seconds 10 --trace 0

Workloads: sim_free, idm_track, workspace_map, verify_sampled (see
workloads.py and NOTES.md). --trace 0 times the workload with nothing
wrapped and reports the end-to-end metrics. --trace 1 repeats the
workload's fixed pass with and without spans around the library's public
functions and reports the per-layer metrics. Every line but the last is
for people; the last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics.

Run from any directory; the library is imported from ../src relative to
this file. Exits 2 without a result when those sources are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_RUNS = 7
MIN_OPS = 3

# numpy's own import (about 0.15 s, and the part whose time swings most
# between runs on a shared machine) comes before the clock starts: it is the
# dependency's set-up, not the library's
SETUP_CODE = """\
import sys, time
sys.path.insert(0, {src!r})
import numpy
t0 = time.perf_counter()
import orthoglide as og
m = og.default_model()
{warmup}
print(time.perf_counter() - t0)
"""

# workload-specific names of the generic end-to-end metrics, printed alongside
ALIASES = {
    "sim_free": {"throughput_per_s": "sim_steps_per_s"},
    "idm_track": {"latency_p50_us": "idm_p50_us", "latency_p99_us": "idm_p99_us"},
    "workspace_map": {"throughput_per_s": "map_points_per_s"},
    "verify_sampled": {},
}


def end_to_end_specs():
    return [
        ("setup_s", "s", "lower"),
        ("peak_rss_mb", "MB", "lower"),
        ("throughput_per_s", "1/s", "higher"),
        ("latency_p50_us", "us", "lower"),
        ("latency_p99_us", "us", "lower"),
    ]


def per_layer_specs():
    from tracer import SPAN_NAMES
    from workloads import VERIFY_CHECKS

    specs = []
    for name in SPAN_NAMES:
        specs.append((name + ".calls", "count", "lower"))
        specs.append((name + ".self_s", "s", "lower"))
        if name.startswith("simulate.") and name.endswith("_csv"):
            specs.append((name + ".us_per_sample", "us", "lower"))
        else:
            specs.append((name + ".us_per_call", "us", "lower"))
    specs += [
        ("chain_dynamics.ne_sweeps_per_ddm", "count", "lower"),
        ("kinematics.igm_calls_per_step", "count", "lower"),
        ("kinematics.jinv_calls_per_step", "count", "lower"),
        ("kinematics.reachable_share", "share", "higher"),
        ("simulate.min_fold_margin", "ratio", "higher"),
    ]
    specs += [("verify.%s.wall_s" % c, "s", "lower") for c in VERIFY_CHECKS]
    specs.append(("trace.overhead_share", "share", "lower"))
    return specs


def environment():
    import numpy

    import orthoglide._kernels as kernels

    try:
        import numba  # noqa: F401

        numba_state = "importable"
    except ImportError:
        numba_state = "not importable"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba": numba_state,
        "orthoglide._kernels._JIT": kernels._JIT,
        "kernel_path": "numba" if kernels._JIT else "plain-Python fallback",
        "nproc": os.cpu_count(),
        "loadavg": os.getloadavg(),
        "git": git_sha(),
    }


def git_sha():
    """HEAD of the checkout, read from .git directly; 'unknown' outside git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def setup_seconds(workload_cls):
    """Median over fresh interpreters of import orthoglide + default_model()
    + one warm-up call."""
    code = SETUP_CODE.format(src=str(SRC), warmup=workload_cls.WARMUP)
    times = []
    for _ in range(SETUP_RUNS):
        out = subprocess.run(
            [sys.executable, "-c", code], cwd=ROOT, capture_output=True, text=True, timeout=120, check=True
        )
        times.append(float(out.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def percentile(values, q):
    return float(statistics.quantiles(values, n=100, method="inclusive")[q - 1])


def attempt(w, k, inp, tally, tracer=None, before=None):
    """Operation k, timed (with `before()` first if given), then gated
    outside the timed region. A tracer's spans are installed for the timed
    region only. Returns (op, wall), or None when the operation raised,
    which counts as one failed attempt."""
    if tracer is not None:
        tracer.install()
    try:
        t0 = perf_counter()
        if before is not None:
            before()
        op = w.op(inp)
        wall = perf_counter() - t0
    except Exception:
        traceback.print_exc()
        tally[0] += 1
        tally[1] += 1
        return None
    finally:
        if tracer is not None:
            tracer.uninstall()
    attempted, failed = w.gate(k, inp, op.output)
    tally[0] += attempted
    tally[1] += failed
    return op, wall


def run_untraced(w, seconds, tally):
    w.op(w.inputs(0))  # warm caches and lazy set-up; not timed, not counted
    ops = []
    start = perf_counter()
    k = 0
    while k < MIN_OPS or perf_counter() - start < seconds:
        k += 1
        done = attempt(w, k, w.inputs(k), tally)
        if done is not None:
            ops.append(done)
    if not ops:
        raise RuntimeError("every operation raised")
    lat = [x for op, _ in ops for x in op.latencies]
    p99 = statistics.median(percentile(op.latencies, 99) for op, _ in ops)
    metrics = {
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "throughput_per_s": sum(op.items for op, _ in ops) / sum(wall for _, wall in ops),
        "latency_p50_us": statistics.median(lat) * 1e6,
        "latency_p99_us": p99 * 1e6,
    }
    notes = {
        "setup_s": "median of %d fresh interpreters: import orthoglide (numpy already imported), default_model(), "
                   "one warm-up call" % SETUP_RUNS,
        "peak_rss_mb": "peak resident memory of this process",
        "throughput_per_s": "%d x %s over the wall time of %d operations" % (sum(op.items for op, _ in ops), w.item, len(ops)),
        "latency_p50_us": "median of %d latencies of one %s" % (len(lat), w.latency_item),
        "latency_p99_us": "median over %d operations of each one's p99 (%d samples in all)" % (len(ops), len(lat)),
    }
    if w.name == "verify_sampled":
        from workloads import VERIFY_N_SAMPLES

        battery = statistics.median(sum(op.latencies) for op, _ in ops)
        print("verify_s = %.6f s  (median battery wall time over %d runs, n_samples=%d, %d checks)"
              % (battery, len(ops), VERIFY_N_SAMPLES, len(ops[0][0].latencies)))
    return metrics, notes


def run_traced(w, seconds, tally):
    """Alternate untraced and traced repetitions of the fixed pass:
    default_model() (the model layer) and then op(0)."""
    import orthoglide as og
    from tracer import DDM, Tracer
    from workloads import DT, SIM_STEPS, VERIFY_CHECKS, fold_margin

    inp = w.inputs(0)
    w.op(inp)

    def build_model():
        # looked up at call time, so the traced pass goes through the span
        og.default_model()

    plain, traced, tracers = [], [], []
    start = perf_counter()
    while len(traced) < 2 or perf_counter() - start < seconds:
        done = attempt(w, 0, inp, tally, before=build_model)
        tracer = Tracer()
        done_traced = attempt(w, 0, inp, tally, tracer, before=build_model)
        if done is None or done_traced is None:
            raise RuntimeError("the traced pass raised")
        plain.append(done)
        traced.append(done_traced[1])
        tracers.append(tracer)

    exact = [(t.calls, t.sweeps_in_ddm) for t in tracers]
    counts_repeat = all(e == exact[0] for e in exact)
    first = tracers[0]
    m = {}
    for name in first.calls:
        calls = first.calls[name]
        m[name + ".calls"] = calls
        m[name + ".self_s"] = statistics.median(t.self_s[name] for t in tracers)
        per = statistics.median(t.total_s[name] for t in tracers) * 1e6
        if name.startswith("simulate.") and name.endswith("_csv"):
            m[name + ".us_per_sample"] = per / (SIM_STEPS + 1) if calls else 0.0
        else:
            m[name + ".us_per_call"] = per / calls if calls else 0.0
    ddm_calls = first.calls[DDM]
    m["chain_dynamics.ne_sweeps_per_ddm"] = first.sweeps_in_ddm / ddm_calls if ddm_calls else 0.0
    m["kinematics.igm_calls_per_step"] = 0.0
    m["kinematics.jinv_calls_per_step"] = 0.0
    m["kinematics.reachable_share"] = 0.0
    m["simulate.min_fold_margin"] = 0.0
    for c in VERIFY_CHECKS:
        m["verify.%s.wall_s" % c] = 0.0

    out = plain[0][0].output
    if w.name == "sim_free":
        # per-step counts net of the start (first sample) that every run pays once
        p0, v0 = inp
        with Tracer() as t_start:
            og.simulate(w.model, p0, v0, None, og.SimConfig(dt=DT, t_end=0.0))
        for key, fn in (("igm", "kinematics.igm"), ("jinv", "kinematics.chain_jacobian_inverse")):
            m["kinematics.%s_calls_per_step" % key] = (first.calls[fn] - t_start.calls[fn]) / SIM_STEPS
        m["simulate.min_fold_margin"] = min(fold_margin(og.igm(w.model, s.P)[1]) for s in out[0].samples)
    elif w.name == "workspace_map":
        m["kinematics.reachable_share"] = w.reachable_share(out)
    elif w.name == "verify_sampled":
        for i, c in enumerate(VERIFY_CHECKS):
            m["verify.%s.wall_s" % c] = statistics.median(op.latencies[i] for op, _ in plain)
    m["trace.overhead_share"] = statistics.median(traced) / statistics.median(wall for _, wall in plain) - 1.0
    print("traced passes: %d, untraced passes: %d, exact counts repeat: %s"
          % (len(traced), len(plain), counts_repeat))
    return m, counts_repeat


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "orthoglide" / "__init__.py").is_file():
        print("perfbench: no orthoglide sources at %s" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import orthoglide as og
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error("unknown workload %r; choose from %s" % (args.workload, ", ".join(WORKLOADS)))
    cls = WORKLOADS[args.workload]
    print("perfbench workload=%s seed=%d seconds=%g trace=%d" % (args.workload, args.seed, args.seconds, args.trace))
    print("env " + json.dumps(environment()))

    setup = None if args.trace else setup_seconds(cls)
    tally = [0, 0]
    build = ROOT / ".bench_build"
    build.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=build) as scratch:
        w = cls(og.default_model(), args.seed, scratch)
        if args.trace:
            metrics, correct = run_traced(w, args.seconds, tally)
            specs = per_layer_specs()
            for name, unit, _ in specs:
                print("%s = %.6g %s" % (name, metrics[name], unit))
        else:
            metrics, notes = run_untraced(w, args.seconds, tally)
            metrics["setup_s"] = setup
            correct = True
            specs = end_to_end_specs()
            alias = ALIASES[w.name]
            for name, unit, _ in specs:
                also = " = %s" % alias[name] if name in alias else ""
                print("%s%s = %.6g %s  (%s)" % (name, also, metrics[name], unit, notes[name]))
    attempted, failed = tally
    print("failed_share = %d/%d %s = %.6g" % (failed, attempted, cls.unit_of_attempt, failed / attempted))
    correct = correct and failed == 0
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": float(metrics[name]), "unit": unit} for name, unit, _ in specs},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
