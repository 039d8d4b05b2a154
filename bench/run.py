"""pinvnet benchmark.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: variance_mc, train_depth, cv_iris, spiral_cli (see NOTES.md).
Load is a closed loop: one process, one client, each op starting when the
previous one returns; the BLAS thread count stays at the process default.

--trace 0 measures end to end. Set-up (a fresh interpreter through
``import pinvnet``, input generation and one warm-up op on the reference
input) runs in three child processes one after another; the last child
then measures ops for --seconds and reports their times, throughput and
its own peak RSS. setup_s is the median of the three set-ups.

--trace 1 runs ops untraced for half of --seconds, then the same inputs
with every layer wrapped by tracer.Tracer for the other half, and reports
per-op layer metrics. Traced outputs must equal untraced ones bit for bit.

Every run checks each op's outputs and the reference input against
reference.json. The last stdout line is one JSON object with the keys
correct, attempted, failed and metrics; the exit code is 0 only when
everything was correct. Without the library source next to this
directory the run exits 2 and prints no result.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import resource
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOAD_NAMES = ("variance_mc", "train_depth", "cv_iris", "spiral_cli")
SETUP_RUNS = 3
RUN_TIMEOUT_S = 170.0
SETUP_TAG = "@setup "
RESULT_TAG = "@result "

END_TO_END = ("setup_s", "op_p50_s", "op_tail_s", "ops_per_s", "peak_rss_mb")


def _span(name, field):
    return lambda op: op["spans"].get(name, (0, 0.0, 0.0))[field]


def _ratio(num, den):
    return lambda op: num(op) / den(op) if den(op) else 0.0


_CALLS, _TOTAL, _SELF = 0, 1, 2
_svd_calls = _span("linalg.svd", _CALLS)
_svd_distinct = lambda op: op["svd_distinct"]  # noqa: E731
_clamped = lambda op: op["notes"].get("clamped_entries", 0)  # noqa: E731
_inverted = lambda op: op["notes"].get("inverted_entries", 0)  # noqa: E731

# name -> (unit, kind, value of one traced op). Counts come from op 0,
# whose input every traced run repeats; times are medians over traced ops.
PER_LAYER = {
    "linalg.svd_calls": ("count", "count", _svd_calls),
    "linalg.svd_distinct": ("count", "count", _svd_distinct),
    "linalg.svd_useful_ratio": ("ratio", "count", _ratio(_svd_distinct, _svd_calls)),
    "linalg.svd_s": ("s", "time", _span("linalg.svd", _TOTAL)),
    "linalg.svd_gflop": ("GFLOP", "count", lambda op: op["notes"].get("svd_gflop", 0.0)),
    "linalg.solve_calls": ("count", "count", _span("linalg.solve", _CALLS)),
    "linalg.matrix_new": ("count", "count", _span("linalg.matrix_new", _CALLS)),
    "linalg.matrix_new_s": ("s", "time", _span("linalg.matrix_new", _TOTAL)),
    "linalg.csv_write_s": ("s", "time", _span("linalg.write_matrix_csv", _TOTAL)),
    "linalg.csv_write_bytes": ("bytes", "count",
                               lambda op: op["notes"].get("csv_write_bytes", 0)),
    "datasets.load_csv_s": ("s", "time", _span("datasets.load_csv", _TOTAL)),
    "cli.main_s": ("s", "time", _span("cli.main", _TOTAL)),
    "cli.main_self_s": ("s", "time", _span("cli.main", _SELF)),
    "training.train_calls": ("count", "count", _span("training.train", _CALLS)),
    "training.train_s": ("s", "time", _span("training.train", _TOTAL)),
    "training.train_self_s": ("s", "time", _span("training.train", _SELF)),
    "training.masked_solve_s": ("s", "time", _span("training.solve_masked_layer", _TOTAL)),
    "activations.apply_calls": ("count", "count", _span("activations.apply", _CALLS)),
    "activations.apply_s": ("s", "time", _span("activations.apply", _TOTAL)),
    "activations.invert_calls": ("count", "count", _span("activations.invert", _CALLS)),
    "activations.invert_s": ("s", "time", _span("activations.invert", _TOTAL)),
    "activations.clamped_entries": ("count", "count", _clamped),
    "activations.clamped_share": ("ratio", "count", _ratio(_clamped, _inverted)),
    "network.forward_calls": ("count", "count", _span("network.forward", _CALLS)),
    "network.forward_s": ("s", "time", _span("network.forward", _TOTAL)),
    "datasets.fits": ("count", "count", lambda op: op["fits"]),
    "datasets.cv_search_self_s": ("s", "time", _span("datasets.cv_search", _SELF)),
    "analysis.variance_s": ("s", "time", _span("analysis.mc_output_variance", _TOTAL)),
    "analysis.variance_self_s": ("s", "time", _span("analysis.mc_output_variance", _SELF)),
}


def percentile(values, pct):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct / 100 * len(ordered)) - 1)]


class Loop:
    """Outcome of one closed-loop measuring phase."""

    def __init__(self):
        self.times = []
        self.failed = 0
        self.failures = []
        self.digests = {}
        self.traces = []
        self.report = None

    @property
    def attempted(self):
        return len(self.times)


def run_loop(wl, seconds, tracer=None, corrupt=None):
    """Run ops on inputs 0, 1, 2, ... until ``seconds`` have passed (at
    least one op). Input making, collecting and checking stay outside the
    timed region and, when tracing, outside the tracer. ``corrupt``, if
    given, alters each result before it is checked."""
    loop = Loop()
    deadline = time.perf_counter() + seconds
    index = 0
    while True:
        inp = wl.input(index)
        error = None
        if tracer is not None:
            tracer.__enter__()
        t0 = time.perf_counter()
        try:
            raw = wl.op(inp)
        except Exception as exc:  # an op that raises is a failed op
            error = exc
        t1 = time.perf_counter()
        if tracer is not None:
            tracer.__exit__(None, None, None)
            loop.traces.append(tracer.take_op())
        loop.times.append(t1 - t0)
        if error is None:
            result = wl.collect(inp, raw)
            if corrupt is not None:
                result = corrupt(result)
            fails = wl.check(inp, result)
            loop.digests[index] = wl.digest(result)
            if loop.report is None:
                loop.report = wl.report(inp, result)
        else:
            fails = [f"raised {type(error).__name__}: {error}"]
        if fails:
            loop.failed += 1
            loop.failures.append((index, fails))
        index += 1
        if time.perf_counter() >= deadline:
            return loop


def end_to_end(loop, tail_pct):
    n = loop.attempted
    return {
        "op_p50_s": (statistics.median(loop.times), "s"),
        "op_tail_s": (percentile(loop.times, tail_pct), "s"),
        "ops_per_s": (n / sum(loop.times), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def per_layer(base, traced):
    out = {}
    for name, (unit, kind, value) in PER_LAYER.items():
        if kind == "count":
            out[name] = (value(traced.traces[0]), unit)
        else:
            out[name] = (statistics.median(value(op) for op in traced.traces), unit)
    out["trace.overhead_s"] = (statistics.median(traced.times)
                               - statistics.median(base.times), "s")
    return out


def _print_failures(loop, label):
    for index, fails in loop.failures[:3]:
        print(f"FAILED {label} op {index}: " + "; ".join(fails[:3]))


def child(args):
    """Set up in this fresh interpreter; with role 'measure', go on to measure."""
    import environment
    import tracer as tracing
    import workloads

    wl = workloads.make(args.workload, args.seed, BENCH_DIR / f"_work_{os.getpid()}")
    try:
        inp = wl.reference_input()
        res = wl.collect(inp, wl.op(inp))
        ref_fails = wl.check(inp, res) + wl.check_reference(
            res, workloads.load_reference()[wl.name])
        print(SETUP_TAG + json.dumps(ref_fails), flush=True)
        if args.role == "setup":
            return 0
        print("env " + json.dumps(environment.record(ROOT, wl.name, args.seed)))
        print(f"workload {wl.name}: one op = {wl.op_text}")
        print("load: closed loop, 1 client, 1 process")
        if args.trace:
            base = run_loop(wl, args.seconds / 2)
            tr = tracing.Tracer()
            traced = run_loop(wl, args.seconds / 2, tracer=tr)
            metrics = per_layer(base, traced)
            compared = [i for i in traced.digests if i in base.digests]
            differ = [i for i in compared if traced.digests[i] != base.digests[i]]
            print(f"traced vs untraced outputs: {len(compared) - len(differ)}/"
                  f"{len(compared)} ops bit-identical")
            print("absent wrapped names: " + (", ".join(tr.absent) or "none"))
            print(f"traced ops {traced.attempted}, untraced ops {base.attempted}; "
                  f"counts are op 0's, times are medians per op")
            loops = (base, traced)
            correct_extra = bool(compared) and not differ
        else:
            loop = run_loop(wl, args.seconds)
            metrics = end_to_end(loop, wl.tail_pct)
            n = loop.attempted
            beyond = n - math.ceil(wl.tail_pct / 100 * n)
            print(f"op_tail_s is p{wl.tail_pct} of {n} ops ({beyond} beyond it); "
                  f"op_p50_s is the median of {n}")
            print("op seconds p0/p25/p50/p75/p100: " + " ".join(
                f"{percentile(loop.times, q):.4f}" for q in (0, 25, 50, 75, 100)))
            print(f"error_rate {loop.failed / n:.4g} ({loop.failed}/{n}) ratio")
            loops = (loop,)
            correct_extra = True
        for lp, label in zip(loops, ("untraced", "traced")):
            _print_failures(lp, label)
        print("reported, not gated: " + json.dumps(loops[0].report, default=repr))
        attempted = sum(lp.attempted for lp in loops)
        failed = sum(lp.failed for lp in loops)
        result = {
            "correct": failed == 0 and correct_extra,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }
        print(RESULT_TAG + json.dumps(result), flush=True)
        return 0
    finally:
        wl.close()


def _run_child(args, role, deadline):
    """Start one child, return (setup seconds, setup failures, result, rc)."""
    cmd = [sys.executable, str(Path(__file__).resolve()),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--role", role]
    setup_s, ref_fails, result = None, None, None
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    timer = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
    timer.start()
    try:
        for line in proc.stdout:
            if line.startswith(SETUP_TAG):
                setup_s = time.perf_counter() - t0
                ref_fails = json.loads(line[len(SETUP_TAG):])
            elif line.startswith(RESULT_TAG):
                result = json.loads(line[len(RESULT_TAG):])
            else:
                sys.stdout.write(line)
        proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    return setup_s, ref_fails, result, proc.returncode


def launch(args):
    deadline = time.monotonic() + RUN_TIMEOUT_S
    runs = SETUP_RUNS if args.trace == 0 else 1
    setups, ref_fails = [], []
    for k in range(runs):
        role = "measure" if k == runs - 1 else "setup"
        setup_s, fails, result, rc = _run_child(args, role, deadline)
        if rc != 0 or setup_s is None or (role == "measure" and result is None):
            print(f"error: {role} process exited {rc}", file=sys.stderr)
            return 1
        setups.append(setup_s)
        ref_fails += fails
    for fail in ref_fails[:5]:
        print("FAILED reference input: " + fail)
    metrics = result["metrics"]
    if args.trace == 0:
        metrics = {"setup_s": {"value": statistics.median(setups), "unit": "s"}, **metrics}
        print("setup_s samples " + " ".join(f"{v:.4f}" for v in setups) + " s (median reported)")
    for name, m in metrics.items():
        print(f"{name:28s} {m['value']:.6g} {m['unit']}")
    result["metrics"] = metrics
    result["correct"] = bool(result["correct"] and not ref_fails)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--role", choices=("launch", "setup", "measure"), default="launch",
                   help=argparse.SUPPRESS)
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not (ROOT / "src" / "pinvnet" / "__init__.py").is_file():
        print(f"error: no pinvnet source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.role == "launch":
        # turn SIGTERM into SystemExit so that _run_child stops its child
        signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
        return launch(args)
    return child(args)


if __name__ == "__main__":
    sys.exit(main())
