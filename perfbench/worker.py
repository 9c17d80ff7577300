"""One workload in one fresh process; started by run.py, not by hand.

Imports ltcforge from `src/` of the current directory, builds the
workload's inputs (set-up), then runs iterations for the given number of
seconds and prints one JSON line with the raw samples.  Every operation
runs under a wall-clock timeout; an exception, a wrong output or a timeout
fails the iteration it belongs to.

With --trace 1 the first half of the time runs untraced and the second
half traced, so the trace overhead is measured in the same process.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import sys
import time
import traceback

ROOT = os.getcwd()
OP_TIMEOUT_S = 30.0


class OpTimeout(BaseException):
    """Raised in the middle of an operation that ran out of time.

    A BaseException, so that no handler of the program under test
    swallows it."""


def _alarm(signum, frame):
    raise OpTimeout()


def run_iteration(workload, op_timeout: float, errors: list[str]):
    """Run every operation of one iteration; return (seconds, items, ok)."""
    spent, items, ok = 0.0, 0, True
    for work, check in workload.operations():
        try:
            signal.setitimer(signal.ITIMER_REAL, op_timeout)
            try:
                start = time.perf_counter()
                out = work()
                spent += time.perf_counter() - start
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
            items += check(out)
        except OpTimeout:
            ok = False
            errors.append(f"operation timed out after {op_timeout} s")
        except Exception:  # a failed operation is counted, and the run goes on
            ok = False
            errors.append(traceback.format_exc(limit=3))
    return spent, items, ok


def environment() -> dict:
    import numpy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "threads": {k: os.environ.get(k) for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def layer_metrics(tracer, iterations, untraced_s: list[float], traced_s: list[float]) -> dict:
    """Per-iteration means of span self time, and the deterministic counters
    of one iteration (they must be identical in every traced iteration)."""
    from tracing import COUNTER_NAMES, LAYERS, SPAN_NAMES

    n = len(iterations)
    first, last = iterations[0][0], iterations[-1][1]
    own = tracer.self_seconds(first, last)
    calls = tracer.calls(first, last)
    counts = iterations[0][2]
    out: dict[str, float] = {}
    for name in SPAN_NAMES:
        out[name + ".self_s"] = own.get(name, 0.0) / n
    for name in COUNTER_NAMES:
        out[name] = counts.get(name, 0)
    for name in ("testers.soundness_exact", "testers.soundness_sampled"):
        out[name + ".calls"] = calls.get(name, 0) // n
    exact_s = out["testers.soundness_exact.self_s"]
    sampled_s = out["testers.soundness_sampled.self_s"]
    out["testers.soundness_exact.words_per_s"] = out["testers.soundness_exact.words"] / exact_s if exact_s else 0.0
    out["testers.soundness_sampled.trials_per_s"] = (
        out["testers.soundness_sampled.trials"] / sampled_s if sampled_s else 0.0)
    wall = statistics.mean(traced_s)
    for layer in LAYERS:
        out[layer + ".self_share"] = sum(
            v for k, v in out.items() if k.startswith(layer + ".") and k.endswith(".self_s")) / wall
    out["trace.overhead_s"] = statistics.median(traced_s) - statistics.median(untraced_s)
    return out


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--t0", type=float, required=True, help="time.monotonic() when the launcher spawned us")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--small", action="store_true")
    ap.add_argument("--break-oracle", action="store_true")
    args = ap.parse_args()

    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    import ltcforge  # noqa: F401  (import time belongs to set-up)

    if not os.path.abspath(ltcforge.__file__).startswith(src + os.sep):
        print(f"ltcforge imported from {ltcforge.__file__}, not from {src}", file=sys.stderr)
        return 2
    import workloads

    workdir = os.path.join(ROOT, ".perfbench_out", f"work-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        workload = workloads.build(args.workload, args.seed, args.small, args.break_oracle, workdir)
        setup_s = time.monotonic() - args.t0
        result = {"setup_s": setup_s}
        if not args.setup_only:
            result.update(measure(workload, args))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result["env"] = environment()
    print(json.dumps(result))
    return 0


def measure(workload, args) -> dict:
    signal.signal(signal.SIGALRM, _alarm)
    errors: list[str] = []
    tally = {"attempted": 0, "failed": 0}

    def iterate() -> tuple[float, int, bool]:
        spent, items, ok = run_iteration(workload, OP_TIMEOUT_S, errors)
        tally["attempted"] += 1
        tally["failed"] += not ok
        return spent, items, ok

    iterate()  # warm-up: checked and counted, not timed
    iter_s, items_done = [], []
    until = time.monotonic() + (args.seconds / 2 if args.trace else args.seconds)
    while True:
        spent, items, ok = iterate()
        if ok:
            iter_s.append(spent)
            items_done.append(items)
        if time.monotonic() >= until:
            break
    out = {"iter_s": iter_s, "items": items_done}
    if args.trace:
        out.update(measure_traced(workload, args, iterate, iter_s, errors, tally))
    out.update(tally, errors=errors[:5])
    return out


def measure_traced(workload, args, iterate, untraced_s, errors, tally) -> dict:
    from tracing import Tracer

    tracer = Tracer()
    tracer.install()
    iterations, traced_s = [], []
    until = time.monotonic() + args.seconds / 2
    try:
        while True:
            first, before = tracer.snapshot()
            read_before = workload.bytes_read
            spent, _, ok = iterate()
            last, after = tracer.snapshot()
            counts = {k: v - before.get(k, 0) for k, v in after.items()}
            counts["serialize.bytes_read"] = workload.bytes_read - read_before
            if ok and iterations and counts != iterations[0][2]:
                ok = False
                tally["failed"] += 1
                errors.append("deterministic counters differ between traced iterations")
            if ok:
                iterations.append((first, last, counts))
                traced_s.append(spent)
            if time.monotonic() >= until:
                break
    finally:
        tracer.uninstall()
    spans = os.path.join(ROOT, ".perfbench_out", f"spans-{args.workload}-seed{args.seed}.jsonl")
    with open(spans, "w", encoding="utf-8") as fh:
        for name, start, end, parent in tracer.spans:
            fh.write(json.dumps({"name": name, "start": start, "end": end, "parent": parent}) + "\n")
    if not iterations or not untraced_s:
        return {}
    return {"traced_iter_s": traced_s, "layers": layer_metrics(tracer, iterations, untraced_s, traced_s)}


if __name__ == "__main__":
    sys.exit(main())
