"""ltcforge benchmark: one workload, one fresh process, one JSON result line.

    python3 perfbench/run.py --workload pipelines --seed 1 --seconds 32 --trace 0

Run from the root of a source checkout.  The launcher pins BLAS/OpenMP
threads to 1 and runs the workload in a child process (perfbench/worker.py).
With --trace 0 it also starts the workload a few extra times for set-up
only, half of them before and half after the measured process, and
reports the median set-up time.  It prints human-readable lines
starting with "#", then, as the last line, one JSON object with the keys
correct, attempted, failed and metrics: the end-to-end metrics of
BENCHMARK.json with --trace 0, its per-layer metrics with --trace 1.
A full record (environment, raw samples) goes to .perfbench_out/.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("pipelines", "exact-scan", "artifacts")
# The whole run may take --seconds plus this margin, which covers the set-up
# probes, the warm-up iteration, the last iteration's overrun and one
# operation timeout of the worker.
MARGIN_S = 100.0
SETUP_RUNS = 9  # set-ups whose median is setup_s; the measured process is one of them
PINNED = {k: "1" for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                           "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")}
# What each workload's work items are, for the human-readable lines.
ITEM_NAMES = {
    "pipelines": ("certified_words_per_s", "words/s"),
    "exact-scan": ("certified_words_per_s", "words/s"),
    "artifacts": ("artifact_checks_per_s", "checks/s"),
}


def tail_percentile(samples: list[float]) -> str:
    """The highest of a few percentiles that has at least ten samples beyond it."""
    ordered = sorted(samples)
    n = len(ordered)
    for p in (99, 95, 90, 75, 50):
        rank = math.ceil(n * p / 100)
        if n - rank >= 10:
            return f"p{p} {ordered[rank - 1]:.4f} s"
    return "no percentile has 10 samples beyond it"


def spawn(args, extra: list[str], timeout: float):
    """Run the worker; return its parsed result, or None with the reason."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace), *extra]
    if args.small:
        cmd.append("--small")
    if args.break_oracle:
        cmd.append("--break-oracle")
    env = {**os.environ, **PINNED}
    env.pop("PYTHONPATH", None)
    t0 = time.monotonic()
    try:
        proc = subprocess.run(cmd + ["--t0", repr(t0)], env=env, stdout=subprocess.PIPE,
                              timeout=max(timeout, 1.0), text=True)
    except subprocess.TimeoutExpired:  # run() has killed and reaped the worker
        return None, f"worker exceeded {timeout:.0f} s"
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None, f"worker exited with code {proc.returncode}"
    return json.loads(lines[-1]), None


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--small", action="store_true", help="smallest inputs, for the self-test")
    ap.add_argument("--break-oracle", action="store_true", help="expect a wrong value, for the self-test")
    args = ap.parse_args()

    start = time.monotonic()
    root = os.getcwd()
    spec_path = os.path.join(root, "BENCHMARK.json")
    if not os.path.isfile(os.path.join(root, "src", "ltcforge", "__init__.py")) or not os.path.isfile(spec_path):
        print("perfbench: run from the root of an ltcforge checkout (src/ltcforge and BENCHMARK.json)",
              file=sys.stderr)
        return 2
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    os.makedirs(os.path.join(root, ".perfbench_out"), exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"

    deadline = args.seconds + MARGIN_S
    probes = 0 if args.trace else (2 if args.small else SETUP_RUNS) - 1
    steps = ["probe"] * (probes // 2) + ["run"] + ["probe"] * (probes - probes // 2)
    setups, result, failure = [], None, None
    for step in steps:
        out, failure = spawn(args, ["--setup-only"] if step == "probe" else [],
                             deadline - (time.monotonic() - start))
        if out is None:
            break
        setups.append(out["setup_s"])
        if step == "run":
            result = out

    if failure is not None:
        result = {"attempted": 1, "failed": 1, "iter_s": [], "items": [], "errors": [failure]}
    values = measured(args, result, setups)
    names = spec["per_layer"] if args.trace else spec["end_to_end"]
    correct = result["failed"] == 0 and all(m["name"] in values for m in names)
    metrics = {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]} for m in names}

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
              "small": args.small, "env": result.get("env"), "setup_s_samples": setups, **result,
              "metrics": metrics}
    with open(os.path.join(root, ".perfbench_out", tag + ".json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    report(args, result, setups, metrics)
    print(json.dumps({"correct": correct, "attempted": result["attempted"], "failed": result["failed"],
                      "metrics": metrics}))
    return 0


def measured(args, result: dict, setups: list[float]) -> dict:
    if args.trace:
        return dict(result.get("layers", {}))
    values = {}
    if setups:
        values["setup_s"] = statistics.median(setups)
    if result["iter_s"]:
        values["items_per_s"] = sum(result["items"]) / sum(result["iter_s"])
    if "peak_rss_mb" in result:
        values["peak_rss_mb"] = result["peak_rss_mb"]
    return values


def report(args, result: dict, setups: list[float], metrics: dict) -> None:
    env = result.get("env") or {}
    print(f"# perfbench {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print(f"# env cpu={env.get('cpu')!r} nproc={env.get('nproc')} python={env.get('python')} "
          f"numpy={env.get('numpy')} blas/openmp threads=1")
    for error in result.get("errors", []):
        print("# error: " + " | ".join(error.strip().splitlines()[-3:]))
    attempted, failed = result["attempted"], result["failed"]
    print(f"# failed_ops_share {failed / attempted:.4f} ratio ({failed} failed of {attempted} iterations)")
    iters = result["iter_s"]
    if iters:
        print(f"# iteration_s median {statistics.median(iters):.4f} s, {tail_percentile(iters)}, "
              f"n={len(iters)}")
    if args.trace:
        shares = {k: v["value"] for k, v in metrics.items() if k.endswith(".self_share")}
        print("# layer shares of traced iteration time: "
              + ", ".join(f"{k.split('.')[0]} {v:.1%}" for k, v in sorted(shares.items(), key=lambda kv: -kv[1])))
        return
    name, unit = ITEM_NAMES[args.workload]
    print(f"# {name} {metrics['items_per_s']['value']:.1f} {unit} (items_per_s; "
          f"{result['items'][0] if result['items'] else 0} items per iteration)")
    print(f"# setup_s {metrics['setup_s']['value']:.4f} s (median of {len(setups)} set-ups)")
    print(f"# peak_rss_mb {metrics['peak_rss_mb']['value']:.1f} MB")


if __name__ == "__main__":
    sys.exit(main())
