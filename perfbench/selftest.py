"""Self-test of the benchmark at its smallest input size (about a minute).

    python3 perfbench/selftest.py

Run from the root of the checkout.  Checks that:
* every workload prints, as its last line, the result object with every
  metric of BENCHMARK.json under its name and unit;
* the deterministic layer counters repeat exactly across two traced runs,
  and exact-scan words and artifact checks do not depend on the seed;
* a deliberately wrong expected value makes operations fail (the oracles
  are live);
* outside a source checkout the benchmark exits nonzero without a result.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("pipelines", "exact-scan", "artifacts")
COUNTERS = ("calls", "words", "check_evals", "trials", "checks_out", "bytes_written", "bytes_read")
SEED_FREE = {"exact-scan": ["testers.soundness_exact.words"],
             "artifacts": ["constructions.dependence_tester.checks_out"]}

failures: list[str] = []


def check(ok: bool, what: str) -> None:
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        failures.append(what)


def bench(workload: str, seed: int, trace: int, *extra: str, cwd: str = ".") -> tuple[int, str]:
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload, "--seed", str(seed), "--seconds", "1",
           "--trace", str(trace), "--small", *extra]
    proc = subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE, text=True, timeout=180)
    return proc.returncode, proc.stdout


def result(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def main() -> int:
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    expected = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}

    for workload in WORKLOADS:
        traced = []
        for trace, seed in ((0, 1), (1, 1), (1, 1), (1, 2)):
            rc, out = bench(workload, seed, trace)
            res = result(out)
            label = f"{workload} seed={seed} trace={trace}"
            check(rc == 0 and set(res) == {"correct", "attempted", "failed", "metrics"}, label + ": result line")
            check(res["correct"] and res["failed"] == 0 and res["attempted"] >= 1, label + ": no failed operation")
            units = {name: m["unit"] for name, m in res["metrics"].items()}
            check(units == expected[trace], label + ": every metric with its unit")
            if trace == 0:
                check(all(m["value"] > 0 for m in res["metrics"].values()), label + ": end-to-end metrics nonzero")
            else:
                traced.append({k: m["value"] for k, m in res["metrics"].items()
                               if k.rsplit(".", 1)[-1] in COUNTERS})
        check(traced[0] == traced[1], f"{workload}: layer counters repeat exactly at one seed")
        check(all(traced[0][k] == traced[2][k] and traced[0][k] > 0 for k in SEED_FREE.get(workload, [])),
              f"{workload}: seed-independent counters agree across seeds")

        rc, out = bench(workload, 1, 0, "--break-oracle")
        res = result(out)
        check(rc == 0 and not res["correct"] and res["failed"] == res["attempted"] > 0,
              f"{workload}: a wrong expected value fails every iteration")

    bare = os.path.join(".perfbench_out", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy("BENCHMARK.json", bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"), ignore=shutil.ignore_patterns("__pycache__"))
    rc, out = bench("pipelines", 1, 0, cwd=bare)
    check(rc != 0 and '"correct"' not in out, "without the program: nonzero exit and no result")
    shutil.rmtree(bare, ignore_errors=True)

    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
