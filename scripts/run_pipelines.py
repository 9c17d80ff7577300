#!/usr/bin/env python3
"""Run the three alphabet-reduction pipelines on their desk instances and
write the full reports to JSON files.

    python scripts/run_pipelines.py --out-dir reports --seed 0 --trials 100000
"""

import argparse
import pathlib

from ltcforge.algebra import DEFAULT_BUDGET
from ltcforge.pipeline import DEMO_PARAMS, demo_inputs, run_reduction
from ltcforge.serialize import dumps, report_to_json


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir", type=pathlib.Path, default=pathlib.Path("reports"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trials", type=int, default=10**5)
    parser.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    args = parser.parse_args()
    args.out_dir.mkdir(parents=True, exist_ok=True)

    for name, params in DEMO_PARAMS.items():
        report = run_reduction(
            name, *demo_inputs(name, args.budget), params,
            budget=args.budget, seed=args.seed, trials=args.trials,
        )
        path = args.out_dir / f"{name}.json"
        path.write_text(dumps(report_to_json(report)))
        print(f"{name}: overall={report.overall}")
        for key, verdict in sorted(report.verdicts.items()):
            print(f"  {key}: {verdict}")
        print(f"  -> {path}")


if __name__ == "__main__":
    main()
