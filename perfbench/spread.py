"""Run a workload once per seed and report each end-to-end metric's spread.

    python3 perfbench/spread.py --workload classical --seeds 0-9 --seconds 10

Prints, per metric, the median over the runs and the distance between the
first and third quartiles (``statistics.quantiles(values, n=4)``) as a
share of the median. That share must stay within the metric's bound in
``BENCHMARK.json`` for the benchmark to tell a change from noise; aim
for a third of it. Each run's result line is appended to
``.perfbench_out/spread-<workload>.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys

import record_reference
import run


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", type=record_reference._seeds, required=True, help="N or LO-HI")
    p.add_argument("--seconds", default="10")
    args = p.parse_args(argv)
    values = {}
    log = run.ROOT / ".perfbench_out" / f"spread-{args.workload}.jsonl"
    log.parent.mkdir(exist_ok=True)
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, str(run.HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", args.seconds, "--trace", "0"],
            cwd=run.ROOT, capture_output=True, text=True, check=True)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        with open(log, "a") as fh:
            fh.write(json.dumps({"seed": seed, **result}) + "\n")
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: correct={result['correct']} "
              + " ".join(f"{k}={v[-1]:.4g}" for k, v in values.items()), flush=True)
    for name, vals in values.items():
        q1, med, q3 = statistics.quantiles(vals, n=4)
        print(f"{name}: median {med:.5g}  spread {(q3 - q1) / med:.4f}  n={len(vals)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
