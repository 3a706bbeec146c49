#!/usr/bin/env python3
"""Run one workload once per seed and summarize its metrics.

    python3 perfbench/repeat.py --workload certify-p --seeds 1-10 [--seconds 20] [--trace 0]

Runs perfbench/run.py sequentially, one seed at a time, from the root of
the checkout, and prints per metric the ten values, their median, first
and third quartiles (statistics.quantiles, n=4) and the spread
(q3 - q1) / median, plus the failed share of operations.  BENCHMARK.json
gives --seconds when it is not given.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=seeds, required=True, help="a range such as 1-10")
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or bench["run_seconds"]

    rows = []
    for seed in args.seeds:
        cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(args.trace)]
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
        rows.append(json.loads(done.stdout.strip().splitlines()[-1]))
        print(f"seed {seed}: {done.stdout.strip().splitlines()[-1]}", flush=True)

    print(f"{args.workload}: {len(rows)} runs of {seconds} s, correct={all(r['correct'] for r in rows)}, "
          f"failed/attempted={sorted({(r['failed'], r['attempted']) for r in rows})}")
    for name in rows[0]["metrics"]:
        vals = [r["metrics"][name]["value"] for r in rows]
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
        spread = (q3 - q1) / med if med else 0.0
        print(f"  {name:48s} median {med:.6g}  q1 {q1:.6g}  q3 {q3:.6g}  spread {spread:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
