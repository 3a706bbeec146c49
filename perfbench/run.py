#!/usr/bin/env python3
"""Run one workload of the pmkit benchmark and print its result.

    python3 perfbench/run.py --workload certify-p --seed 1 --seconds 45 --trace 0

Run from the root of a checkout: pmkit is imported from its `src/`.  The
run sets up (imports pmkit, builds the seeded inputs, makes one warm-up
call per function the workload uses), then repeats whole passes over the
workload's jobs until --seconds have elapsed, checks every output, and
prints one JSON line: {"correct", "attempted", "failed", "metrics"}.

--trace 0 reports the end-to-end metrics; --trace 1 wraps pmkit's public
functions in spans and reports the per-layer metrics instead.  Details of
each run go to perfbench/out/ (result-*.json, trace-*.jsonl).
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
WORKLOADS = ("certify-p", "refute-nonp", "suite-all")
SETUP_SAMPLES = 5  # set-ups timed per untraced run: this process and 4 fresh ones
PROBE_TIMEOUT_S = 60
MIN_PASSES = 2  # suite-all's pass is 20-28 s: one pass alone swung too much


def pin_threads() -> None:
    """One BLAS/OpenMP thread, before numpy loads: on these tiny matrices a
    thread pool only spins on the second core and adds noise."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"


def import_pmkit() -> None:
    src = ROOT / "src"
    if not (src / "pmkit" / "__init__.py").is_file():
        sys.exit(f"perfbench: no pmkit source at {src / 'pmkit'}")
    sys.path.insert(0, str(src))
    import pmkit

    if Path(pmkit.__file__).resolve().parent != (src / "pmkit").resolve():
        sys.exit(f"perfbench: pmkit imported from {pmkit.__file__}, not from {src}")


def set_up(workload: str, seed: int, tracer=None):
    """Import pmkit, build the inputs and warm up; returns (seconds, jobs)."""
    t0 = time.perf_counter()
    import_pmkit()
    import workloads

    if tracer is not None:
        tracer.install()
    build, warm = workloads.WORKLOADS[workload]
    jobs = build(seed)
    warm()
    return time.perf_counter() - t0, jobs


def probe_setup(workload: str, seed: int) -> float:
    """Set-up time of a fresh interpreter (interpreter start excluded)."""
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "0", "--setup-probe"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=PROBE_TIMEOUT_S, check=True)
    return float(done.stdout.split()[-1])


def measure(jobs, seconds: float, tracer=None):
    """Whole passes for about `seconds`: at least MIN_PASSES, and another
    only if it should end by the deadline.  Checks run between passes,
    outside the timed region."""
    from checks import CheckFailed

    passes, job_times, failures = [], [], []
    deadline = time.perf_counter() + seconds
    while len(passes) < MIN_PASSES or time.perf_counter() + passes[-1] <= deadline:
        if tracer is not None:
            tracer.phase = len(passes)
        outs = []
        start = time.perf_counter()
        for job in jobs:
            t = time.perf_counter()
            outs.append(job.call())
            job_times.append(time.perf_counter() - t)
        passes.append(time.perf_counter() - start)
        for job, out in zip(jobs, outs):
            try:
                job.check(out)
            except CheckFailed as exc:
                failures.append((job, exc))
    return passes, job_times, failures


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    pin_threads()

    if args.setup_probe:
        print(set_up(args.workload, args.seed)[0])
        return 0

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
    setup_s, jobs = set_up(args.workload, args.seed, tracer)
    for job in jobs:
        job.validate()

    passes, job_times, failures = measure(jobs, args.seconds, tracer)
    # The other set-ups run after the passes, so the passes start right
    # after this process's own warm-up, as in a traced run.
    setup_samples = [setup_s]
    if tracer is None:
        setup_samples += [probe_setup(args.workload, args.seed) for _ in range(SETUP_SAMPLES - 1)]
    from checks import KnownFault

    # Only the named threshold fault, on seed-independent inputs, is expected.
    correct = all(job.fixed and isinstance(exc, KnownFault) for job, exc in failures)
    # The host's speed swings by up to 2x within seconds (README.md,
    # "Statistics"): a pass is timed as the mean over the run's passes, a
    # job as its median over the passes, so both take in the whole run
    # rather than its fastest moments.
    wall_s = statistics.mean(passes)
    job_med = [statistics.median(job_times[j::len(jobs)]) for j in range(len(jobs))]
    if tracer is not None:
        metrics = tracer.metrics(len(passes))
        from tracing import metric_units

        units = metric_units()
    else:
        metrics = {
            "setup_s": statistics.median(setup_samples),
            "wall_s": wall_s,
            "job_p50_ms": statistics.median(job_med) * 1e3,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = {"setup_s": "s", "wall_s": "s", "job_p50_ms": "ms", "peak_rss_mb": "MB"}
    result = {
        "correct": correct,
        "attempted": len(jobs) * len(passes),
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }

    seen = set()
    for job, exc in failures:
        if (job.group, str(exc)) not in seen:
            seen.add((job.group, str(exc)))
            kind = "known fault" if job.fixed and isinstance(exc, KnownFault) else "FAILED"
            print(f"perfbench: {kind}: {job.group}: {exc}", file=sys.stderr)
    OUT_DIR.mkdir(exist_ok=True)
    detail = dict(result, workload=args.workload, seed=args.seed, trace=args.trace,
                  wall_s=wall_s, passes=passes, setup_samples=setup_samples,
                  jobs_per_pass=len(jobs), job_times=job_times,
                  failures=sorted({f"{job.group}: {exc}" for job, exc in failures}))
    (OUT_DIR / f"result-{args.workload}-trace{args.trace}.json").write_text(
        json.dumps(detail, indent=1) + "\n")
    if tracer is not None:
        tracer.write(OUT_DIR / f"trace-{args.workload}.jsonl")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
