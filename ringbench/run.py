"""Benchmark of ringsweep: one workload per invocation, on one thread.

    python3 ringbench/run.py --workload sweep --seed 1 --seconds 15 --trace 0

Run from the root of a checkout; the package is imported from `src/`.
With `--trace 0` the last line of standard output is a JSON object with
the end-to-end metrics; with `--trace 1` the layer functions are wrapped in
spans and the per-layer metrics are printed instead, the spans being
written under `ringbench/out/`.  See ringbench/README.md.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
WORKLOADS = ("sweep", "longhaul", "adversary")
# Fresh processes timed for set-up; their median is reported.
SETUP_PROBES = 7
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def _no_region(name: str, **attrs):
    return contextlib.nullcontext()


def _setup_probe(workload: str, workdir: str) -> int:
    """Time the first import of ringsweep through one warm-up job."""
    import clock

    with clock.Meter(_no_region) as meter:
        meter.start()
        import workloads

        job = workloads.WORKLOADS[workload][1](workdir)
        job.run(meter)
        meter.split()
    print(meter.scaled_s)
    return 0


def _measure_setup(workload: str) -> float:
    samples = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--setup-probe", "--workload", workload],
            cwd=ROOT, capture_output=True, text=True, timeout=170, check=True,
        )
        samples.append(float(done.stdout.split()[-1]))
    return statistics.median(samples)


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    cycles: int = 0
    host_s: float = 0.0
    scaled_s: float = 0.0
    rounds: int = 0
    durations: list = field(default_factory=list)
    problems: list = field(default_factory=list)


def _timed_loop(args, workdir, cycle_jobs, meter, recorder) -> Tally:
    """Run whole cycles until `args.seconds` host seconds are timed."""
    tally = Tally()
    while tally.host_s < args.seconds:
        for job in cycle_jobs(args.seed, tally.cycles, workdir):
            tally.attempted += 1
            if recorder is not None:
                recorder.job = tally.attempted
                root = recorder.open("bench.job")
            meter.start()
            try:
                rounds, output = job.run(meter)
            except Exception:
                output = None
                traceback.print_exc()
            meter.split()
            if recorder is not None:
                recorder.close(root, label=job.label)
            tally.host_s += meter.host_s
            tally.scaled_s += meter.scaled_s
            if output is None:
                tally.failed += 1
                print(f"failed: {job.label}", file=sys.stderr)
                continue
            tally.durations.append(meter.scaled_s)
            tally.rounds += rounds
            tally.problems += [f"{job.label}: {p}" for p in job.check(output)]
            del output
        tally.cycles += 1
    return tally


def _bench(args, workdir: str) -> dict:
    setup_s = None if args.trace else _measure_setup(args.workload)

    import checks
    import clock
    import spans
    import workloads

    problems = [f"self-test: {p}" for p in checks.self_test()]
    cycle_jobs, warmup = workloads.WORKLOADS[args.workload]
    recorder = spans.Recorder() if args.trace else None
    region = _no_region
    if recorder is not None:
        spans.instrument(recorder)
        region = recorder.region

    with clock.Meter(region) as meter:
        job = warmup(workdir)
        problems += [f"warm-up {job.label}: {p}" for p in job.check(job.run(meter)[1])]
        if recorder is not None:
            recorder.spans.clear()
        origin = time.perf_counter()
        tally = _timed_loop(args, workdir, cycle_jobs, meter, recorder)
    problems += tally.problems

    if recorder is not None:
        metrics = spans.per_layer(recorder, tally.scaled_s, tally.rounds)
        recorder.write(os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.jsonl"), origin)
    else:
        metrics = {
            "setup_s": (setup_s, "s"),
            "rounds_per_s": (tally.rounds / tally.scaled_s, "rounds/s"),
            "job_p50_ms": (
                statistics.median(tally.durations) * 1e3 if tally.durations else 0.0, "ms"
            ),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    for p in problems[:20]:
        print(f"check failed: {p}", file=sys.stderr)
    print(f"{args.workload} seed {args.seed}: {tally.attempted} jobs in {tally.cycles} cycles, "
          f"{tally.failed} failed, {len(problems)} check problems, {tally.host_s:.2f} s timed "
          f"({tally.scaled_s:.2f} s at reference speed)")
    return {
        "correct": not problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    for var in THREAD_VARS:
        os.environ[var] = "1"
    if not os.path.isfile(os.path.join(SRC, "ringsweep", "__init__.py")):
        print(f"ringbench: no ringsweep package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    workdir = os.path.join(OUT, f"work-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        if args.setup_probe:
            return _setup_probe(args.workload, workdir)
        result = _bench(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(OUT, name), "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
