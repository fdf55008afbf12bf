"""Benchmark for pstlab: the falsify, analyze and transfer workloads.

    python3 bench/run.py --workload falsify --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the library is imported from its src/.
One process runs one workload on the library's serial path (PSTLAB_THREADS
is removed from the environment); `--workload all` runs the three one after
another, each in its own process.  With --trace 0 the last line of standard
output is one JSON object with the end-to-end metrics (setup_s, items_per_s,
op_p50_ms, op_p90_ms, peak_rss_mb); with --trace 1 it carries the per-layer
metrics of bench/tracer.py instead, and the spans go to
bench/out/trace-<workload>-seed<seed>.json.  The end-to-end times are
scaled by the reference kernel of bench/reference.py, timed between calls,
to a fixed machine speed; the unscaled wall-time figures are printed too.
Lines before the result give the machine and the operations attempted and
failed.  See bench/README.md.
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
import time
from contextlib import nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "bench" / "out"
WORKLOAD_NAMES = ("falsify", "analyze", "transfer")
SETUP_REPEATS = 5        # set-up is timed in this process and in 4 fresh ones
MIN_OPS = 100            # so that at least ten op times lie above the p90


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="time spent inside timed calls, in whole rounds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="time one set-up, print it and exit (used for the set-up samples)")
    return parser.parse_args(argv)


def setup(name: str, seed: int, workdir: str):
    """Import pstlab, build the corpus and make the first call: set-up time."""
    start = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import pstlab.cli  # noqa: F401
    import workloads
    workload = workloads.WORKLOADS[name](seed, workdir)
    workload.build()
    workload.prepare(0)
    workload.run(0)
    return workload, time.perf_counter() - start


def setup_sample(name: str, seed: int) -> tuple[float, float]:
    """Set-up time of a fresh interpreter: wall and scaled seconds."""
    done = subprocess.run(
        [sys.executable, __file__, "--workload", name, "--seed", str(seed), "--setup-only"],
        capture_output=True, text=True, timeout=120, check=True,
    )
    result = json.loads(done.stdout.strip().splitlines()[-1])
    return result["setup_wall_s"], result["setup_s"]


def machine() -> dict:
    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    threads = {v: os.environ.get(v, "unset") for v in
               ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": threads,
        "PSTLAB_THREADS": "removed",
    }


def measure(workload, seconds: float, tracer=None) -> dict:
    """Whole rounds until `seconds` were spent in timed calls and at least
    MIN_OPS calls were made.  Checks run between calls, outside the timer,
    and so does the reference kernel, sampled about every
    reference.REF_EVERY_S seconds of timed calls."""
    import reference
    times, positions, units, failed, wrong, rounds = [], [], 0, 0, [], 0
    busy = since_sample = 0.0
    samples = [reference.sample()]
    while busy < seconds or len(times) < MIN_OPS:
        for i in range(len(workload)):
            workload.prepare(i)
            with tracer.op() if tracer else nullcontext():
                start = time.perf_counter()
                try:
                    output = workload.run(i)
                except Exception as exc:  # an op that raises counts as failed
                    busy += time.perf_counter() - start
                    failed += 1
                    print(f"op {i} failed: {exc!r}", file=sys.stderr)
                    continue
                elapsed = time.perf_counter() - start
            times.append(elapsed)
            positions.append(len(samples))
            busy += elapsed
            since_sample += elapsed
            if since_sample >= reference.REF_EVERY_S:
                samples.append(reference.sample())
                since_sample = 0.0
            units += workload.units(i)
            problems = workload.check(i, output)
            if problems:
                wrong.append((i, problems))
                print(f"op {i} wrong: {problems}", file=sys.stderr)
        rounds += 1
    samples.append(reference.sample())
    scaled = [t * f for t, f in zip(times, reference.scale_factors(samples, positions))]
    return {"times": times, "scaled": scaled, "samples": samples, "busy": busy,
            "units": units, "failed": failed, "wrong": wrong, "rounds": rounds,
            "attempted": rounds * len(workload)}


def run_workload(args) -> dict:
    os.environ.pop("PSTLAB_THREADS", None)
    OUT.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT, prefix=f"work-{args.workload}-") as workdir:
        workload, setup_s = setup(args.workload, args.seed, workdir)
        import reference
        setup_times = [(setup_s, setup_s * reference.scale_now())]
        if args.setup_only:
            return {"setup_wall_s": setup_times[0][0], "setup_s": setup_times[0][1]}
        if not args.trace:
            setup_times += [setup_sample(args.workload, args.seed)
                            for _ in range(SETUP_REPEATS - 1)]
        workload.expect()
        tracer = None
        if args.trace:
            import tracer as tracing
            tracer = tracing.Tracer()
            tracer.install()
        try:
            stats = measure(workload, args.seconds, tracer)
        finally:
            if tracer:
                tracer.remove()
    print("machine:", json.dumps(machine()))
    wall_rate, scaled_rate = (stats["units"] / stats["busy"], stats["units"] / sum(stats["scaled"]))
    print(f"workload {args.workload}: attempted {stats['attempted']} failed {stats['failed']}"
          f" wrong {len(stats['wrong'])} ({stats['rounds']} rounds of {len(workload)} ops,"
          f" {stats['units']} units, {stats['busy']:.2f} s in timed calls)")
    samples = stats["samples"]
    print(f"reference kernel: {len(samples)} samples, median {1e3 * statistics.median(samples):.4f} ms,"
          f" quartiles {[round(1e3 * q, 4) for q in statistics.quantiles(samples, n=4)]} ms")
    print(f"wall time: {wall_rate:.6g} items/s; scaled to the reference kernel: {scaled_rate:.6g} items/s")
    if tracer:
        path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        tracer.write(str(path))
        print(f"spans: {len(tracer.spans)} written to {path.relative_to(ROOT)}")
        metrics = tracer.layer_metrics()
    else:
        import numpy
        p50, p90 = numpy.percentile(stats["scaled"], [50, 90])
        w50, w90 = numpy.percentile(stats["times"], [50, 90])
        print(f"wall time per op: p50 {1e3 * w50:.6g} ms, p90 {1e3 * w90:.6g} ms")
        print(f"set-up samples, wall (s): {[round(w, 4) for w, _ in setup_times]};"
              f" scaled (s): {[round(t, 4) for _, t in setup_times]}")
        metrics = {
            "setup_s": (statistics.median(t for _, t in setup_times), "s"),
            "items_per_s": (scaled_rate, "items/s"),
            "op_p50_ms": (1e3 * p50, "ms"),
            "op_p90_ms": (1e3 * p90, "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
    return {
        "correct": not stats["wrong"],
        "attempted": stats["attempted"],
        "failed": stats["failed"],
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
    }


def run_all(args) -> dict:
    """Each workload in its own process; the last line merges their results."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        done = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=600, check=True,
        )
        sys.stdout.write(done.stdout)
        result = json.loads(done.stdout.strip().splitlines()[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for key, value in result["metrics"].items():
            merged["metrics"][f"{name}.{key}"] = value
    return merged


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "pstlab" / "__init__.py").is_file():
        print(f"error: no pstlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload == "all":
        if args.setup_only:
            print("error: --setup-only needs one workload", file=sys.stderr)
            return 2
        result = run_all(args)
    else:
        result = run_workload(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
