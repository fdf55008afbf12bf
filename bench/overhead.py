"""Tracing overhead: traced against untraced items/s, in one process.

    python3 bench/overhead.py --workload falsify --seed 1 --pairs 10

Runs rounds of the workload in pairs, one round with the tracer of
bench/tracer.py installed and one without, alternating which goes first.
The machine's speed drifts over tens of seconds, so each pair is compared
on its own and the median of the pair ratios is printed.
"""
from __future__ import annotations

import argparse
import statistics
import sys
import tempfile
import time
from contextlib import nullcontext

import run


def round_seconds(workload, tracer=None) -> float:
    busy = 0.0
    for i in range(len(workload)):
        workload.prepare(i)
        with tracer.op() if tracer else nullcontext():
            start = time.perf_counter()
            workload.run(i)
            busy += time.perf_counter() - start
    return busy


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=run.WORKLOAD_NAMES, required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args(argv)
    run.OUT.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.OUT, prefix="overhead-") as workdir:
        workload, _ = run.setup(args.workload, args.seed, workdir)
        import tracer as tracing
        ratios = []
        for pair in range(args.pairs):
            seconds = {}
            for traced in ((False, True) if pair % 2 == 0 else (True, False)):
                tracer = tracing.Tracer() if traced else None
                if tracer:
                    tracer.install()
                try:
                    seconds[traced] = round_seconds(workload, tracer)
                finally:
                    if tracer:
                        tracer.remove()
            ratios.append(seconds[False] / seconds[True])
    print(f"{args.workload}: traced / untraced items/s, median of {args.pairs} pairs: "
          f"{statistics.median(ratios):.4f} (pairs from {min(ratios):.4f} to {max(ratios):.4f})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
