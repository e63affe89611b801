#!/usr/bin/env python
"""Measure the time overhead of the observability layer.

Runs the wavelet experiment with and without ``obs`` instrumentation in
back-to-back pairs and takes the median of the per-pair ratios of
process CPU times (``time.process_time``: time the process spends
descheduled on a shared host does not count).  A slow drift of the
host's load cancels within a pair, and the median drops the pairs a
sudden change split.  The obs layer is designed to be free when
disabled (the hot paths guard every instrument behind one attribute
test) and cheap when enabled (a histogram observation is one list
append, folded into log2 buckets a few thousand at a time; most
metrics are harvested once at end of run) — CI fails the build if an
instrumented run costs more than ``--threshold`` times an
uninstrumented one.

Usage::

    PYTHONPATH=src python tools/obs_overhead.py [--threshold 1.10]
"""

from __future__ import annotations

import argparse
from statistics import median
from time import process_time

from repro.core import ExperimentRunner


def _one_run(nnodes: int, seed: int, obs: bool) -> float:
    runner = ExperimentRunner(nnodes=nnodes, seed=seed, obs=obs)
    t0 = process_time()
    runner.run("wavelet")
    return process_time() - t0


def measure(nnodes: int = 2, seed: int = 1, pairs: int = 7) -> dict:
    """Median CPU seconds and median per-pair ratio, instrumented over
    plain, of ``pairs`` back-to-back wavelet run pairs.

    One warm-up run first.  The pairs alternate which variant runs
    first, so a drift within a pair favours neither side.
    """
    _one_run(nnodes, seed, obs=False)  # warm caches / JIT'd importers
    plain, instrumented = [], []
    for i in range(pairs):
        for obs in ((False, True) if i % 2 == 0 else (True, False)):
            (instrumented if obs else plain).append(
                _one_run(nnodes, seed, obs=obs))
    return {"plain_s": median(plain),
            "instrumented_s": median(instrumented),
            "ratio": median(slow / fast
                            for fast, slow in zip(plain, instrumented))}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="obs-layer overhead smoke check")
    parser.add_argument("--nodes", type=int, default=2)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--pairs", type=int, default=7,
                        help="gate on the median ratio of N run pairs")
    parser.add_argument("--threshold", type=float, default=1.10,
                        help="fail if instrumented/plain exceeds this")
    args = parser.parse_args(argv)
    result = measure(nnodes=args.nodes, seed=args.seed, pairs=args.pairs)
    print(f"plain        {result['plain_s'] * 1000:9.1f} ms")
    print(f"instrumented {result['instrumented_s'] * 1000:9.1f} ms")
    print(f"median ratio {result['ratio']:9.3f}  "
          f"(threshold {args.threshold:.2f})")
    if result["ratio"] > args.threshold:
        print("FAIL: observability overhead exceeds threshold")
        return 1
    print("OK")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
