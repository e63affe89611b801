#!/usr/bin/env python
"""Measure the time overhead of the observability layer.

Runs the wavelet experiment with and without ``obs`` instrumentation and
compares best-of-N process CPU times (``time.process_time``: time the
process spends descheduled on a shared host does not count, so the
ratio holds steady where wall-clock ratios spread past the bound).  The
obs layer is designed to be free when disabled (the hot paths guard
every instrument behind one attribute test) and cheap when enabled
(histograms are one ``frexp`` per observation; most metrics are
harvested once at end of run) — CI fails the build if an instrumented
run costs more than ``--threshold`` times an uninstrumented one.

Usage::

    PYTHONPATH=src python tools/obs_overhead.py [--threshold 1.10]
"""

from __future__ import annotations

import argparse
from time import process_time

from repro.core import ExperimentRunner


def _one_run(nnodes: int, seed: int, obs: bool) -> float:
    runner = ExperimentRunner(nnodes=nnodes, seed=seed, obs=obs)
    t0 = process_time()
    runner.run("wavelet")
    return process_time() - t0


def measure(nnodes: int = 2, seed: int = 1, repeats: int = 3) -> dict:
    """Best-of-N CPU seconds for plain vs instrumented wavelet runs.

    One warm-up run first, then the variants *interleaved* so slow
    drifts of a shared machine hit both sides equally; best-of-N
    discards the scheduling hiccups.
    """
    _one_run(nnodes, seed, obs=False)  # warm caches / JIT'd importers
    plain = instrumented = float("inf")
    for _ in range(repeats):
        plain = min(plain, _one_run(nnodes, seed, obs=False))
        instrumented = min(instrumented, _one_run(nnodes, seed, obs=True))
    return {"plain_s": plain, "instrumented_s": instrumented,
            "ratio": instrumented / plain if plain else float("inf")}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="obs-layer overhead smoke check")
    parser.add_argument("--nodes", type=int, default=2)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--repeats", type=int, default=3,
                        help="take the best of N runs per variant")
    parser.add_argument("--threshold", type=float, default=1.10,
                        help="fail if instrumented/plain exceeds this")
    args = parser.parse_args(argv)
    result = measure(nnodes=args.nodes, seed=args.seed,
                     repeats=args.repeats)
    print(f"plain        {result['plain_s'] * 1000:9.1f} ms")
    print(f"instrumented {result['instrumented_s'] * 1000:9.1f} ms")
    print(f"ratio        {result['ratio']:9.3f}  "
          f"(threshold {args.threshold:.2f})")
    if result["ratio"] > args.threshold:
        print("FAIL: observability overhead exceeds threshold")
        return 1
    print("OK")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
