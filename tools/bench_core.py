#!/usr/bin/env python
"""Benchmark the DES core and disk hot paths against a committed baseline.

Three measurements make up the core perf trajectory (``BENCH_core.json``):

* **experiment** — wall time and requests/sec of the baseline experiment
  (``nnodes=2, seed=1``): an end-to-end floor on real runs.
* **batched_drain** — a deep-queue storm on one disk: every request
  submitted at t=0, so each of the device's picks chooses from a queue
  thousands deep.  Gated as an absolute requests/sec floor.
* **service_time** — per-call cost of ``DiskServiceModel.service_time``
  (the precomputed-table path) versus a scalar reference that redoes
  the per-request ``sqrt``/zone math, as p50/p95 nanoseconds over timed
  batches.

A fourth, *informational* section (``checkpoint``) records the cost of a
whole-stack checkpoint epoch — capture, save, load, and restore
latency, plus the ``.ckpt`` size on disk — so the weight of periodic
checkpointing stays visible in the trajectory without gating CI.

The CI gate compares each gated metric against the committed one and
fails on a >15% regression, the same shape as the obs-overhead gate.
The service-time gate is a *speedup* (table/scalar, two measurements
taken on the same machine moments apart); the experiment and drain
gates are absolute throughputs, so a change that slows every path
equally still trips the gate.

Usage::

    PYTHONPATH=src python tools/bench_core.py                 # measure only
    PYTHONPATH=src python tools/bench_core.py --update        # refresh JSON
    PYTHONPATH=src python tools/bench_core.py --check BENCH_core.json
"""

from __future__ import annotations

import argparse
import json
import math
from pathlib import Path
from time import perf_counter

import numpy as np

from repro.core.experiments import ExperimentRunner
from repro.disk import Disk, DiskServiceModel, IORequest
from repro.disk.scheduler import SCHEDULERS
from repro.sim import Simulator

#: gate keys: (json path, human label, unit) of every gated metric.
#: The service-time speedup is a machine-independent ratio; the two
#: throughputs are absolute floors so the hot paths cannot silently rot.
GATED = (
    (("service_time", "speedup_p50"),
     "service-time p50 (table vs scalar)", "x"),
    (("batched_drain", "requests_per_s"),
     "deep-queue drain throughput", " req/s"),
    (("experiment", "requests_per_s"),
     "experiment throughput", " req/s"),
)


# -- baseline experiment ------------------------------------------------------
def _experiment_wall(nnodes: int, seed: int) -> tuple:
    runner = ExperimentRunner(nnodes=nnodes, seed=seed)
    t0 = perf_counter()
    result = runner.run("baseline")
    return perf_counter() - t0, result.metrics.total_requests


def bench_experiment(nnodes: int = 2, seed: int = 1,
                     repeats: int = 3) -> dict:
    """Best-of-N baseline-experiment wall time."""
    _experiment_wall(nnodes, seed)   # warm importers/caches
    wall = float("inf")
    requests = 0
    for _ in range(repeats):
        this_wall, requests = _experiment_wall(nnodes, seed)
        wall = min(wall, this_wall)
    return {"name": "baseline", "nnodes": nnodes, "seed": seed,
            "total_requests": requests,
            "wall_s": wall,
            "requests_per_s": requests / wall}


# -- batched drain storm ------------------------------------------------------
def _drain_wall(workload, seed: int) -> float:
    """Wall time for one disk to drain ``workload`` submitted at t=0."""
    sim = Simulator()
    disk = Disk(sim,
                service=DiskServiceModel(),
                scheduler=SCHEDULERS.create("clook"),
                rng=np.random.default_rng(seed))

    def submitter():
        for sector, nsectors, is_write in workload:
            disk.submit(IORequest(sector=sector, nsectors=nsectors,
                                  is_write=is_write))
        return
        yield

    sim.process(submitter(), name="submitter")
    t0 = perf_counter()
    sim.run()
    wall = perf_counter() - t0
    assert disk.stats.reads + disk.stats.writes == len(workload)
    return wall


def bench_batched_drain(nrequests: int = 4_000, repeats: int = 3,
                        seed: int = 11) -> dict:
    """Best-of-N deep-queue storm through one disk.

    Every request is submitted at the same instant, so the queue starts
    ``nrequests`` deep and each service's one scheduler pick searches
    it: a pick that scans the queue makes the storm quadratic.
    """
    model = DiskServiceModel()
    rng = np.random.default_rng(seed)
    workload = list(zip(
        rng.integers(0, model.geometry.total_sectors - 64,
                     size=nrequests).tolist(),
        rng.integers(1, 65, size=nrequests).tolist(),
        (rng.random(nrequests) < 0.5).tolist()))
    _drain_wall(workload, seed)          # warm tables/caches
    wall = min(_drain_wall(workload, seed) for _ in range(repeats))
    return {"nrequests": nrequests, "scheduler": "clook",
            "wall_s": wall,
            "requests_per_s": nrequests / wall}


# -- disk service-time compute cost -------------------------------------------
def _scalar_service_time(model: DiskServiceModel, request: IORequest,
                         head: int, rng) -> float:
    """The pre-PR per-request math: sqrt seek + per-call zone lookup."""
    geo = model.geometry
    target = request.sector // geo.sectors_per_cylinder
    d = abs(target - head)
    seek = 0.0 if d == 0 else (model.seek_settle
                               + model.seek_sqrt_coeff * math.sqrt(d)
                               + model.seek_linear_coeff * d)
    rate = geo.sectors_per_track_at(target) * 512 / model.rotation_time
    return (model.controller_overhead + seek
            + float(rng.random()) * model.rotation_time
            + request.nsectors * 512 / rate)


def bench_service_time(nbatches: int = 300, batch: int = 100,
                       seed: int = 3) -> dict:
    """p50/p95 per-call nanoseconds: table path vs scalar reference.

    Per-call timer overhead would swamp a ~1 us call, so calls are timed
    in batches of ``batch`` and the percentiles taken over batch means;
    both variants run the same request stream.
    """
    model = DiskServiceModel()
    geo = model.geometry
    rng = np.random.default_rng(seed)
    sectors = rng.integers(0, geo.total_sectors - 8, size=batch)
    requests = [IORequest(sector=int(s), nsectors=8, is_write=False)
                for s in sectors]
    heads = rng.integers(0, geo.cylinders, size=batch).tolist()
    model.service_time(requests[0], heads[0], rng)   # build the tables

    def _percentiles(fn) -> dict:
        draws = np.random.default_rng(seed)
        samples = []
        for _ in range(nbatches):
            t0 = perf_counter()
            for request, head in zip(requests, heads):
                fn(model, request, head, draws)
            samples.append((perf_counter() - t0) / batch * 1e9)
        arr = np.asarray(samples)
        return {"p50": float(np.percentile(arr, 50)),
                "p95": float(np.percentile(arr, 95))}

    table = _percentiles(DiskServiceModel.service_time)
    scalar = _percentiles(_scalar_service_time)
    return {"calls_per_batch": batch, "batches": nbatches,
            "table_ns": table, "scalar_ns": scalar,
            "speedup_p50": scalar["p50"] / table["p50"],
            "speedup_p95": scalar["p95"] / table["p95"]}


# -- checkpoint/restore cost --------------------------------------------------
def bench_checkpoint(repeats: int = 3, duration: float = 30.0) -> dict:
    """Whole-stack snapshot/restore latency and ``.ckpt`` size (not gated).

    Times the four legs separately on a mid-run baseline checkpoint
    (``nnodes=2``): reading + verifying the envelope, rebuilding a
    restored stack from the tree, re-capturing a quiescent stack, and
    the atomic write.  Informational only — the numbers track how heavy
    a checkpoint epoch is, they do not fail CI.
    """
    import tempfile

    from repro.checkpoint import (
        capture_state,
        drain_to_quiescence,
        load_checkpoint,
        save_checkpoint,
        verify_restored_queue,
    )

    best = {"load_ms": float("inf"), "restore_ms": float("inf"),
            "capture_ms": float("inf"), "save_ms": float("inf")}
    with tempfile.TemporaryDirectory(prefix="bench-ckpt-") as tmp:
        ck = Path(tmp)
        ExperimentRunner(nnodes=2, seed=1).run(
            "baseline", duration=duration,
            checkpoint_every=duration / 2, checkpoint_dir=ck)
        path = ck / "baseline.ckpt"
        size = path.stat().st_size
        tree = load_checkpoint(path)
        for _ in range(repeats):
            t0 = perf_counter()
            tree = load_checkpoint(path)
            best["load_ms"] = min(best["load_ms"],
                                  (perf_counter() - t0) * 1e3)

            t0 = perf_counter()
            runner = ExperimentRunner(nnodes=2, seed=1)
            sim, cluster = runner._build(tree)
            drain_to_quiescence(sim)
            verify_restored_queue(sim, tree)
            best["restore_ms"] = min(best["restore_ms"],
                                     (perf_counter() - t0) * 1e3)

            t0 = perf_counter()
            again = capture_state(sim, cluster, meta=tree["meta"])
            best["capture_ms"] = min(best["capture_ms"],
                                     (perf_counter() - t0) * 1e3)

            t0 = perf_counter()
            save_checkpoint(again, ck / "bench.ckpt")
            best["save_ms"] = min(best["save_ms"],
                                  (perf_counter() - t0) * 1e3)
    return {"name": "baseline", "nnodes": 2, "duration_s": duration,
            "ckpt_bytes": size, **best}


# -- harness ------------------------------------------------------------------
def measure(repeats: int = 3) -> dict:
    return {"schema": 3,
            "experiment": bench_experiment(repeats=repeats),
            "batched_drain": bench_batched_drain(repeats=repeats),
            "service_time": bench_service_time(),
            "checkpoint": bench_checkpoint(repeats=repeats)}


def _get(result: dict, path: tuple) -> float:
    for key in path:
        result = result[key]
    return float(result)


def render(result: dict) -> str:
    exp = result["experiment"]
    drain = result["batched_drain"]
    svc = result["service_time"]
    ckpt = result["checkpoint"]
    return "\n".join([
        f"experiment {exp['wall_s'] * 1e3:8.1f} ms   "
        f"({exp['requests_per_s']:,.0f} req/s)",
        f"drain      {drain['wall_s'] * 1e3:8.1f} ms   "
        f"({drain['requests_per_s']:,.0f} req/s)",
        f"service    scalar p50 {svc['scalar_ns']['p50']:7.0f} ns   "
        f"table p50 {svc['table_ns']['p50']:7.0f} ns   "
        f"speedup {svc['speedup_p50']:5.2f}x "
        f"(p95 {svc['speedup_p95']:.2f}x)",
        f"checkpoint capture {ckpt['capture_ms']:6.1f} ms   "
        f"save {ckpt['save_ms']:6.1f} ms   "
        f"load {ckpt['load_ms']:6.1f} ms   "
        f"restore {ckpt['restore_ms']:6.1f} ms   "
        f"({ckpt['ckpt_bytes'] / 1024:,.0f} KiB, not gated)",
    ])


def check(result: dict, baseline: dict, tolerance: float) -> int:
    """Fail (rc 1) when any gated metric regressed past ``tolerance``."""
    rc = 0
    for path, label, unit in GATED:
        committed = _get(baseline, path)
        measured = _get(result, path)
        floor = committed * (1.0 - tolerance)
        verdict = "ok" if measured >= floor else "FAIL"
        print(f"{verdict:>4}  {label}: measured {measured:,.2f}{unit} vs "
              f"committed {committed:,.2f}{unit} "
              f"(floor {floor:,.2f}{unit})")
        if measured < floor:
            rc = 1
    return rc


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="DES core / disk hot-path benchmark")
    parser.add_argument("--update", nargs="?", const="BENCH_core.json",
                        metavar="PATH",
                        help="write results to PATH (default BENCH_core.json)")
    parser.add_argument("--check", metavar="PATH",
                        help="compare against the committed baseline at PATH")
    parser.add_argument("--repeats", type=int, default=3,
                        help="take the best of N runs per variant")
    parser.add_argument("--tolerance", type=float, default=0.15,
                        help="allowed fractional regression")
    args = parser.parse_args(argv)

    result = measure(repeats=args.repeats)
    print(render(result))
    if args.update:
        Path(args.update).write_text(json.dumps(result, indent=2) + "\n")
        print(f"wrote {args.update}")
    if args.check:
        baseline = json.loads(Path(args.check).read_text())
        return check(result, baseline, args.tolerance)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
