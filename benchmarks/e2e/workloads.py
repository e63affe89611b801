"""Workloads of the end-to-end benchmark: their operations and checks.

A workload is a fixed list of *operations* built from the paper's
experiments (section 3.5) at the paper's 16 nodes.  An operation is one
experiment run through :class:`~repro.core.experiments.ExperimentRunner`
(optionally streamed into a :class:`~repro.store.RunCatalog`), or one
cold :class:`~repro.analysis.AnalysisEngine` pass over a captured run.
Only the operation itself is timed, with the host load sampled while it
runs (:class:`~hostload.HostLoad`, untraced operations only); digesting
and checking its output happen outside the timed region.

Every operation's output is checked two ways:

* against ``expected.json``: the sha256 of the trace record bytes plus
  the Table-1 tuple (simulation), or of the pipelines' JSON (analysis),
  recorded per operation and seed by ``run.py --record-expected``;
* by invariants that hold for any seed: every request the driver issued
  completed at the disk or is still queued there, records lie inside
  the observation window in time order and on the disk, a captured
  run reads back from the store byte-identical, and the analysis of a
  captured run reproduces the in-memory Table-1 metrics.

An operation on a seed with no recorded digest is *unverified*: only
the invariants vouch for it.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import tempfile
import traceback
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Optional

import numpy as np

from repro.analysis import AnalysisEngine
from repro.analysis.pipelines import make_pipelines
from repro.core.experiments import ExperimentRunner
from repro.obs import MetricsRegistry
from repro.store import RunCatalog

from hostload import HostLoad

#: the paper's cluster size, and the scaled-down one of ``--quick``
NODES = 16
QUICK_NODES = 2
BASELINE_WINDOW = 2000.0
QUICK_BASELINE_WINDOW = 120.0
#: baseline operations per pass: seeds S .. S+3
BASELINE_OPS = 4


@dataclass(frozen=True)
class Op:
    """One timed operation."""

    experiment: str
    seed: int
    nnodes: int
    #: observation window (baseline only)
    duration: Optional[float] = None
    #: stream the run into a fresh RunCatalog
    capture: bool = False
    #: analyze the captured run of this experiment instead of running it
    analyze: bool = False

    @property
    def key(self) -> str:
        """The operation's name in ``expected.json`` (seed excluded)."""
        key = f"{self.experiment}/n{self.nnodes}"
        if self.duration is not None:
            key += f"/d{self.duration:g}"
        return f"analyze:{key}" if self.analyze else key


def plan(workload: str, seed: int, quick: bool = False) -> tuple:
    """``(setup_ops, timed_ops)`` of one workload at one seed.

    ``quick`` scales every workload down to 2 nodes, a 120 s baseline,
    and ``ppm`` standing in for every application run.
    """
    n = QUICK_NODES if quick else NODES
    if workload == "baseline":
        window = QUICK_BASELINE_WINDOW if quick else BASELINE_WINDOW
        return (), tuple(Op("baseline", seed + i, n, duration=window)
                         for i in range(BASELINE_OPS))
    if workload == "single-apps":
        apps = ("ppm",) if quick else ("ppm", "nbody", "wavelet")
        return (), tuple(Op(app, seed, n) for app in apps)
    if workload == "combined-capture":
        app = "ppm" if quick else "combined"
        return (), (Op(app, seed, n, capture=True),)
    if workload == "analyze-wavelet":
        app = "ppm" if quick else "wavelet"
        return ((Op(app, seed, n, capture=True),),
                (Op(app, seed, n, analyze=True),))
    raise ValueError(f"unknown workload {workload!r}")


def unrecorded(ops, expected: dict) -> tuple:
    """The operations of ``ops`` with no digest in ``expected``."""
    return tuple(op for op in ops
                 if str(op.seed) not in expected.get(op.key, {}))


def warm_up(workdir: Path, seed: int) -> None:
    """Fill lazy tables and imports: a 2-node, 120 s baseline, captured
    and analyzed once (untimed; part of the set-up time)."""
    with tempfile.TemporaryDirectory(dir=workdir) as tmp:
        catalog = RunCatalog(tmp)
        ExperimentRunner(nnodes=QUICK_NODES, seed=seed, sink=catalog).run(
            "baseline", duration=QUICK_BASELINE_WINDOW)
        AnalysisEngine(catalog, cache=False).analyze(catalog.runs()[0])


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def pipelines_json(results: dict) -> str:
    """The default pipelines' results as canonical JSON."""
    return json.dumps({pipe.name: pipe.to_json(results[pipe.name])
                       for pipe in make_pipelines(None)},
                      sort_keys=True)


# -- invariants ---------------------------------------------------------------
def simulation_problems(cluster, result) -> list:
    """What is wrong with one experiment's output, for any seed."""
    problems = []
    for node in cluster.nodes:
        kernel = node.kernel
        issued = kernel.driver.requests_issued
        settled = sum(d.stats.requests + d.queue_depth
                      for d in kernel.disks)
        if settled != issued:
            problems.append(f"node {node.node_id}: driver issued {issued} "
                            f"requests, disks completed or hold {settled}")
    records = result.trace.records
    if not len(records):
        return problems + ["no trace records"]
    times = records["time"]
    if times[0] < 0 or times[-1] > result.duration:
        problems.append("records outside the observation window")
    if np.any(np.diff(times) < 0):
        problems.append("records out of time order")
    if records["node"].max() >= result.nnodes:
        problems.append("record from a node outside the cluster")
    if records["size_kb"].min() <= 0:
        problems.append("record with no size")
    limit = min(d.total_sectors for node in cluster.nodes
                for d in node.kernel.disks)
    if records["sector"].max() >= limit:
        problems.append("record beyond the end of the disk")
    return problems


# -- modelled counters of the traced pass -------------------------------------
class Counters:
    """Deterministic model counts summed over the traced operations.

    Simulation counts come from ``result.obs`` (``obs=True``) and the
    public stats of ``runner.last_cluster``; analysis counts from the
    engine's obs registry.
    """

    FIELDS = ("events", "disk_requests", "disk_busy", "disk_latency",
              "disk_max_queue", "dcache_hits", "dcache_misses",
              "bcache_hits", "bcache_misses", "writebacks", "vm_faults",
              "vm_swap_ins", "driver_requests", "ring_dropped",
              "net_messages", "net_busy", "store_records", "store_raw",
              "store_compressed", "chunks_scanned")

    def __init__(self):
        for name in self.FIELDS:
            setattr(self, name, 0)

    def add_simulation(self, runner, result) -> None:
        snap = result.obs or {}

        def total(name):
            metric = snap.get(name) or {}
            if "children" in metric:
                return sum(metric["children"].values())
            return metric.get("value", 0)

        self.events += total("sim.events_processed")
        self.store_records += total("store.records_written")
        self.store_raw += total("store.raw_bytes")
        self.store_compressed += total("store.compressed_bytes")
        cluster = runner.last_cluster
        for node in cluster.nodes:
            kernel = node.kernel
            for disk in kernel.disks:
                stats = disk.stats
                self.disk_requests += stats.requests
                self.disk_busy += stats.busy_time
                self.disk_latency += stats.total_latency
                self.disk_max_queue = max(self.disk_max_queue,
                                          stats.max_queue_depth)
                if disk.cache is not None:
                    self.dcache_hits += disk.cache.hits
                    self.dcache_misses += disk.cache.misses
            cache = kernel.cache.stats
            self.bcache_hits += cache.hits
            self.bcache_misses += cache.misses
            self.writebacks += cache.writebacks
            self.vm_faults += kernel.vm.stats.faults
            self.vm_swap_ins += kernel.vm.stats.swap_ins
            self.driver_requests += kernel.driver.requests_issued
            self.ring_dropped += kernel.transport.dropped
        self.net_messages += cluster.network.stats.messages
        self.net_busy += cluster.network.stats.busy_time

    def add_analysis(self, registry: MetricsRegistry) -> None:
        scanned = registry.snapshot().get("analysis.chunks_scanned") or {}
        self.chunks_scanned += scanned.get("value", 0)

    def metrics(self) -> dict:
        """Name -> value of the modelled per-layer metrics."""
        def ratio(num, den):
            return num / den if den else 0.0

        return {
            "sim.events": self.events,
            "disk.requests": self.disk_requests,
            "disk.busy_s": self.disk_busy,
            "disk.mean_latency_ms": 1e3 * ratio(self.disk_latency,
                                                self.disk_requests),
            "disk.max_queue_depth": self.disk_max_queue,
            "disk.cache.hit_ratio": ratio(
                self.dcache_hits, self.dcache_hits + self.dcache_misses),
            "kernel.bcache.hit_ratio": ratio(
                self.bcache_hits, self.bcache_hits + self.bcache_misses),
            "kernel.bcache.writebacks": self.writebacks,
            "kernel.vm.faults": self.vm_faults,
            "kernel.vm.swap_ins": self.vm_swap_ins,
            "driver.requests_issued": self.driver_requests,
            "driver.ring_dropped": self.ring_dropped,
            "cluster.net.messages": self.net_messages,
            "cluster.net.busy_s": self.net_busy,
            "store.records_written": self.store_records,
            "store.compression_ratio": ratio(self.store_raw,
                                             self.store_compressed),
            "analysis.chunks_scanned": self.chunks_scanned,
        }


# -- running operations -------------------------------------------------------
def _root_span(tracer, op: Op):
    """The traced pass's root span of ``op``; nothing when untraced."""
    return nullcontext() if tracer is None else tracer.op(op.key)


def _host_load(tracer):
    """A :class:`HostLoad` sampling an untraced operation; nothing in the
    traced pass, whose spans would charge the samples to its layers."""
    return HostLoad() if tracer is None else nullcontext()


def _timed(outcome: dict, host_s: float, load) -> None:
    """Record an operation's host seconds and, rescaled to the reference
    host, its ``wall_s`` (equal when unsampled)."""
    outcome["host_s"] = host_s
    if load is None:
        outcome.update(slowdown=1.0, waited_s=0.0, wall_s=host_s)
    else:
        outcome.update(slowdown=load.slowdown, waited_s=load.waited,
                       wall_s=load.reference_s(host_s))


class Session:
    """Runs one child's operations and checks every output.

    ``expected`` is the parsed ``expected.json``; ``workdir`` holds the
    catalogs.  Captured set-up runs stay available to later analysis
    operations; per-operation catalogs are deleted once checked.
    """

    def __init__(self, workdir: Path, expected: dict):
        self.workdir = workdir
        self.expected = expected
        #: (experiment, seed, nnodes) -> (catalog, run id, table-1 dict)
        self.captured: dict = {}
        #: (key, seed) -> output digest of the first run of that op
        self.seen: dict = {}

    def setup(self, op: Op) -> dict:
        """Run a set-up operation; raises unless its output checks out."""
        outcome = self.run(op, keep=True)
        if outcome["status"] == "failed":
            raise RuntimeError(f"set-up {op.key} seed {op.seed} failed: "
                               + "; ".join(outcome["problems"]))
        return outcome

    def run(self, op: Op, *, tracer=None, counters=None,
            keep: bool = False) -> dict:
        """Time one operation, then check it.

        Returns ``{"key", "seed", "wall_s", "host_s", "slowdown",
        "waited_s", "records", "status", "problems", "sha256"}`` where
        ``status`` is
        ``verified``, ``unverified`` or ``failed``.  A raised exception
        is a failed operation, not an aborted run.
        """
        outcome = {"key": op.key, "seed": op.seed, "wall_s": 0.0,
                   "host_s": 0.0, "slowdown": 1.0, "waited_s": 0.0,
                   "records": 0, "status": "failed", "problems": []}
        try:
            if op.analyze:
                self._analyze(op, outcome, tracer, counters)
            else:
                self._simulate(op, outcome, tracer, counters, keep)
        except Exception:
            outcome["problems"].append(traceback.format_exc())
            return outcome
        outcome["status"] = self._verdict(op, outcome)
        return outcome

    def _simulate(self, op, outcome, tracer, counters, keep) -> None:
        directory = catalog = None
        if op.capture:
            directory = Path(tempfile.mkdtemp(dir=self.workdir))
            catalog = RunCatalog(directory)
        try:
            t0 = perf_counter()
            with _root_span(tracer, op), _host_load(tracer) as load:
                runner = ExperimentRunner(nnodes=op.nnodes, seed=op.seed,
                                          sink=catalog,
                                          obs=tracer is not None)
                result = runner.run(op.experiment, duration=op.duration)
            _timed(outcome, perf_counter() - t0, load)
            records = result.trace.records
            outcome["records"] = len(records)
            table1 = result.metrics.to_dict()
            outcome["sha256"] = sha256(
                records.tobytes()
                + json.dumps(table1, sort_keys=True).encode())
            problems = simulation_problems(runner.last_cluster, result)
            if catalog is not None:
                run_id = runner.last_run_dir.name
                stored = catalog.load_dataset(run_id).records
                if stored.tobytes() != records.tobytes():
                    problems.append("stored run differs from the "
                                    "in-memory trace")
                if keep:
                    self.captured[(op.experiment, op.seed, op.nnodes)] = (
                        catalog, run_id, table1)
                    directory = None
            if counters is not None:
                counters.add_simulation(runner, result)
            outcome["problems"] += problems
        finally:
            if directory is not None:
                shutil.rmtree(directory, ignore_errors=True)

    def _analyze(self, op, outcome, tracer, counters) -> None:
        catalog, run_id, table1 = self.captured[
            (op.experiment, op.seed, op.nnodes)]
        registry = MetricsRegistry() if counters is not None else None
        t0 = perf_counter()
        with _root_span(tracer, op), _host_load(tracer) as load:
            results = AnalysisEngine(catalog, cache=False,
                                     obs=registry).analyze(run_id)
        _timed(outcome, perf_counter() - t0, load)
        outcome["records"] = catalog.manifest(run_id)["records"]
        outcome["sha256"] = sha256(pipelines_json(results).encode())
        if results["metrics"].to_dict() != table1:
            outcome["problems"].append(
                "analysis of the stored run disagrees with the in-memory "
                "Table-1 metrics")
        if counters is not None:
            counters.add_analysis(registry)

    def _verdict(self, op: Op, outcome: dict) -> str:
        problems = outcome["problems"]
        first = self.seen.setdefault((op.key, op.seed), outcome["sha256"])
        if first != outcome["sha256"]:
            problems.append("output differs from an earlier run of the "
                            "same operation")
        digest = self.expected.get(op.key, {}).get(str(op.seed))
        if digest is not None and digest != outcome["sha256"]:
            problems.append("output digest differs from expected.json")
        if problems:
            return "failed"
        return "unverified" if digest is None else "verified"
