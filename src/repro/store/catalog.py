"""Run catalog: a directory of experiment runs with manifests.

Layout (one directory per run)::

    runs/
      combined/
        manifest.json          # scenario, seed, summary metrics, file list
        node_0000.rpt          # per-node trace store files
        node_0001.rpt
        ...

A run is stored once, after it finished, by one sequence:
:meth:`RunCatalog.start_run` claims the run directory,
:meth:`RunCapture.write_trace` writes each node's rows of the run's
trace to that node's file (an empty file for an idle node), and
:meth:`RunCapture.finalize` writes the manifest.  :meth:`RunCatalog.save`
is that sequence for an in-memory
:class:`~repro.core.experiments.ExperimentResult`;
``ExperimentRunner(sink=)`` runs it at the end of every experiment.  A
run interrupted before it is stored leaves nothing in the catalog.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path
from typing import Dict, List, Optional, Union

from repro import migrate
from repro.driver.trace import merge_by_time
from repro.store.format import DEFAULT_CHUNK_RECORDS
from repro.store.reader import TraceReader
from repro.store.writer import TraceWriter

#: the format the writer stamps; :mod:`repro.migrate` reads older ones
MANIFEST_FORMAT = migrate.MANIFEST_FORMAT
MANIFEST_NAME = "manifest.json"


def _node_filename(node_id: int) -> str:
    return f"node_{node_id:04d}.rpt"


class RunCapture:
    """One run being stored: its claimed directory and per-node writers."""

    def __init__(self, directory: Path, name: str, nnodes: int,
                 seed: Optional[int] = None,
                 chunk_records: int = DEFAULT_CHUNK_RECORDS,
                 scenario: Optional[dict] = None):
        self.directory = directory
        self.name = name
        self.nnodes = nnodes
        self.seed = seed
        #: fully-resolved scenario dict (``Scenario.to_dict()``), if the
        #: run was configured through the scenario layer
        self.scenario = dict(scenario) if scenario else None
        self._writers: Dict[int, TraceWriter] = {}
        self._chunk_records = chunk_records
        self.finalized = False

    def writer_for(self, node_id: int) -> TraceWriter:
        """The (lazily created) trace sink for one node."""
        if node_id not in self._writers:
            self._writers[node_id] = TraceWriter(
                self.directory / _node_filename(node_id),
                chunk_records=self._chunk_records)
        return self._writers[node_id]

    @property
    def writers(self) -> Dict[int, TraceWriter]:
        """The per-node writers created so far (read-only view)."""
        return dict(self._writers)

    def write_trace(self, trace) -> None:
        """Write each node's rows of ``trace`` (a ``TraceDataset`` whose
        node ids lie in ``0..nnodes-1``), in trace order, to one file per
        node, and close the files; an idle node gets an empty file.

        Each file is closed before the next is written, so one node's
        pending chunk is resident at a time.
        """
        records = trace.records
        nodes = records["node"]
        for node_id in range(self.nnodes):
            writer = self.writer_for(node_id)
            writer.append_array(records[nodes == node_id])
            writer.close()

    def finalize(self, result=None) -> Path:
        """Close all writers and write the manifest.

        ``result`` (an ``ExperimentResult``) supplies duration, summary
        metrics and the observability snapshot when given.
        """
        if self.finalized:
            return self.directory / MANIFEST_NAME
        for writer in self._writers.values():
            writer.close()
        manifest = {
            "format": MANIFEST_FORMAT,
            "name": self.name,
            "created": time.strftime("%Y-%m-%dT%H:%M:%S"),
            "nnodes": self.nnodes,
            "seed": self.seed,
            "traces": {str(nid): _node_filename(nid)
                       for nid in sorted(self._writers)},
            "records": sum(w.records_written
                           for w in self._writers.values()),
        }
        if self.scenario is not None:
            manifest["scenario"] = self.scenario
        if result is not None:
            manifest["duration"] = result.duration
            manifest["metrics"] = result.metrics.to_dict()
            if getattr(result, "obs", None):
                manifest["obs"] = result.obs
        path = self.directory / MANIFEST_NAME
        # Write-then-rename so a concurrent reader (or a second writer
        # racing into the same catalog) never sees a partial manifest.
        tmp = path.with_name(MANIFEST_NAME + ".tmp")
        tmp.write_text(json.dumps(manifest, indent=2))
        os.replace(tmp, path)
        self.finalized = True
        return path


class RunCatalog:
    """The ``runs/`` directory: create, list, and open stored runs."""

    def __init__(self, root: Union[str, Path]):
        self.root = Path(root)

    # -- creating runs --------------------------------------------------------
    def start_run(self, name: str, nnodes: int,
                  seed: Optional[int] = None,
                  chunk_records: int = DEFAULT_CHUNK_RECORDS,
                  scenario: Optional[dict] = None) -> RunCapture:
        """Claim a run directory to store a run in; the run name is
        de-duplicated.

        Concurrency-safe: the run directory is *claimed* with an
        exclusive ``mkdir``, so several writers (e.g.
        ``ExperimentRunner.run_all(parallel=True, sink=...)``) racing
        into one catalog each get a distinct directory instead of
        interleaving files.
        """
        directory = self._claim_dir(name)
        return RunCapture(directory, name=directory.name, nnodes=nnodes,
                          seed=seed, chunk_records=chunk_records,
                          scenario=scenario)

    def save(self, result, seed: Optional[int] = None,
             chunk_records: int = DEFAULT_CHUNK_RECORDS) -> Path:
        """Store an in-memory experiment result: one file per node, then
        the manifest."""
        nodes = result.trace.records["node"]
        if len(nodes) and (nodes.min() < 0 or nodes.max() >= result.nnodes):
            raise ValueError(
                f"trace holds node ids outside 0..{result.nnodes - 1}")
        capture = self.start_run(result.name, nnodes=result.nnodes,
                                 seed=seed, chunk_records=chunk_records)
        capture.write_trace(result.trace)
        capture.finalize(result)
        return capture.directory

    # -- browsing -------------------------------------------------------------
    def runs(self) -> List[str]:
        """Run ids with a manifest, sorted."""
        if not self.root.is_dir():
            return []
        return sorted(p.parent.name
                      for p in self.root.glob(f"*/{MANIFEST_NAME}"))

    def manifest(self, run_id: str) -> dict:
        """The run's manifest, migrated to the current format."""
        path = self.root / run_id / MANIFEST_NAME
        if not path.is_file():
            raise FileNotFoundError(f"no run {run_id!r} under {self.root}")
        try:
            return migrate.manifest(json.loads(path.read_text()))
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None

    def scenario(self, run_id: str):
        """The run's :class:`~repro.config.Scenario`, if recorded.

        Runs saved without one (:meth:`save`, and captures older than
        the scenario layer) return ``None``; callers that need a stack
        description should fall back to ``Scenario()`` explicitly.
        """
        data = self.manifest(run_id).get("scenario")
        if data is None:
            return None
        from repro.config import Scenario
        return Scenario.from_dict(data)

    def metrics(self, run_id: str):
        """The stored summary as a :class:`WorkloadMetrics` (zeros for a
        run finalised without one)."""
        from repro.core.metrics import WorkloadMetrics
        manifest = self.manifest(run_id)
        data = dict(manifest.get("metrics", {}))
        data.setdefault("label", manifest.get("name", run_id))
        return WorkloadMetrics.from_dict(data)

    def obs_snapshot(self, run_id: str) -> Optional[dict]:
        """The run's observability snapshot, or None if not recorded."""
        return self.manifest(run_id).get("obs")

    def trace_paths(self, run_id: str) -> Dict[int, Path]:
        manifest = self.manifest(run_id)
        return {int(nid): self.root / run_id / fname
                for nid, fname in manifest["traces"].items()}

    def open_traces(self, run_id: str) -> Dict[int, TraceReader]:
        """One lazy :class:`TraceReader` per node file."""
        return {nid: TraceReader(path)
                for nid, path in self.trace_paths(run_id).items()}

    def load_dataset(self, run_id: str, **predicates):
        """All nodes' matching records, time-merged, as a ``TraceDataset``."""
        from repro.core.trace import TraceDataset
        parts = []
        for nid, path in sorted(self.trace_paths(run_id).items()):
            with TraceReader(path) as reader:
                parts.append(reader.read(**predicates))
        return TraceDataset(merge_by_time(parts))

    # -- internals ------------------------------------------------------------
    def _claim_dir(self, name: str) -> Path:
        """Atomically claim a unique run directory ``name[-N]``.

        ``mkdir`` is the atomic primitive: whichever process creates the
        directory first owns that run id; losers move on to the next
        suffix.  (An exists-then-mkdir check would race.)
        """
        self.root.mkdir(parents=True, exist_ok=True)
        candidate = name
        n = 1
        while True:
            directory = self.root / candidate
            try:
                directory.mkdir()
                return directory
            except FileExistsError:
                n += 1
                candidate = f"{name}-{n}"
