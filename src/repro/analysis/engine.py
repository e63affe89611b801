"""The streaming analysis engine: pipelines x runs, in parallel, cached.

:class:`AnalysisEngine` maps characterization pipelines over the runs of
a :class:`~repro.store.RunCatalog` without ever materialising a whole
trace:

* each run folds as one task that reads, decompresses and unpacks
  each chunk once, through the predicate-pushdown
  :class:`~repro.store.TraceReader` (chunks the index rules out are
  never decompressed), so peak memory is bounded by the chunk size;
* order-free accumulators keep one state per node file, fed that
  file's chunks as they are read; the states merge in sorted node
  order, which keeps results deterministic and independent of how the
  files were read;
* ordered accumulators (inter-arrival) fold a k-way merged, globally
  time-sorted stream built from the per-node files one window at a
  time: the times below every file's last loaded time, put in order by
  one stable sort, with the merge blocks marked as changes of chunk —
  still bounded memory, one chunk per file plus the window.  The merge
  is the one read of the files when a pipeline needs it; otherwise the
  files are read one after another;
* with ``workers > 1``, :meth:`AnalysisEngine.analyze_all` fans whole
  runs out across ``multiprocessing`` workers;
* finished summaries cache as JSON next to the run manifest
  (``analysis.json``), keyed by pipeline name + version + a file
  signature derived from the chunk index, so re-analysis of an
  unchanged run is a pure cache hit.

Engine activity is observable through ``repro.obs`` counters
(``analysis.chunks_scanned`` / ``chunks_skipped`` / ``cache_hits`` /
``cache_misses`` / ``runs_analyzed``, and the merge's
``merge_windows`` / ``merge_blocks``).
"""

from __future__ import annotations

import json
import math
import time
import zlib
from contextlib import ExitStack
from dataclasses import dataclass
from pathlib import Path
from typing import (Callable, Dict, Iterator, List, Optional, Sequence,
                    Tuple, Union)

import numpy as np

from repro.analysis.pipelines import (
    Pipeline,
    RunContext,
    make_pipelines,
)
from repro.durable import publish
from repro.store.catalog import RunCatalog
from repro.store.format import TracePredicate
from repro.store.reader import TraceReader

ANALYSIS_NAME = "analysis.json"
ANALYSIS_FORMAT = "repro-analysis-v1"


# -- file signatures ----------------------------------------------------------
@dataclass(frozen=True)
class FileInfo:
    """Index-level facts about one trace file (no payload reads)."""

    path: str
    records: int
    chunk_count: int
    t0: float
    t1: float
    signature: str


def scan_file(path: Union[str, Path]) -> FileInfo:
    """Open header + footer only; derive the cache signature.

    The signature folds every chunk's offset and payload CRC, so any
    rewrite, append, or truncation of the file changes it — without
    decompressing a single chunk.
    """
    with TraceReader(path) as reader:
        crc = 0
        for c in reader.chunks:
            crc = zlib.crc32(f"{c.offset}:{c.count}:{c.crc};".encode(), crc)
        t0, t1 = reader.time_span
        return FileInfo(path=str(path), records=len(reader),
                        chunk_count=reader.chunk_count, t0=t0, t1=t1,
                        signature=f"{len(reader)}:{reader.chunk_count}:"
                                  f"{crc:08x}")


def run_signature(infos: Sequence[FileInfo]) -> str:
    """One signature for a whole run's file set."""
    crc = 0
    for info in infos:
        name = Path(info.path).name
        crc = zlib.crc32(f"{name}={info.signature};".encode(), crc)
    return f"{len(infos)}:{crc:08x}"


# -- merged time stream -------------------------------------------------------
def merged_time_blocks(readers: Sequence[TraceReader],
                       on_chunk: Optional[Callable[[np.ndarray], None]]
                       = None, **predicates) -> Iterator[np.ndarray]:
    """Globally time-sorted blocks across several sorted trace files.

    The k-way merge's blocks, as float64 views into the sorted windows
    of :func:`_merged_windows`: a block is a maximal run of one chunk's
    values in the merged order, so it never crosses a chunk boundary and
    two blocks in a row never come from the same chunk.  Equal times go
    in reader order, except that the chunk whose block runs into the tie
    keeps running through it.

    ``on_chunk`` is called with every record batch as the merge first
    reads it — the hook for folds that do not depend on the order.
    Memory stays at one chunk per stream plus one window.
    """
    hook = None if on_chunk is None else \
        (lambda index, batch: on_chunk(batch))
    for times, starts in _merged_windows(readers, hook, **predicates):
        bounds = starts.tolist() + [len(times)]
        for lo, hi in zip(bounds, bounds[1:]):
            yield times[lo:hi]


def _merged_windows(readers: Sequence[TraceReader],
                    on_chunk: Optional[Callable[[int, np.ndarray], None]]
                    = None, **predicates
                    ) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
    """The merge one window at a time: yields ``(times, starts)``.

    ``times`` is a window of the globally sorted float64 stream and
    ``starts`` the index where each of its blocks starts.  Each reader
    holds one loaded chunk, plus what is left of earlier ones at the
    horizon.  The horizon is the smallest last-loaded time over the
    readers that may still load chunks, so every value below it is
    loaded (and a reader's values at or above it stay loaded): those
    values form the window, ordered by one stable argsort
    of the readers' values concatenated in reader order, then by the tie
    rule of :func:`_running_chunk_first`.  The window's last block is
    held back, because it may continue in the next window; the readers
    whose loaded data ends at the horizon then load their next chunk.
    ``on_chunk(index, batch)`` sees each record batch as reader
    ``index`` loads it.
    """
    pred = TracePredicate(**predicates)
    sources = [reader.iter_arrays(**predicates) for reader in readers]
    # chunks each reader may still load: those its index admits, less
    # those it has read
    unread = [sum(map(pred.admits_chunk, reader.chunks))
              for reader in readers]
    loaded: List[List[np.ndarray]] = [[] for _ in readers]

    def load(index: int) -> None:
        reader = readers[index]
        before = reader.chunks_read
        for batch in sources[index]:
            unread[index] -= reader.chunks_read - before
            if on_chunk is not None:
                on_chunk(index, batch)
            times = np.ascontiguousarray(batch["time"], dtype=np.float64)
            loaded[index].append(times)
            return
        unread[index] = 0

    for index in range(len(readers)):
        load(index)
    while True:
        open_ = [i for i, left in enumerate(unread) if left]
        # an open reader's last loaded value is never below the horizon,
        # so never consumed
        tails = {i: float(loaded[i][-1][-1]) for i in open_}
        horizon = min(tails.values()) if open_ else math.inf
        # (reader, chunk position, its values below the horizon)
        parts = [(index, pos, chunk[:np.searchsorted(chunk, horizon)])
                 for index, chunks in enumerate(loaded)
                 for pos, chunk in enumerate(chunks)]
        sizes = [len(part) for _, _, part in parts]
        if sum(sizes):
            values = np.concatenate([part for _, _, part in parts])
            labels = np.repeat(np.arange(len(parts), dtype=np.int32), sizes)
            rank = np.argsort(values, kind="stable")
            times, labels = values[rank], labels[rank]
            del values, rank
            _running_chunk_first(times, labels)
            starts = np.flatnonzero(np.diff(labels, prepend=-1))
            if open_:               # hold the last block back
                keep, starts = int(starts[-1]), starts[:-1]
            else:
                keep = len(times)
            if keep:
                yield times[:keep], starts
            used = np.bincount(labels[:keep], minlength=len(parts))
            for (index, pos, _), count in zip(parts, used.tolist()):
                loaded[index][pos] = loaded[index][pos][count:]
            for chunks in loaded:
                chunks[:] = [chunk for chunk in chunks if len(chunk)]
        if not open_:
            return
        for index in open_:
            if tails[index] == horizon:
                load(index)


def _running_chunk_first(times: np.ndarray, labels: np.ndarray) -> None:
    """The merge's tie rule, applied in place to a sorted window.

    ``labels`` names each value's chunk; values of equal time arrive in
    reader order.  In a run of equal times that spans several chunks,
    the values of the chunk holding the element just before the run
    move to its front — that chunk's block runs through the tie — and
    the rest keep their order.  Ties across chunks are rare, so this
    costs a Python step per tie, not per value.
    """
    ties = np.flatnonzero((times[1:] == times[:-1])
                          & (labels[1:] != labels[:-1]))
    end = 0
    for j in ties.tolist():
        if j < end:                 # inside the tie already handled
            continue
        lo = int(np.searchsorted(times, times[j], "left"))
        end = int(np.searchsorted(times, times[j], "right"))
        if lo:
            tied = labels[lo:end]
            running = tied == labels[lo - 1]
            labels[lo:end] = np.concatenate((tied[running],
                                             tied[~running]))


# -- the run fold (top level: must pickle) -----------------------------------
def _fold_run(task) -> Tuple[dict, int, int, int, int]:
    """Fold one run's node files through the pipelines, each chunk once.

    Order-free accumulators keep one state per node file, fed that
    file's record batches as they are read, and the states merge in
    node order at the end.  Accumulators marked ``ordered`` ride the
    k-way merge of the files, one sorted window at a time; with none of
    them the files are read one after another, with no merge.  Returns
    the merged states, the chunks read and in the files, and the
    merge's window and block counts.
    """
    paths, pipelines, predicates, ctx = task
    states = [{p.name: p.accumulators(ctx) for p in pipelines}
              for _ in range(max(len(paths), 1))]
    chunk_folds = [[acc.update for group in accs.values()
                    for acc in group.values() if not acc.ordered]
                   for accs in states]
    folds = [acc.update_blocks for group in states[0].values()
             for acc in group.values() if acc.ordered]

    def fold_chunk(index: int, batch: np.ndarray) -> None:
        for fold in chunk_folds[index]:
            fold(batch)

    windows = blocks = 0
    with ExitStack() as stack:
        readers = [stack.enter_context(TraceReader(path)) for path in paths]
        if folds:
            for times, starts in _merged_windows(readers, fold_chunk,
                                                 **predicates):
                windows += 1
                blocks += len(starts)
                for fold in folds:
                    fold(times, starts)
        else:
            for index, reader in enumerate(readers):
                for batch in reader.iter_arrays(**predicates):
                    fold_chunk(index, batch)
        read = sum(reader.chunks_read for reader in readers)
        total = sum(reader.chunk_count for reader in readers)
    merged = states[0]
    for accs in states[1:]:
        for name, group in accs.items():
            for key, acc in group.items():
                if not acc.ordered:
                    merged[name][key].merge(acc)
    return merged, read, total, windows, blocks


# -- the engine ---------------------------------------------------------------
class AnalysisEngine:
    """Run characterization pipelines over stored runs, fast and cached.

    Each run folds as one task that reads each chunk it needs once
    (:func:`_fold_run`).  ``workers > 1`` fans the runs of an
    :meth:`analyze_all` call out across that many processes; a single
    run folds in-process.  ``cache`` persists finished summaries in
    each run directory; analysing an unchanged run again never touches
    a chunk.  Pass an :class:`~repro.obs.MetricsRegistry` (or
    ``ObsRecorder``) as ``obs`` to count scanned/skipped chunks and
    cache traffic.
    """

    def __init__(self, catalog: Union[str, Path, RunCatalog],
                 workers: int = 1, cache: bool = True, obs=None):
        self.catalog = catalog if isinstance(catalog, RunCatalog) \
            else RunCatalog(catalog)
        self.workers = max(int(workers), 1)
        self.cache = cache
        registry = getattr(obs, "registry", obs)
        if registry is None:
            from repro.obs import MetricsRegistry
            registry = MetricsRegistry()
        self.registry = registry

    # -- public API ---------------------------------------------------------
    def analyze(self, run_id: str, pipelines=None, *,
                t0: Optional[float] = None, t1: Optional[float] = None,
                node: Optional[int] = None, write: Optional[bool] = None,
                refresh: bool = False) -> Dict[str, object]:
        """One run through the pipelines; returns ``{name: result}``.

        The same as ``analyze_all([run_id], ...)[run_id]`` (see there for
        the predicates); the run folds in this process.
        """
        return self.analyze_all([run_id], pipelines, t0=t0, t1=t1,
                                node=node, write=write,
                                refresh=refresh)[run_id]

    def analyze_all(self, run_ids: Optional[Sequence[str]] = None,
                    pipelines=None, *,
                    t0: Optional[float] = None, t1: Optional[float] = None,
                    node: Optional[int] = None,
                    write: Optional[bool] = None,
                    refresh: bool = False
                    ) -> Dict[str, Dict[str, object]]:
        """Every catalog run (or ``run_ids``) through the pipelines;
        returns ``{run_id: {name: result}}``.

        ``t0``/``t1``/``node``/``write`` push down to the chunk index
        exactly like :meth:`TraceReader.iter_arrays`.  ``refresh``
        recomputes even when a valid cache entry exists.  Each run with
        pipelines to compute is one fold task; with ``workers > 1`` and
        several such runs, the tasks share one process pool — the
        catalog-scale fan-out.
        """
        runs = list(run_ids) if run_ids is not None else self.catalog.runs()
        pipes = make_pipelines(pipelines)
        predicates = {"t0": t0, "t1": t1, "node": node, "write": write}
        pred_key = _predicate_key(predicates)
        results: Dict[str, Dict[str, object]] = {}
        jobs = []
        for run_id in runs:
            manifest = self.catalog.manifest(run_id)
            infos, signature = self._scan(run_id, manifest)
            ctx = self._context(manifest, infos)
            cache_path = self.catalog.root / run_id / ANALYSIS_NAME
            cached = self._load_cache(cache_path) if self.cache else {}
            results[run_id] = {}
            to_compute: List[Pipeline] = []
            for pipe in pipes:
                entry = cached.get(_entry_key(pipe, pred_key))
                if (not refresh and entry is not None
                        and entry.get("signature") == signature):
                    results[run_id][pipe.name] = \
                        pipe.from_json(entry["result"]) \
                        if entry["result"] is not None else None
                    self.registry.counter("analysis.cache_hits").inc()
                    continue
                self.registry.counter("analysis.cache_misses").inc()
                to_compute.append(pipe)
            if to_compute:
                task = ([info.path for info in infos], to_compute,
                        predicates, ctx)
                jobs.append((run_id, signature, cache_path, cached, task))

        tasks = [task for *_, task in jobs]
        if self.workers > 1 and len(tasks) > 1:
            from concurrent.futures import ProcessPoolExecutor
            with ProcessPoolExecutor(
                    max_workers=min(self.workers, len(tasks))) as pool:
                folded = list(pool.map(_fold_run, tasks))
        else:
            folded = map(_fold_run, tasks)
        count = self.registry.counter
        for job, (accs, read, total, windows, blocks) in zip(jobs, folded):
            run_id, signature, cache_path, cached, task = job
            _, to_compute, _, ctx = task
            count("analysis.chunks_scanned").inc(read)
            count("analysis.chunks_skipped").inc(total - read)
            count("analysis.merge_windows").inc(windows)
            count("analysis.merge_blocks").inc(blocks)
            count("analysis.runs_analyzed").inc()
            fresh_entries: Dict[str, dict] = {}
            for pipe in to_compute:
                result = pipe.finalize(accs[pipe.name], ctx)
                results[run_id][pipe.name] = result
                fresh_entries[_entry_key(pipe, pred_key)] = {
                    "pipeline": pipe.name,
                    "version": pipe.version,
                    "signature": signature,
                    "computed": time.strftime("%Y-%m-%dT%H:%M:%S"),
                    "result": None if result is None
                    else pipe.to_json(result),
                }
            if self.cache:
                self._store_cache(cache_path, cached, fresh_entries)
        return {run_id: {pipe.name: results[run_id][pipe.name]
                         for pipe in pipes}
                for run_id in runs}

    # -- internals ----------------------------------------------------------
    def _scan(self, run_id: str,
              manifest: dict) -> Tuple[List[FileInfo], str]:
        """Index-scan a run's files; returns (infos, cache signature)."""
        paths = [path for _, path in
                 sorted(self.catalog.trace_paths(run_id).items())]
        infos = [scan_file(path) for path in paths]
        signature = run_signature(infos)
        # Fold in the scenario the run was configured with: same trace
        # bytes under a different declared stack must not share cache
        # entries.  Legacy (v1) manifests have no scenario block and keep
        # their bare signatures, so existing caches stay valid.
        scenario = manifest.get("scenario")
        if scenario is not None:
            canonical = json.dumps(
                {k: v for k, v in scenario.items()
                 if k not in ("name", "seed")},
                sort_keys=True, separators=(",", ":"))
            signature += f"|scn:{zlib.crc32(canonical.encode()):08x}"
        return infos, signature

    def _context(self, manifest: dict,
                 infos: Sequence[FileInfo]) -> RunContext:
        with_records = [i for i in infos if i.records]
        span = None
        if with_records:
            span = (min(i.t0 for i in with_records),
                    max(i.t1 for i in with_records))
        return RunContext(label=manifest.get("name", ""),
                          duration=manifest.get("duration"),
                          nnodes=manifest.get("nnodes"),
                          time_span=span,
                          total_records=sum(i.records for i in infos))

    # -- cache --------------------------------------------------------------
    def _load_cache(self, path: Path) -> Dict[str, dict]:
        try:
            data = json.loads(path.read_text())
        except (OSError, ValueError):
            return {}
        if data.get("format") != ANALYSIS_FORMAT:
            return {}
        entries = data.get("entries")
        return dict(entries) if isinstance(entries, dict) else {}

    def _store_cache(self, path: Path, cached: Dict[str, dict],
                     fresh: Dict[str, dict]) -> None:
        # Concurrency-safe by construction: re-read the file so entries
        # another process stored since our load survive (each entry
        # carries its own signature, so stale ones are re-checked on the
        # next load rather than trusted) and publish the file whole.  Two
        # racing writers each produce a complete, valid file; last one
        # wins.
        entries = dict(cached)
        entries.update(self._load_cache(path))
        entries.update(fresh)
        payload = {"format": ANALYSIS_FORMAT, "entries": entries}
        publish(path, json.dumps(payload, indent=2))


def _predicate_key(predicates: dict) -> str:
    parts = [f"{key}={predicates[key]}"
             for key in ("t0", "t1", "node", "write")
             if predicates.get(key) is not None]
    return ",".join(parts)


def _entry_key(pipe: Pipeline, pred_key: str) -> str:
    key = f"{pipe.name}@v{pipe.version}"
    return f"{key}|{pred_key}" if pred_key else key
