"""The streaming analysis engine: pipelines x runs, in parallel, cached.

:class:`AnalysisEngine` maps characterization pipelines over the runs of
a :class:`~repro.store.RunCatalog` without ever materialising a whole
trace:

* each node file is folded chunk by chunk through the predicate-pushdown
  :class:`~repro.store.TraceReader` (chunks the index rules out are
  never decompressed), so peak memory is bounded by the chunk size;
* node files fan out across ``multiprocessing`` workers; the partial
  accumulator states merge in sorted node order, which keeps results
  deterministic and equal to the single-process fold;
* ordered pipelines (inter-arrival) fold a k-way merged, globally
  time-sorted stream built from the per-node files one window at a
  time: the times below every file's last loaded time, put in order by
  one stable sort, with the merge blocks marked as changes of chunk —
  still bounded memory, one chunk per file plus the window.  Only
  accumulators marked ``ordered`` ride that merge, a window per call;
  the pipeline's order-free accumulators fold each chunk once as the
  merge reads it;
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
import os
import time
import zlib
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
    for times, starts in _merged_windows(readers, on_chunk, **predicates):
        bounds = starts.tolist() + [len(times)]
        for lo, hi in zip(bounds, bounds[1:]):
            yield times[lo:hi]


def _merged_windows(readers: Sequence[TraceReader],
                    on_chunk: Optional[Callable[[np.ndarray], None]] = None,
                    **predicates) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
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
                on_chunk(batch)
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


# -- worker tasks (top level: must pickle) ------------------------------------
def _fold_file(task) -> Tuple[dict, int, int]:
    """Fold one node file through a set of unordered pipelines."""
    path, pipelines, predicates, ctx = task
    accs = {p.name: p.accumulators(ctx) for p in pipelines}
    with TraceReader(path) as reader:
        for batch in reader.iter_arrays(**predicates):
            for group in accs.values():
                for acc in group.values():
                    acc.update(batch)
        return accs, reader.chunks_read, reader.chunk_count


def _fold_ordered(task) -> Tuple[dict, int, int, int, int]:
    """Fold a whole run's merged time stream through ordered pipelines.

    Only the accumulators marked ``ordered`` ride the merge, one sorted
    window at a time; the order-free ones fold each record batch once,
    as the merge reads it.  Returns the states, the chunks read and in
    the files, and the merge's window and block counts.
    """
    paths, pipelines, predicates, ctx = task
    accs = {p.name: p.accumulators(ctx) for p in pipelines}
    every = [acc for group in accs.values() for acc in group.values()]
    folds = [acc.update_blocks for acc in every if acc.ordered]
    chunk_folds = [acc.update for acc in every if not acc.ordered]

    def fold_chunk(batch: np.ndarray) -> None:
        for fold in chunk_folds:
            fold(batch)

    readers = [TraceReader(p) for p in paths]
    windows = blocks = 0
    try:
        total_chunks = sum(r.chunk_count for r in readers)
        for times, starts in _merged_windows(readers, fold_chunk,
                                             **predicates):
            windows += 1
            blocks += len(starts)
            for fold in folds:
                fold(times, starts)
        read_chunks = sum(r.chunks_read for r in readers)
    finally:
        for reader in readers:
            reader.close()
    return accs, read_chunks, total_chunks, windows, blocks


# -- the engine ---------------------------------------------------------------
class AnalysisEngine:
    """Run characterization pipelines over stored runs, fast and cached.

    ``workers > 1`` fans the per-node folds (and, under
    :meth:`analyze_all`, whole runs) out across processes.  ``cache``
    persists finished summaries in each run directory; analysing an
    unchanged run again never touches a chunk.  Pass an
    :class:`~repro.obs.MetricsRegistry` (or ``ObsRecorder``) as ``obs``
    to count scanned/skipped chunks and cache traffic.
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

        ``t0``/``t1``/``node``/``write`` push down to the chunk index
        exactly like :meth:`TraceReader.iter_arrays`.  ``refresh``
        recomputes even when a valid cache entry exists.
        """
        pipes = make_pipelines(pipelines)
        predicates = {"t0": t0, "t1": t1, "node": node, "write": write}
        pool = self._make_pool(tasks_hint=len(
            self.catalog.trace_paths(run_id)))
        try:
            return self._analyze_one(run_id, pipes, predicates,
                                     refresh, pool)
        finally:
            if pool is not None:
                pool.shutdown()

    def analyze_all(self, run_ids: Optional[Sequence[str]] = None,
                    pipelines=None, *,
                    refresh: bool = False
                    ) -> Dict[str, Dict[str, object]]:
        """Every catalog run (or ``run_ids``) through the pipelines.

        One process pool is shared across all runs, so per-node tasks
        from different runs overlap — the catalog-scale fan-out.
        """
        runs = list(run_ids) if run_ids is not None else self.catalog.runs()
        pipes = make_pipelines(pipelines)
        predicates = {"t0": None, "t1": None, "node": None, "write": None}
        total_files = sum(len(self.catalog.trace_paths(r)) for r in runs)
        pool = self._make_pool(tasks_hint=total_files)
        try:
            return {run_id: self._analyze_one(run_id, pipes, predicates,
                                              refresh, pool)
                    for run_id in runs}
        finally:
            if pool is not None:
                pool.shutdown()

    # -- internals ----------------------------------------------------------
    def _make_pool(self, tasks_hint: int):
        if self.workers <= 1 or tasks_hint <= 1:
            return None
        from concurrent.futures import ProcessPoolExecutor
        return ProcessPoolExecutor(max_workers=self.workers)

    def signature(self, run_id: str) -> str:
        """The cache signature of a whole run, as stored in its entries.

        Derived from every trace file's chunk index plus the run's
        scenario block — the exact value cache validity is judged
        against, so it doubles as an HTTP ETag seed for
        ``repro.serve``: a repeated query with an unchanged signature
        can be answered 304 without touching a chunk.
        """
        manifest = self.catalog.manifest(run_id)
        _, signature = self._scan(run_id, manifest)
        return signature

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

    def _analyze_one(self, run_id: str, pipes: List[Pipeline],
                     predicates: dict, refresh: bool,
                     pool) -> Dict[str, object]:
        manifest = self.catalog.manifest(run_id)
        paths = [path for _, path in
                 sorted(self.catalog.trace_paths(run_id).items())]
        infos, signature = self._scan(run_id, manifest)
        ctx = self._context(manifest, infos)
        pred_key = _predicate_key(predicates)

        cache_path = self.catalog.root / run_id / ANALYSIS_NAME
        cached = self._load_cache(cache_path) if self.cache else {}
        results: Dict[str, object] = {}
        fresh_entries: Dict[str, dict] = {}
        to_compute: List[Pipeline] = []
        for pipe in pipes:
            key = _entry_key(pipe, pred_key)
            entry = cached.get(key)
            if (not refresh and entry is not None
                    and entry.get("signature") == signature):
                result = pipe.from_json(entry["result"]) \
                    if entry["result"] is not None else None
                results[pipe.name] = result
                self.registry.counter("analysis.cache_hits").inc()
                continue
            self.registry.counter("analysis.cache_misses").inc()
            to_compute.append(pipe)

        unordered = [p for p in to_compute if not p.ordered]
        ordered = [p for p in to_compute if p.ordered]
        # The single ordered task goes to the pool first, so the merge
        # runs while the per-file folds share the other workers.
        ordered_task = ([str(path) for path in paths], ordered,
                        predicates, ctx)
        pending = pool.submit(_fold_ordered, ordered_task) \
            if ordered and pool is not None else None
        if unordered:
            results.update(self._fold_unordered(paths, unordered,
                                                predicates, ctx, pool))
        if ordered:
            accs, read, chunks, windows, blocks = pending.result() \
                if pending is not None else _fold_ordered(ordered_task)
            self.registry.counter("analysis.merge_windows").inc(windows)
            self.registry.counter("analysis.merge_blocks").inc(blocks)
            results.update(self._merge_and_finalize(
                ordered, [(accs, read, chunks)], ctx))
        for pipe in to_compute:
            result = results[pipe.name]
            fresh_entries[_entry_key(pipe, pred_key)] = {
                "pipeline": pipe.name,
                "version": pipe.version,
                "signature": signature,
                "computed": time.strftime("%Y-%m-%dT%H:%M:%S"),
                "result": None if result is None else pipe.to_json(result),
            }
        if fresh_entries and self.cache:
            self._store_cache(cache_path, cached, fresh_entries)
        if to_compute:
            self.registry.counter("analysis.runs_analyzed").inc()
        return results

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

    def _fold_unordered(self, paths, pipelines, predicates, ctx,
                        pool) -> Dict[str, object]:
        tasks = [(str(path), pipelines, predicates, ctx)
                 for path in paths]
        if pool is not None and len(tasks) > 1:
            folded = list(pool.map(_fold_file, tasks))
        else:
            folded = [_fold_file(task) for task in tasks]
        return self._merge_and_finalize(pipelines, folded, ctx)

    def _merge_and_finalize(self, pipelines, folded,
                            ctx) -> Dict[str, object]:
        if not folded:      # a run that captured no trace files at all
            folded = [({p.name: p.accumulators(ctx) for p in pipelines},
                       0, 0)]
        scanned = sum(read for _, read, _ in folded)
        total = sum(chunks for _, _, chunks in folded)
        self.registry.counter("analysis.chunks_scanned").inc(scanned)
        self.registry.counter("analysis.chunks_skipped").inc(
            total - scanned)
        merged = folded[0][0]
        for accs, _, _ in folded[1:]:
            for name, group in accs.items():
                for key, acc in group.items():
                    merged[name][key].merge(acc)
        return {pipe.name: pipe.finalize(merged[pipe.name], ctx)
                for pipe in pipelines}

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
        # next load rather than trusted), write to a per-process temp
        # name, and publish with an atomic rename.  Two racing writers
        # each produce a complete, valid file; last one wins.
        entries = dict(cached)
        entries.update(self._load_cache(path))
        entries.update(fresh)
        payload = {"format": ANALYSIS_FORMAT, "entries": entries}
        tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
        try:
            tmp.write_text(json.dumps(payload, indent=2))
            os.replace(tmp, path)
        finally:
            if tmp.exists():     # failed mid-write: don't leave litter
                tmp.unlink()


def _predicate_key(predicates: dict) -> str:
    parts = [f"{key}={predicates[key]}"
             for key in ("t0", "t1", "node", "write")
             if predicates.get(key) is not None]
    return ",".join(parts)


def _entry_key(pipe: Pipeline, pred_key: str) -> str:
    key = f"{pipe.name}@v{pipe.version}"
    return f"{key}|{pred_key}" if pred_key else key
