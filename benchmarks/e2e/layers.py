"""Layer attribution for the traced run of the end-to-end benchmark.

:data:`LAYERS` is the one table that says which public entry points of
``repro`` belong to which layer.  :meth:`Tracer.install` wraps each of
them for the duration of a traced pass, entirely from this file, so the
program under test is unchanged:

* a synchronous entry point becomes one span per call;
* a generator-returning entry point returns a proxy, and every resume of
  the generator (``send``/``throw``/``next``) becomes one span;
* :meth:`Simulator.process <repro.sim.core.Simulator.process>` wraps the
  generators of processes whose name starts with a prefix in
  :data:`PROCESS_LAYERS`, so each resume of a daemon, device server or
  application process is a span of its layer.  ``NodeKernel.spawn``
  goes through it, so application processes are covered too.

Spans nest: a span's *self time* is its duration minus the time its
child spans cover, so a disk-cache lookup made from inside the disk
server process is charged to ``disk.cache``, not to ``disk.device``.
``sim`` is what remains inside ``Simulator.run`` once every wrapped
process and call is taken out: the event loop itself.  Each timed
operation is a root span; its self time (runner glue, cluster
construction) is reported as ``unattributed``.

Install the wrappers before the cluster is built: several layers bind
methods at construction time (the driver binds ``map_extents``, the
disk server binds its scheduler), and those bindings must pick up the
wrappers.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
from array import array
from contextlib import contextmanager
from time import perf_counter

import numpy as np

_SCHEDULERS = ("FIFOScheduler", "SSTFScheduler", "ScanScheduler",
               "CLookScheduler")


def _methods(module: str, owner: str, *names: str) -> tuple:
    return tuple(f"{module}:{owner}.{name}" for name in names)


#: layer -> the public entry points charged to it
LAYERS = {
    "sim": ("repro.sim.core:Simulator.run",),
    "kernel.bcache": _methods(
        "repro.kernel.buffercache", "BufferCache", "read_block",
        "read_range", "write_block", "write_range", "note_write",
        "note_write_range", "sync", "flush_aged"),
    "kernel.vm": _methods("repro.kernel.vm", "VirtualMemory", "access",
                          "touch_range"),
    "kernel.readahead": _methods("repro.kernel.readahead",
                                 "ReadAheadState", "plan"),
    "kernel.fs": (
        _methods("repro.kernel.fs", "FileSystem", "lookup", "create",
                 "unlink", "map_blocks", "note_map_blocks",
                 "truncate_extend", "note_extend", "note_dirty_inode")
        + _methods("repro.kernel.syscalls", "FileHandle", "read",
                   "write", "append")),
    "kernel.klog": _methods("repro.kernel.klog", "SysLogger", "log"),
    "kernel.cpu": _methods("repro.kernel.cpu", "CPU", "execute"),
    "driver": (
        _methods("repro.driver.ide", "InstrumentedIDEDriver",
                 "read_sectors", "write_sectors")
        + _methods("repro.driver.procfs", "ProcTraceTransport", "push",
                   "drain_now")
        + _methods("repro.driver.trace", "TraceBuffer", "append_array")),
    "disk.device": _methods("repro.disk.device", "Disk", "submit"),
    "disk.sched": sum((_methods("repro.disk.scheduler", name, "add",
                                "next", "drain", "requeue")
                       for name in _SCHEDULERS), ()),
    "disk.service": _methods("repro.disk.service", "DiskServiceModel",
                             "service_time", "service_components",
                             "service_durations", "transfer_time"),
    "disk.cache": _methods("repro.disk.cache", "DriveCache", "lookup",
                           "fill_after_read", "invalidate"),
    "disk.volume": _methods("repro.disk.volume", "LogicalVolume",
                            "map_extents", "submit"),
    # EthernetNetwork.transmit is left out: obs-enabled fabrics (the
    # traced run) shadow it per instance; PVM wraps every use of it.
    "cluster.net": (
        _methods("repro.cluster.pvm", "PVM", "send", "recv", "barrier",
                 "bcast", "gather")
        + _methods("repro.cluster.pvm", "Mailbox", "deliver",
                   "receive")),
    "apps": (),
    "store": (
        _methods("repro.store.writer", "TraceWriter", "append_array",
                 "flush", "close")
        + _methods("repro.store.reader", "TraceReader", "iter_arrays",
                   "read")
        + _methods("repro.store.catalog", "RunCatalog", "start_run")
        + _methods("repro.store.catalog", "RunCapture", "finalize")),
    "analysis": ("repro.analysis.engine:AnalysisEngine.analyze",
                 "repro.analysis.engine:merged_time_blocks"),
    "core": ("repro.cluster.beowulf:BeowulfCluster.gather_traces",
             "repro.core.trace:TraceDataset.__init__",
             "repro.core.trace:TraceDataset.between",
             "repro.core.metrics:compute_metrics"),
}

#: process-name prefix -> layer charged with each resume of the process
PROCESS_LAYERS = (
    ("disk:", "disk.device"),
    ("proc-trace-drain", "driver"),
    ("ide-retry", "driver"),
    ("kswapd", "kernel.vm"),
    ("syslog:", "kernel.klog"),
    ("update", "kernel.klog"),
    ("klog-", "kernel.klog"),
    ("bdflush:", "kernel.bcache"),
    ("sync:", "kernel.bcache"),
    ("isend:", "cluster.net"),
    ("pious-server:", "cluster.net"),
    ("install:", "apps"),
    ("ppm:", "apps"),
    ("nbody:", "apps"),
    ("wavelet:", "apps"),
    ("serial:", "apps"),
)

#: entry points whose results (or yielded values) are also counted, by
#: length: the requests a scheduler drain returns (batching yield) and
#: the records a merge block carries (the merge's useful work per step)
COUNTED = frozenset(
    tuple(f"repro.disk.scheduler:{name}.drain" for name in _SCHEDULERS)
    + ("repro.analysis.engine:merged_time_blocks",))

#: the layer of the operation root spans' own time
UNATTRIBUTED = "unattributed"

#: every layer the report names, in display order
LAYER_NAMES = tuple(LAYERS) + (UNATTRIBUTED,)

#: float rounding allowed when children's durations are subtracted
NESTING_SLACK_S = 1e-9


def _resolve(target: str):
    """``(owner, attribute, function)`` of ``module:Class.attr`` or
    ``module:function``; the function must be defined on that owner."""
    module_name, _, path = target.partition(":")
    owner = importlib.import_module(module_name)
    *classes, attr = path.split(".")
    for name in classes:
        owner = getattr(owner, name)
    if classes:
        if attr not in vars(owner):
            raise AttributeError(f"{target}: not defined on {owner!r}")
        func = vars(owner)[attr]
    else:
        func = getattr(owner, attr)
    if not callable(func):
        raise TypeError(f"{target} is not a function")
    return owner, attr, func


class _SpanIter:
    """Generator proxy: every resume of the wrapped generator is a span."""

    __slots__ = ("_it", "_kind", "_open", "_close", "_counted")

    def __init__(self, it, kind, open_, close_, counted):
        self._it = it
        self._kind = kind
        self._open = open_
        self._close = close_
        self._counted = counted

    @property
    def __name__(self):   # what Process names an unnamed generator
        return getattr(self._it, "__name__", "process")

    def __iter__(self):
        return self

    def __next__(self):
        return self.send(None)

    def send(self, value):
        idx = self._open(self._kind)
        try:
            out = self._it.send(value)
        finally:
            self._close(idx)
        if self._counted is not None:
            tally = self._counted[self._kind]
            tally[0] += 1
            tally[1] += len(out)
        return out

    def throw(self, *args):
        idx = self._open(self._kind)
        try:
            return self._it.throw(*args)
        finally:
            self._close(idx)

    def close(self):
        self._it.close()


class Tracer:
    """In-memory span recorder plus the patching that feeds it.

    Spans are five parallel typed arrays (start, end, parent index, kind,
    op id), 22 bytes per span.  ``kinds[k]`` is the
    ``(layer, name)`` of kind ``k``: one entry point, one process-name
    prefix, or an operation root.  Only spans recorded inside
    :meth:`op` count towards the report.
    """

    def __init__(self):
        self.kinds: list = []
        self._kind_ids: dict = {}
        #: per kind: [results counted, items in them] (COUNTED only)
        self.counted: list = []
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.kind = array("H")
        self.op_ids = array("H")
        self.op_id = 0
        self._nops = 0
        self._stack = [-1]
        self._undo: list = []
        self._open, self._close = self._hooks()

    # -- recording ----------------------------------------------------------
    def _kind(self, layer: str, name: str) -> int:
        key = (layer, name)
        kid = self._kind_ids.get(key)
        if kid is None:
            kid = self._kind_ids[key] = len(self.kinds)
            self.kinds.append(key)
            self.counted.append([0, 0])
        return kid

    def _hooks(self):
        """The span open/close pair, with every lookup bound locally."""
        starts, ends = self.start, self.end
        start_append, end_append = starts.append, ends.append
        parent_append = self.parent.append
        kind_append = self.kind.append
        op_append = self.op_ids.append
        stack = self._stack
        push, pop = stack.append, stack.pop
        clock = perf_counter
        tracer = self

        def open_(kind: int) -> int:
            idx = len(ends)
            parent_append(stack[-1])
            kind_append(kind)
            op_append(tracer.op_id)
            end_append(0.0)
            push(idx)
            start_append(clock())
            return idx

        def close_(idx: int) -> None:
            ends[idx] = clock()
            pop()

        return open_, close_

    @contextmanager
    def op(self, label: str):
        """Root span of one timed operation."""
        self._nops += 1
        self.op_id = self._nops
        idx = self._open(self._kind(UNATTRIBUTED, f"op {label}"))
        try:
            yield
        finally:
            self._close(idx)
            self.op_id = 0

    # -- patching -----------------------------------------------------------
    def install(self) -> None:
        """Wrap every entry point of :data:`LAYERS` and process spawning."""
        if self._undo:
            raise RuntimeError("tracer already installed")
        open_, close_ = self._open, self._close
        for layer, targets in LAYERS.items():
            for target in targets:
                owner, attr, func = _resolve(target)
                kind = self._kind(layer, target)
                counted = self.counted if target in COUNTED else None
                if inspect.isgeneratorfunction(func):
                    wrapper = _wrap_generator(func, kind, open_, close_,
                                              counted)
                else:
                    wrapper = _wrap_call(func, kind, open_, close_,
                                         counted)
                self._patch(owner, attr, func, wrapper)

        from repro.sim.core import Simulator
        process = vars(Simulator)["process"]
        by_name: dict = {}

        def process_kind(name):
            if name not in by_name:
                by_name[name] = None
                for prefix, layer in PROCESS_LAYERS:
                    if name and name.startswith(prefix):
                        by_name[name] = self._kind(layer,
                                                   f"process {prefix}")
                        break
            return by_name[name]

        @functools.wraps(process)
        def traced_process(sim, generator, name=None):
            kind = process_kind(name)
            if kind is not None:
                generator = _SpanIter(generator, kind, open_, close_, None)
            return process(sim, generator, name)

        self._patch(Simulator, "process", process, traced_process)

    def _patch(self, owner, attr, func, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, func))
        if inspect.ismodule(owner):
            # ``from module import function`` copies the binding: patch
            # every repro module holding the same function object
            for name, module in list(sys.modules.items()):
                if module is owner or not name.startswith("repro"):
                    continue
                for key, value in list(vars(module).items()):
                    if value is func:
                        setattr(module, key, wrapper)
                        self._undo.append((module, key, func))

    def uninstall(self) -> None:
        """Put every original function back."""
        while self._undo:
            owner, attr, func = self._undo.pop()
            setattr(owner, attr, func)

    # -- report -------------------------------------------------------------
    def report(self) -> dict:
        """Per-layer self time and calls over the spans inside :meth:`op`.

        Returns ``{"layers": {layer: {"self_s", "calls"}}, "root_s",
        "counted": {target: (results, items)}, "spans", "nested"}``.
        The self times add up to ``root_s`` by construction; ``nested``
        is the check that can fail: every span lies inside its parent's
        interval and no span's children cover more than its duration.
        """
        n = len(self.end)
        start = np.frombuffer(self.start, dtype=np.float64, count=n)
        end = np.frombuffer(self.end, dtype=np.float64, count=n)
        parent = np.frombuffer(self.parent, count=n,
                               dtype=f"i{self.parent.itemsize}")
        kind = np.frombuffer(self.kind, dtype=np.uint16, count=n)
        ops = np.frombuffer(self.op_ids, dtype=np.uint16, count=n)
        if len(self._stack) != 1 or (n and end.min() <= 0.0):
            raise RuntimeError("trace has spans that never closed")
        # kept lean: a traced combined run holds millions of spans
        duration = end - start
        roots = parent < 0
        # bin 0 collects the roots' durations, bin i + 1 span i's children
        own = duration - np.bincount(parent + 1, weights=duration,
                                     minlength=n + 1)[1:]
        inner = ~roots
        outer = parent[inner]
        nested = bool(n == 0 or (
            np.all(start[inner] >= start[outer])
            and np.all(end[inner] <= end[outer])
            and own.min() >= -NESTING_SLACK_S))
        keep = ops > 0
        roots &= keep
        own[~keep] = 0.0
        nkinds = len(self.kinds)
        self_by_kind = np.bincount(kind, weights=own, minlength=nkinds)
        calls_by_kind = np.bincount(kind[keep], minlength=nkinds)
        layers = {name: {"self_s": 0.0, "calls": 0} for name in LAYER_NAMES}
        for kid, (layer, name) in enumerate(self.kinds):
            entry = layers[layer]
            entry["self_s"] += float(self_by_kind[kid])
            if layer != UNATTRIBUTED:
                entry["calls"] += int(calls_by_kind[kid])
        return {"layers": layers,
                "root_s": float(duration[roots].sum()),
                "spans": int(keep.sum()),
                "nested": nested,
                "counted": {name: tuple(self.counted[kid])
                            for kid, (_, name) in enumerate(self.kinds)
                            if name in COUNTED}}

    def write_spans(self, path) -> None:
        """Dump every span as columnar JSON: ``kind`` indexes ``kinds``
        (``[layer, name]``), ``parent`` indexes the span columns (-1 for
        a root), times are seconds from the first span."""
        t0 = self.start[0] if len(self.start) else 0.0
        payload = {
            "kinds": [list(k) for k in self.kinds],
            "kind": list(self.kind),
            "start": [round(t - t0, 9) for t in self.start],
            "end": [round(t - t0, 9) for t in self.end],
            "parent": list(self.parent),
            "op": list(self.op_ids),
        }
        with open(path, "w") as fh:
            json.dump(payload, fh)


def _wrap_call(func, kind, open_, close_, counted):
    if counted is None:
        @functools.wraps(func)
        def traced(*args, **kwargs):
            idx = open_(kind)
            try:
                return func(*args, **kwargs)
            finally:
                close_(idx)
    else:
        tally = counted[kind]

        @functools.wraps(func)
        def traced(*args, **kwargs):
            idx = open_(kind)
            try:
                result = func(*args, **kwargs)
            finally:
                close_(idx)
            tally[0] += 1
            tally[1] += len(result)
            return result
    return traced


def _wrap_generator(func, kind, open_, close_, counted):
    @functools.wraps(func)
    def traced(*args, **kwargs):
        return _SpanIter(func(*args, **kwargs), kind, open_, close_,
                         counted)
    return traced
