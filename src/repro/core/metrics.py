"""Aggregate workload metrics — the measurements behind Table 1."""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields

import numpy as np

from repro.core.trace import TraceDataset


@dataclass(frozen=True)
class WorkloadMetrics:
    """Table-1-style summary of one experiment's trace."""

    label: str
    total_requests: int
    read_fraction: float
    write_fraction: float
    requests_per_second: float
    #: per-disk (per-node) average request count, as the paper reports
    requests_per_node: float
    duration: float
    mean_size_kb: float
    mean_pending: float
    #: data moved, KB (all nodes)
    kb_moved: float = 0.0
    #: cluster size behind the per-disk averages (1 when unknown)
    nnodes: int = 1

    @property
    def read_pct(self) -> int:
        return round(self.read_fraction * 100)

    @property
    def write_pct(self) -> int:
        """Derived as ``100 - read_pct`` so the split always sums to 100.

        Rounding each fraction independently could report e.g. 42 % + 57 %
        (both halves rounding down).  An empty trace reports 0 / 0.
        """
        if self.total_requests == 0:
            return 0
        return 100 - self.read_pct

    @property
    def throughput_kb_per_s(self) -> float:
        """Per-disk average data rate over the observation window."""
        nodes = max(self.nnodes, 1)
        return self.kb_moved / self.duration / nodes if self.duration else 0.0

    # -- persistence ---------------------------------------------------------
    def to_dict(self) -> dict:
        """All fields plus the derived percentages, JSON-ready."""
        out = asdict(self)
        out["read_pct"] = self.read_pct
        out["write_pct"] = self.write_pct
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "WorkloadMetrics":
        """Rebuild from :meth:`to_dict` output; missing fields default to
        zero, the label to ``""`` and the node count to 1."""
        known = {f.name for f in fields(cls)}
        kwargs = {k: v for k, v in data.items() if k in known}
        kwargs.setdefault("label", "")
        for f in fields(cls):
            if f.name not in ("label", "nnodes"):
                kwargs.setdefault(f.name, 0)
        return cls(**kwargs)


def estimate_service_times(trace: TraceDataset) -> np.ndarray:
    """Per-request latency estimates from a VERBOSE-level trace.

    At :class:`~repro.driver.TraceLevel.VERBOSE` the driver logs each
    request twice — at submission and at completion — with identical
    (sector, size, rw, node).  Pairing consecutive identical records in
    time order recovers the request latencies, the measurement a
    timing-focused study would extract.
    """
    if len(trace) == 0:
        return np.zeros(0)
    order = np.argsort(trace.time, kind="stable")
    records = trace.records[order]
    open_requests: dict = {}
    latencies = []
    for row in records:
        key = (int(row["sector"]), int(row["write"]),
               float(row["size_kb"]), int(row["node"]))
        started = open_requests.pop(key, None)
        if started is None:
            open_requests[key] = float(row["time"])
        else:
            latencies.append(float(row["time"]) - started)
    return np.asarray(latencies)


def compute_metrics(trace: TraceDataset, label: str = "",
                    duration: float = 0.0,
                    nnodes: "int | None" = None) -> WorkloadMetrics:
    """Summarise a trace.  ``duration`` defaults to the trace span.

    ``nnodes`` is the true cluster size behind the per-disk averages;
    pass it explicitly (as :class:`~repro.core.experiments
    .ExperimentResult` does) so nodes that issued zero requests still
    count in the denominators.  When unknown it falls back to the number
    of nodes *observed* in the trace — which silently inflates the
    per-node figures if a node stayed idle.

    Thin adapter over the streaming
    :class:`~repro.analysis.MetricsPipeline` (the whole trace folded as
    one batch), so results are bit-identical to what the analysis
    engine computes chunk by chunk over the trace store.
    """
    from repro.analysis.pipelines import MetricsPipeline, RunContext
    ctx = RunContext.for_dataset(trace, label=label,
                                 duration=duration if duration > 0 else None,
                                 nnodes=nnodes)
    return MetricsPipeline().run_over([trace.records], ctx)


def class_throughput(trace: TraceDataset, duration: float = 0.0,
                     page_kb: float = 4.0) -> dict:
    """KB/s moved per request-size class (block / page / cache)."""
    from repro.core.sizes import RequestClass, classify_sizes
    if duration <= 0:
        duration = max(trace.duration, 1e-9)
    out = {cls: 0.0 for cls in RequestClass}
    if len(trace) == 0:
        return out
    classes = classify_sizes(trace, page_kb)
    sizes = trace.size_kb
    for cls in RequestClass:
        out[cls] = float(sizes[classes == cls].sum()) / duration
    return out
