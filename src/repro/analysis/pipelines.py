"""Characterization pipelines: accumulator bundles with a finalise step.

A :class:`Pipeline` names a characterization (Table-1 metrics, the
request-size distribution, Figure-7 spatial locality, inter-arrival
structure, hot sectors), declares the accumulators that stream it, and
finalises the merged accumulator states into the same result types the
in-memory analysis layer produces.  ``compute_metrics``,
``size_histogram``, ``class_fractions``, and ``spatial_locality`` are
thin adapters over these pipelines (the whole trace folded as one
batch), which is what makes streaming and in-memory results
bit-identical.

Accumulators marked ``ordered`` (inter-arrival gaps) fold the
engine's k-way merged stream — sorted float64 windows of *time
blocks* — through ``update_blocks``; every other accumulator folds the
raw record batches (``update``), once per chunk.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.analysis.accumulators import (
    Accumulator,
    BandCounts,
    BinnedCounts,
    Count,
    GapStats,
    MinMax,
    Sum,
    TopK,
    ValueCounts,
)
from repro.core.locality import (
    BAND_SECTORS,
    SpatialLocality,
    spatial_from_band_counts,
)
from repro.core.metrics import WorkloadMetrics
from repro.core.patterns import ArrivalReport
from repro.core.sizes import RequestClass

#: pipelines the engine runs when none are named
DEFAULT_PIPELINES = ("metrics", "sizes", "spatial", "arrival")


@dataclass(frozen=True)
class RunContext:
    """What a pipeline may know about a run before streaming it.

    ``duration`` and ``nnodes`` come from the run manifest (or the
    caller); ``time_span`` and ``total_records`` come from the chunk
    index — exact, and free of any decompression.
    """

    label: str = ""
    duration: Optional[float] = None
    nnodes: Optional[int] = None
    time_span: Optional[Tuple[float, float]] = None
    total_records: int = 0

    @classmethod
    def for_dataset(cls, trace, label: str = "",
                    duration: Optional[float] = None,
                    nnodes: Optional[int] = None) -> "RunContext":
        """Context of an in-memory dataset (the adapters' entry)."""
        span = None
        if len(trace):
            t = trace.time
            span = (float(t.min()), float(t.max()))
        return cls(label=label, duration=duration, nnodes=nnodes,
                   time_span=span, total_records=len(trace))


class Pipeline:
    """One characterization: named accumulators plus a finalise step."""

    #: registry key and cache-key component
    name: str = ""
    #: bumped whenever results change meaning — invalidates caches
    version: int = 1

    def accumulators(self, ctx: RunContext) -> Dict[str, Accumulator]:
        raise NotImplementedError

    def finalize(self, accs: Dict[str, Accumulator], ctx: RunContext):
        """Merged accumulators -> result (None when the run is empty
        and the characterization is undefined)."""
        raise NotImplementedError

    def to_json(self, result) -> dict:
        raise NotImplementedError

    def from_json(self, data: dict):
        raise NotImplementedError

    # -- conveniences ---------------------------------------------------------
    def run_over(self, batches, ctx: RunContext):
        """Fold ``batches`` serially and finalise (adapter entry point)."""
        accs = self.accumulators(ctx)
        for batch in batches:
            for acc in accs.values():
                acc.update(batch)
        return self.finalize(accs, ctx)


class MetricsPipeline(Pipeline):
    """Table-1 workload metrics, streamed.

    Counts, the read/write split, and the KB/pending sums are exact
    integer or dyadic-rational arithmetic, so any chunking and any
    merge order produce the same :class:`WorkloadMetrics` —
    ``compute_metrics`` is this pipeline applied to a single batch.
    """

    name = "metrics"
    version = 1

    def accumulators(self, ctx: RunContext) -> Dict[str, Accumulator]:
        return {
            "n": Count(),
            "writes": Sum("write"),
            "size_kb": Sum("size_kb"),
            "pending": Sum("pending"),
            "time": MinMax("time"),
            "nodes": ValueCounts("node"),
        }

    def finalize(self, accs: Dict[str, Accumulator],
                 ctx: RunContext) -> WorkloadMetrics:
        n = accs["n"].n
        duration = ctx.duration if ctx.duration is not None else 0.0
        if duration <= 0:
            observed = accs["time"].max
            duration = max(observed if observed is not None else 0.0, 1e-9)
        nnodes = ctx.nnodes if ctx.nnodes is not None \
            else len(accs["nodes"].counts)
        nnodes = max(int(nnodes), 1)
        if n == 0:
            return WorkloadMetrics(label=ctx.label, total_requests=0,
                                   read_fraction=0.0, write_fraction=0.0,
                                   requests_per_second=0.0,
                                   requests_per_node=0.0,
                                   duration=duration, mean_size_kb=0.0,
                                   mean_pending=0.0, nnodes=nnodes)
        nreads = n - int(accs["writes"].total)
        return WorkloadMetrics(
            label=ctx.label,
            total_requests=n,
            read_fraction=nreads / n,
            write_fraction=1.0 - nreads / n,
            requests_per_second=n / duration / nnodes,
            requests_per_node=n / nnodes,
            duration=duration,
            mean_size_kb=accs["size_kb"].total / n,
            mean_pending=accs["pending"].total / n,
            kb_moved=accs["size_kb"].total,
            nnodes=nnodes,
        )

    def to_json(self, result: WorkloadMetrics) -> dict:
        return result.to_dict()

    def from_json(self, data: dict) -> WorkloadMetrics:
        return WorkloadMetrics.from_dict(data)


@dataclass(frozen=True)
class SizeDistribution:
    """The exact request-size histogram plus the paper's class split."""

    total: int
    #: request count per exact size in KB, ascending
    histogram: Dict[float, int] = field(default_factory=dict)
    page_kb: float = 4.0

    @property
    def fractions(self) -> Dict[RequestClass, float]:
        """Fraction of requests per class (zeros when empty)."""
        if not self.total:
            return {cls: 0.0 for cls in RequestClass}
        counts = {cls: 0 for cls in RequestClass}
        for size, count in self.histogram.items():
            if size >= 2 * self.page_kb:
                counts[RequestClass.CACHE] += count
            elif size == self.page_kb:
                counts[RequestClass.PAGE] += count
            else:
                counts[RequestClass.BLOCK] += count
        return {cls: float(c) / self.total for cls, c in counts.items()}

    @property
    def dominant_size(self) -> float:
        """The most frequent size (smallest wins ties, like argmax)."""
        if not self.histogram:
            raise ValueError("empty trace")
        return max(self.histogram, key=lambda s: (self.histogram[s], -s))

    @property
    def max_size_kb(self) -> float:
        if not self.histogram:
            raise ValueError("empty trace")
        return max(self.histogram)


class SizeHistogramPipeline(Pipeline):
    """Exact per-size request counts — Figures 2-5's distribution.

    Counts per distinct size merge exactly, so ``size_histogram`` and
    ``class_fractions`` route through this pipeline unchanged.
    """

    name = "sizes"
    version = 1

    def __init__(self, page_kb: float = 4.0):
        self.page_kb = page_kb

    def accumulators(self, ctx: RunContext) -> Dict[str, Accumulator]:
        return {"sizes": ValueCounts("size_kb")}

    def finalize(self, accs: Dict[str, Accumulator],
                 ctx: RunContext) -> SizeDistribution:
        histogram = accs["sizes"].result()
        return SizeDistribution(total=sum(histogram.values()),
                                histogram=histogram, page_kb=self.page_kb)

    def to_json(self, result: SizeDistribution) -> dict:
        return {"total": result.total, "page_kb": result.page_kb,
                "histogram": [[size, count]
                              for size, count in result.histogram.items()]}

    def from_json(self, data: dict) -> SizeDistribution:
        return SizeDistribution(
            total=int(data["total"]), page_kb=float(data["page_kb"]),
            histogram={float(s): int(c) for s, c in data["histogram"]})


class SpatialLocalityPipeline(Pipeline):
    """Figure 7 spatial locality from streamed band counts."""

    name = "spatial"
    version = 1

    def __init__(self, band_sectors: int = BAND_SECTORS,
                 total_sectors: int = 1_024_128):
        self.band_sectors = band_sectors
        self.nbands = -(-total_sectors // band_sectors)

    def accumulators(self, ctx: RunContext) -> Dict[str, Accumulator]:
        return {"bands": BandCounts("sector", self.band_sectors,
                                    self.nbands)}

    def finalize(self, accs: Dict[str, Accumulator],
                 ctx: RunContext) -> Optional[SpatialLocality]:
        counts = accs["bands"].result()
        if counts.sum() == 0:
            return None
        return spatial_from_band_counts(counts, self.band_sectors)

    def to_json(self, result: SpatialLocality) -> dict:
        return {"band_sectors": result.band_sectors,
                "band_fraction": [float(f) for f in result.band_fraction],
                "gini": result.gini,
                "top_20pct_share": result.top_20pct_share}

    def from_json(self, data: dict) -> SpatialLocality:
        fraction = np.asarray(data["band_fraction"], dtype=np.float64)
        starts = np.arange(len(fraction)) * int(data["band_sectors"])
        return SpatialLocality(band_sectors=int(data["band_sectors"]),
                               band_start=starts, band_fraction=fraction,
                               gini=float(data["gini"]),
                               top_20pct_share=float(
                                   data["top_20pct_share"]))


class _TimeCount(Accumulator):
    """Record count of a time stream (record batches or time values)."""

    def __init__(self):
        self.n = 0

    def update(self, records: np.ndarray) -> None:
        self.n += len(records)

    def update_values(self, times: np.ndarray) -> None:
        self.n += len(times)

    def merge(self, other: "_TimeCount") -> None:
        self.n += other.n

    def result(self) -> int:
        return self.n


class ArrivalPipeline(Pipeline):
    """Inter-arrival gaps and burstiness over the merged request stream.

    Its :class:`GapStats` is ``ordered``: the engine feeds it globally
    time-sorted blocks (k-way merged across the run's node files), so
    gap statistics see the same sequence ``arrival_structure`` diffs
    after its sort.  The IDC window counts bin against the exact time
    span from the chunk index, fixed before streaming starts.
    """

    name = "arrival"
    version = 1

    def __init__(self, window: float = 10.0):
        if window <= 0:
            raise ValueError("window must be positive")
        self.window = window

    def accumulators(self, ctx: RunContext) -> Dict[str, Accumulator]:
        lo, hi = ctx.time_span if ctx.time_span else (0.0, 0.0)
        duration = hi - lo
        nbins = max(int(duration / self.window), 1)
        return {"gaps": GapStats(),
                "count": _TimeCount(),
                "bins": BinnedCounts("time", nbins, lo, hi)}

    def finalize(self, accs: Dict[str, Accumulator],
                 ctx: RunContext) -> Optional[ArrivalReport]:
        total = accs["count"].n
        if total < 2:
            return None
        _, mean_gap, gap_std = accs["gaps"].result()
        cv = gap_std / mean_gap if mean_gap > 0 else 0.0
        counts = accs["bins"].result()
        mean_count = counts.mean()
        idc = float(counts.var() / mean_count) if mean_count > 0 else 0.0
        return ArrivalReport(total=total, mean_gap=mean_gap, cv_gap=cv,
                             idc=idc, window=self.window)

    def to_json(self, result: ArrivalReport) -> dict:
        return {"total": result.total, "mean_gap": result.mean_gap,
                "cv_gap": result.cv_gap, "idc": result.idc,
                "window": result.window}

    def from_json(self, data: dict) -> ArrivalReport:
        return ArrivalReport(total=int(data["total"]),
                             mean_gap=float(data["mean_gap"]),
                             cv_gap=float(data["cv_gap"]),
                             idc=float(data["idc"]),
                             window=float(data["window"]))


@dataclass(frozen=True)
class HotSectors:
    """Figure 8's headline: the most frequently accessed sectors."""

    total: int
    window: float
    #: (sector, access count, accesses per second), hottest first
    spots: List[Tuple[int, int, float]] = field(default_factory=list)


class HotSectorsPipeline(Pipeline):
    """Top-K sectors by access count (temporal-locality hot spots)."""

    name = "hotspots"
    version = 1

    def __init__(self, k: int = 10):
        self.k = k

    def accumulators(self, ctx: RunContext) -> Dict[str, Accumulator]:
        return {"top": TopK("sector", self.k), "n": Count(),
                "time": MinMax("time")}

    def finalize(self, accs: Dict[str, Accumulator],
                 ctx: RunContext) -> Optional[HotSectors]:
        n = accs["n"].n
        if n == 0:
            return None
        window = ctx.duration if ctx.duration else None
        if not window or window <= 0:
            observed = accs["time"].max
            window = max(observed if observed is not None else 0.0, 1e-9)
        spots = [(int(sector), count, count / window)
                 for sector, count in accs["top"].result()]
        return HotSectors(total=n, window=float(window), spots=spots)

    def to_json(self, result: HotSectors) -> dict:
        return {"total": result.total, "window": result.window,
                "spots": [[s, c, f] for s, c, f in result.spots]}

    def from_json(self, data: dict) -> HotSectors:
        return HotSectors(total=int(data["total"]),
                          window=float(data["window"]),
                          spots=[(int(s), int(c), float(f))
                                 for s, c, f in data["spots"]])


#: name -> zero-argument pipeline factory
PIPELINES = {
    "metrics": MetricsPipeline,
    "sizes": SizeHistogramPipeline,
    "spatial": SpatialLocalityPipeline,
    "arrival": ArrivalPipeline,
    "hotspots": HotSectorsPipeline,
}


def make_pipelines(names=None) -> List[Pipeline]:
    """Instantiate pipelines by name (default :data:`DEFAULT_PIPELINES`).

    Already-instantiated :class:`Pipeline` objects pass through, so
    callers can mix names with custom-configured instances.
    """
    out: List[Pipeline] = []
    for entry in (names if names is not None else DEFAULT_PIPELINES):
        if isinstance(entry, Pipeline):
            out.append(entry)
        elif entry in PIPELINES:
            out.append(PIPELINES[entry]())
        else:
            raise ValueError(f"unknown pipeline {entry!r}; "
                             f"choose from {sorted(PIPELINES)}")
    return out
