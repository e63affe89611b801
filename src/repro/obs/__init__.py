"""Runtime observability: metrics registry, span timing, run snapshots.

The paper's contribution is *measurement*; this package points the same
discipline at the reproduction's own runtime.  A zero-dependency metrics
registry (:class:`Counter` / :class:`Gauge` / :class:`Histogram` with
fixed log2 buckets and labeled children) instruments the hot layers —
the simulator event loop, the disk service path, the buffer cache, the
``/proc`` trace transport, and the store writers — and an
:class:`ObsRecorder` gathers everything into one JSON-serialisable
snapshot per experiment run.

Instrumentation is off by default: layers receive ``obs=None`` and skip
the calls behind that one test, so an uninstrumented run pays nothing.
Enable it with ``ExperimentRunner(obs=True)`` or ``repro-experiment
--obs``, and inspect or diff stored snapshots with ``repro-trace obs``.
"""

from repro.obs.registry import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    Span,
    UNDERFLOW,
    bucket_edge,
    bucket_of,
)
from repro.obs.recorder import ObsRecorder
from repro.obs.render import (
    compare_snapshots,
    flatten_snapshot,
    render_snapshot_table,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "ObsRecorder",
    "Span",
    "UNDERFLOW",
    "bucket_edge",
    "bucket_of",
    "compare_snapshots",
    "flatten_snapshot",
    "render_snapshot_table",
]
