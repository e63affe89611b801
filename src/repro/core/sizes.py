"""Request-size analysis: the paper's three-class decomposition.

Section 5 of the paper identifies three primary request-size categories,
each a signature of a kernel mechanism:

* **BLOCK** — small requests at the 1 KB filesystem block size (and small
  multiples from write-back clustering): explicit small I/O and logging;
* **PAGE** — 4 KB requests: demand paging and swap traffic;
* **CACHE** — sizes approaching multiples of the 16 KB cache: streaming
  reads through the scaled I/O buffers.
"""

from __future__ import annotations

from enum import Enum
from typing import Dict, Tuple

import numpy as np

from repro.core.trace import TraceDataset


class RequestClass(Enum):
    """The paper's request-size classes."""

    BLOCK = "block"     # 1-3 KB: block I/O and its write-back clusters
    PAGE = "page"       # exactly the page size (4 KB by default)
    CACHE = "cache"     # >= 8 KB: read-ahead / cache-bounded streaming

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


def classify_sizes(trace: TraceDataset, page_kb: float = 4.0) -> np.ndarray:
    """Class of every record; returns an object array of RequestClass."""
    sizes = trace.size_kb
    out = np.empty(len(sizes), dtype=object)
    out[:] = RequestClass.BLOCK
    out[sizes == page_kb] = RequestClass.PAGE
    out[sizes >= 2 * page_kb] = RequestClass.CACHE
    return out


def class_fractions(trace: TraceDataset,
                    page_kb: float = 4.0) -> Dict[RequestClass, float]:
    """Fraction of requests in each class (zeros for an empty trace).

    Adapter over the streaming
    :class:`~repro.analysis.SizeHistogramPipeline` — identical to the
    analysis engine's chunked result.
    """
    return _size_distribution(trace, page_kb).fractions


def size_histogram(trace: TraceDataset) -> Dict[float, int]:
    """Count of requests per exact size in KB, sorted by size.

    Adapter over the streaming
    :class:`~repro.analysis.SizeHistogramPipeline` — identical to the
    analysis engine's chunked result.
    """
    return _size_distribution(trace).histogram


def _size_distribution(trace: TraceDataset, page_kb: float = 4.0):
    """The whole trace through the size pipeline as a single batch."""
    from repro.analysis.pipelines import RunContext, SizeHistogramPipeline
    ctx = RunContext.for_dataset(trace)
    return SizeHistogramPipeline(page_kb=page_kb).run_over(
        [trace.records], ctx)


def size_time_series(trace: TraceDataset) -> Tuple[np.ndarray, np.ndarray]:
    """(time, size_kb) pairs — the scatter of Figures 2-5."""
    return trace.time.copy(), trace.size_kb.astype(np.float64)


def dominant_size(trace: TraceDataset) -> float:
    """The most frequent request size in KB (smallest wins ties)."""
    if len(trace) == 0:
        raise ValueError("empty trace")
    return float(_size_distribution(trace).dominant_size)


def max_size_kb(trace: TraceDataset) -> float:
    if len(trace) == 0:
        raise ValueError("empty trace")
    return float(trace.size_kb.max())
