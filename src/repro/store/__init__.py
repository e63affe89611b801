"""Chunked, compressed, indexed trace store and run catalog.

The paper's apparatus ends at flat per-node trace files read whole; this
package is the production-scale replacement.  ``.rpt`` files hold
zlib-compressed columnar chunks of ``TRACE_DTYPE`` records behind a
footer index carrying per-chunk min/max time, sector range, node set and
read/write counts, so :class:`TraceWriter` writes traces of any size with
bounded memory and :class:`TraceReader` answers windowed queries without
decompressing non-matching chunks.  :class:`RunCatalog` organises whole
experiments (``runs/<name>/manifest.json`` + per-node files) with their
scenario, seed, and summary metrics.  The ``repro-trace`` CLI
(``info``/``cat``/``convert``/``merge``/``ls``) operates on both.
"""

from repro.store.format import (
    ChunkMeta,
    DEFAULT_CHUNK_RECORDS,
    DEFAULT_COMPRESSION,
    StoreFormatError,
    TracePredicate,
)
from repro.store.writer import TraceWriter, write_trace
from repro.store.reader import TraceReader, read_trace
from repro.store.catalog import RunCapture, RunCatalog

__all__ = [
    "ChunkMeta",
    "DEFAULT_CHUNK_RECORDS",
    "DEFAULT_COMPRESSION",
    "RunCapture",
    "RunCatalog",
    "StoreFormatError",
    "TracePredicate",
    "TraceReader",
    "TraceWriter",
    "read_trace",
    "write_trace",
]
