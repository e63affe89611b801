"""Streaming trace sink with bounded memory.

``TraceWriter`` accepts records in structured arrays, spills a
compressed chunk to disk every ``chunk_records`` records, and never holds
more than one chunk of pending records in memory (plus the transient
compression buffer of the chunk being spilled — "≤ 2 chunks resident").
``close()`` appends the footer index and trailer; a crash before that
loses at most the pending partial chunk, and :class:`TraceReader`
recovers every complete chunk from the headerless tail.
"""

from __future__ import annotations

from pathlib import Path
from typing import Union

import numpy as np

from repro.driver import TRACE_DTYPE
from repro.store.format import (
    DEFAULT_CHUNK_RECORDS,
    DEFAULT_COMPRESSION,
    encode_chunk,
    encode_footer,
    encode_header,
    encode_trailer,
)


class TraceWriter:
    """Append-only writer of ``.rpt`` trace store files."""

    def __init__(self, path: Union[str, Path],
                 chunk_records: int = DEFAULT_CHUNK_RECORDS,
                 compression: int = DEFAULT_COMPRESSION):
        if chunk_records < 1:
            raise ValueError("chunk_records must be >= 1")
        self.path = Path(path)
        self.chunk_records = chunk_records
        self.compression = compression
        self.records_written = 0
        self.chunks_written = 0
        self.chunks = []            # ChunkMeta per spilled chunk
        self._pending = np.empty(chunk_records, dtype=TRACE_DTYPE)
        self._fill = 0
        self._fh = self.path.open("wb")
        self._fh.write(encode_header(chunk_records))
        self._offset = self._fh.tell()
        self._closed = False

    # -- introspection ------------------------------------------------------
    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def compressed_bytes(self) -> int:
        """Compressed payload bytes of all spilled chunks."""
        return sum(meta.comp for meta in self.chunks)

    @property
    def raw_bytes(self) -> int:
        """Uncompressed record bytes of all spilled chunks."""
        return sum(meta.raw for meta in self.chunks)

    # -- appending ----------------------------------------------------------
    def append_array(self, records: np.ndarray) -> None:
        """Bulk-append a structured array; spills chunk by chunk.

        Memory stays bounded regardless of input size: full chunks are
        compressed straight from views of the input, never copied whole.
        """
        self._check_open()
        records = np.asarray(records)
        if records.dtype != TRACE_DTYPE:
            raise TypeError(f"expected trace dtype, got {records.dtype}")
        start = 0
        n = len(records)
        while start < n:
            if self._fill == 0 and n - start >= self.chunk_records:
                # fast path: a whole chunk directly from the input view
                self._spill(records[start:start + self.chunk_records])
                start += self.chunk_records
                continue
            take = min(self.chunk_records - self._fill, n - start)
            self._pending[self._fill:self._fill + take] = \
                records[start:start + take]
            self._fill += take
            start += take
            if self._fill == self.chunk_records:
                self._spill(self._pending)
                self._fill = 0

    def flush(self) -> None:
        """Spill the pending partial chunk (if any) and flush the OS file.

        Normally chunks spill only when full; an explicit flush bounds the
        data at risk before :meth:`close` (e.g. at an experiment phase
        boundary).  Frequent flushes cost compression ratio.
        """
        self._check_open()
        if self._fill:
            self._spill(self._pending[:self._fill])
            self._fill = 0
        self._fh.flush()

    # -- finalisation --------------------------------------------------------
    def close(self) -> None:
        """Spill the tail, append the footer index, and close the file."""
        if self._closed:
            return
        if self._fill:
            self._spill(self._pending[:self._fill])
            self._fill = 0
        footer_offset = self._offset
        self._fh.write(encode_footer(self.chunks, self.records_written))
        self._fh.write(encode_trailer(footer_offset))
        self._fh.close()
        self._closed = True
        self._pending = np.empty(0, dtype=TRACE_DTYPE)

    def __enter__(self) -> "TraceWriter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- internals ------------------------------------------------------------
    def _check_open(self) -> None:
        if self._closed:
            raise ValueError(f"writer for {self.path} is closed")

    def _spill(self, records: np.ndarray) -> None:
        if not len(records):
            return
        blob, meta = encode_chunk(records, offset=self._offset,
                                  level=self.compression)
        self._fh.write(blob)
        self._offset += len(blob)
        self.chunks.append(meta)
        self.chunks_written += 1
        self.records_written += len(records)


def write_trace(path: Union[str, Path], records: np.ndarray,
                chunk_records: int = DEFAULT_CHUNK_RECORDS,
                compression: int = DEFAULT_COMPRESSION) -> Path:
    """One-shot convenience: write a whole array as a trace store file."""
    with TraceWriter(path, chunk_records=chunk_records,
                     compression=compression) as writer:
        writer.append_array(records)
    return Path(path)
