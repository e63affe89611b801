"""Trace dataset: vectorised access to driver trace records.

Wraps the structured array produced by the instrumentation with the
filters and persistence the analysis layer needs.  Files round-trip as
``.npy`` (exact) or ``.csv`` (interoperable).
"""

from __future__ import annotations

import csv
from pathlib import Path
from typing import Union

import numpy as np

from repro.driver import TRACE_DTYPE


class TraceDataset:
    """An immutable set of trace records with filtering helpers."""

    def __init__(self, records: np.ndarray):
        records = np.asarray(records)
        if records.dtype != TRACE_DTYPE:
            raise TypeError(f"expected trace dtype, got {records.dtype}")
        self._records = records

    # -- construction ---------------------------------------------------------
    @classmethod
    def empty(cls) -> "TraceDataset":
        return cls(np.zeros(0, dtype=TRACE_DTYPE))

    @classmethod
    def from_records(cls, rows) -> "TraceDataset":
        """Build from an iterable of (time, sector, write, pending,
        size_kb, node) tuples."""
        arr = np.array(list(rows), dtype=TRACE_DTYPE)
        return cls(arr)

    # -- basic protocol ------------------------------------------------------
    def __len__(self) -> int:
        return len(self._records)

    def __eq__(self, other) -> bool:
        return (isinstance(other, TraceDataset)
                and np.array_equal(self._records, other._records))

    @property
    def records(self) -> np.ndarray:
        """The underlying structured array (treat as read-only)."""
        return self._records

    def __getattr__(self, field: str) -> np.ndarray:
        if field in TRACE_DTYPE.names:
            return self._records[field]
        raise AttributeError(field)

    @property
    def duration(self) -> float:
        """Span from time 0 to the last record."""
        return float(self._records["time"].max()) if len(self) else 0.0

    # -- filters ---------------------------------------------------------------
    def _where(self, mask: np.ndarray) -> "TraceDataset":
        return TraceDataset(self._records[mask])

    def reads(self) -> "TraceDataset":
        return self._where(self._records["write"] == 0)

    def writes(self) -> "TraceDataset":
        return self._where(self._records["write"] == 1)

    def node(self, node_id: int) -> "TraceDataset":
        return self._where(self._records["node"] == node_id)

    def between(self, t0: float, t1: float) -> "TraceDataset":
        t = self._records["time"]
        return self._where((t >= t0) & (t < t1))

    def sector_range(self, lo: int, hi: int) -> "TraceDataset":
        s = self._records["sector"]
        return self._where((s >= lo) & (s < hi))

    def nodes(self) -> np.ndarray:
        present = np.bincount(self._records["node"])
        return np.flatnonzero(present).astype(np.uint16)

    # -- persistence ----------------------------------------------------------
    def save(self, path: Union[str, Path]) -> Path:
        """Write by suffix: ``.csv`` (interoperable), ``.rpt`` (chunked
        compressed store), anything else as ``.npy``.

        A trace saves to a single *file*.  ``path`` may be ``str`` or
        :class:`~pathlib.Path`; the actual path written is returned — a
        suffix-less path is normalised to ``.npy`` so that ``save(p)`` /
        ``load(p)`` always round-trip on the same string (``np.save``
        would silently append the suffix that a symmetric ``np.load``
        then misses).
        """
        path = Path(path)
        if path.suffix == ".csv":
            with path.open("w", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(TRACE_DTYPE.names)
                for row in self._records:
                    writer.writerow([row[name] for name in TRACE_DTYPE.names])
        elif path.suffix == ".rpt":
            from repro.store import write_trace
            write_trace(path, self._records)
        else:
            if path.suffix != ".npy":
                path = path.with_name(path.name + ".npy")
            with path.open("wb") as fh:
                np.save(fh, self._records)
        return path

    @classmethod
    def load(cls, path: Union[str, Path]) -> "TraceDataset":
        """Read back a file written by :meth:`save` (suffix-driven).

        ``path`` (``str`` or :class:`~pathlib.Path`) is the trace
        *file*; a suffix-less spelling finds the ``.npy`` that
        :meth:`save` normalised it to.
        """
        path = Path(path)
        if path.suffix == ".csv":
            rows = []
            with path.open() as fh:
                reader = csv.DictReader(fh)
                for row in reader:
                    rows.append((float(row["time"]), int(row["sector"]),
                                 int(row["write"]), int(row["pending"]),
                                 float(row["size_kb"]), int(row["node"])))
            return cls.from_records(rows)
        if path.suffix == ".rpt":
            from repro.store import read_trace
            return cls(read_trace(path))
        if path.suffix != ".npy":
            # save() normalised the name; accept the original spelling
            with_npy = path.with_name(path.name + ".npy")
            if with_npy.exists() or not path.exists():
                path = with_npy
        arr = np.load(path)
        return cls(arr)
