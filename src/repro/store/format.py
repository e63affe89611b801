"""The ``.rpt`` on-disk trace format (version 1).

A versioned, chunked, compressed, indexed container for trace records —
the reproduction's answer to the paper's flat per-node trace files.  The
layout is streaming-friendly (chunks are appended as they fill) and
crash-safe (every chunk is self-describing, so a truncated file recovers
all complete chunks even without its footer):

    +--------------------------------------------------------------+
    | header   magic "RPROTRC1" | u16 version | u16 pad | u32 jlen |
    |          json: {dtype descr, chunk_records, ...}             |
    +--------------------------------------------------------------+
    | chunk 0  magic "CHNK" | u32 mlen | u32 clen                  |
    |          json meta: {count, t0, t1, s0, s1, nodes, writes,   |
    |                      raw, crc}                               |
    |          zlib-compressed columnar payload                    |
    +--------------------------------------------------------------+
    | chunk 1 ...                                                  |
    +--------------------------------------------------------------+
    | footer   magic "FIDX" | u32 jlen                             |
    |          json index: [{offset, count, t0, t1, ...}, ...]     |
    +--------------------------------------------------------------+
    | trailer  u64 footer offset | magic "RPROEND1"                |
    +--------------------------------------------------------------+

Payloads are *columnar*: each field's values are stored contiguously
(all timestamps, then all sectors, ...), which compresses far better
than interleaved records — neighbouring timestamps share high bytes,
sizes and node ids are near-constant runs.  All integers little-endian.
"""

from __future__ import annotations

import json
import struct
import zlib
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.driver import TRACE_DTYPE

#: file magic / version ------------------------------------------------------
MAGIC = b"RPROTRC1"
VERSION = 1
CHUNK_MAGIC = b"CHNK"
FOOTER_MAGIC = b"FIDX"
TRAILER_MAGIC = b"RPROEND1"

_HEADER_FIXED = struct.Struct("<8sHHI")      # magic, version, pad, json len
_CHUNK_FIXED = struct.Struct("<4sII")        # magic, meta len, payload len
_FOOTER_FIXED = struct.Struct("<4sI")        # magic, json len
_TRAILER = struct.Struct("<Q8s")             # footer offset, magic

HEADER_FIXED_SIZE = _HEADER_FIXED.size
CHUNK_FIXED_SIZE = _CHUNK_FIXED.size
TRAILER_SIZE = _TRAILER.size

#: default records per chunk: 64 Ki records ~ 1.6 MB raw per chunk
DEFAULT_CHUNK_RECORDS = 65536
#: default zlib level — 6 is the classic speed/ratio sweet spot
DEFAULT_COMPRESSION = 6


class StoreFormatError(ValueError):
    """Raised when a file is not a valid (or compatible) trace store."""


def dtype_descr(dtype: np.dtype = TRACE_DTYPE) -> list:
    """JSON-serialisable descriptor of a structured dtype."""
    return [[name, str(dtype[name].str)] for name in dtype.names]


def dtype_from_descr(descr) -> np.dtype:
    return np.dtype([(str(name), str(spec)) for name, spec in descr])


@dataclass(frozen=True)
class ChunkMeta:
    """Per-chunk index entry: where the chunk lives and what is in it.

    The min/max summaries power predicate pushdown — a reader can prove a
    chunk irrelevant to a query without decompressing it.
    """

    offset: int          # file offset of the chunk's fixed header
    count: int           # records in the chunk
    t0: float            # min record time
    t1: float            # max record time
    s0: int              # min sector
    s1: int              # max sector
    nodes: Tuple[int, ...]  # distinct node ids, sorted
    writes: int          # number of write records
    raw: int             # uncompressed payload bytes
    comp: int            # compressed payload bytes
    crc: int             # crc32 of the raw columnar payload

    def to_json(self) -> dict:
        return {"offset": self.offset, "count": self.count,
                "t0": self.t0, "t1": self.t1, "s0": self.s0, "s1": self.s1,
                "nodes": list(self.nodes), "writes": self.writes,
                "raw": self.raw, "comp": self.comp, "crc": self.crc}

    @classmethod
    def from_json(cls, d: dict) -> "ChunkMeta":
        return cls(offset=int(d["offset"]), count=int(d["count"]),
                   t0=float(d["t0"]), t1=float(d["t1"]),
                   s0=int(d["s0"]), s1=int(d["s1"]),
                   nodes=tuple(int(n) for n in d["nodes"]),
                   writes=int(d["writes"]), raw=int(d["raw"]),
                   comp=int(d["comp"]), crc=int(d["crc"]))


@dataclass(frozen=True)
class TracePredicate:
    """A pushdown-able record filter: time window, node, direction.

    ``admits_chunk`` decides from a :class:`ChunkMeta` alone whether the
    chunk *could* contain matching records; ``mask`` evaluates the exact
    per-record filter on a decompressed array.  Semantics match
    ``TraceDataset``: the time window is half-open ``[t0, t1)``.
    """

    t0: Optional[float] = None
    t1: Optional[float] = None
    node: Optional[int] = None
    write: Optional[bool] = None

    @property
    def trivial(self) -> bool:
        return (self.t0 is None and self.t1 is None
                and self.node is None and self.write is None)

    def admits_chunk(self, meta: ChunkMeta) -> bool:
        if meta.count == 0:
            return False
        if self.t0 is not None and meta.t1 < self.t0:
            return False
        if self.t1 is not None and meta.t0 >= self.t1:
            return False
        if self.node is not None and self.node not in meta.nodes:
            return False
        if self.write is True and meta.writes == 0:
            return False
        if self.write is False and meta.writes == meta.count:
            return False
        return True

    def mask(self, records: np.ndarray) -> np.ndarray:
        keep = np.ones(len(records), dtype=bool)
        if self.t0 is not None:
            keep &= records["time"] >= self.t0
        if self.t1 is not None:
            keep &= records["time"] < self.t1
        if self.node is not None:
            keep &= records["node"] == self.node
        if self.write is not None:
            keep &= records["write"] == (1 if self.write else 0)
        return keep


# -- columnar payload ---------------------------------------------------------
def pack_columns(records: np.ndarray) -> bytes:
    """Structured array -> byte-shuffled columnar bytes.

    Each field is laid out contiguously and *byte-shuffled* (all the
    records' byte 0, then all their byte 1, ...): slowly-varying values
    — sorted timestamps, clustered sectors — put their near-constant
    high bytes into long runs that zlib collapses, typically a further
    ~35% over plain columnar.
    """
    parts = []
    for name in records.dtype.names:
        col = np.ascontiguousarray(records[name])
        lanes = col.view(np.uint8).reshape(len(col), col.dtype.itemsize)
        parts.append(np.ascontiguousarray(lanes.T).tobytes())
    return b"".join(parts)


def unpack_columns(raw: bytes, count: int,
                   dtype: np.dtype = TRACE_DTYPE) -> np.ndarray:
    """Byte-shuffled columnar bytes -> structured array (inverse of
    ``pack_columns``)."""
    out = np.empty(count, dtype=dtype)
    offset = 0
    for name in dtype.names:
        field = dtype[name]
        nbytes = field.itemsize * count
        lanes = np.frombuffer(raw, dtype=np.uint8, count=nbytes,
                              offset=offset)
        col = np.ascontiguousarray(
            lanes.reshape(field.itemsize, count).T).view(field)
        out[name] = col.reshape(count)
        offset += nbytes
    if offset != len(raw):
        raise StoreFormatError(
            f"payload is {len(raw)} bytes, schema needs {offset}")
    return out


def summarize(records: np.ndarray, offset: int,
              raw: int, comp: int, crc: int) -> ChunkMeta:
    """Compute a chunk's index entry from its records."""
    return ChunkMeta(
        offset=offset,
        count=len(records),
        t0=float(records["time"].min()),
        t1=float(records["time"].max()),
        s0=int(records["sector"].min()),
        s1=int(records["sector"].max()),
        nodes=tuple(np.flatnonzero(np.bincount(records["node"])).tolist()),
        writes=int(np.count_nonzero(records["write"])),
        raw=raw, comp=comp, crc=crc)


# -- low-level encode/decode --------------------------------------------------
def encode_header(chunk_records: int,
                  dtype: np.dtype = TRACE_DTYPE,
                  extra: Optional[dict] = None) -> bytes:
    meta = {"dtype": dtype_descr(dtype), "chunk_records": chunk_records}
    if extra:
        meta.update(extra)
    blob = json.dumps(meta, separators=(",", ":")).encode()
    return _HEADER_FIXED.pack(MAGIC, VERSION, 0, len(blob)) + blob


def decode_header(fh) -> dict:
    """Read and validate the header; leaves ``fh`` at the first chunk."""
    fixed = fh.read(HEADER_FIXED_SIZE)
    if len(fixed) < HEADER_FIXED_SIZE:
        raise StoreFormatError("file too short for a trace store header")
    magic, version, _, jlen = _HEADER_FIXED.unpack(fixed)
    if magic != MAGIC:
        raise StoreFormatError(f"bad magic {magic!r}: not a trace store")
    if version != VERSION:
        raise StoreFormatError(f"unsupported trace store version {version}")
    blob = fh.read(jlen)
    if len(blob) < jlen:
        raise StoreFormatError("truncated trace store header")
    try:
        # ValueError covers both JSONDecodeError and the UnicodeDecodeError
        # a torn (partially written) header raises on non-UTF-8 bytes
        meta = json.loads(blob)
    except ValueError as exc:
        raise StoreFormatError(
            f"corrupt trace store header: {exc}") from None
    if not isinstance(meta, dict) or "dtype" not in meta:
        raise StoreFormatError(
            "corrupt trace store header: not a header object")
    meta["header_size"] = HEADER_FIXED_SIZE + jlen
    return meta


def encode_chunk(records: np.ndarray, offset: int,
                 level: int = DEFAULT_COMPRESSION
                 ) -> Tuple[bytes, ChunkMeta]:
    """Records -> (chunk bytes ready to append, index entry)."""
    raw = pack_columns(records)
    comp = zlib.compress(raw, level)
    meta = summarize(records, offset=offset, raw=len(raw), comp=len(comp),
                     crc=zlib.crc32(raw))
    blob = json.dumps(meta.to_json(), separators=(",", ":")).encode()
    return (_CHUNK_FIXED.pack(CHUNK_MAGIC, len(blob), len(comp))
            + blob + comp), meta


def read_chunk_at(fh, offset: int) -> Tuple[ChunkMeta, int]:
    """Read one chunk's fixed header + meta at ``offset``.

    Returns ``(meta, payload_offset)`` without touching the payload.
    Raises :class:`StoreFormatError` if there is no complete, valid chunk
    header here (the crash-recovery scan uses that to stop).
    """
    fh.seek(offset)
    fixed = fh.read(CHUNK_FIXED_SIZE)
    if len(fixed) < CHUNK_FIXED_SIZE:
        raise StoreFormatError("no chunk header at offset")
    magic, mlen, clen = _CHUNK_FIXED.unpack(fixed)
    if magic != CHUNK_MAGIC:
        raise StoreFormatError(f"bad chunk magic at {offset}")
    blob = fh.read(mlen)
    if len(blob) < mlen:
        raise StoreFormatError("truncated chunk meta")
    try:
        meta = ChunkMeta.from_json(json.loads(blob))
    except (ValueError, KeyError, TypeError) as exc:
        raise StoreFormatError(f"corrupt chunk meta at {offset}: {exc}")
    if meta.comp != clen:
        raise StoreFormatError("chunk meta disagrees with payload length")
    return meta, offset + CHUNK_FIXED_SIZE + mlen


def read_payload(fh, meta: ChunkMeta, payload_offset: int,
                 dtype: np.dtype = TRACE_DTYPE,
                 verify: bool = True) -> np.ndarray:
    """Decompress one chunk's records (the only place bytes are inflated)."""
    fh.seek(payload_offset)
    comp = fh.read(meta.comp)
    if len(comp) < meta.comp:
        raise StoreFormatError("truncated chunk payload")
    try:
        raw = zlib.decompress(comp)
    except zlib.error as exc:
        raise StoreFormatError(
            f"chunk at {meta.offset} does not decompress: {exc}")
    if verify and zlib.crc32(raw) != meta.crc:
        raise StoreFormatError(f"chunk at {meta.offset} fails its crc")
    return unpack_columns(raw, meta.count, dtype)


def encode_footer(chunks, record_count: int) -> bytes:
    index = {"chunks": [c.to_json() for c in chunks],
             "records": record_count}
    blob = json.dumps(index, separators=(",", ":")).encode()
    return _FOOTER_FIXED.pack(FOOTER_MAGIC, len(blob)) + blob


def encode_trailer(footer_offset: int) -> bytes:
    return _TRAILER.pack(footer_offset, TRAILER_MAGIC)


def decode_footer(fh, file_size: int):
    """Load the chunk index from the footer, or ``None`` if absent/invalid.

    A missing or damaged footer is not an error — the reader falls back
    to scanning the chunks themselves.
    """
    if file_size < TRAILER_SIZE:
        return None
    fh.seek(file_size - TRAILER_SIZE)
    footer_offset, magic = _TRAILER.unpack(fh.read(TRAILER_SIZE))
    if magic != TRAILER_MAGIC or footer_offset >= file_size:
        return None
    fh.seek(footer_offset)
    fixed = fh.read(_FOOTER_FIXED.size)
    if len(fixed) < _FOOTER_FIXED.size:
        return None
    fmagic, jlen = _FOOTER_FIXED.unpack(fixed)
    if fmagic != FOOTER_MAGIC:
        return None
    blob = fh.read(jlen)
    if len(blob) < jlen:
        return None
    try:
        index = json.loads(blob)
        chunks = [ChunkMeta.from_json(c) for c in index["chunks"]]
        return chunks, int(index["records"])
    except (ValueError, KeyError, TypeError):
        return None
