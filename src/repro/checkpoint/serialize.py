"""The ``.ckpt`` on-disk format: a validated plain tree, checksummed.

A checkpoint is a *plain tree*: nested ``dict``s with string keys whose
leaves are scalars, strings, bytes, ``None``, lists/tuples of plain
values, or numpy arrays.  :func:`validate_tree` enforces that shape at
capture time, so anything a layer's ``snapshot_state()`` sneaks in that
is not data (a bound method, a generator, an event object) fails
loudly at the ``snapshot()`` call, not as an unpicklable surprise at
restore time in another process.

The envelope is deliberately boring::

    8 bytes   magic  b"RPROCKP1"
    2 bytes   format version (little-endian u16, see repro.migrate)
    32 bytes  sha256 of the compressed payload
    8 bytes   payload length (little-endian u64)
    N bytes   zlib-compressed pickle of the validated tree

:func:`loads` runs an older version through :mod:`repro.migrate`.
The checksum makes a torn write (crash mid-checkpoint) detectable: the
loader raises :class:`CheckpointError` instead of unpickling garbage.
Writes go through :func:`repro.durable.publish` so a ``.ckpt`` path is
always either the previous complete checkpoint or the new one.
"""

from __future__ import annotations

import hashlib
import pickle
import struct
import zlib
from pathlib import Path
from typing import Any, Union

import numpy as np

from repro import migrate
from repro.durable import publish

MAGIC = b"RPROCKP1"
FORMAT_VERSION = migrate.CHECKPOINT

_HEAD = struct.Struct("<8sH32sQ")


class CheckpointError(RuntimeError):
    """Raised for malformed trees, damaged files, or version skew."""


_SCALARS = (str, int, float, bool, bytes, type(None))


def validate_tree(value: Any, path: str = "$") -> Any:
    """Check that ``value`` is a plain tree; return a normalised copy.

    Numpy scalar types are coerced to their Python equivalents so the
    tree compares cleanly with ``==`` after a round-trip; containers are
    copied (a snapshot must not alias live simulator state).
    """
    if isinstance(value, bool) or value is None or isinstance(value, str) \
            or isinstance(value, bytes):
        return value
    # numpy scalars first: np.float64 subclasses float and would
    # otherwise slip through unnormalised
    if isinstance(value, np.bool_):
        return bool(value)
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, (int, float)):
        return value
    if isinstance(value, np.ndarray):
        return value.copy()
    if isinstance(value, dict):
        out = {}
        for key, sub in value.items():
            if not isinstance(key, str):
                raise CheckpointError(
                    f"non-string key {key!r} at {path}")
            out[key] = validate_tree(sub, f"{path}.{key}")
        return out
    if isinstance(value, (list, tuple)):
        items = [validate_tree(sub, f"{path}[{i}]")
                 for i, sub in enumerate(value)]
        return items if isinstance(value, list) else tuple(items)
    raise CheckpointError(
        f"{type(value).__name__} at {path} is not checkpointable "
        f"(plain trees only: dict/list/tuple/scalars/bytes/ndarray)")


def tree_equal(a: Any, b: Any) -> bool:
    """Deep equality over plain trees (ndarray-aware)."""
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return (isinstance(a, np.ndarray) and isinstance(b, np.ndarray)
                and a.dtype == b.dtype and a.shape == b.shape
                and bool(np.array_equal(a, b)))
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and \
            all(tree_equal(a[k], b[k]) for k in a)
    if isinstance(a, (list, tuple)) and isinstance(b, (list, tuple)):
        return type(a) is type(b) and len(a) == len(b) and \
            all(tree_equal(x, y) for x, y in zip(a, b))
    return type(a) is type(b) and a == b


def dumps(tree: dict) -> bytes:
    """Serialize a (validated) plain tree into the envelope bytes."""
    tree = validate_tree(tree)
    payload = zlib.compress(
        pickle.dumps(tree, protocol=pickle.HIGHEST_PROTOCOL), 6)
    digest = hashlib.sha256(payload).digest()
    return _HEAD.pack(MAGIC, FORMAT_VERSION, digest, len(payload)) + payload


def loads(blob: bytes) -> dict:
    """Parse envelope bytes into the tree, migrated to the current shape."""
    if len(blob) < _HEAD.size:
        raise CheckpointError(
            f"checkpoint truncated: {len(blob)} bytes is shorter than "
            f"the {_HEAD.size}-byte header")
    magic, version, digest, length = _HEAD.unpack_from(blob)
    if magic != MAGIC:
        raise CheckpointError(f"bad checkpoint magic {magic!r}")
    if not 1 <= version <= FORMAT_VERSION:
        raise CheckpointError(
            f"checkpoint format v{version} is "
            f"{'newer than' if version > FORMAT_VERSION else 'unknown to'} "
            f"this reader (v1..v{FORMAT_VERSION})")
    payload = blob[_HEAD.size:_HEAD.size + length]
    if len(payload) != length:
        raise CheckpointError(
            f"checkpoint truncated: payload is {len(payload)} of "
            f"{length} bytes")
    if hashlib.sha256(payload).digest() != digest:
        raise CheckpointError("checkpoint checksum mismatch (torn write?)")
    return migrate.checkpoint(pickle.loads(zlib.decompress(payload)), version)


def save_checkpoint(tree: dict, path: Union[str, Path]) -> int:
    """Write ``tree`` to ``path`` atomically; returns the byte size."""
    return publish(path, dumps(tree))


def load_checkpoint(path: Union[str, Path]) -> dict:
    """Read and verify a ``.ckpt`` file written by :func:`save_checkpoint`."""
    try:
        blob = Path(path).read_bytes()
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") \
            from exc
    return loads(blob)
