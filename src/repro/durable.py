"""Publish a file whole: a reader sees the old bytes or the new, never a mix.

Every durable file the package writes outside the trace store (run
manifests, checkpoints, sweep ``.done.json`` markers, the analysis
cache) goes through :func:`publish`.  It writes a temp file beside the
target, named per process and thread so two writers of one path never
share it, flushes and fsyncs it, then renames it over the target.  If
any step fails the temp file is removed and the old target is left as
it was.

The module imports nothing from the rest of ``repro``, so any layer can
use it.
"""

from __future__ import annotations

import os
import threading
from pathlib import Path
from typing import Union


def publish(path: Union[str, Path], data: Union[bytes, str]) -> int:
    """Atomically replace ``path`` with ``data``; returns the byte size."""
    path = Path(path)
    if isinstance(data, str):
        data = data.encode()
    tmp = path.with_name(
        f"{path.name}.{os.getpid()}.{threading.get_ident()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(data)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return len(data)
