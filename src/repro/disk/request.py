"""The unit of work a disk sees: a contiguous sector-range read or write."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

from repro.disk.geometry import SECTOR_BYTES


@dataclass(slots=True)
class IORequest:
    """A physical disk request for ``nsectors`` starting at ``sector``.

    This is what the instrumented driver ultimately logs: one IORequest
    produces one trace record, exactly as one request to the IDE driver's
    read/write handler produced one entry in the paper's traces.

    The class carries ``__slots__``: requests are the most-allocated
    object in a simulation, and slot storage makes both construction and
    the scheduler/device field accesses measurably cheaper.
    """

    sector: int
    nsectors: int
    is_write: bool
    #: simulated time the request was handed to the driver
    submit_time: float = 0.0
    #: time the device finished servicing it (set by the disk)
    complete_time: Optional[float] = None
    #: opaque tag for upper layers (buffer cache, VM, app id, ...)
    origin: Any = None
    #: completion event, attached by the device when accepted and
    #: dropped when it fires (the event's value is this request)
    done: Any = field(default=None, repr=False)
    #: set by the device when the transfer failed (media error); the
    #: request still completes (the drive reports the error after trying)
    failed: bool = False
    #: arrival stamp set by the queue discipline; schedulers use it to
    #: restore arrival order when a drained batch is handed back
    seq: int = field(default=0, repr=False, compare=False)

    def __post_init__(self):
        if self.sector < 0:
            raise ValueError(f"negative sector {self.sector}")
        if self.nsectors < 1:
            raise ValueError(f"request must cover >= 1 sector, got {self.nsectors}")

    @property
    def nbytes(self) -> int:
        return self.nsectors * SECTOR_BYTES

    @property
    def size_kb(self) -> float:
        return self.nbytes / 1024.0

    @property
    def last_sector(self) -> int:
        return self.sector + self.nsectors - 1

    @property
    def latency(self) -> float:
        """Queue + service time, available once completed."""
        if self.complete_time is None:
            raise ValueError("request not yet complete")
        return self.complete_time - self.submit_time
