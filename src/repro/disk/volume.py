"""Logical volumes: one block device multiplexed over N member disks.

A :class:`LogicalVolume` presents a single contiguous sector address
space backed by one or more simulated :class:`~repro.disk.device.Disk`
objects, the way Linux ``md`` layers a striped or mirrored array over
IDE drives.  :data:`VOLUME_POLICIES` maps policy names to classes so a
:class:`~repro.config.Scenario` can select them by name:

``single``
    A pass-through over exactly one disk — the paper's configuration,
    and byte-for-byte identical to talking to the disk directly.
``concat``
    Disks appended end to end (linear mode): logical space is the sum
    of member capacities; a request spanning a member boundary splits.
``raid0``
    Round-robin striping in fixed stripe units: stripe unit ``u`` lives
    on disk ``u % n`` at local unit ``u // n`` — the same address math
    :class:`repro.cluster.pious._StripeMap` uses across server nodes.
``raid1``
    Mirroring: writes fan out to every member, reads rotate round-robin
    across mirrors; capacity is the smallest member's.

The address math is kept in pure module-level functions
(:func:`raid0_extents`, :func:`concat_extents`,
:func:`capacity_sectors`) so tests can exercise coverage/overlap
properties without building devices.

Per-physical-disk identity is preserved: each member remains a full
:class:`Disk` with its own name, RNG stream, stats, and observability
instruments, and the instrumented driver emits one trace record per
*physical* sub-request (addressed in the member's local sector space).
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.disk.request import IORequest
from repro.sim import Event

#: one physical extent: (member disk index, local sector, sector count)
Extent = Tuple[int, int, int]


# -- pure address math ---------------------------------------------------------
def concat_extents(sector: int, nsectors: int,
                   disk_sectors: Sequence[int]) -> Tuple[Extent, ...]:
    """Split a logical span across concatenated members.

    Member ``i`` covers logical sectors ``[sum(sizes[:i]),
    sum(sizes[:i+1]))``; the span splits wherever it crosses a boundary.
    """
    out: List[Extent] = []
    end = sector + nsectors
    base = 0
    for index, size in enumerate(disk_sectors):
        top = base + size
        if sector < top and end > base:
            lo = max(sector, base)
            hi = min(end, top)
            out.append((index, lo - base, hi - lo))
        base = top
    return tuple(out)


def raid0_extents(sector: int, nsectors: int, ndisks: int,
                  stripe_sectors: int) -> Tuple[Extent, ...]:
    """Split a logical span into striped per-member extents.

    Stripe unit ``u`` maps to disk ``u % ndisks`` at local sector
    ``(u // ndisks) * stripe_sectors``.  Adjacent extents that land
    contiguously on the same member coalesce (so a one-disk "stripe" is
    a single extent, as ``md`` would issue it).
    """
    out: List[Extent] = []
    end = sector + nsectors
    while sector < end:
        unit = sector // stripe_sectors
        within = sector - unit * stripe_sectors
        chunk = min(end - sector, stripe_sectors - within)
        disk = unit % ndisks
        local = (unit // ndisks) * stripe_sectors + within
        if out and out[-1][0] == disk \
                and out[-1][1] + out[-1][2] == local:
            out[-1] = (disk, out[-1][1], out[-1][2] + chunk)
        else:
            out.append((disk, local, chunk))
        sector += chunk
    return tuple(out)


def capacity_sectors(policy: str, disk_sectors: Sequence[int],
                     stripe_sectors: int = 16) -> int:
    """Logical capacity of ``policy`` over members of the given sizes."""
    return VOLUME_POLICIES[policy].capacity(tuple(disk_sectors),
                                            stripe_sectors)


def join_parts(sim, request: IORequest, parts) -> Event:
    """Complete logical ``request`` once all its physical ``parts`` have.

    ``parts`` are the already-submitted ``(sub_request, done_event)``
    pairs of one fanned-out span.  Stamps the logical submit time and
    returns the logical completion event, which fires (with ``request``)
    at the last part's completion; the request is failed if any part
    failed.  The one fan-out join: the driver and
    :meth:`LogicalVolume.submit` both complete multi-part spans here.
    """
    request.submit_time = sim.now
    done = request.done = sim.event()
    remaining = len(parts)
    failed = False

    def finish(sub: IORequest) -> None:
        nonlocal remaining, failed
        remaining -= 1
        failed = failed or sub.failed
        if remaining == 0:
            request.complete_time = sim.now
            request.failed = failed
            request.done = None  # as Disk does: no request <-> event cycle
            done.succeed(request)

    for sub, part_done in parts:
        part_done.callbacks.append(lambda _ev, sub=sub: finish(sub))
    return done


# -- the device-facing layer ---------------------------------------------------
class LogicalVolume:
    """Base class: a ``Disk``-shaped front over ``disks`` members.

    Subclasses define the address math (``_map`` + ``capacity``); the
    base provides the aggregate device surface the driver and replay
    layers use (``total_sectors``, ``queue_depth``,
    ``media_error_rate``, ``map_extents``, ``submit``).
    """

    policy = "?"

    def __init__(self, disks: Sequence, stripe_sectors: int = 16,
                 name: str = "md0"):
        if not disks:
            raise ValueError("volume needs at least one member disk")
        if stripe_sectors < 1:
            raise ValueError("stripe must cover >= 1 sector")
        self.disks = tuple(disks)
        self.stripe_sectors = int(stripe_sectors)
        self.name = name
        self.sim = self.disks[0].sim
        #: lifetime counters: logical requests mapped, physical parts issued
        self.logical_requests = 0
        self.physical_requests = 0
        self._next_mirror = 0
        # member set and geometry are fixed at construction; capacity is
        # resolved on first use (subclass ``capacity`` hooks) and reused
        # by the per-request range check in ``map_extents``
        self._total_sectors: Optional[int] = None

    # -- capacity ----------------------------------------------------------
    @classmethod
    def capacity(cls, disk_sectors: Tuple[int, ...],
                 stripe_sectors: int) -> int:
        raise NotImplementedError

    @property
    def total_sectors(self) -> int:
        cached = self._total_sectors
        if cached is None:
            cached = self._total_sectors = type(self).capacity(
                tuple(d.total_sectors for d in self.disks),
                self.stripe_sectors)
        return cached

    # -- aggregate device surface ------------------------------------------
    @property
    def queue_depth(self) -> int:
        """Physical requests waiting or in service across all members."""
        return sum(d.queue_depth for d in self.disks)

    @property
    def media_error_rate(self) -> float:
        """Worst member's rate (drives the driver's retry-path choice)."""
        return max(d.media_error_rate for d in self.disks)

    # -- checkpoint state surface ------------------------------------------
    def snapshot_state(self) -> dict:
        return {"logical_requests": self.logical_requests,
                "physical_requests": self.physical_requests,
                "next_mirror": self._next_mirror}

    def restore_state(self, state: dict) -> None:
        self.logical_requests = int(state["logical_requests"])
        self.physical_requests = int(state["physical_requests"])
        self._next_mirror = int(state["next_mirror"])

    # -- mapping -----------------------------------------------------------
    def _map(self, sector: int, nsectors: int,
             is_write: bool) -> Tuple[Extent, ...]:
        raise NotImplementedError

    def map_extents(self, sector: int, nsectors: int,
                    is_write: bool) -> Tuple[Extent, ...]:
        """Resolve a logical span to per-member physical extents."""
        if sector < 0 or nsectors < 1:
            raise ValueError(f"bad span [{sector}, +{nsectors}]")
        if sector + nsectors > self.total_sectors:
            raise ValueError(
                f"request [{sector}, {sector + nsectors - 1}] beyond end "
                f"of {self.name} ({self.total_sectors} sectors)")
        parts = self._map(sector, nsectors, is_write)
        self.logical_requests += 1
        self.physical_requests += len(parts)
        return parts

    # -- submission --------------------------------------------------------
    def submit(self, request: IORequest):
        """Disk-compatible entry point: fan out, composite completion.

        (The driver maps and traces parts itself; this path serves
        replay and any caller treating the volume as one device.)
        """
        parts = self.map_extents(request.sector, request.nsectors,
                                 request.is_write)
        subs = []
        for index, psector, pnsectors in parts:
            sub = IORequest(sector=psector, nsectors=pnsectors,
                            is_write=request.is_write, origin=request.origin)
            subs.append((sub, self.disks[index].submit(sub)))
        return join_parts(self.sim, request, subs)


class SingleVolume(LogicalVolume):
    """Pass-through over exactly one disk (the paper's node)."""

    policy = "single"

    def __init__(self, disks, stripe_sectors: int = 16, name: str = "md0"):
        super().__init__(disks, stripe_sectors, name)
        if len(self.disks) != 1:
            raise ValueError(f"'single' volume takes exactly one disk, "
                             f"got {len(self.disks)}")

    @classmethod
    def capacity(cls, disk_sectors, stripe_sectors):
        return disk_sectors[0]

    def _map(self, sector, nsectors, is_write):
        return ((0, sector, nsectors),)


class ConcatVolume(LogicalVolume):
    """Members appended end to end (linear mode)."""

    policy = "concat"

    @classmethod
    def capacity(cls, disk_sectors, stripe_sectors):
        return sum(disk_sectors)

    def _map(self, sector, nsectors, is_write):
        return concat_extents(
            sector, nsectors, [d.total_sectors for d in self.disks])


class Raid0Volume(LogicalVolume):
    """Round-robin striping in ``stripe_sectors`` units."""

    policy = "raid0"

    @classmethod
    def capacity(cls, disk_sectors, stripe_sectors):
        # full stripe units only, bounded by the smallest member, so
        # every logical sector maps inside every member it can land on
        units_per_disk = min(disk_sectors) // stripe_sectors
        return units_per_disk * stripe_sectors * len(disk_sectors)

    def _map(self, sector, nsectors, is_write):
        return raid0_extents(sector, nsectors, len(self.disks),
                             self.stripe_sectors)


class Raid1Volume(LogicalVolume):
    """Mirroring: write everywhere, read round-robin."""

    policy = "raid1"

    @classmethod
    def capacity(cls, disk_sectors, stripe_sectors):
        return min(disk_sectors)

    def _map(self, sector, nsectors, is_write):
        if is_write:
            return tuple((i, sector, nsectors)
                         for i in range(len(self.disks)))
        mirror = self._next_mirror
        self._next_mirror = (mirror + 1) % len(self.disks)
        return ((mirror, sector, nsectors),)


#: volume policies selectable via ``node.volume.policy``
VOLUME_POLICIES = {
    "concat": ConcatVolume,
    "raid0": Raid0Volume,
    "raid1": Raid1Volume,
    "single": SingleVolume,
}
