"""Request-queue disciplines for the disk device.

Linux of the study's era sorted its per-device request queue in an elevator
order; :class:`CLookScheduler` models that.  FIFO and SSTF are provided for
ablation experiments (how much does queue ordering matter for the observed
latencies?).

Every discipline registers itself in :data:`SCHEDULERS`, so scenario
files and the replay/sweep machinery select disciplines by name
(``"clook"``, ``"fifo"``, ``"sstf"``, ``"scan"``); third-party
disciplines plug in via ``SCHEDULERS.register``.

Batch draining
--------------

The device drains *runs* of requests per server wakeup instead of one
``next()`` round-trip each.  Every discipline implements
``add``/``next``/``__len__`` plus the batch pair:

* ``drain(head_sector, limit)`` pops up to ``limit`` requests, exactly
  the sequence that ``limit`` successive ``next()`` calls would return
  with the head advancing to each popped request's ``last_sector``
  (the head-carry invariant — :func:`drain_via_next` is the executable
  definition and the reference the property tests compare against);
* ``requeue(requests)`` hands back an unserviced *suffix* of the most
  recent drain (a new submission invalidated the claimed run), restoring
  each request's arrival position so tie-breaks replay identically.

A third-party discipline without a cheaper closed form can implement
``drain`` by delegating to :func:`drain_via_next`.
"""

from __future__ import annotations

from collections import deque
from operator import attrgetter
from typing import Deque, List, Optional

from repro.disk.request import IORequest
from repro.registry import Registry

#: plugin registry of queue disciplines; factories take no arguments
SCHEDULERS = Registry("disk scheduler")

#: arrival-order sort key used by ``requeue`` implementations
_ARRIVAL = attrgetter("seq")
#: elevator sweep key: sector order, arrival order among equals
_SECTOR_ARRIVAL = attrgetter("sector", "seq")


def drain_via_next(scheduler, head_sector: int, limit: int) -> List[IORequest]:
    """Reference drain: ``limit`` successive ``next()`` pops with head carry.

    Any discipline's ``drain`` must return exactly this sequence.  Kept
    as a module-level helper so disciplines whose selection rule has no
    cheaper closed form (SSTF's greedy choice depends on every prior
    pop) can delegate to it, and so tests can compare optimised drains
    against the scalar definition.
    """
    batch: List[IORequest] = []
    while len(batch) < limit:
        request = scheduler.next(head_sector)
        if request is None:
            break
        batch.append(request)
        head_sector = request.last_sector
    return batch


@SCHEDULERS.register("fifo")
class FIFOScheduler:
    """Serve requests strictly in arrival order."""

    def __init__(self):
        self._queue: Deque[IORequest] = deque()
        self._seq = 0

    def __len__(self) -> int:
        return len(self._queue)

    def add(self, request: IORequest) -> None:
        request.seq = self._seq
        self._seq += 1
        self._queue.append(request)

    def next(self, head_sector: int) -> Optional[IORequest]:
        return self._queue.popleft() if self._queue else None

    def drain(self, head_sector: int, limit: int) -> List[IORequest]:
        queue = self._queue
        if len(queue) <= limit:
            batch = list(queue)
            queue.clear()
            return batch
        return [queue.popleft() for _ in range(limit)]

    def requeue(self, requests: List[IORequest]) -> None:
        self._queue.extendleft(reversed(requests))

    def pending(self) -> List[IORequest]:
        return list(self._queue)


@SCHEDULERS.register("sstf")
class SSTFScheduler:
    """Shortest-seek-time-first: greedy nearest-sector selection.

    Classic starvation-prone discipline; included as a baseline for the
    scheduling ablation.
    """

    def __init__(self):
        self._queue: List[IORequest] = []
        self._seq = 0

    def __len__(self) -> int:
        return len(self._queue)

    def add(self, request: IORequest) -> None:
        request.seq = self._seq
        self._seq += 1
        self._queue.append(request)

    def next(self, head_sector: int) -> Optional[IORequest]:
        if not self._queue:
            return None
        best = min(range(len(self._queue)),
                   key=lambda i: abs(self._queue[i].sector - head_sector))
        return self._queue.pop(best)

    def drain(self, head_sector: int, limit: int) -> List[IORequest]:
        if len(self._queue) == 1 and limit >= 1:
            # sole request: the greedy choice regardless of head
            return [self._queue.pop()]
        # each greedy choice depends on the previous pop's end position,
        # so the reference loop *is* the algorithm
        return drain_via_next(self, head_sector, limit)

    def requeue(self, requests: List[IORequest]) -> None:
        self._queue.extend(requests)
        self._queue.sort(key=_ARRIVAL)

    def pending(self) -> List[IORequest]:
        return list(self._queue)


@SCHEDULERS.register("scan")
class ScanScheduler:
    """Bidirectional LOOK (the textbook "elevator"): sweep up, then down.

    Kept distinct from C-LOOK for scheduling ablations; SCAN trades
    C-LOOK's fairness for slightly shorter travel on some workloads.
    """

    def __init__(self):
        self._queue: List[IORequest] = []
        self._seq = 0
        self._direction_up = True
        # sweep direction before/after each pop of the latest drain, so
        # requeue can roll the elevator back to the serviced prefix
        self._drain_directions: List[bool] = [True]

    def __len__(self) -> int:
        return len(self._queue)

    def add(self, request: IORequest) -> None:
        request.seq = self._seq
        self._seq += 1
        self._queue.append(request)

    def next(self, head_sector: int) -> Optional[IORequest]:
        if not self._queue:
            return None
        for _ in range(2):
            if self._direction_up:
                ahead = [i for i, r in enumerate(self._queue)
                         if r.sector >= head_sector]
                if ahead:
                    best = min(ahead, key=lambda i: self._queue[i].sector)
                    return self._queue.pop(best)
            else:
                behind = [i for i, r in enumerate(self._queue)
                          if r.sector <= head_sector]
                if behind:
                    best = max(behind, key=lambda i: self._queue[i].sector)
                    return self._queue.pop(best)
            self._direction_up = not self._direction_up
        return self._queue.pop(0)  # pragma: no cover - unreachable

    def drain(self, head_sector: int, limit: int) -> List[IORequest]:
        directions = [self._direction_up]
        batch: List[IORequest] = []
        while len(batch) < limit:
            request = self.next(head_sector)
            if request is None:
                break
            batch.append(request)
            directions.append(self._direction_up)
            head_sector = request.last_sector
        self._drain_directions = directions
        return batch

    def requeue(self, requests: List[IORequest]) -> None:
        if not requests:
            return
        directions = self._drain_directions
        # direction state as it stood after the last *serviced* pop
        self._direction_up = directions[len(directions) - 1 - len(requests)]
        self._queue.extend(requests)
        self._queue.sort(key=_ARRIVAL)

    def pending(self) -> List[IORequest]:
        return list(self._queue)


@SCHEDULERS.register("clook")
class CLookScheduler:
    """Circular LOOK elevator: sweep upward, then jump to the lowest waiter.

    This is the behaviour of the Linux 1.x single-direction elevator and
    gives each request bounded waiting (no SSTF starvation).
    """

    def __init__(self):
        self._queue: List[IORequest] = []
        self._seq = 0

    def __len__(self) -> int:
        return len(self._queue)

    def add(self, request: IORequest) -> None:
        request.seq = self._seq
        self._seq += 1
        self._queue.append(request)

    def next(self, head_sector: int) -> Optional[IORequest]:
        if not self._queue:
            return None
        ahead = [i for i, r in enumerate(self._queue)
                 if r.sector >= head_sector]
        if ahead:
            best = min(ahead, key=lambda i: self._queue[i].sector)
        else:
            # Wrap: start a new sweep from the lowest pending sector.
            best = min(range(len(self._queue)),
                       key=lambda i: self._queue[i].sector)
        return self._queue.pop(best)

    def drain(self, head_sector: int, limit: int) -> List[IORequest]:
        """One sorted sweep instead of ``limit`` O(n) selection scans.

        Within an upward sweep the head position only grows, so a single
        left-to-right pass over the ``(sector, arrival)``-sorted queue
        pops exactly what successive ``next()`` calls would: the first
        not-yet-taken request at or beyond the head.  Requests passed
        over (their sector fell inside a predecessor's span) wait for a
        later pass; when a pass makes no progress the elevator wraps to
        the lowest pending sector, exactly as ``next()`` does.
        """
        queue = self._queue
        if len(queue) == 1 and limit >= 1:
            # depth-1 queue — the overwhelmingly common case under a
            # quiescent load: the sweep (and ``next``) can only pick the
            # sole request, so skip the selection scan outright
            return [queue.pop()]
        if len(queue) <= 1 or limit <= 1:
            return drain_via_next(self, head_sector, limit)
        order = sorted(queue, key=_SECTOR_ARRIVAL)
        batch: List[IORequest] = []
        head = head_sector
        while order and len(batch) < limit:
            rest: List[IORequest] = []
            for request in order:
                if len(batch) < limit and request.sector >= head:
                    batch.append(request)
                    head = request.last_sector
                else:
                    rest.append(request)
            if len(rest) == len(order) and len(batch) < limit:
                # wrap: the lowest pending sector starts the next sweep
                request = rest.pop(0)
                batch.append(request)
                head = request.last_sector
            order = rest
        if batch:
            popped = set(map(id, batch))
            self._queue = [r for r in queue if id(r) not in popped]
        return batch

    def requeue(self, requests: List[IORequest]) -> None:
        self._queue.extend(requests)
        self._queue.sort(key=_ARRIVAL)

    def pending(self) -> List[IORequest]:
        return list(self._queue)
