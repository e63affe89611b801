"""Request-queue disciplines for the disk device.

Linux of the study's era sorted its per-device request queue in an elevator
order; :class:`CLookScheduler` models that.  FIFO and SSTF are provided for
ablation experiments (how much does queue ordering matter for the observed
latencies?).

:data:`SCHEDULERS` maps each discipline's name to its class, so
scenario files and the replay/sweep machinery select disciplines by
name (``"clook"``, ``"fifo"``, ``"sstf"``, ``"scan"``); a third-party
discipline plugs in as ``SCHEDULERS["myqueue"] = MyQueue``.

Picking and batch draining
--------------------------

The device makes one ``next(head_sector)`` pick per service, with the
head at the previous request's ``last_sector``.  Every discipline
implements ``add``/``next``/``__len__``/``pending`` plus the batch pair,
which no production path calls any more (the traced benchmark's layer
table still names them):

* ``drain(head_sector, limit)`` pops up to ``limit`` requests, exactly
  the sequence that ``limit`` successive ``next()`` calls would return
  with the head advancing to each popped request's ``last_sector``
  (the head-carry invariant — :func:`drain_via_next` is the executable
  definition and the reference the property tests compare against);
* ``requeue(requests)`` hands back an unserviced *suffix* of the most
  recent drain, restoring each request's arrival position so
  tie-breaks replay identically.

A third-party discipline without a cheaper closed form can implement
``drain`` by delegating to :func:`drain_via_next`.
"""

from __future__ import annotations

from bisect import bisect_left, insort_right
from collections import deque
from operator import attrgetter
from typing import Deque, List, Optional

from repro.disk.request import IORequest

#: arrival-order sort key used by ``requeue`` implementations
_ARRIVAL = attrgetter("seq")
#: elevator sweep key: sector order, arrival order among equals
_SECTOR_ARRIVAL = attrgetter("sector", "seq")
#: C-LOOK bisection key (its queue is kept in ``_SECTOR_ARRIVAL`` order)
_SECTOR = attrgetter("sector")


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


class CLookScheduler:
    """Circular LOOK elevator: sweep upward, then jump to the lowest waiter.

    This is the behaviour of the Linux 1.x single-direction elevator and
    gives each request bounded waiting (no SSTF starvation).

    The queue is kept in ``(sector, arrival)`` order, so a pick is one
    bisection for the first request at or beyond the head (index 0 on
    the wrap) instead of a scan of every waiter.
    """

    def __init__(self):
        self._queue: List[IORequest] = []
        self._seq = 0

    def __len__(self) -> int:
        return len(self._queue)

    def add(self, request: IORequest) -> None:
        request.seq = self._seq
        self._seq += 1
        # the newest arrival sorts after every equal sector
        insort_right(self._queue, request, key=_SECTOR)

    def next(self, head_sector: int) -> Optional[IORequest]:
        queue = self._queue
        if not queue:
            return None
        i = bisect_left(queue, head_sector, key=_SECTOR)
        # past the last sector: wrap to start a new sweep from the lowest
        return queue.pop(i if i < len(queue) else 0)

    def drain(self, head_sector: int, limit: int) -> List[IORequest]:
        """``limit`` bisected picks with head carry."""
        return drain_via_next(self, head_sector, limit)

    def requeue(self, requests: List[IORequest]) -> None:
        self._queue.extend(requests)
        self._queue.sort(key=_SECTOR_ARRIVAL)

    def pending(self) -> List[IORequest]:
        return sorted(self._queue, key=_ARRIVAL)


#: queue disciplines by scenario name; factories take no arguments
SCHEDULERS = {
    "clook": CLookScheduler,
    "fifo": FIFOScheduler,
    "scan": ScanScheduler,
    "sstf": SSTFScheduler,
}
