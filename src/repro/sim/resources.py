"""Shared resources for processes: counted resources and object stores.

:class:`Resource` models a server with fixed capacity and a FIFO wait queue
(e.g. an Ethernet segment).  :class:`Store` is a producer/consumer buffer of
Python objects (e.g. the /proc trace ring buffer, a message queue).
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Optional

from repro.sim.core import Event, SimulationError, Simulator


class Request(Event):
    """Pending acquisition of one unit of a :class:`Resource`.

    Use as ``req = res.request(); yield req`` then later ``res.release(req)``.
    Supports the context-manager protocol inside processes::

        with res.request() as req:
            yield req
            ...  # holding the resource
    """

    __slots__ = ("resource",)

    def __init__(self, resource: "Resource"):
        super().__init__(resource.sim)
        self.resource = resource
        resource._queue.append(self)
        resource._dispatch()

    def cancel(self) -> None:
        """Withdraw an ungranted request from the wait queue."""
        if self.triggered:
            raise SimulationError("request already granted; release() instead")
        self.resource._queue.remove(self)

    def __enter__(self) -> "Request":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if self.triggered:
            self.resource.release(self)
        else:
            self.cancel()


class Resource:
    """``capacity`` identical units with a FIFO queue of requesters."""

    def __init__(self, sim: Simulator, capacity: int = 1):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.sim = sim
        self.capacity = capacity
        self._in_use = 0
        self._queue: Deque[Request] = deque()

    @property
    def count(self) -> int:
        """Units currently held."""
        return self._in_use

    @property
    def queue_length(self) -> int:
        return len(self._queue)

    def request(self) -> Request:
        return Request(self)

    def release(self, request: Request) -> None:
        if request.resource is not self:
            raise SimulationError("request belongs to another resource")
        if not request.triggered:
            raise SimulationError("releasing an ungranted request")
        self._in_use -= 1
        self._dispatch()

    def _dispatch(self) -> None:
        while self._queue and self._in_use < self.capacity:
            req = self._queue.popleft()
            self._in_use += 1
            req.succeed(req)


class StorePut(Event):
    __slots__ = ("item",)

    def __init__(self, store: "Store", item: Any):
        super().__init__(store.sim)
        self.item = item
        store._putters.append(self)
        store._dispatch()


class StoreGet(Event):
    __slots__ = ()

    def __init__(self, store: "Store"):
        super().__init__(store.sim)
        store._getters.append(self)
        store._dispatch()


class Store:
    """FIFO buffer of objects with optional capacity.

    ``yield store.put(item)`` blocks while full; ``item = yield store.get()``
    blocks while empty.
    """

    def __init__(self, sim: Simulator, capacity: Optional[int] = None):
        if capacity is not None and capacity < 1:
            raise ValueError("capacity must be >= 1 or None")
        self.sim = sim
        self.capacity = capacity
        self.items: Deque[Any] = deque()
        self._putters: Deque[StorePut] = deque()
        self._getters: Deque[StoreGet] = deque()

    def __len__(self) -> int:
        return len(self.items)

    def put(self, item: Any) -> StorePut:
        return StorePut(self, item)

    def get(self) -> StoreGet:
        return StoreGet(self)

    def _dispatch(self) -> None:
        progress = True
        while progress:
            progress = False
            while self._putters and (
                    self.capacity is None or len(self.items) < self.capacity):
                put = self._putters.popleft()
                self.items.append(put.item)
                put.succeed()
                progress = True
            while self._getters and self.items:
                get = self._getters.popleft()
                get.succeed(self.items.popleft())
                progress = True
