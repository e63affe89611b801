"""A shared counted resource for processes.

:class:`Resource` models a server with fixed capacity and a FIFO wait queue
(e.g. an Ethernet segment).
"""

from __future__ import annotations

from collections import deque
from typing import Deque

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
            # no value: a request whose value was itself would be a
            # reference cycle, freed only by the garbage collector
            req.succeed()
