"""PVM-like message passing over the Ethernet model.

The Beowulf prototype used PVM for inter-processor communication; the
parallel applications alternate compute and communicate phases through this
layer.  Semantics follow PVM's: typed (tagged) asynchronous sends, blocking
tag-filtered receives, plus the collective helpers the workload models use
(barrier, broadcast, gather).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Dict, Optional

from repro.cluster.network import EthernetNetwork
from repro.sim import Event, Simulator


@dataclass(frozen=True)
class Message:
    src: int
    dst: int
    tag: int
    nbytes: int
    body: Any = None


@dataclass
class _PendingRecv:
    tag: Optional[int]
    event: Event


class Mailbox:
    """Per-task incoming message queue with tag-filtered blocking receive."""

    def __init__(self, sim: Simulator, owner: int):
        self.sim = sim
        self.owner = owner
        self._messages: deque = deque()
        self._waiters: deque = deque()

    def __len__(self) -> int:
        return len(self._messages)

    def deliver(self, message: Message) -> None:
        # Hand to the first waiter whose tag filter matches, else queue.
        for i, waiter in enumerate(self._waiters):
            if waiter.tag is None or waiter.tag == message.tag:
                del self._waiters[i]
                waiter.event.succeed(message)
                return
        self._messages.append(message)

    def receive(self, tag: Optional[int] = None) -> Event:
        """Event that fires with the next message matching ``tag``."""
        event = self.sim.event()
        for i, message in enumerate(self._messages):
            if tag is None or message.tag == tag:
                del self._messages[i]
                event.succeed(message)
                return event
        self._waiters.append(_PendingRecv(tag, event))
        return event


class PVM:
    """The message-passing daemon layer of the cluster."""

    def __init__(self, sim: Simulator, network: EthernetNetwork,
                 #: fixed software overhead per send (pvmd + UDP stack)
                 send_overhead: float = 0.5e-3):
        self.sim = sim
        self.network = network
        self.send_overhead = send_overhead
        self._mailboxes: Dict[int, Mailbox] = {}
        self._barriers: Dict[str, list] = {}
        self.sends = 0

    # -- membership --------------------------------------------------------
    def register(self, node_id: int) -> Mailbox:
        if node_id in self._mailboxes:
            raise ValueError(f"node {node_id} already registered")
        box = Mailbox(self.sim, node_id)
        self._mailboxes[node_id] = box
        return box

    def mailbox(self, node_id: int) -> Mailbox:
        return self._mailboxes[node_id]

    @property
    def ntasks(self) -> int:
        return len(self._mailboxes)

    # -- point to point ----------------------------------------------------
    def send(self, src: int, dst: int, tag: int, nbytes: int,
             body: Any = None):
        """Blocking-send generator: returns after the wire transfer."""
        if dst not in self._mailboxes:
            raise KeyError(f"unknown destination {dst}")
        message = Message(src, dst, tag, nbytes, body)
        yield self.sim.timeout(self.send_overhead)
        if src != dst:
            yield from self.network.transmit(nbytes)
        self._mailboxes[dst].deliver(message)
        self.sends += 1

    def isend(self, src: int, dst: int, tag: int, nbytes: int,
              body: Any = None):
        """Fire-and-forget send running in its own process."""
        return self.sim.process(self.send(src, dst, tag, nbytes, body),
                                name=f"isend:{src}->{dst}")

    def recv(self, node_id: int, tag: Optional[int] = None):
        """Blocking-receive generator: returns the Message."""
        message = yield self._mailboxes[node_id].receive(tag)
        return message

    # -- collectives -------------------------------------------------------
    def barrier(self, name: str, node_id: int, count: int):
        """Generator: block until ``count`` participants arrive at ``name``."""
        arrivals = self._barriers.setdefault(name, [])
        gate = self.sim.event()
        arrivals.append((node_id, gate))
        if len(arrivals) == count:
            del self._barriers[name]
            for _, waiter in arrivals:
                waiter.succeed()
        yield gate

    # -- checkpoint state surface ---------------------------------------
    def snapshot_state(self) -> dict:
        """Counters and queued (undelivered) messages.

        Pending barriers cannot be captured: a parked participant is
        mid-body, and the checkpoint protocol only holds applications at
        body boundaries — every participant of a barrier in a completed
        body has already run through it.  Receive waiters are likewise
        not state: at a body boundary no application is parked in a
        receive.
        """
        if self._barriers:
            pending = {name: [n for n, _ in arrivals]
                       for name, arrivals in self._barriers.items()}
            raise RuntimeError(
                f"barriers still pending at capture: {pending}")
        mailboxes = {}
        for node_id in sorted(self._mailboxes):
            box = self._mailboxes[node_id]
            mailboxes[str(node_id)] = [
                [m.src, m.dst, m.tag, m.nbytes, m.body]
                for m in box._messages]
        return {"sends": self.sends, "mailboxes": mailboxes}

    def restore_state(self, state: dict) -> None:
        self.sends = int(state["sends"])
        for key, rows in state["mailboxes"].items():
            box = self._mailboxes[int(key)]
            box._messages.clear()
            for src, dst, tag, nbytes, body in rows:
                box._messages.append(
                    Message(int(src), int(dst), int(tag), int(nbytes),
                            body))

    def bcast(self, src: int, tag: int, nbytes: int, body: Any = None):
        """Generator: send to every registered task except the source."""
        for dst in list(self._mailboxes):
            if dst != src:
                yield from self.send(src, dst, tag, nbytes, body)

    def gather(self, root: int, tag: int):
        """Generator run at the root: collect one message per other task."""
        messages = []
        for _ in range(self.ntasks - 1):
            message = yield from self.recv(root, tag)
            messages.append(message)
        return messages
