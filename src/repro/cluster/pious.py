"""PIOUS-like parallel file service: files striped over node-local disks.

The Beowulf platform description lists PIOUS as its coordinated parallel
I/O layer.  This module implements the same architecture: a *data server*
task on each participating node owns a local partial file; clients stripe
logical file offsets round-robin across servers in fixed stripe units and
converse with the servers through PVM messages.  Every byte ultimately
moves through a node kernel's ordinary file path, so parallel I/O shows up
in the driver traces exactly like local I/O does.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.cluster.beowulf import BeowulfCluster, ClusterNode

#: PVM tag for client->server requests
PIOUS_REQ_TAG = 9_000
#: base for per-request reply tags
PIOUS_REPLY_BASE = 10_000

#: request message overhead on the wire (headers + descriptor)
_REQ_BYTES = 64


@dataclass
class _StripeMap:
    name: str
    stripe_bytes: int
    servers: List[int]

    def chunks(self, offset: int, nbytes: int):
        """Split [offset, offset+nbytes) into per-server (local) extents.

        Yields ``(server_node, local_offset, chunk_bytes)``.  Stripe unit
        ``i`` of the logical file lives on server ``i % nservers`` at local
        offset ``(i // nservers) * stripe_bytes``.
        """
        if nbytes < 1:
            raise ValueError("nbytes must be >= 1")
        end = offset + nbytes
        while offset < end:
            unit = offset // self.stripe_bytes
            within = offset - unit * self.stripe_bytes
            chunk = min(end - offset, self.stripe_bytes - within)
            server = self.servers[unit % len(self.servers)]
            local = (unit // len(self.servers)) * self.stripe_bytes + within
            yield server, local, chunk
            offset += chunk


class PiousFileHandle:
    """Client-side handle to a striped file."""

    def __init__(self, pious: "PIOUS", stripe_map: _StripeMap,
                 client_node: int):
        self._pious = pious
        self._map = stripe_map
        self._client = client_node
        self.pos = 0

    def seek(self, pos: int) -> None:
        if pos < 0:
            raise ValueError("negative seek position")
        self.pos = pos

    def read(self, nbytes: int):
        """Generator: stripe-parallel read of ``nbytes`` at the position."""
        yield from self._transfer(nbytes, write=False)
        return nbytes

    def write(self, nbytes: int):
        """Generator: stripe-parallel write of ``nbytes`` at the position."""
        yield from self._transfer(nbytes, write=True)
        return nbytes

    def _transfer(self, nbytes: int, write: bool):
        pious = self._pious
        pvm = pious.cluster.pvm
        sim = pious.cluster.sim
        reply_tags = []
        for server, local_offset, chunk in self._map.chunks(self.pos, nbytes):
            reply_tag = pious._next_reply_tag()
            reply_tags.append(reply_tag)
            body = ("write" if write else "read",
                    self._map.name, local_offset, chunk,
                    self._client, reply_tag)
            request_bytes = _REQ_BYTES + (chunk if write else 0)
            pvm.isend(self._client, server, PIOUS_REQ_TAG,
                      request_bytes, body)
        for reply_tag in reply_tags:
            yield from pvm.recv(self._client, tag=reply_tag)
        self.pos += nbytes


class PIOUS:
    """The parallel file service: one data server per participating node."""

    def __init__(self, cluster: BeowulfCluster,
                 stripe_kb: int = 8,
                 servers: Optional[List[int]] = None,
                 storage_dir: str = "/pious"):
        if stripe_kb < 1:
            raise ValueError("stripe unit must be >= 1 KB")
        #: a weak proxy: the cluster keeps its service on
        #: ``cluster.pious``, and the caller keeps the cluster
        self.cluster = weakref.proxy(cluster)
        self.stripe_bytes = stripe_kb * 1024
        self.storage_dir = storage_dir
        self.server_ids = list(servers) if servers is not None else \
            [n.node_id for n in cluster.nodes]
        self._files: Dict[str, _StripeMap] = {}
        self._reply_seq = 0
        self.requests_served = 0
        #: lifetime per-data-server counters (for ObsRecorder harvest)
        self.requests_by_server: Dict[int, int] = {
            node_id: 0 for node_id in self.server_ids}
        self.bytes_served = 0
        #: per-server open partial-file handles, keyed by node then file
        #: name — kept on the service (not server-local) so the handles'
        #: positions and readahead windows are part of the state surface
        self._server_handles: Dict[int, Dict[str, object]] = {}
        for node_id in self.server_ids:
            node = cluster.nodes[node_id]
            cluster.sim.process(self._server(node),
                                name=f"pious-server:{node_id}")

    # -- client API ----------------------------------------------------------
    def create(self, name: str, client_node: int = 0) -> PiousFileHandle:
        if name in self._files:
            raise ValueError(f"PIOUS file {name!r} already exists")
        stripe_map = _StripeMap(name, self.stripe_bytes,
                                list(self.server_ids))
        self._files[name] = stripe_map
        return PiousFileHandle(self, stripe_map, client_node)

    def open(self, name: str, client_node: int = 0) -> PiousFileHandle:
        stripe_map = self._files.get(name)
        if stripe_map is None:
            raise KeyError(f"no PIOUS file {name!r}")
        return PiousFileHandle(self, stripe_map, client_node)

    def _next_reply_tag(self) -> int:
        self._reply_seq += 1
        return PIOUS_REPLY_BASE + self._reply_seq

    # -- checkpoint state surface ---------------------------------------
    def snapshot_state(self) -> dict:
        return {
            "files": {name: {"stripe_bytes": m.stripe_bytes,
                             "servers": list(m.servers)}
                      for name, m in sorted(self._files.items())},
            "reply_seq": self._reply_seq,
            "requests_served": self.requests_served,
            "requests_by_server": {str(k): v for k, v in
                                   self.requests_by_server.items()},
            "bytes_served": self.bytes_served,
            "server_handles": {
                str(node_id): {name: handle.snapshot_state()
                               for name, handle in sorted(handles.items())}
                for node_id, handles in sorted(
                    self._server_handles.items())},
        }

    def restore_state(self, state: dict) -> None:
        self._files = {
            name: _StripeMap(name, int(spec["stripe_bytes"]),
                             [int(s) for s in spec["servers"]])
            for name, spec in state["files"].items()}
        self._reply_seq = int(state["reply_seq"])
        self.requests_served = int(state["requests_served"])
        self.requests_by_server = {int(k): int(v) for k, v in
                                   state["requests_by_server"].items()}
        self.bytes_served = int(state["bytes_served"])
        # Reopen each server's partial files against the (already
        # restored) node filesystems — kernel.open is pure — then put
        # back the positions and readahead windows.
        self._server_handles = {}
        for key, handles in state["server_handles"].items():
            node_id = int(key)
            kernel = self.cluster.nodes[node_id].kernel
            restored = self._server_handles.setdefault(node_id, {})
            for name, hstate in handles.items():
                handle = kernel.open(f"{self.storage_dir}/{name}.part")
                handle.restore_state(hstate)
                restored[name] = handle

    # -- data server -------------------------------------------------------
    def _server(self, node: ClusterNode):
        kernel = node.kernel
        pvm = self.cluster.pvm
        handles = self._server_handles.setdefault(node.node_id, {})
        yield from kernel.fs.makedirs(self.storage_dir)
        while True:
            message = yield from pvm.recv(node.node_id, tag=PIOUS_REQ_TAG)
            op, name, local_offset, chunk, client, reply_tag = message.body
            handle = handles.get(name)
            if handle is None:
                path = f"{self.storage_dir}/{name}.part"
                if kernel.fs.exists(path):
                    handle = kernel.open(path)
                else:
                    handle = yield from kernel.create(path)
                handles[name] = handle
            handle.seek(local_offset)
            if op == "write":
                yield from handle.write(chunk)
                reply_bytes = _REQ_BYTES
            else:
                # Reading a hole (not yet written) still answers; only
                # materialized bytes cause disk traffic.
                if local_offset < handle.size:
                    yield from handle.read(
                        min(chunk, handle.size - local_offset))
                reply_bytes = _REQ_BYTES + chunk
            self.requests_served += 1
            self.requests_by_server[node.node_id] += 1
            self.bytes_served += chunk
            yield from pvm.send(node.node_id, client, reply_tag,
                                reply_bytes)
