"""The Beowulf cluster: 16 workstation nodes, two Ethernets, PVM.

:class:`BeowulfCluster` assembles the full platform of the study and is the
entry point experiments use: it builds the nodes, lets application factories
spawn one task per node, and gathers the per-node driver traces into one
structured array for analysis.
"""

from __future__ import annotations

from typing import Callable, List, Optional

import numpy as np

from repro.cluster.pvm import Mailbox, PVM
from repro.config import Scenario
from repro.driver import TRACE_DTYPE
from repro.kernel import NodeKernel
from repro.sim import Process, RandomStreams, Simulator


class ClusterNode:
    """One workstation: kernel + PVM mailbox."""

    def __init__(self, sim: Simulator, node_id: int, node_config,
                 streams: RandomStreams, pvm: PVM,
                 housekeeping: bool = True,
                 housekeeping_message_rate: float = 3.0,
                 obs=None):
        self.node_id = node_id
        self.kernel = NodeKernel(
            sim, node_config, streams=streams.spawn(f"node{node_id}"),
            node_id=node_id, housekeeping=housekeeping,
            housekeeping_message_rate=housekeeping_message_rate,
            obs=obs)
        self.mailbox: Mailbox = pvm.register(node_id)
        self.pvm = pvm

    def trace_array(self) -> np.ndarray:
        return self.kernel.trace_array()


class BeowulfCluster:
    """The 16-node prototype, built from one :class:`~repro.config.Scenario`.

    ``scenario`` defaults to ``Scenario()`` (the paper's machine);
    ``nnodes`` and ``seed``, when given, override its ``cluster.nnodes``
    and ``seed``.  Each node gets ``scenario.node_config_for(i)``, so
    per-node overrides (one slow disk among sixteen) reach that node's
    whole stack, kernel tunables included.
    """

    def __init__(self, sim: Simulator, nnodes: Optional[int] = None,
                 seed: Optional[int] = None, obs=None,
                 scenario: Optional[Scenario] = None):
        scenario = scenario or Scenario()
        if nnodes is not None:
            scenario = scenario.with_override("cluster.nnodes", nnodes)
        if seed is not None:
            scenario = scenario.with_override("seed", seed)
        cluster_cfg = scenario.cluster
        cluster_cfg.validate("scenario.cluster")
        self.sim = sim
        self.scenario = scenario
        streams = RandomStreams(seed=scenario.seed)
        #: the cluster-wide stream registry (checkpoint state surface)
        self.streams = streams
        self.network = scenario.network.build(
            sim, rng=streams.stream("ethernet"), obs=obs)
        self.pvm = PVM(sim, self.network)
        #: the parallel file service, once :meth:`make_pious` built it
        self.pious = None
        rate = cluster_cfg.housekeeping_message_rate
        self.nodes: List[ClusterNode] = [
            ClusterNode(sim, node_id, scenario.node_config_for(node_id),
                        streams, self.pvm,
                        housekeeping=cluster_cfg.housekeeping,
                        housekeeping_message_rate=rate, obs=obs)
            for node_id in range(cluster_cfg.nnodes)]

    def make_pious(self, storage_dir: str = "/pious"):
        """Build the PIOUS parallel file service from the scenario.

        Stripe unit and data-server placement come from
        ``scenario.pious`` (every node serves under the defaults); the
        service is kept on ``self.pious`` so observability can harvest
        its counters.
        """
        from repro.cluster.pious import PIOUS
        cfg = self.scenario.pious
        self.pious = PIOUS(self, stripe_kb=cfg.stripe_kb,
                           servers=cfg.server_ids(len(self.nodes)),
                           storage_dir=storage_dir)
        return self.pious

    def __len__(self) -> int:
        return len(self.nodes)

    def spawn_on_all(self, factory: Callable[["ClusterNode"], object],
                     name: str = "app") -> List[Process]:
        """Start ``factory(node)`` (an app generator) on every node."""
        return [node.kernel.spawn(factory(node), name=f"{name}:{node.node_id}")
                for node in self.nodes]

    def spawn_on(self, node_id: int, generator, name: str = "app") -> Process:
        return self.nodes[node_id].kernel.spawn(generator, name=name)

    def gather_traces(self, sort: bool = True) -> np.ndarray:
        """Concatenate all nodes' trace records (node ids preserved)."""
        arrays = [node.trace_array() for node in self.nodes]
        combined = np.concatenate(arrays) if arrays else \
            np.zeros(0, dtype=TRACE_DTYPE)
        if sort and len(combined):
            combined = combined[np.argsort(combined["time"], kind="stable")]
        return combined

    def reset_trace_clocks(self) -> None:
        """Zero every node's trace timestamps and drop records so far."""
        for node in self.nodes:
            node.kernel.driver.reset_clock()
            node.kernel.transport.drain_now()
            node.kernel.transport.user_buffer.clear()

    def shutdown_daemons(self) -> None:
        for node in self.nodes:
            node.kernel.shutdown_daemons()
