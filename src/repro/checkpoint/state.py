"""Whole-stack capture and restore orchestration.

:func:`capture_state` walks a quiescent simulator + cluster (and the
applications' resume tokens) into one plain tree; the restore side is a
sequence of small steps the experiment runner interleaves with
reconstruction::

    tree = load_checkpoint(path)          # migrated to the current shape
    sim = Simulator(obs=...)
    sim.restore_clock(tree["clock"])
    arm_tick_preloads(sim, tree)          # BEFORE the cluster exists
    cluster = BeowulfCluster(sim, ...)    # daemons spawn at now=T
    restore_cluster_state(cluster, tree)  # pure, before any event fires
    ...spawn applications (they park on their resume holds)...
    sim.settle()                          # daemons re-park on preloads
    verify_restored_queue(sim, tree)      # queue == snapshot, then seq

:meth:`Simulator.settle` is the same quiescence loop capture runs: every
reconstruction event sits at the restored ``now`` and every snapshotted
tick lies later, so it fires exactly the reconstruction events.

The invariant being rebuilt: after the settle, the event queue holds
exactly the snapshotted ticks under their original ``(time, priority,
seq)`` keys, the sequence counter equals the captured value, and every
process is parked where its captured counterpart was — so the next
``run()`` fires the same events in the same order as the uninterrupted
run.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.checkpoint.serialize import CheckpointError, validate_tree
from repro.sim import Simulator, Tick


def _snapshot_ticks(sim: Simulator) -> Dict[str, list]:
    """The queue as data: ``owner -> [time, priority, seq, value]``.

    Fails loudly when the queue is not quiescent (a non-Tick entry) or
    when two ticks share an owner key (an owner-naming bug — replay
    could not tell them apart).
    """
    ticks: Dict[str, list] = {}
    for time, priority, seq, event in sim.queue_items():
        if type(event) is not Tick:
            raise CheckpointError(
                f"queue not quiescent: {type(event).__name__} at "
                f"t={time:.6f} (settle() first)")
        if event.owner in ticks:
            raise CheckpointError(
                f"duplicate tick owner {event.owner!r}")
        ticks[event.owner] = [time, priority, seq, event._value]
    return ticks


def capture_state(sim: Simulator, cluster, apps=None, obs=None,
                  meta: Optional[dict] = None) -> dict:
    """Capture the full stack into a validated plain tree.

    ``apps`` maps a stable key (``"<family>:<node>"``) to an
    application object with ``snapshot_token()``; ``obs`` is the live
    :class:`~repro.obs.registry.MetricsRegistry` (or None).
    """
    pious = getattr(cluster, "pious", None)
    tree = {
        "meta": dict(meta or {}),
        "clock": sim.clock_state(),
        "ticks": _snapshot_ticks(sim),
        "cluster": {
            "streams": cluster.streams.snapshot_state(),
            "network": cluster.network.snapshot_state(),
            "pvm": cluster.pvm.snapshot_state(),
            "pious": None if pious is None else pious.snapshot_state(),
            "nodes": [node.kernel.snapshot_state()
                      for node in cluster.nodes],
        },
        "apps": {key: app.snapshot_token()
                 for key, app in sorted((apps or {}).items())},
        "obs": None if obs is None else obs.snapshot_state(),
    }
    return validate_tree(tree)


def arm_tick_preloads(sim: Simulator, tree: dict) -> None:
    """Stage the snapshotted queue entries for replay-on-next-tick.

    Must run *before* the cluster is constructed: every daemon's first
    ``sim.tick(owner, ...)`` then re-enqueues its snapshotted entry
    (same wake time, priority, and sequence number) instead of drawing
    a fresh delay.
    """
    sim._tick_preloads = {
        owner: (float(entry[0]), int(entry[1]), int(entry[2]), entry[3])
        for owner, entry in tree["ticks"].items()}


def restore_cluster_state(cluster, tree: dict) -> None:
    """Put back every layer's captured state (pure; call before any
    event fires)."""
    sub = tree["cluster"]
    cluster.streams.restore_state(sub["streams"])
    cluster.network.restore_state(sub["network"])
    cluster.pvm.restore_state(sub["pvm"])
    if len(sub["nodes"]) != len(cluster.nodes):
        raise CheckpointError(
            f"checkpoint has {len(sub['nodes'])} nodes, cluster has "
            f"{len(cluster.nodes)}")
    for node, node_state in zip(cluster.nodes, sub["nodes"]):
        node.kernel.restore_state(node_state)
    if sub["pious"] is not None:
        if cluster.pious is None:
            cluster.make_pious()
        cluster.pious.restore_state(sub["pious"])


def verify_restored_queue(sim: Simulator, tree: dict) -> None:
    """Check queue == snapshot, then restore the sequence counter.

    Called after :meth:`Simulator.settle`.  Every preload must have
    been consumed (a daemon that never re-parked would silently change
    future orderings) and the queue keys must match the snapshot
    exactly.  Only then is ``_seq`` wound back to the captured value —
    reconstruction consumed sequence numbers of its own, all of them
    now out of the queue.
    """
    leftover = sorted(sim._tick_preloads)
    if leftover:
        raise CheckpointError(
            f"tick preloads never consumed (daemon did not re-park): "
            f"{leftover}")
    expected = {owner: (float(e[0]), int(e[1]), int(e[2]))
                for owner, e in tree["ticks"].items()}
    got = {event.owner: (time, priority, seq)
           for time, priority, seq, event in sim.queue_items()}
    if got != expected:
        missing = sorted(set(expected) - set(got))
        extra = sorted(set(got) - set(expected))
        moved = sorted(owner for owner in set(got) & set(expected)
                       if got[owner] != expected[owner])
        raise CheckpointError(
            f"restored queue mismatch: missing={missing} extra={extra} "
            f"moved={moved}")
    clock = tree["clock"]
    if sim.now != float(clock["now"]):
        raise CheckpointError(
            f"restored time drifted: now={sim.now!r} != "
            f"captured {clock['now']!r}")
    sim._seq = int(clock["seq"])
