"""The one place that knows how old a stored file is.

Two formats outlive their writer: the ``.ckpt`` checkpoint (versioned by
its envelope's u16) and the run manifest (the N in ``repro-run-vN``),
the one stored form of a finished result.  A shape change bumps that
number here and adds one ordered ``if version < N:`` step, plus a
fixture under ``tests/data/`` that must load to a recorded value.  The
load paths (``checkpoint.serialize.loads`` and ``RunCatalog.manifest``)
run the chain; nothing downstream sees an old shape.

A sweep's ``.done.json`` markers are not migrated.  They are named by a
digest of the whole run (``repro.config.sweep.run_key``), so a marker
written under another naming is never found and its run re-runs.
"""

#: the checkpoint envelope version the writer stamps
CHECKPOINT = 5
#: the run-manifest version the writer stamps
MANIFEST = 5
MANIFEST_FORMAT = f"repro-run-v{MANIFEST}"

_MANIFEST_VERSIONS = {f"repro-run-v{n}": n for n in range(1, MANIFEST + 1)}


def _drop_l1_cache(scenario: dict) -> None:
    """Drop ``node.l1_cache_kb``, a knob no layer read, from a stored
    scenario and its per-node overrides (an emptied override goes too)."""
    scenario.get("node", {}).pop("l1_cache_kb", None)
    overrides = scenario.get("node_overrides", {})
    for node_id in list(overrides):
        overrides[node_id].pop("l1_cache_kb", None)
        if not overrides[node_id]:
            del overrides[node_id]


def checkpoint(tree: dict, version: int) -> dict:
    """Bring a tree from a v``version`` envelope (range already checked)
    to the current shape, in place."""
    if version < 2:
        # v1 files name their format, the clock its retired event queue
        # and the scenario an [engine] table; before the klog chatter
        # was replayed, each node parked a <node>:chatter tick whose time
        # is the next message's, scheduled at the capture instant
        del tree["format"]
        tree["clock"].pop("queue_kind", None)
        tree["meta"]["scenario"].pop("engine", None)
        ticks = tree["ticks"]
        for owner in [o for o in ticks if o.endswith(":chatter")]:
            node = int(owner[len("node"):-len(":chatter")])
            housekeeping = tree["cluster"]["nodes"][node]["housekeeping"]
            housekeeping["next_message"] = float(ticks.pop(owner)[0])
            housekeeping["message_scheduled"] = float(tree["clock"]["now"])
    if version < 3:
        # v2 disks carried the submit counter their server process
        # checked claimed runs against; the replayed disk has neither
        for node in tree.get("cluster", {}).get("nodes", ()):
            for disk in node["disks"]:
                disk.pop("epoch", None)
    if version < 4:
        _drop_l1_cache(tree["meta"]["scenario"])
    if version < 5:
        # v4 and older disks carried a reservoir sample of request
        # latencies that nothing read
        for node in tree.get("cluster", {}).get("nodes", ()):
            for disk in node["disks"]:
                disk["stats"].pop("latencies", None)
    return tree


def manifest(data: dict) -> dict:
    """Bring a parsed run manifest to the current shape, in place;
    ``ValueError`` if it is not a ``repro-run-v1..vN`` manifest."""
    version = _MANIFEST_VERSIONS.get(data.get("format"))
    if version is None:
        raise ValueError(f"not a repro-run-v1..v{MANIFEST} manifest")
    metrics = data.get("metrics")
    if version < 2 and metrics is not None:
        # v1 summaries predate the fractions and the node count
        for name in ("read", "write"):
            if f"{name}_fraction" not in metrics and f"{name}_pct" in metrics:
                metrics[f"{name}_fraction"] = metrics[f"{name}_pct"] / 100.0
        metrics.setdefault("nnodes", data["nnodes"])
    if version < 3 and data.get("scenario") is not None:
        data["scenario"].pop("engine", None)
    if version < 4:
        # v3 and older carried a "config" block: a third copy of nnodes
        # and a second copy of four scenario fields
        data.pop("config", None)
    if version < 5 and data.get("scenario") is not None:
        _drop_l1_cache(data["scenario"])
    data["format"] = MANIFEST_FORMAT
    return data
