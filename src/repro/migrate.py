"""The one place that knows how old a stored file is.

Two formats outlive their writer: the ``.ckpt`` checkpoint (versioned by
its envelope's u16) and the run manifest (the N in ``repro-run-vN``).
A shape change bumps that number here and adds one ordered
``if version < N:`` step, plus a fixture under ``tests/data/`` that must
load to a recorded value.  The load paths (``checkpoint.serialize.loads``
and ``RunCatalog.manifest``) run the chain; nothing downstream sees an
old shape.
"""

#: the checkpoint envelope version the writer stamps
CHECKPOINT = 3
#: the run-manifest version the writer stamps
MANIFEST = 3
MANIFEST_FORMAT = f"repro-run-v{MANIFEST}"

_MANIFEST_VERSIONS = {f"repro-run-v{n}": n for n in range(1, MANIFEST + 1)}


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
    data["format"] = MANIFEST_FORMAT
    return data
