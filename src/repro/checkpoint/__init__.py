"""Checkpoint/restore for the whole simulated stack.

The protocol has three pieces:

* a uniform per-layer state surface — every stateful component
  (simulator clock + queue, RNG streams, kernel subsystems, disk stack,
  cluster services, applications) exposes ``snapshot_state()`` /
  ``restore_state(state)`` over *plain trees*;
* quiescence — :meth:`Simulator.settle` plus the
  :class:`CheckpointCoordinator`'s hold protocol bring the system to a
  point where the event queue is pure data (owner-tagged ticks) and
  every process is parked;
* the ``.ckpt`` envelope — a compressed, checksummed, atomically
  written file (:func:`save_checkpoint` / :func:`load_checkpoint`).

``ExperimentRunner.run(..., checkpoint_every=..., checkpoint=...)``
wires it end to end; a run whose checkpoint file exists resumes from it
and continues **bit-identically** to the uninterrupted one (same trace
records, same metrics, same obs counters).
"""

from repro.checkpoint.coordinator import CheckpointCoordinator
from repro.checkpoint.serialize import (CheckpointError, FORMAT_VERSION,
                                        MAGIC, dumps, load_checkpoint,
                                        loads, save_checkpoint, tree_equal,
                                        validate_tree)
from repro.checkpoint.state import (arm_tick_preloads, capture_state,
                                    restore_cluster_state,
                                    verify_restored_queue)

__all__ = [
    "CheckpointCoordinator",
    "CheckpointError",
    "FORMAT_VERSION",
    "MAGIC",
    "arm_tick_preloads",
    "capture_state",
    "dumps",
    "load_checkpoint",
    "loads",
    "restore_cluster_state",
    "save_checkpoint",
    "tree_equal",
    "validate_tree",
    "verify_restored_queue",
]
