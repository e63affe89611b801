"""Discrete-event simulation core.

A small, dependency-free process-based DES engine in the style of SimPy:
generator functions are *processes* that ``yield`` events and are resumed
when those events fire.  Every other subsystem in :mod:`repro` — disks,
the kernel substrate, the cluster, and the application workload models —
is built on this engine, and uses only what is exported here:

* :class:`Simulator` — simulated time and the event queue: ``timeout``,
  owner-tagged daemon sleeps (``tick``), plain events (``event``),
  ``all_of``, ``process``, ``run`` and ``settle`` (fire to a tick-only
  queue, the checkpoint's quiescence point);
* :class:`Resource` — counted units with a FIFO wait queue (the
  Ethernet segments);
* :class:`RandomStreams` — named, order-independent RNG streams.

An uncaught exception in a process leaves :meth:`Simulator.run`.

Quick example::

    from repro.sim import Simulator

    sim = Simulator()

    def worker(sim, name):
        yield sim.timeout(1.0)
        print(name, "done at", sim.now)

    sim.process(worker(sim, "a"))
    sim.run()
"""

from repro.sim.core import (
    Event,
    Process,
    SimulationError,
    Simulator,
    Tick,
    Timeout,
)
from repro.sim.conditions import AllOf
from repro.sim.resources import Resource
from repro.sim.rng import (BatchedDraws, RandomStreams,
                           uniform_index_drawer)

__all__ = [
    "AllOf",
    "BatchedDraws",
    "Event",
    "Process",
    "RandomStreams",
    "Resource",
    "SimulationError",
    "Simulator",
    "Tick",
    "Timeout",
    "uniform_index_drawer",
]
