"""Discrete-event simulation core.

A small, dependency-free process-based DES engine in the style of SimPy:
generator functions are *processes* that ``yield`` events (timeouts, resource
requests, other processes) and are resumed when those events fire.  Every
other subsystem in :mod:`repro` — disks, the kernel substrate, the cluster,
and the application workload models — is built on this engine.

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
    Interrupt,
    Process,
    SimulationError,
    Simulator,
    Tick,
    Timeout,
)
from repro.sim.conditions import AllOf, AnyOf
from repro.sim.resources import Resource, Store
from repro.sim.rng import (BatchedDraws, RandomStreams,
                           uniform_index_drawer)

__all__ = [
    "AllOf",
    "AnyOf",
    "BatchedDraws",
    "Event",
    "Interrupt",
    "Process",
    "RandomStreams",
    "Resource",
    "SimulationError",
    "Simulator",
    "Store",
    "Tick",
    "uniform_index_drawer",
    "Timeout",
]
