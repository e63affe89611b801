"""repro — reproduction of Berry & El-Ghazawi (IPPS 1996).

"An Experimental Study of Input/Output Characteristics of NASA Earth and
Space Sciences Applications": a driver-level I/O workload characterization
of the 16-node Beowulf prototype at NASA Goddard, rebuilt end to end as a
discrete-event simulation.

Subpackages (bottom-up):

* :mod:`repro.config` — declarative :class:`~repro.config.Scenario`
  tree configuring the whole stack, component registries, grid sweeps;
* :mod:`repro.sim` — discrete-event engine;
* :mod:`repro.disk` — disk geometry / mechanics / scheduling / cache;
* :mod:`repro.driver` — the instrumented IDE driver (the measurement
  apparatus);
* :mod:`repro.kernel` — the Linux-like substrate (buffer cache, paging,
  read-ahead, filesystem, daemons);
* :mod:`repro.cluster` — Ethernet, PVM, the Beowulf builder, PIOUS;
* :mod:`repro.apps` — the PPM / wavelet / N-body workload models and
  their real compute kernels;
* :mod:`repro.core` — the characterization study itself (experiments,
  figures, Table 1, locality, claims);
* :mod:`repro.synth` — the fitted workload parameter set and what-if
  replay;
* :mod:`repro.viz` — ASCII / SVG rendering.

Start with ``repro.core.ExperimentRunner`` or ``examples/quickstart.py``.
"""

__version__ = "1.1.0"

#: the top-level package deliberately exports nothing but its version —
#: every public symbol lives in a subpackage (``repro.core``,
#: ``repro.config``, ``repro.store``, ...); tests/test_public_api.py
#: snapshots this so the surface only changes on purpose
__all__ = ["__version__"]
