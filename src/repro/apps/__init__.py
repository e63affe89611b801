"""Workload models of the three NASA ESS applications (plus baseline).

Each model is a simulation process that reproduces its application's I/O
*phase structure* as described in the paper — program demand-load, input
reads, working-set growth and maintenance paging, periodic statistics
appends, and final output — while charging compute time derived from the
real algorithms' operation counts (see :mod:`repro.apps.kernels`).
"""

from typing import NamedTuple, Type

from repro.apps.base import AppStats, ESSApplication
from repro.apps.ppm import PPMApplication, PPMParams
from repro.apps.wavelet import WaveletApplication, WaveletParams
from repro.apps.nbody import NBodyApplication, NBodyParams


class WorkloadEntry(NamedTuple):
    """One application workload: model class + params class."""

    app_cls: Type[ESSApplication]
    params_cls: type


#: application workloads, selected by name in scenario workload mixes;
#: add one as ``WORKLOADS["myapp"] = WorkloadEntry(MyApp, MyParams)``
WORKLOADS = {
    "nbody": WorkloadEntry(NBodyApplication, NBodyParams),
    "ppm": WorkloadEntry(PPMApplication, PPMParams),
    "wavelet": WorkloadEntry(WaveletApplication, WaveletParams),
}

__all__ = [
    "AppStats",
    "ESSApplication",
    "NBodyApplication",
    "NBodyParams",
    "PPMApplication",
    "PPMParams",
    "WORKLOADS",
    "WaveletApplication",
    "WaveletParams",
    "WorkloadEntry",
]
