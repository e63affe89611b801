"""Snapshot of the public API surface.

Each package's ``__all__`` is pinned verbatim: adding, renaming, or
removing a public symbol must update this file in the same change, which
is the point — the surface only moves on purpose.  (This is the test
that catches an accidental re-export, a forgotten removal, or a helper
leaking out of a refactor.)
"""

import importlib

import pytest

PUBLIC_API = {
    "repro": ["__version__"],
    "repro.serve": [
        "ACTIVE_STATES",
        "AnalysisAnswer",
        "ApiError",
        "AuthError",
        "DEFAULT_CATALOG",
        "DependencyCycle",
        "EventLog",
        "ExperimentService",
        "Job",
        "JobError",
        "JobNotFound",
        "JobStore",
        "QuotaExceeded",
        "STATES",
        "ServeClient",
        "ServeError",
        "TERMINAL_STATES",
        "Tenant",
        "Tenants",
        "WorkerPool",
        "catalog_root",
        "execute_job",
        "render_jobs_table",
    ],
    "repro.config": [
        "ClusterConfig",
        "ConfigError",
        "DiskConfig",
        "DriveCacheConfig",
        "DriverConfig",
        "ExperimentConfig",
        "GRID_ALIASES",
        "LayoutConfig",
        "NetworkConfig",
        "NodeConfig",
        "PiousConfig",
        "Scenario",
        "SchedulerConfig",
        "SweepAxis",
        "SweepPoint",
        "SweepResult",
        "VMConfig",
        "VolumeConfig",
        "WorkloadConfig",
        "expand_grid",
        "parse_axis_spec",
        "render_sweep_table",
        "run_sweep",
        "sweep_to_json",
    ],
    "repro.kernel": [
        "AddressSpace",
        "BufferCache",
        "CPU",
        "FileHandle",
        "FileSystem",
        "Inode",
        "NodeKernel",
        "ReadAheadState",
        "SysLogger",
        "UpdateDaemon",
        "VirtualMemory",
    ],
    "repro.analysis": [
        "Accumulator",
        "AnalysisEngine",
        "ArrivalPipeline",
        "BandCounts",
        "BinnedCounts",
        "Count",
        "DEFAULT_PIPELINES",
        "FileInfo",
        "GapStats",
        "HotSectors",
        "HotSectorsPipeline",
        "Log2Histogram",
        "MeanVar",
        "MetricsPipeline",
        "MinMax",
        "PIPELINES",
        "Pipeline",
        "ReservoirSample",
        "RunContext",
        "SizeDistribution",
        "SizeHistogramPipeline",
        "SpatialLocalityPipeline",
        "Sum",
        "TopK",
        "ValueCounts",
        "make_pipelines",
        "merged_time_blocks",
        "run_signature",
        "scan_file",
    ],
}


@pytest.mark.parametrize("package", sorted(PUBLIC_API))
def test_all_matches_snapshot(package):
    module = importlib.import_module(package)
    assert sorted(module.__all__) == sorted(PUBLIC_API[package]), \
        f"{package}.__all__ drifted from the snapshot"
    # and every promised name actually resolves
    for name in module.__all__:
        assert hasattr(module, name), f"{package}.{name} missing"


def test_serve_exports_typed_errors():
    import repro.serve as serve
    for name in ("ServeError", "JobNotFound", "AuthError",
                 "QuotaExceeded", "DependencyCycle"):
        assert name in serve.__all__
        assert issubclass(getattr(serve, name), serve.ServeError)


def test_runner_shims_are_gone():
    from repro.core import ExperimentRunner
    for name in ("run_baseline", "run_single", "run_combined",
                 "run_serial"):
        assert name not in ExperimentRunner.__dict__
        assert name not in dir(ExperimentRunner)
