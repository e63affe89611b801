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
    "repro.sim": [
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
    ],
    "repro.checkpoint": [
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
    "repro.apps": [
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
    ],
    "repro.apps.kernels": [
        "BarnesHutTree",
        "PPMState",
        "advect_step",
        "direct_forces",
        "haar2d",
        "haar2d_inverse",
        "haar_level",
        "ppm_reconstruct",
        "tree_forces",
    ],
    "repro.cluster": [
        "BeowulfCluster",
        "ClusterNode",
        "EthernetNetwork",
        "Mailbox",
        "Message",
        "PIOUS",
        "PVM",
        "PiousFileHandle",
    ],
    "repro.core": [
        "EXPERIMENTS",
        "ExperimentResult",
        "ExperimentRunner",
        "FigureSeries",
        "RequestClass",
        "SpatialLocality",
        "TemporalLocality",
        "TraceDataset",
        "WorkloadMetrics",
        "arrival_structure",
        "characterize",
        "classify_sizes",
        "compute_metrics",
        "direction_runs",
        "full_report",
        "make_figure",
        "miller_katz_classes",
        "render_table1",
        "sequentiality",
        "size_histogram",
        "size_time_series",
        "spatial_locality",
        "table1_rows",
        "temporal_locality",
    ],
    "repro.disk": [
        "CLookScheduler",
        "ConcatVolume",
        "DRIVE_CACHES",
        "Disk",
        "DiskGeometry",
        "DiskServiceModel",
        "DiskStats",
        "DriveCache",
        "FIFOScheduler",
        "IORequest",
        "LogicalVolume",
        "NullDriveCache",
        "Raid0Volume",
        "Raid1Volume",
        "SCHEDULERS",
        "SECTOR_BYTES",
        "SSTFScheduler",
        "ScanScheduler",
        "SingleVolume",
        "VOLUME_POLICIES",
        "ZBRGeometry",
    ],
    "repro.driver": [
        "HDIO_GET_TRACE",
        "HDIO_SET_TRACE",
        "InstrumentedIDEDriver",
        "ProcTraceTransport",
        "TRACE_DTYPE",
        "TraceBuffer",
        "TraceLevel",
        "TraceRecord",
    ],
    "repro.obs": [
        "Counter",
        "Gauge",
        "Histogram",
        "MetricsRegistry",
        "ObsRecorder",
        "Span",
        "UNDERFLOW",
        "bucket_edge",
        "bucket_of",
        "compare_snapshots",
        "flatten_snapshot",
        "render_snapshot_table",
    ],
    "repro.store": [
        "ChunkMeta",
        "DEFAULT_CHUNK_RECORDS",
        "DEFAULT_COMPRESSION",
        "RunCapture",
        "RunCatalog",
        "StoreFormatError",
        "TracePredicate",
        "TraceReader",
        "TraceWriter",
        "read_trace",
        "write_trace",
    ],
    "repro.synth": [
        "PhasedWorkloadModel",
        "ReplayReport",
        "WorkloadModel",
        "fit_phased_model",
        "fit_workload_model",
        "replay_trace",
    ],
    "repro.viz": [
        "bar_chart",
        "scatter",
        "svg_bar_chart",
        "svg_scatter",
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


def test_runner_keywords():
    # every other setting is a Scenario field; the runner mirrors none
    import inspect
    from repro.config import Scenario
    from repro.core import ExperimentRunner
    params = inspect.signature(ExperimentRunner.__init__).parameters
    assert list(params) == ["self", "nnodes", "seed", "sink", "obs",
                            "scenario"]
    assert ExperimentRunner().scenario.cluster.nnodes == \
        Scenario().cluster.nnodes


def test_runner_shims_are_gone():
    from repro.core import ExperimentRunner
    for name in ("run_baseline", "run_single", "run_combined",
                 "run_serial"):
        assert name not in ExperimentRunner.__dict__
        assert name not in dir(ExperimentRunner)
