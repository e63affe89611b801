"""Declarative configuration of the simulated platform.

``repro.config`` turns every construction-time choice the stack makes
into data: a :class:`Scenario` describes the cluster, node hardware,
disk stack (scheduler / drive cache by name), driver
transport, workload mix, and experiment protocol, round-trips through
TOML and JSON, and validates with errors that name the exact offending
path.  ``repro.config.sweep`` expands grid specs over a base scenario
and fans the runs out in parallel for side-by-side comparison.
"""

from repro.config.scenario import (
    ClusterConfig,
    ConfigError,
    DiskConfig,
    DriveCacheConfig,
    DriverConfig,
    ExperimentConfig,
    LayoutConfig,
    NetworkConfig,
    NodeConfig,
    Scenario,
    SchedulerConfig,
    VMConfig,
    VolumeConfig,
    WorkloadConfig,
)
from repro.config.sweep import (
    GRID_ALIASES,
    SweepAxis,
    SweepPoint,
    SweepResult,
    expand_grid,
    parse_axis_spec,
    render_sweep_table,
    run_sweep,
    sweep_to_json,
)

__all__ = [
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
]
