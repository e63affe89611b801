"""The declarative scenario tree: one object describing a whole stack.

A :class:`Scenario` captures every construction-time choice the
simulated platform makes — cluster size, node hardware and kernel
tunables, disk geometry, queue discipline, on-drive cache, driver
transport, workload mix, and experiment durations — as a frozen
dataclass tree that round-trips through TOML and JSON, validates with
precise error paths (``scenario.node.disk.scheduler.kind: unknown disk
scheduler 'foo'``), and resolves swappable components through the
plugin registries (:data:`repro.disk.SCHEDULERS`,
:data:`repro.disk.DRIVE_CACHES`, :data:`repro.apps.WORKLOADS`).

The default ``Scenario()`` is exactly the paper's machine: 16 nodes of
486DX4-100 class hardware, 500 MB IDE disks behind a C-LOOK elevator
with a 4x64-sector look-ahead segment cache, and the PPM / wavelet /
N-body workload mix.  Everything the experiments previously hard-coded
is a field here instead.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import re
from dataclasses import dataclass, field, fields, is_dataclass, replace
from pathlib import Path
from typing import Any, Dict, Mapping, Optional, Sequence, Tuple, Union
from typing import get_args, get_origin, get_type_hints

from repro.disk import (DRIVE_CACHES, SCHEDULERS, SECTOR_BYTES,
                        DiskGeometry, NullDriveCache, VOLUME_POLICIES)
from repro.disk.volume import capacity_sectors
from repro.kernel.params import DiskLayout, NodeParams
from repro.registry import UnknownComponentError


class ConfigError(ValueError):
    """A scenario field failed to parse or validate.

    ``path`` names the exact offending field, dot-separated from the
    scenario root (e.g. ``scenario.node.disk.cache.nsegments``).
    """

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}")


# -- generic dict <-> dataclass plumbing --------------------------------------
def _convert(value: Any, typ: Any, path: str) -> Any:
    """Coerce one raw value (from TOML/JSON/CLI) to a field's type."""
    if is_dataclass(typ):
        return _from_dict(typ, value, path)
    origin = get_origin(typ)
    if origin is tuple:                       # Tuple[str, ...] — the mix
        if isinstance(value, str):
            value = [part for part in value.split(",") if part]
        if not isinstance(value, (list, tuple)):
            raise ConfigError(path, f"expected a list of strings, got "
                                    f"{type(value).__name__}")
        item_type = (get_args(typ) or (str,))[0]
        return tuple(_convert(v, item_type, f"{path}[{i}]")
                     for i, v in enumerate(value))
    if origin is dict:                        # per-app params overrides
        if not isinstance(value, Mapping):
            raise ConfigError(path, f"expected a table/object, got "
                                    f"{type(value).__name__}")
        return {str(k): dict(v) if isinstance(v, Mapping) else v
                for k, v in value.items()}
    if typ is bool:
        if isinstance(value, bool):
            return value
        if isinstance(value, str) and value.lower() in ("true", "false"):
            return value.lower() == "true"
        raise ConfigError(path, f"expected a boolean, got {value!r}")
    if typ is int:
        if isinstance(value, bool) or not isinstance(value, (int, str)):
            raise ConfigError(path, f"expected an integer, got {value!r}")
        try:
            return int(value)
        except ValueError:
            raise ConfigError(path,
                              f"expected an integer, got {value!r}") from None
    if typ is float:
        if isinstance(value, bool) or \
                not isinstance(value, (int, float, str)):
            raise ConfigError(path, f"expected a number, got {value!r}")
        try:
            return float(value)
        except ValueError:
            raise ConfigError(path,
                              f"expected a number, got {value!r}") from None
    if typ is str:
        if not isinstance(value, str):
            raise ConfigError(path, f"expected a string, got {value!r}")
        return value
    raise ConfigError(path, f"unsupported field type {typ!r}")


def _from_dict(cls, data: Any, path: str):
    """Build dataclass ``cls`` from a mapping, rejecting unknown keys."""
    if isinstance(data, cls):
        return data
    if not isinstance(data, Mapping):
        raise ConfigError(path, f"expected a table/object, got "
                                f"{type(data).__name__}")
    normalize = getattr(cls, "_normalize_config_dict", None)
    if normalize is not None:
        data = normalize(data, path)
    hints = get_type_hints(cls)
    known = {f.name for f in fields(cls)}
    for key in data:
        if key not in known:
            raise ConfigError(f"{path}.{key}",
                              f"unknown field; valid fields: "
                              f"{sorted(known)}")
    kwargs = {name: _convert(data[name], hints[name], f"{path}.{name}")
              for name in known if name in data}
    return cls(**kwargs)


def _to_dict(obj) -> Any:
    if is_dataclass(obj):
        return {f.name: _to_dict(getattr(obj, f.name))
                for f in fields(obj)}
    if isinstance(obj, tuple):
        return [_to_dict(v) for v in obj]
    if isinstance(obj, dict):
        return {k: _to_dict(v) for k, v in obj.items()}
    return obj


def _check(condition: bool, path: str, message: str) -> None:
    if not condition:
        raise ConfigError(path, message)


# -- the tree -----------------------------------------------------------------
@dataclass(frozen=True)
class SchedulerConfig:
    """Which request-queue discipline the disk drains (by registry name)."""

    kind: str = "clook"

    def validate(self, path: str) -> None:
        if self.kind not in SCHEDULERS:
            raise ConfigError(f"{path}.kind",
                              str(UnknownComponentError(
                                  SCHEDULERS.kind, self.kind,
                                  SCHEDULERS.names())))

    def build(self):
        return SCHEDULERS.create(self.kind)


@dataclass(frozen=True)
class DriveCacheConfig:
    """On-drive segment buffer geometry (by registry kind).

    ``nsegments = 0`` with the default ``segmented`` kind resolves to
    the registered ``none`` cache — so a sweep axis over segment counts
    naturally includes the cacheless baseline.
    """

    kind: str = "segmented"
    nsegments: int = 4
    segment_sectors: int = 64
    lookahead_sectors: int = 32

    def validate(self, path: str) -> None:
        if self.kind not in DRIVE_CACHES:
            raise ConfigError(f"{path}.kind",
                              str(UnknownComponentError(
                                  DRIVE_CACHES.kind, self.kind,
                                  DRIVE_CACHES.names())))
        _check(self.nsegments >= 0, f"{path}.nsegments",
               f"must be >= 0, got {self.nsegments}")
        _check(self.segment_sectors >= 1, f"{path}.segment_sectors",
               f"must be >= 1, got {self.segment_sectors}")
        _check(self.lookahead_sectors >= 0, f"{path}.lookahead_sectors",
               f"must be >= 0, got {self.lookahead_sectors}")

    def build(self):
        if self.kind == "segmented" and self.nsegments == 0:
            return NullDriveCache()
        return DRIVE_CACHES.create(
            self.kind, nsegments=self.nsegments,
            segment_sectors=self.segment_sectors,
            lookahead_sectors=self.lookahead_sectors)


@dataclass(frozen=True)
class DiskConfig:
    """One node's disk: capacity, servicing discipline, drive cache."""

    capacity_mb: int = 500
    media_error_rate: float = 0.0
    scheduler: SchedulerConfig = field(default_factory=SchedulerConfig)
    cache: DriveCacheConfig = field(default_factory=DriveCacheConfig)

    def validate(self, path: str) -> None:
        _check(self.capacity_mb >= 1, f"{path}.capacity_mb",
               f"must be >= 1, got {self.capacity_mb}")
        _check(0.0 <= self.media_error_rate < 1.0,
               f"{path}.media_error_rate",
               f"must be in [0, 1), got {self.media_error_rate}")
        self.scheduler.validate(f"{path}.scheduler")
        self.cache.validate(f"{path}.cache")

    def build_scheduler(self):
        return self.scheduler.build()

    def build_cache(self):
        return self.cache.build()


@dataclass(frozen=True)
class VolumeConfig:
    """How a node's member disks combine into one logical block device.

    ``policy`` names an entry of :data:`repro.disk.VOLUME_POLICIES`
    (``single`` / ``concat`` / ``raid0`` / ``raid1``); ``stripe_kb`` is
    the striping unit used by policies that stripe.
    """

    policy: str = "single"
    stripe_kb: int = 8

    def validate(self, path: str, ndisks: int = 1) -> None:
        if self.policy not in VOLUME_POLICIES:
            raise ConfigError(f"{path}.policy",
                              str(UnknownComponentError(
                                  VOLUME_POLICIES.kind, self.policy,
                                  VOLUME_POLICIES.names())))
        _check(self.stripe_kb >= 1, f"{path}.stripe_kb",
               f"must be >= 1, got {self.stripe_kb}")
        if self.policy == "single":
            _check(ndisks == 1, f"{path}.policy",
                   f"'single' takes exactly one disk, got {ndisks} "
                   f"(use concat/raid0/raid1 for multi-disk nodes)")

    @property
    def stripe_sectors(self) -> int:
        return self.stripe_kb * 1024 // SECTOR_BYTES

    def build(self, disks, name: str = "md0"):
        """The logical volume over already-built member ``disks``."""
        return VOLUME_POLICIES.create(
            self.policy, disks, stripe_sectors=self.stripe_sectors,
            name=name)


@dataclass(frozen=True)
class DriverConfig:
    """The instrumented driver's /proc trace transport."""

    ring_capacity: int = 4096
    drain_interval: float = 1.0

    def validate(self, path: str) -> None:
        _check(self.ring_capacity >= 1, f"{path}.ring_capacity",
               f"must be >= 1, got {self.ring_capacity}")
        _check(self.drain_interval > 0, f"{path}.drain_interval",
               f"must be > 0, got {self.drain_interval}")


@dataclass(frozen=True)
class VMConfig:
    """Memory geometry: RAM, kernel residency, page size."""

    ram_mb: int = 16
    kernel_resident_mb: int = 5
    page_kb: int = 4

    def validate(self, path: str) -> None:
        _check(self.ram_mb >= 1, f"{path}.ram_mb",
               f"must be >= 1, got {self.ram_mb}")
        _check(self.kernel_resident_mb >= 0, f"{path}.kernel_resident_mb",
               f"must be >= 0, got {self.kernel_resident_mb}")
        _check(self.kernel_resident_mb < self.ram_mb,
               f"{path}.kernel_resident_mb",
               f"kernel ({self.kernel_resident_mb} MB) must fit below "
               f"RAM ({self.ram_mb} MB)")
        _check(self.page_kb >= 1, f"{path}.page_kb",
               f"must be >= 1, got {self.page_kb}")


@dataclass(frozen=True)
class LayoutConfig:
    """Filesystem zone placement (sectors) — mirrors ``DiskLayout``."""

    metadata_start: int = 0
    metadata_sectors: int = 4096
    log_start: int = 44_000
    log_sectors: int = 8192
    binary_start: int = 16_000
    binary_sectors: int = 24_000
    data_start: int = 96_000
    data_sectors: int = 120_000
    swap_start: int = 240_000
    swap_sectors: int = 131_072
    highlog_start: int = 1_000_000
    highlog_sectors: int = 16_384

    def validate(self, path: str) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            _check(value >= 0, f"{path}.{f.name}",
                   f"must be >= 0, got {value}")

    def to_disk_layout(self) -> DiskLayout:
        return DiskLayout(**{f.name: getattr(self, f.name)
                             for f in fields(self)})

    @classmethod
    def from_disk_layout(cls, layout: DiskLayout) -> "LayoutConfig":
        return cls(**{f.name: getattr(layout, f.name)
                      for f in fields(cls)})


@dataclass(frozen=True)
class NodeConfig:
    """One node's hardware and kernel tunables, plus its subsystems."""

    block_kb: int = 1
    l1_cache_kb: int = 16
    cpu_speed: float = 1.0
    timeslice: float = 0.05
    buffer_cache_kb: int = 2048
    bdflush_interval: float = 5.0
    bdflush_age: float = 5.0
    writeback_cluster_blocks: int = 2
    max_readahead_kb: int = 16
    update_interval: float = 30.0
    atime_updates: bool = False
    vm: VMConfig = field(default_factory=VMConfig)
    disks: Tuple[DiskConfig, ...] = field(
        default_factory=lambda: (DiskConfig(),))
    volume: VolumeConfig = field(default_factory=VolumeConfig)
    driver: DriverConfig = field(default_factory=DriverConfig)
    layout: LayoutConfig = field(default_factory=LayoutConfig)

    #: override-path aliases: ``node.disk.X`` edits ``node.disks[0].X``
    _FIELD_ALIASES = {"disk": ("disks", 0)}

    @staticmethod
    def _normalize_config_dict(data: Mapping, path: str) -> Mapping:
        """Accept the pre-multi-disk ``disk`` key as a one-element list."""
        if "disk" in data:
            if "disks" in data:
                raise ConfigError(f"{path}.disk",
                                  "give either 'disk' or 'disks', not both")
            data = dict(data)
            data["disks"] = (data.pop("disk"),)
        return data

    @property
    def disk(self) -> DiskConfig:
        """The first member disk (the whole stack under ``single``)."""
        return self.disks[0]

    def validate(self, path: str) -> None:
        _check(self.block_kb >= 1, f"{path}.block_kb",
               f"must be >= 1, got {self.block_kb}")
        _check(self.buffer_cache_kb >= self.block_kb,
               f"{path}.buffer_cache_kb",
               f"must hold at least one block, got {self.buffer_cache_kb}")
        _check(self.cpu_speed > 0, f"{path}.cpu_speed",
               f"must be > 0, got {self.cpu_speed}")
        _check(self.timeslice > 0, f"{path}.timeslice",
               f"must be > 0, got {self.timeslice}")
        _check(self.bdflush_interval > 0, f"{path}.bdflush_interval",
               f"must be > 0, got {self.bdflush_interval}")
        _check(self.bdflush_age >= 0, f"{path}.bdflush_age",
               f"must be >= 0, got {self.bdflush_age}")
        _check(self.writeback_cluster_blocks >= 1,
               f"{path}.writeback_cluster_blocks",
               f"must be >= 1, got {self.writeback_cluster_blocks}")
        _check(self.max_readahead_kb >= self.block_kb,
               f"{path}.max_readahead_kb",
               f"read-ahead window ({self.max_readahead_kb} KB) smaller "
               f"than a block ({self.block_kb} KB)")
        _check(self.update_interval > 0, f"{path}.update_interval",
               f"must be > 0, got {self.update_interval}")
        self.vm.validate(f"{path}.vm")
        _check(self.vm.page_kb % self.block_kb == 0, f"{path}.vm.page_kb",
               f"page size ({self.vm.page_kb} KB) must be a multiple of "
               f"the block size ({self.block_kb} KB)")
        _check(len(self.disks) >= 1, f"{path}.disks",
               "node needs at least one disk")
        for i, disk in enumerate(self.disks):
            disk.validate(f"{path}.disks[{i}]")
        self.volume.validate(f"{path}.volume", ndisks=len(self.disks))
        self.driver.validate(f"{path}.driver")
        self.layout.validate(f"{path}.layout")

    def logical_capacity_mb(self) -> int:
        """Capacity of the node's logical volume over its members."""
        sizes = [DiskGeometry.from_capacity_mb(d.capacity_mb).total_sectors
                 for d in self.disks]
        sectors = capacity_sectors(self.volume.policy, sizes,
                                   self.volume.stripe_sectors)
        return (sectors * SECTOR_BYTES) // (1024 * 1024)

    def to_node_params(self) -> NodeParams:
        """The kernel-facing parameter object this node resolves to."""
        return NodeParams(
            ram_mb=self.vm.ram_mb,
            kernel_resident_mb=self.vm.kernel_resident_mb,
            block_kb=self.block_kb,
            page_kb=self.vm.page_kb,
            l1_cache_kb=self.l1_cache_kb,
            disk_mb=self.logical_capacity_mb(),
            cpu_speed=self.cpu_speed,
            timeslice=self.timeslice,
            buffer_cache_kb=self.buffer_cache_kb,
            bdflush_interval=self.bdflush_interval,
            bdflush_age=self.bdflush_age,
            writeback_cluster_blocks=self.writeback_cluster_blocks,
            max_readahead_kb=self.max_readahead_kb,
            update_interval=self.update_interval,
            atime_updates=self.atime_updates,
            disk_layout=self.layout.to_disk_layout(),
        )

    @classmethod
    def from_node_params(cls, params: NodeParams) -> "NodeConfig":
        """Lift a legacy ``NodeParams`` into the config tree.

        The disk stack keeps the historical defaults (C-LOOK, 4x64
        segment cache, 1 s drain) — exactly what the pre-scenario code
        hard-wired around a ``NodeParams``.
        """
        return cls(
            block_kb=params.block_kb,
            l1_cache_kb=params.l1_cache_kb,
            cpu_speed=params.cpu_speed,
            timeslice=params.timeslice,
            buffer_cache_kb=params.buffer_cache_kb,
            bdflush_interval=params.bdflush_interval,
            bdflush_age=params.bdflush_age,
            writeback_cluster_blocks=params.writeback_cluster_blocks,
            max_readahead_kb=params.max_readahead_kb,
            update_interval=params.update_interval,
            atime_updates=params.atime_updates,
            vm=VMConfig(ram_mb=params.ram_mb,
                        kernel_resident_mb=params.kernel_resident_mb,
                        page_kb=params.page_kb),
            disks=(DiskConfig(capacity_mb=params.disk_mb),),
            layout=LayoutConfig.from_disk_layout(params.disk_layout),
        )


@dataclass(frozen=True)
class NetworkConfig:
    """The bonded Ethernet fabric (defaults: the prototype's dual
    10 Mb/s segments with 0.3 ms per-message latency and a 1500-byte
    MTU)."""

    channels: int = 2
    bandwidth_bps: float = 10e6
    latency: float = 0.3e-3
    mtu: int = 1500

    def validate(self, path: str) -> None:
        _check(self.channels >= 1, f"{path}.channels",
               f"need at least one channel, got {self.channels}")
        _check(self.bandwidth_bps > 0, f"{path}.bandwidth_bps",
               f"must be > 0, got {self.bandwidth_bps}")
        _check(self.latency >= 0, f"{path}.latency",
               f"must be >= 0, got {self.latency}")
        _check(self.mtu >= 1, f"{path}.mtu",
               f"must be >= 1, got {self.mtu}")

    def build(self, sim, rng=None, obs=None):
        from repro.cluster.network import EthernetNetwork
        return EthernetNetwork(sim, bandwidth_bps=self.bandwidth_bps,
                               latency=self.latency,
                               channels=self.channels, mtu=self.mtu,
                               rng=rng, obs=obs)


@dataclass(frozen=True)
class PiousConfig:
    """PIOUS striping: stripe unit and data-server placement.

    ``nservers = 0`` (the historical default) runs a data server on
    every node; otherwise ``nservers`` consecutive nodes starting at
    ``first_server`` (wrapping modulo the cluster size) serve.
    """

    stripe_kb: int = 8
    nservers: int = 0
    first_server: int = 0

    def validate(self, path: str, nnodes: Optional[int] = None) -> None:
        _check(self.stripe_kb >= 1, f"{path}.stripe_kb",
               f"must be >= 1, got {self.stripe_kb}")
        _check(self.nservers >= 0, f"{path}.nservers",
               f"must be >= 0 (0 = all nodes), got {self.nservers}")
        _check(self.first_server >= 0, f"{path}.first_server",
               f"must be >= 0, got {self.first_server}")
        if nnodes is not None:
            _check(self.nservers <= nnodes, f"{path}.nservers",
                   f"cluster has only {nnodes} nodes, got {self.nservers}")
            _check(self.first_server < nnodes, f"{path}.first_server",
                   f"cluster has only {nnodes} nodes, "
                   f"got {self.first_server}")

    def server_ids(self, nnodes: int) -> list:
        count = nnodes if self.nservers == 0 else self.nservers
        return [(self.first_server + i) % nnodes for i in range(count)]


@dataclass(frozen=True)
class ClusterConfig:
    """Cluster-wide shape: node count and housekeeping load."""

    nnodes: int = 16
    housekeeping: bool = True
    housekeeping_message_rate: float = 3.0

    def validate(self, path: str) -> None:
        _check(self.nnodes >= 1, f"{path}.nnodes",
               f"cluster needs at least one node, got {self.nnodes}")
        _check(self.housekeeping_message_rate >= 0,
               f"{path}.housekeeping_message_rate",
               f"must be >= 0, got {self.housekeeping_message_rate}")


@dataclass(frozen=True)
class WorkloadConfig:
    """Which applications run, and per-application parameter overrides.

    ``mix`` drives the ``combined``/``serial`` experiments (every name
    must be registered in :data:`repro.apps.WORKLOADS`); ``params`` maps
    application name to field overrides of its params dataclass, e.g.
    ``{"ppm": {"steps": 12}}``.
    """

    mix: Tuple[str, ...] = ("ppm", "wavelet", "nbody")
    params: Dict[str, Dict[str, Any]] = field(default_factory=dict)

    def validate(self, path: str) -> None:
        from repro.apps import WORKLOADS
        _check(len(self.mix) >= 1, f"{path}.mix",
               "workload mix must name at least one application")
        for i, name in enumerate(self.mix):
            if name not in WORKLOADS:
                raise ConfigError(f"{path}.mix[{i}]",
                                  str(UnknownComponentError(
                                      WORKLOADS.kind, name,
                                      WORKLOADS.names())))
        for app, overrides in self.params.items():
            if app not in WORKLOADS:
                raise ConfigError(f"{path}.params.{app}",
                                  str(UnknownComponentError(
                                      WORKLOADS.kind, app,
                                      WORKLOADS.names())))
            params_cls = WORKLOADS.get(app).params_cls
            known = {f.name for f in fields(params_cls)}
            if not isinstance(overrides, Mapping):
                raise ConfigError(f"{path}.params.{app}",
                                  "expected a table of field overrides")
            for key in overrides:
                _check(key in known, f"{path}.params.{app}.{key}",
                       f"unknown {params_cls.__name__} field; valid "
                       f"fields: {sorted(known)}")

    def params_for(self, app: str) -> Dict[str, Any]:
        return dict(self.params.get(app, {}))


@dataclass(frozen=True)
class ExperimentConfig:
    """Observation windows and safety limits of the experiment protocol."""

    baseline_duration: float = 2000.0
    hard_limit: float = 5000.0
    flush_grace: float = 10.0

    def validate(self, path: str) -> None:
        _check(self.baseline_duration > 0, f"{path}.baseline_duration",
               f"must be > 0, got {self.baseline_duration}")
        _check(self.hard_limit > 0, f"{path}.hard_limit",
               f"must be > 0, got {self.hard_limit}")
        _check(self.flush_grace >= 0, f"{path}.flush_grace",
               f"must be >= 0, got {self.flush_grace}")


@dataclass(frozen=True)
class Scenario:
    """The whole stack, declaratively.  ``Scenario()`` is the paper's."""

    name: str = "default"
    seed: int = 0
    cluster: ClusterConfig = field(default_factory=ClusterConfig)
    node: NodeConfig = field(default_factory=NodeConfig)
    network: NetworkConfig = field(default_factory=NetworkConfig)
    pious: PiousConfig = field(default_factory=PiousConfig)
    workload: WorkloadConfig = field(default_factory=WorkloadConfig)
    experiment: ExperimentConfig = field(default_factory=ExperimentConfig)
    #: heterogeneous clusters: node id (decimal string) -> overrides of
    #: that node's config, as ``node``-rooted dotted paths (applied in
    #: insertion order), e.g. ``{"3": {"disks[0].media_error_rate": 0.1}}``
    node_overrides: Dict[str, Dict[str, Any]] = field(default_factory=dict)

    # -- validation ---------------------------------------------------------
    def validate(self) -> "Scenario":
        """Raise :class:`ConfigError` (with the exact path) if invalid."""
        self.cluster.validate("scenario.cluster")
        self.node.validate("scenario.node")
        self.network.validate("scenario.network")
        self.pious.validate("scenario.pious", nnodes=self.cluster.nnodes)
        self.workload.validate("scenario.workload")
        self.experiment.validate("scenario.experiment")
        for key in self.node_overrides:
            if not str(key).isdigit():
                raise ConfigError(f"scenario.node_overrides.{key}",
                                  "keys are node ids (decimal strings)")
            self.node_config_for(int(key)).validate(
                f"scenario.node_overrides.{key}")
        return self

    # -- resolution ---------------------------------------------------------
    def node_params(self) -> NodeParams:
        return self.node.to_node_params()

    def node_config_for(self, node_id: int) -> NodeConfig:
        """One node's resolved config: ``node`` plus its per-node
        overrides (if any) from :attr:`node_overrides`."""
        overrides = self.node_overrides.get(str(node_id))
        if not overrides:
            return self.node
        node = self.node
        for sub_path, value in overrides.items():
            node = _override(node, sub_path.split("."), value,
                             f"scenario.node_overrides.{node_id}")
        return node

    def fingerprint(self) -> str:
        """Stable digest of the resolved stack (the ``name`` label and
        random seed are excluded: they don't change what the machinery
        *is*, and analysis caches should survive relabeling)."""
        data = self.to_dict()
        data.pop("name", None)
        data.pop("seed", None)
        canonical = json.dumps(data, sort_keys=True,
                               separators=(",", ":"))
        return hashlib.sha1(canonical.encode()).hexdigest()[:12]

    # -- overrides ----------------------------------------------------------
    def with_override(self, path: str, value: Any) -> "Scenario":
        """A copy with the dotted ``path`` set to ``value``.

        Paths are rooted at the scenario (``node.disk.scheduler.kind``);
        string values are coerced to the target field's type, so CLI
        grids can pass everything as text.  List fields take indices
        (``node.disks[1].capacity_mb``) or a wildcard applying to every
        element (``node.disks[*].scheduler.kind``), and a
        ``node[3].``-prefixed path lands in :attr:`node_overrides` so a
        single node can diverge from the rest of the cluster.
        """
        match = _NODE_OVERRIDE_PATH.match(path)
        if match:
            node_id, sub = match.group("node"), match.group("rest")
            # resolve against that node's current config now, so bad
            # paths and values fail here like cluster-wide ones do
            _override(self.node_config_for(int(node_id)),
                      sub.split("."), value, f"scenario.node[{node_id}]")
            per_node = dict(self.node_overrides.get(node_id, {}))
            per_node[sub] = value
            merged = dict(self.node_overrides)
            merged[node_id] = per_node
            return replace(self, node_overrides=merged)
        return _override(self, path.split("."), value, "scenario")

    def with_overrides(self,
                       overrides: Mapping[str, Any]) -> "Scenario":
        scenario = self
        for path, value in overrides.items():
            scenario = scenario.with_override(path, value)
        return scenario

    # -- serialization ------------------------------------------------------
    def to_dict(self) -> dict:
        return _to_dict(self)

    @classmethod
    def from_dict(cls, data: Mapping, *,
                  validate: bool = True) -> "Scenario":
        if isinstance(data, Mapping) and "engine" in data:
            # older files carry [engine] event_queue; it never changed results
            data = {k: v for k, v in data.items() if k != "engine"}
        scenario = _from_dict(cls, data, "scenario")
        return scenario.validate() if validate else scenario

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "Scenario":
        return cls.from_dict(json.loads(text))

    def to_toml(self) -> str:
        return _emit_toml(self.to_dict())

    @classmethod
    def from_toml(cls, text: str) -> "Scenario":
        try:
            import tomllib
        except ModuleNotFoundError:          # Python < 3.11
            import tomli as tomllib          # type: ignore[no-redef]
        return cls.from_dict(tomllib.loads(text))

    def save(self, path: Union[str, Path]) -> Path:
        """Write as TOML or JSON, chosen by suffix (default TOML)."""
        path = Path(path)
        text = self.to_json() if path.suffix == ".json" else self.to_toml()
        path.write_text(text)
        return path

    @classmethod
    def load(cls, path: Union[str, Path]) -> "Scenario":
        path = Path(path)
        text = path.read_text()
        if path.suffix == ".json":
            return cls.from_json(text)
        return cls.from_toml(text)


#: ``node[3].disks[0].capacity_mb`` — per-node override paths
_NODE_OVERRIDE_PATH = re.compile(r"^node\[(?P<node>\d+)\]\.(?P<rest>.+)$")
#: one path part with an index suffix: ``disks[0]`` / ``disks[*]``
_INDEXED_PART = re.compile(
    r"^(?P<name>[A-Za-z_][A-Za-z0-9_]*)\[(?P<index>\d+|\*)\]$")


def _override(obj, parts: Sequence[str], value: Any, path: str):
    """Descend ``parts`` through the dataclass tree and replace a leaf.

    Parts may carry an index (``disks[1]``) or wildcard (``disks[*]``)
    into tuple fields; dataclasses can alias legacy part names via a
    ``_FIELD_ALIASES`` class attribute (``disk`` -> ``disks[0]``).
    """
    name, rest = parts[0], parts[1:]
    here = f"{path}.{name}"
    if isinstance(obj, dict):
        # inside workload.params: free-form nesting, create as needed
        if rest:
            child = obj.get(name, {})
            if not isinstance(child, Mapping):
                raise ConfigError(here, "not a table; cannot descend")
            new = dict(obj)
            new[name] = _override(dict(child), rest, value, here)
            return new
        new = dict(obj)
        new[name] = value
        return new
    if not is_dataclass(obj):
        raise ConfigError(path, "not a config section; cannot descend")
    index = None
    match = _INDEXED_PART.match(name)
    if match:
        name, index = match.group("name"), match.group("index")
    known = {f.name for f in fields(obj)}
    if index is None and name not in known:
        alias = getattr(type(obj), "_FIELD_ALIASES", {}).get(name)
        if alias is not None:
            name, index = alias[0], str(alias[1])
    if name not in known:
        raise ConfigError(here, f"unknown field; valid fields: "
                                f"{sorted(known)}")
    current = getattr(obj, name)
    hints = get_type_hints(type(obj))
    if index is not None:
        if not isinstance(current, tuple):
            raise ConfigError(here, f"field {name!r} is not a list; "
                                    f"cannot index into it")
        item_type = (get_args(hints[name]) or (str,))[0]
        if index == "*":
            targets = range(len(current))
        else:
            i = int(index)
            if i >= len(current):
                raise ConfigError(
                    f"{path}.{name}[{i}]",
                    f"index out of range; {name} has {len(current)} "
                    f"entries")
            targets = (i,)
        items = list(current)
        for i in targets:
            sub_path = f"{path}.{name}[{i}]"
            items[i] = (_override(items[i], rest, value, sub_path)
                        if rest else
                        _convert(value, item_type, sub_path))
        return replace(obj, **{name: tuple(items)})
    if rest:
        return replace(obj, **{name: _override(current, rest, value, here)})
    return replace(obj, **{name: _convert(value, hints[name], here)})


# -- minimal TOML emission ----------------------------------------------------
def _toml_value(value: Any) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, float)):
        return repr(value)
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(_toml_value(v) for v in value) + "]"
    raise TypeError(f"cannot emit {value!r} as TOML")


_BARE_KEY = re.compile(r"^[A-Za-z0-9_-]+$")


def _toml_key(key: str) -> str:
    """Quote keys that aren't bare (override paths like ``disks[0].x``)."""
    return key if _BARE_KEY.match(key) else json.dumps(key)


def _emit_toml(data: Mapping, prefix: str = "") -> str:
    """Emit nested dicts as TOML tables (scalars first, then subtables).

    Covers exactly the shapes a scenario produces — scalars, string
    lists, nested string-keyed tables, and lists of tables (the
    ``node.disks`` members become ``[[node.disks]]`` blocks);
    round-trips through :mod:`tomllib`.
    """
    lines = []
    tables = []
    arrays = []
    for key, value in data.items():
        if isinstance(value, Mapping):
            tables.append((key, value))
        elif (isinstance(value, (list, tuple)) and value
              and all(isinstance(v, Mapping) for v in value)):
            arrays.append((key, value))
        else:
            lines.append(f"{_toml_key(key)} = {_toml_value(value)}")
    out = "\n".join(lines)
    for key, elements in arrays:
        full = f"{prefix}{_toml_key(key)}"
        for element in elements:
            body = _emit_toml(element, prefix=f"{full}.")
            out += f"\n\n[[{full}]]"
            if body:
                out += f"\n{body}"
    for key, value in tables:
        full = f"{prefix}{_toml_key(key)}"
        body = _emit_toml(value, prefix=f"{full}.")
        out += f"\n\n[{full}]"
        if body:
            out += f"\n{body}"
    return out.strip() + "\n"


#: convenience re-export target for dataclasses.replace-style edits
scenario_fields = dataclasses.fields
