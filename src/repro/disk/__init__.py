"""Disk subsystem: geometry, mechanical service-time model, request
scheduling, and the disk device itself.

The default parameters model the 500 MB IDE drives of the Beowulf prototype
nodes (Berry & El-Ghazawi 1996): 512-byte sectors, ~4500 RPM spindles,
mid-1990s seek profiles, and a single-actuator device served through an
elevator (C-LOOK) queue.
"""

from repro.disk.geometry import SECTOR_BYTES, DiskGeometry, ZBRGeometry
from repro.disk.request import IORequest
from repro.disk.scheduler import (
    SCHEDULERS,
    CLookScheduler,
    FIFOScheduler,
    ScanScheduler,
    SSTFScheduler,
)
from repro.disk.service import DiskServiceModel
from repro.disk.cache import DRIVE_CACHES, DriveCache, NullDriveCache
from repro.disk.device import Disk, DiskStats
from repro.disk.volume import (
    VOLUME_POLICIES,
    ConcatVolume,
    LogicalVolume,
    Raid0Volume,
    Raid1Volume,
    SingleVolume,
)

__all__ = [
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
]
