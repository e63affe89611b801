"""Disk geometry: logical block addresses and cylinder/head/sector layout.

Seek distance (and therefore service time) depends on how far the actuator
moves in *cylinders*, so the geometry converts the flat sector numbers seen
in traces into cylinder positions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: Bytes per physical disk sector (universal for the drives of the era).
SECTOR_BYTES = 512


@dataclass(frozen=True)
class DiskGeometry:
    """CHS geometry of a drive addressed by flat (LBA) sector numbers.

    Parameters
    ----------
    heads:
        Read/write heads = tracks per cylinder.
    sectors_per_track:
        Sectors on one track (no zoned recording; constant, as on the
        IDE drives of the period).
    cylinders:
        Number of cylinder positions.
    """

    cylinders: int = 1016
    heads: int = 16
    sectors_per_track: int = 63

    def __post_init__(self):
        if min(self.cylinders, self.heads, self.sectors_per_track) < 1:
            raise ValueError("geometry dimensions must be positive")

    @classmethod
    def from_capacity_mb(cls, capacity_mb: float, heads: int = 16,
                         sectors_per_track: int = 63) -> "DiskGeometry":
        """Smallest geometry with at least ``capacity_mb`` megabytes."""
        if capacity_mb <= 0:
            raise ValueError("capacity must be positive")
        sectors_needed = int(capacity_mb * 1024 * 1024 / SECTOR_BYTES)
        per_cylinder = heads * sectors_per_track
        cylinders = -(-sectors_needed // per_cylinder)  # ceil
        return cls(cylinders=cylinders, heads=heads,
                   sectors_per_track=sectors_per_track)

    @property
    def sectors_per_cylinder(self) -> int:
        return self.heads * self.sectors_per_track

    @property
    def total_sectors(self) -> int:
        return self.cylinders * self.sectors_per_cylinder

    def cylinder_of(self, sector: int) -> int:
        """Cylinder holding flat ``sector``."""
        self._check(sector)
        return sector // self.sectors_per_cylinder

    def _check(self, sector: int) -> None:
        if not (0 <= sector < self.total_sectors):
            raise ValueError(
                f"sector {sector} outside disk (0..{self.total_sectors - 1})")

    def sectors_per_track_at(self, cylinder: int) -> int:
        """Track capacity at a cylinder (constant; ZBR overrides)."""
        if not (0 <= cylinder < self.cylinders):
            raise ValueError(f"cylinder {cylinder} out of range")
        return self.sectors_per_track

    def sectors_per_track_table(self) -> np.ndarray:
        """Per-cylinder track capacity as a float64 lookup table.

        One call replaces ``cylinders`` calls to
        :meth:`sectors_per_track_at` when a service model precomputes its
        zoned-transfer table; entries are elementwise identical to the
        scalar method (small integers convert to float64 exactly).
        """
        return np.array([self.sectors_per_track_at(c)
                         for c in range(self.cylinders)], dtype=np.float64)


@dataclass(frozen=True)
class ZBRGeometry(DiskGeometry):
    """Zoned-bit-recording geometry: outer tracks hold more sectors.

    Real drives of the era recorded more sectors on the longer outer
    tracks; the media transfer rate therefore falls toward the inner
    (higher-numbered, in our convention) cylinders.  The flat LBA <-> CHS
    mapping keeps the *average* sectors-per-track so total capacity and
    sector numbering stay compatible with the plain geometry; only the
    per-cylinder transfer rate differs.

    ``zbr_ratio`` is outer-track capacity over inner-track capacity
    (typically ~1.5-1.8 for mid-90s drives).
    """

    zbr_ratio: float = 1.6
    zones: int = 8

    def __post_init__(self):
        super().__post_init__()
        if self.zbr_ratio < 1.0:
            raise ValueError("zbr_ratio must be >= 1")
        if self.zones < 1:
            raise ValueError("need at least one zone")

    def sectors_per_track_at(self, cylinder: int) -> int:
        if not (0 <= cylinder < self.cylinders):
            raise ValueError(f"cylinder {cylinder} out of range")
        zone = min(self.zones - 1, cylinder * self.zones // self.cylinders)
        # linear interpolation of track capacity from outer (zone 0) to
        # inner (last zone), preserving the mean ~= sectors_per_track
        outer = self.sectors_per_track * 2 * self.zbr_ratio \
            / (1 + self.zbr_ratio)
        inner = outer / self.zbr_ratio
        if self.zones == 1:
            return max(1, int(round(self.sectors_per_track)))
        frac = zone / (self.zones - 1)
        return max(1, int(round(outer + (inner - outer) * frac)))
