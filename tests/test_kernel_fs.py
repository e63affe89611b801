"""Unit tests for the mini ext2-like filesystem."""

import pytest

from repro.kernel import BufferCache, FileSystem
from repro.kernel.fs import DIRECT_BLOCKS, FsError, POINTERS_PER_INDIRECT
from tests.conftest import drive


@pytest.fixture
def fs(sim, traced_driver):
    cache = BufferCache(sim, traced_driver, capacity_blocks=512,
                        sectors_per_block=2)
    return FileSystem(cache)


def entries(fs, path):
    """Names in directory ``path``, as the fs checkpoints them."""
    ino = fs.root_ino if path == "/" else fs.lookup(path).ino
    return [name for name, _ in fs.snapshot_state()["dirs"][str(ino)]]


def test_create_and_lookup(sim, fs):
    inode = drive(sim, fs.create("/data.bin"))
    assert fs.lookup("/data.bin") is inode
    assert inode.size_bytes == 0
    assert not inode.is_dir


def test_create_duplicate_rejected(sim, fs):
    drive(sim, fs.create("/x"))
    with pytest.raises(FsError):
        drive(sim, fs.create("/x"))


def test_lookup_missing_raises(fs):
    with pytest.raises(FsError):
        fs.lookup("/nope")
    assert not fs.exists("/nope")


def test_mkdir_and_nested_create(sim, fs):
    drive(sim, fs.mkdir("/var"))
    drive(sim, fs.mkdir("/var/log"))
    drive(sim, fs.create("/var/log/messages", zone="log"))
    assert fs.exists("/var/log/messages")
    assert entries(fs, "/var/log") == ["messages"]
    assert entries(fs, "/") == ["var"]


def test_makedirs_idempotent(sim, fs):
    drive(sim, fs.makedirs("/a/b/c"))
    drive(sim, fs.makedirs("/a/b/c"))
    assert entries(fs, "/a/b") == ["c"]


def test_extend_allocates_blocks_in_zone(sim, fs):
    inode = drive(sim, fs.create("/img", zone="data"))
    drive(sim, fs.truncate_extend(inode, 10 * 1024))
    assert inode.nblocks == 10
    data_start_block = fs.layout.data_start // 2
    data_end_block = (fs.layout.data_start + fs.layout.data_sectors) // 2
    assert all(data_start_block <= b < data_end_block for b in inode.blocks)


def test_zone_selection_places_blocks(sim, fs):
    log = drive(sim, fs.create("/msg", zone="log"))
    high = drive(sim, fs.create("/trace", zone="highlog"))
    drive(sim, fs.truncate_extend(log, 1024))
    drive(sim, fs.truncate_extend(high, 1024))
    assert log.blocks[0] < high.blocks[0]
    assert high.blocks[0] >= fs.layout.highlog_start // 2


def test_sequential_allocation_is_contiguous(sim, fs):
    inode = drive(sim, fs.create("/seq"))
    drive(sim, fs.truncate_extend(inode, 8 * 1024))
    diffs = [b - a for a, b in zip(inode.blocks, inode.blocks[1:])]
    assert all(d == 1 for d in diffs)


def test_shrink_rejected(sim, fs):
    inode = drive(sim, fs.create("/f"))
    drive(sim, fs.truncate_extend(inode, 2048))
    with pytest.raises(FsError):
        drive(sim, fs.truncate_extend(inode, 1024))


def test_indirect_blocks_allocated_past_direct_region(sim, fs):
    inode = drive(sim, fs.create("/big"))
    nblocks = DIRECT_BLOCKS + POINTERS_PER_INDIRECT + 5
    drive(sim, fs.truncate_extend(inode, nblocks * 1024))
    assert len(inode.indirect_blocks) == 2


def test_map_blocks_returns_contiguous_runs(sim, fs):
    inode = drive(sim, fs.create("/f"))
    drive(sim, fs.truncate_extend(inode, 6 * 1024))
    runs = drive(sim, fs.map_blocks(inode, 0, 6))
    assert len(runs) == 1
    assert runs[0] == (inode.blocks[0], 6)


def test_map_blocks_beyond_file_rejected(sim, fs):
    inode = drive(sim, fs.create("/f"))
    drive(sim, fs.truncate_extend(inode, 2 * 1024))
    with pytest.raises(FsError):
        drive(sim, fs.map_blocks(inode, 0, 3))


def test_unlink_frees_blocks_for_reuse(sim, fs):
    inode = drive(sim, fs.create("/tmp1"))
    drive(sim, fs.truncate_extend(inode, 4 * 1024))
    freed = set(inode.blocks)
    before = fs.zone_blocks_free("data")
    drive(sim, fs.unlink("/tmp1"))
    assert fs.zone_blocks_free("data") == before + 4
    inode2 = drive(sim, fs.create("/tmp2"))
    drive(sim, fs.truncate_extend(inode2, 1024))
    assert set(inode2.blocks) <= freed  # freed blocks reused first


def test_unlink_missing_or_dir_rejected(sim, fs):
    with pytest.raises(FsError):
        drive(sim, fs.unlink("/ghost"))
    drive(sim, fs.mkdir("/d"))
    with pytest.raises(FsError):
        drive(sim, fs.unlink("/d"))


def test_metadata_writes_reach_metadata_zone(sim, fs):
    inode = drive(sim, fs.create("/f"))
    drive(sim, fs.truncate_extend(inode, 1024))
    drive(sim, fs.cache.sync())
    fs.cache.driver.transport.drain_now()
    arr = fs.cache.driver.transport.user_buffer.to_array()
    writes = arr[arr["write"] == 1]
    meta_end = fs.layout.metadata_start + fs.layout.metadata_sectors
    assert (writes["sector"] < meta_end).any()


def test_inode_table_block_mapping():
    cacheless = None  # inode_table_block is pure arithmetic on the instance
    # build a real fs for the computation
    import numpy as np
    from repro.disk import Disk, SingleVolume
    from repro.driver import InstrumentedIDEDriver
    from repro.sim import Simulator
    sim = Simulator()
    driver = InstrumentedIDEDriver(
        sim, SingleVolume([Disk(sim, rng=np.random.default_rng(0))]))
    fs = FileSystem(BufferCache(sim, driver, capacity_blocks=64))
    b1 = fs.inode_table_block(1)
    b8 = fs.inode_table_block(8)
    b9 = fs.inode_table_block(9)
    assert b1 == b8
    assert b9 == b1 + 1


def test_empty_path_rejected(fs):
    with pytest.raises(FsError):
        fs.lookup("/")
