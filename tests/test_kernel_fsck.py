"""Tests for the filesystem consistency checker."""

import pytest

from repro.kernel import BufferCache, FileSystem
from repro.kernel.fs import DIRECT_BLOCKS, POINTERS_PER_INDIRECT
from tests.conftest import drive


@pytest.fixture
def fs(sim, traced_driver):
    cache = BufferCache(sim, traced_driver, capacity_blocks=4096,
                        sectors_per_block=2)
    return FileSystem(cache)


def test_fresh_fs_is_clean(fs):
    assert fs.fsck() == []


def test_clean_after_activity(sim, fs):
    drive(sim, fs.makedirs("/a/b"))
    f1 = drive(sim, fs.create("/a/b/one"))
    drive(sim, fs.truncate_extend(f1, 40 * 1024))
    f2 = drive(sim, fs.create("/two", zone="log"))
    drive(sim, fs.truncate_extend(
        f2, (DIRECT_BLOCKS + POINTERS_PER_INDIRECT + 3) * 1024))
    drive(sim, fs.unlink("/a/b/one"))
    assert fs.fsck() == []


def test_detects_double_owned_block(sim, fs):
    a = drive(sim, fs.create("/a"))
    b = drive(sim, fs.create("/b"))
    drive(sim, fs.truncate_extend(a, 1024))
    b.blocks.append(a.blocks[0])        # corrupt: share a block
    problems = fs.fsck()
    assert any("owned by inodes" in p for p in problems)


def test_detects_size_beyond_blocks(sim, fs):
    a = drive(sim, fs.create("/a"))
    drive(sim, fs.truncate_extend(a, 2048))
    a.size_bytes = 10 * 1024            # corrupt: size without blocks
    assert any("needs" in p for p in fs.fsck())


def test_detects_block_outside_zone(sim, fs):
    a = drive(sim, fs.create("/a", zone="log"))
    drive(sim, fs.truncate_extend(a, 1024))
    a.blocks[0] = 5                      # metadata area, not the log zone
    assert any("outside" in p for p in fs.fsck())


def test_detects_missing_indirect_accounting(sim, fs):
    a = drive(sim, fs.create("/a"))
    drive(sim, fs.truncate_extend(a, (DIRECT_BLOCKS + 5) * 1024))
    del a.indirect_blocks[:]             # corrupt: drop the indirect block
    assert any("indirect" in p for p in fs.fsck())


def test_detects_dangling_dentry(sim, fs):
    drive(sim, fs.create("/a"))
    ino = fs.lookup("/a").ino
    del fs._inodes[ino]                  # corrupt: inode vanishes
    assert any("missing inode" in p for p in fs.fsck())
