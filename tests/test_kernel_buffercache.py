"""Unit tests for the buffer cache."""

import pytest

from repro.kernel import BufferCache
from tests.conftest import drive


@pytest.fixture
def cache(sim, traced_driver):
    return BufferCache(sim, traced_driver, capacity_blocks=8,
                       sectors_per_block=2, cluster_blocks=4)


def traces(cache):
    cache.driver.transport.drain_now()
    return cache.driver.transport.user_buffer.to_array()


def test_read_miss_then_hit(sim, cache):
    drive(sim, cache.read_block(100))
    assert cache.stats.misses == 1
    drive(sim, cache.read_block(100))
    assert cache.stats.hits == 1
    arr = traces(cache)
    assert len(arr) == 1  # only the miss reached the disk
    assert arr["sector"][0] == 200  # block 100 * 2 sectors
    assert arr["size_kb"][0] == 1.0


def test_read_range_coalesces_missing_run(sim, cache):
    drive(sim, cache.read_range(10, 4))
    arr = traces(cache)
    assert len(arr) == 1
    assert arr["size_kb"][0] == 4.0


def test_read_range_fragments_around_cached_block(sim, cache):
    drive(sim, cache.read_block(12))
    drive(sim, cache.read_range(10, 5))  # 10,11 cached? no: 12 cached
    arr = traces(cache)
    # one request for the earlier miss, then [10,11] and [13,14]
    sizes = sorted(arr["size_kb"].tolist())
    assert sizes == [1.0, 2.0, 2.0]


def test_write_is_delayed(sim, cache):
    drive(sim, cache.write_block(50))
    assert cache.is_dirty(50)
    assert len(traces(cache)) == 0  # nothing hit the disk yet
    drive(sim, cache.sync())
    assert not cache.is_dirty(50)
    arr = traces(cache)
    assert len(arr) == 1 and arr["write"][0] == 1


def test_sync_clusters_contiguous_dirty_blocks(sim, cache):
    for b in (20, 21, 22, 40):
        drive(sim, cache.write_block(b))
    drive(sim, cache.sync())
    arr = traces(cache)
    sizes = sorted(arr[arr["write"] == 1]["size_kb"].tolist())
    assert sizes == [1.0, 3.0]


def test_cluster_limit_caps_writeback_size(sim, cache):
    for b in range(60, 70):  # 10 contiguous dirty blocks, limit 4
        drive(sim, cache.write_block(b))
    drive(sim, cache.sync())
    arr = traces(cache)
    sizes = arr[arr["write"] == 1]["size_kb"].tolist()
    assert max(sizes) == 4.0
    assert sum(sizes) == 10.0


def test_flush_aged_only_writes_old_buffers(sim, cache):
    def scenario():
        yield from cache.write_block(1)
        yield sim.timeout(10.0)
        yield from cache.write_block(2)
        yield from cache.flush_aged(5.0)

    drive(sim, scenario())
    assert not cache.is_dirty(1)
    assert cache.is_dirty(2)


def test_eviction_of_clean_lru(sim, cache):
    for b in range(8):
        drive(sim, cache.read_block(b))
    drive(sim, cache.read_block(100))
    assert not cache.contains(0)  # LRU clean victim
    assert cache.contains(100)
    assert cache.stats.evictions == 1


def test_eviction_prefers_clean_over_dirty(sim, cache):
    drive(sim, cache.write_block(0))       # dirty, oldest
    for b in range(1, 8):
        drive(sim, cache.read_block(b))    # clean
    drive(sim, cache.read_block(100))
    assert cache.contains(0)               # dirty survivor
    assert not cache.contains(1)


def test_eviction_of_dirty_flushes_first(sim):
    from repro.disk import Disk, SingleVolume
    from repro.driver import InstrumentedIDEDriver, ProcTraceTransport
    import numpy as np
    disk = Disk(sim, rng=np.random.default_rng(0))
    transport = ProcTraceTransport(sim)
    driver = InstrumentedIDEDriver(sim, SingleVolume([disk]),
                                   transport=transport)
    cache = BufferCache(sim, driver, capacity_blocks=2, sectors_per_block=2)
    for b in (0, 1, 2):
        drive(sim, cache.write_block(b))
    transport.drain_now()
    arr = transport.user_buffer.to_array()
    assert (arr["write"] == 1).sum() >= 1  # eviction forced a writeback
    assert len(cache) <= 2


def test_invalidate_clean_ok_dirty_rejected(sim, cache):
    drive(sim, cache.read_block(5))
    cache.invalidate(5)
    assert not cache.contains(5)
    drive(sim, cache.write_block(6))
    with pytest.raises(ValueError):
        cache.invalidate(6)


def test_hit_ratio_statistic(sim, cache):
    drive(sim, cache.read_block(1))
    drive(sim, cache.read_block(1))
    drive(sim, cache.read_block(1))
    assert cache.stats.hit_ratio == pytest.approx(2 / 3)


def test_bad_arguments(sim, cache):
    with pytest.raises(ValueError):
        drive(sim, cache.read_range(0, 0))
    with pytest.raises(ValueError):
        BufferCache(sim, cache.driver, capacity_blocks=0)
