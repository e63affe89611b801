"""Unit tests for logging and housekeeping daemons."""

import numpy as np
import pytest

from repro.kernel import BufferCache, FileSystem, SysLogger, UpdateDaemon
from repro.kernel.klog import HousekeepingLoad


@pytest.fixture
def fs(sim, traced_driver):
    cache = BufferCache(sim, traced_driver, capacity_blocks=256,
                        sectors_per_block=2)
    return FileSystem(cache)


def traces(fs):
    fs.cache.driver.transport.drain_now()
    return fs.cache.driver.transport.user_buffer.to_array()


def test_syslogger_creates_file_and_flushes(sim, fs):
    logger = SysLogger(sim, fs, "/var/log/messages", flush_interval=2.0)
    logger.log(500)
    sim.run(until=3.0)
    assert fs.exists("/var/log/messages")
    assert fs.lookup("/var/log/messages").size_bytes == 500


def test_syslogger_batches_between_flushes(sim, fs):
    logger = SysLogger(sim, fs, "/var/log/m", flush_interval=5.0)
    for _ in range(10):
        logger.log(100)
    sim.run(until=6.0)
    inode = fs.lookup("/var/log/m")
    assert inode.size_bytes == 1000
    assert inode.nblocks == 1  # one 1 KB block covers all ten messages


def test_syslogger_zone_controls_placement(sim, fs):
    low = SysLogger(sim, fs, "/var/log/messages", zone="log",
                    flush_interval=1.0)
    high = SysLogger(sim, fs, "/var/log/iotrace", zone="highlog",
                     flush_interval=1.0)
    low.log(100)
    high.log(100)
    sim.run(until=2.0)
    low_block = fs.lookup("/var/log/messages").blocks[0]
    high_block = fs.lookup("/var/log/iotrace").blocks[0]
    assert low_block < fs.layout.swap_start // 2
    assert high_block >= fs.layout.highlog_start // 2


def test_syslogger_rejects_empty_payload(sim, fs):
    logger = SysLogger(sim, fs, "/var/log/m")
    with pytest.raises(ValueError):
        logger.log(0)


def test_update_daemon_syncs_metadata_periodically(sim, fs):
    update = UpdateDaemon(sim, fs, interval=10.0, buffer_age=5.0)
    sim.run(until=35.0)
    assert update.syncs == 3
    arr = traces(fs)
    writes = arr[arr["write"] == 1]
    # the superblock write lands at the metadata zone start
    sb_sector = fs.superblock_block * 2
    assert (writes["sector"] == sb_sector).any()


def test_housekeeping_generates_write_dominated_load(sim, fs):
    logger = SysLogger(sim, fs, "/var/log/messages", flush_interval=5.0)
    UpdateDaemon(sim, fs, interval=30.0, buffer_age=5.0)
    hk = HousekeepingLoad(sim, fs, [logger], rng=np.random.default_rng(0),
                          message_rate=2.0)
    sim.run(until=300.0)
    arr = traces(fs)
    assert len(arr) > 0
    write_frac = (arr["write"] == 1).mean()
    assert write_frac > 0.9          # paper baseline: ~100% writes
    assert hk.messages > 300
    assert hk.lookups > 10


def test_housekeeping_lookups_mostly_hit_cache(sim, fs):
    logger = SysLogger(sim, fs, "/var/log/messages")
    hk = HousekeepingLoad(sim, fs, [logger], rng=np.random.default_rng(0),
                          message_rate=1.0, lookup_interval=2.0)
    sim.run(until=100.0)
    arr = traces(fs)
    reads = arr[arr["write"] == 0]
    # first lookup misses; subsequent ones are cache hits
    assert len(reads) <= 4


def test_housekeeping_rejects_bad_rate(sim, fs):
    # rate 0 is valid (no chatter); only a negative rate is nonsense
    logger = SysLogger(sim, fs, "/var/log/m")
    with pytest.raises(ValueError):
        HousekeepingLoad(sim, fs, [logger], rng=np.random.default_rng(0),
                         message_rate=-1.0)
