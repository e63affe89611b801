"""Catch-up chatter vs the per-message chatter loop it replaced.

:class:`LoopHousekeeping` below is the test oracle: the housekeeping
load with its message stream driven by the original ``klog-chatter``
process — one queued tick per message, drawing size, logger pick and
next gap as each tick fires.  The production
:class:`~repro.kernel.klog.HousekeepingLoad` keeps the next message's
time as data and lets each logger flush apply what is due.  It must
leave the same disk trace, flush the same bytes into every log, count
the same messages and end on the same ``housekeeping`` stream state.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.config import Scenario
from repro.core.experiments import ExperimentRunner
from repro.disk import Disk, SingleVolume
from repro.driver import InstrumentedIDEDriver, ProcTraceTransport
from repro.kernel import BufferCache, FileSystem, SysLogger, UpdateDaemon
from repro.kernel.klog import HousekeepingLoad
from repro.sim import Simulator

LOGS = ("/var/log/messages", "/var/log/daemon", "/var/log/wtmp")


class LoopHousekeeping(HousekeepingLoad):
    """Reference chatter: the per-message ``klog-chatter`` process."""

    def __init__(self, sim, fs, loggers, rng, message_rate=1.0, **kwargs):
        # spawned first, as the original constructor did; the body reads
        # its attributes only once the process starts
        sim.process(self._chatter(), name="klog-chatter")
        self._loop_rate = message_rate
        super().__init__(sim, fs, loggers, rng, message_rate=0.0, **kwargs)

    def _chatter(self):
        tick = self.sim.tick
        owner = f"{self.owner}:chatter"
        exponential = self.rng.exponential
        mean_gap = 1.0 / self._loop_rate
        mean_bytes = self.mean_message_bytes
        logs = [logger.log for logger in self.loggers]
        pick = self._pick
        delay = lambda: float(exponential(mean_gap))  # noqa: E731
        while True:
            yield tick(owner, delay)
            size = int(exponential(mean_bytes))
            logs[pick()](16 if size < 16 else size)
            self._messages += 1


def node(seed, rate, hk_cls, until=150.0):
    """A disk, buffer cache, filesystem, three flushing logs, the update
    daemon and one housekeeping load, run to ``until`` (where the
    message count is read) and 12 s on; returns everything worth
    comparing."""
    sim = Simulator()
    disk = Disk(sim, rng=np.random.default_rng(seed))
    transport = ProcTraceTransport(sim, drain_interval=0.25)
    driver = InstrumentedIDEDriver(sim, SingleVolume([disk]),
                                   transport=transport)
    fs = FileSystem(BufferCache(sim, driver, capacity_blocks=256,
                                sectors_per_block=2))
    loggers = [SysLogger(sim, fs, path, flush_interval=5.0,
                         owner=f"syslog:{path}")
               for path in LOGS]
    UpdateDaemon(sim, fs, interval=30.0, buffer_age=5.0)
    rng = np.random.default_rng(seed)
    hk = hk_cls(sim, fs, loggers, rng=rng, message_rate=rate)
    sim.run(until=until)
    messages = hk.messages
    sim.run(until=until + 12.0)
    transport.drain_now()
    return {
        "trace": transport.user_buffer.to_array().tobytes(),
        "sizes": [fs.lookup(path).size_bytes for path in LOGS],
        "logged": [logger.bytes_logged for logger in loggers],
        "pending": [logger._pending_bytes for logger in loggers],
        "messages": (messages, hk.messages),
        "stream": rng.bit_generator.state,
    }


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       rate=st.sampled_from([0.2, 1.0, 3.0, 25.0]))
def test_catch_up_matches_the_chatter_loop(seed, rate):
    got = node(seed, rate, HousekeepingLoad)
    assert got == node(seed, rate, LoopHousekeeping)
    assert got["messages"][0] > 0 or rate < 1.0


class ScriptedRng:
    """Exponential draws from a script: gaps for the message clock,
    sizes for everything else; a single logger needs no picks."""

    def __init__(self, gaps, mean_gap, size=100.0):
        self.gaps = list(gaps)
        self.mean_gap = mean_gap
        self.size = size

    def exponential(self, scale):
        if scale == self.mean_gap:
            return self.gaps.pop(0) if self.gaps else 1e9
        return self.size

    def integers(self, n):  # pragma: no cover - never drawn for n == 1
        raise AssertionError("a single logger draws no pick")


@pytest.mark.parametrize("cls", [HousekeepingLoad, LoopHousekeeping])
@pytest.mark.parametrize("gaps, flushed", [
    # the second message (t=10) is scheduled at t=4, before the flush
    # tick the t=5 flush queues: the t=10 flush carries it
    ((4.0, 6.0), 200),
    # scheduled at t=6, after that tick: it waits for the t=15 flush
    ((6.0, 4.0), 100),
])
def test_message_tied_with_a_flush(cls, gaps, flushed):
    """A message forced onto a flush instant counts for that flush iff
    its tick would have been queued before the flush's."""
    sim = Simulator()
    disk = Disk(sim, rng=np.random.default_rng(0))
    driver = InstrumentedIDEDriver(
        sim, SingleVolume([disk]),
        transport=ProcTraceTransport(sim, drain_interval=0.25))
    fs = FileSystem(BufferCache(sim, driver, capacity_blocks=256,
                                sectors_per_block=2))
    logger = SysLogger(sim, fs, LOGS[0], flush_interval=5.0)
    hk = cls(sim, fs, [logger], rng=ScriptedRng(gaps, mean_gap=1.0),
             message_rate=1.0)
    sim.run(until=12.0)
    assert fs.lookup(LOGS[0]).size_bytes == flushed
    assert hk.messages == 2


def test_zero_rate_means_no_chatter():
    sim = Simulator()
    disk = Disk(sim, rng=np.random.default_rng(0))
    driver = InstrumentedIDEDriver(
        sim, SingleVolume([disk]),
        transport=ProcTraceTransport(sim, drain_interval=0.25))
    fs = FileSystem(BufferCache(sim, driver, capacity_blocks=256,
                                sectors_per_block=2))
    logger = SysLogger(sim, fs, LOGS[0], flush_interval=5.0)
    rng = np.random.default_rng(3)
    before = rng.bit_generator.state
    hk = HousekeepingLoad(sim, fs, [logger], rng=rng, message_rate=0.0)
    sim.run(until=60.0)
    assert hk.messages == 0 and logger.bytes_logged == 0
    assert rng.bit_generator.state == before


def test_zero_rate_baseline_runs():
    runner = ExperimentRunner(nnodes=2, scenario=Scenario().with_overrides(
        {"cluster.housekeeping_message_rate": 0.0}))
    result = runner.run("baseline", duration=60)
    assert result.duration == 60
    for cluster_node in runner.last_cluster.nodes:
        assert cluster_node.kernel.housekeeping.messages == 0
