"""Unit tests for the Ethernet model."""

import numpy as np
import pytest

from repro.cluster.network import MTU, EthernetNetwork
from repro.sim import Simulator
from tests.conftest import drive


def make_net(sim, **kw):
    return EthernetNetwork(sim, rng=np.random.default_rng(0), **kw)


def test_small_message_takes_latency_plus_frame(sim):
    net = make_net(sim)
    duration = drive(sim, net.transmit(100))
    expected = net.latency + net.frame_time(100)
    assert duration == pytest.approx(expected)


def test_large_message_fragments(sim):
    net = make_net(sim)
    drive(sim, net.transmit(4 * MTU))
    assert net.stats.frames == 4
    assert net.stats.messages == 1
    assert net.stats.bytes_carried == 4 * MTU


def test_bandwidth_bounds_throughput(sim):
    net = make_net(sim, channels=1)
    nbytes = 10 * MTU
    duration = drive(sim, net.transmit(nbytes))
    wire_rate = nbytes * 8 / duration
    assert wire_rate < net.bandwidth_bps  # overheads keep it below line rate
    assert wire_rate > 0.5 * net.bandwidth_bps


def test_two_channels_carry_concurrent_messages_faster(sim):
    def run(channels):
        s = Simulator()
        net = make_net(s, channels=channels)
        done = []

        def sender():
            yield from net.transmit(20 * MTU)
            done.append(s.now)

        s.process(sender())
        s.process(sender())
        s.run()
        return max(done)

    assert run(2) < run(1) * 0.75


def test_contention_serializes_on_one_channel(sim):
    net = make_net(sim, channels=1)
    finished = []

    def sender():
        yield from net.transmit(5 * MTU)
        finished.append(sim.now)

    sim.process(sender())
    sim.process(sender())
    sim.run()
    solo = net.latency + 5 * net.frame_time(MTU)
    assert max(finished) > 1.5 * solo


def test_transfer_time_estimate_close_to_actual_uncontended(sim):
    net = make_net(sim)
    actual = drive(sim, net.transmit(7000))
    # one latency plus the serialization of each frame
    full, rest = divmod(7000, MTU)
    estimate = (net.latency + full * net.frame_time(MTU)
                + net.frame_time(rest))
    assert actual == pytest.approx(estimate, rel=0.05)


def test_invalid_parameters(sim):
    with pytest.raises(ValueError):
        EthernetNetwork(sim, bandwidth_bps=0)
    with pytest.raises(ValueError):
        EthernetNetwork(sim, channels=0)
    net = make_net(sim)
    with pytest.raises(ValueError):
        drive(sim, net.transmit(0))
