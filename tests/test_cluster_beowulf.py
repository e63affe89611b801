"""Integration tests for the Beowulf cluster builder and PIOUS."""

import numpy as np
import pytest

from repro.cluster import BeowulfCluster, PIOUS
from tests.conftest import drive


@pytest.fixture
def small_cluster(sim):
    return BeowulfCluster(sim, nnodes=4, seed=7)


def test_cluster_builds_requested_nodes(sim, small_cluster):
    assert len(small_cluster) == 4
    assert small_cluster.pvm.ntasks == 4
    assert [n.node_id for n in small_cluster.nodes] == [0, 1, 2, 3]


def test_invalid_node_count(sim):
    with pytest.raises(ValueError):
        BeowulfCluster(sim, nnodes=0)


def test_gather_traces_merges_and_sorts(sim, small_cluster):
    sim.run(until=120.0)
    arr = small_cluster.gather_traces()
    assert len(arr) > 0
    assert set(np.unique(arr["node"])) <= {0, 1, 2, 3}
    assert (np.diff(arr["time"]) >= 0).all()


def test_reset_trace_clocks_drops_history(sim, small_cluster):
    sim.run(until=60.0)
    small_cluster.reset_trace_clocks()
    sim.run(until=90.0)
    arr = small_cluster.gather_traces()
    assert arr["time"].max() <= 30.0 + 1e-9


def test_parallel_app_with_barrier_synchronises(sim, small_cluster):
    finish = {}

    def factory(node):
        def app():
            yield from node.kernel.cpu.execute(0.5 * (node.node_id + 1))
            yield from node.pvm.barrier("sync", node.node_id,
                                        count=len(small_cluster))
            finish[node.node_id] = sim.now
        return app()

    for node in small_cluster.nodes:
        node.kernel.spawn(factory(node), name=f"app:{node.node_id}")
    sim.run(until=10.0)
    times = list(finish.values())
    assert max(times) - min(times) < 1e-6  # all released together
    assert max(times) == pytest.approx(2.0)  # slowest node dominates


def test_pious_striped_write_hits_multiple_nodes(sim, small_cluster):
    pious = PIOUS(small_cluster, stripe_kb=4)

    def client():
        handle = pious.create("bigfile", client_node=0)
        yield from handle.write(64 * 1024)  # 16 stripes over 4 servers

    small_cluster.reset_trace_clocks()
    sim.process(client())
    sim.run(until=60.0)
    arr = small_cluster.gather_traces()
    writes = arr[arr["write"] == 1]
    assert len(set(writes["node"])) == 4  # every server's disk touched
    assert pious.requests_served == 16


def test_pious_read_back_after_write(sim, small_cluster):
    pious = PIOUS(small_cluster, stripe_kb=4, servers=[1, 2])

    def client():
        handle = pious.create("f", client_node=0)
        yield from handle.write(32 * 1024)
        handle.seek(0)
        n = yield from handle.read(32 * 1024)
        return n

    assert drive(sim, client(), until=120.0) == 32 * 1024
    # server-local partial files exist on the chosen servers only
    assert small_cluster.nodes[1].kernel.fs.exists("/pious/f.part")
    assert not small_cluster.nodes[0].kernel.fs.exists("/pious/f.part")


def test_pious_open_missing_and_duplicate(sim, small_cluster):
    pious = PIOUS(small_cluster)
    with pytest.raises(KeyError):
        pious.open("ghost")
    pious.create("once")
    with pytest.raises(ValueError):
        pious.create("once")


def test_pious_stripe_map_round_robin():
    from repro.cluster.pious import _StripeMap
    m = _StripeMap("f", stripe_bytes=1024, servers=[10, 11, 12])
    chunks = list(m.chunks(0, 4096))
    assert [c[0] for c in chunks] == [10, 11, 12, 10]
    assert chunks[3][1] == 1024  # second unit on server 10 at local 1 KB
    # offsets within a stripe unit
    sub = list(m.chunks(512, 1024))
    assert sub == [(10, 512, 512), (11, 0, 512)]


from hypothesis import given, settings, strategies as st


@settings(deadline=None, max_examples=50)
@given(st.integers(min_value=0, max_value=10**6),
       st.integers(min_value=1, max_value=10**5),
       st.integers(min_value=1, max_value=8),
       st.integers(min_value=1, max_value=64))
def test_stripe_chunks_partition_exactly(offset, nbytes, nservers, stripe_kb):
    from repro.cluster.pious import _StripeMap
    m = _StripeMap("f", stripe_bytes=stripe_kb * 1024,
                   servers=list(range(nservers)))
    chunks = list(m.chunks(offset, nbytes))
    # chunks cover exactly [offset, offset+nbytes) in order
    assert sum(c[2] for c in chunks) == nbytes
    # every chunk stays within one stripe unit
    for server, local, size in chunks:
        assert 0 <= server < nservers
        assert size <= stripe_kb * 1024
        assert local >= 0
    # reconstruct logical offsets: consecutive units round-robin
    pos = offset
    for server, local, size in chunks:
        unit = pos // (stripe_kb * 1024)
        assert server == unit % nservers
        expected_local = (unit // nservers) * (stripe_kb * 1024) \
            + (pos - unit * stripe_kb * 1024)
        assert local == expected_local
        pos += size
    assert pos == offset + nbytes
