"""The volume layer: address math properties, policies, driver fan-out."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.pious import _StripeMap
from repro.disk import (
    Disk,
    DiskGeometry,
    DiskServiceModel,
    IORequest,
    VOLUME_POLICIES,
    ConcatVolume,
    Raid0Volume,
    Raid1Volume,
    SingleVolume,
)
from repro.disk.volume import (
    capacity_sectors,
    concat_extents,
    raid0_extents,
)
from repro.driver import InstrumentedIDEDriver, ProcTraceTransport
from repro.driver.trace import TRACE_DTYPE
from repro.sim import Simulator


# -- pure address math: property tests ----------------------------------------
spans = st.tuples(st.integers(min_value=0, max_value=5000),
                  st.integers(min_value=1, max_value=600))


@given(span=spans,
       ndisks=st.integers(min_value=1, max_value=5),
       stripe=st.integers(min_value=1, max_value=64))
@settings(max_examples=200)
def test_raid0_extents_cover_exactly_once(span, ndisks, stripe):
    """Every logical sector maps to exactly one (disk, local) sector."""
    sector, nsectors = span
    extents = raid0_extents(sector, nsectors, ndisks, stripe)
    logical = []
    for disk, local, count in extents:
        assert count >= 1
        for l in range(local, local + count):
            unit, within = divmod(l, stripe)
            logical.append((unit * ndisks + disk) * stripe + within)
    assert sorted(logical) == list(range(sector, sector + nsectors))


@given(span=spans,
       ndisks=st.integers(min_value=1, max_value=5),
       stripe=st.integers(min_value=1, max_value=64))
@settings(max_examples=200)
def test_raid0_per_disk_offsets_monotone_and_coalesced(span, ndisks, stripe):
    sector, nsectors = span
    extents = raid0_extents(sector, nsectors, ndisks, stripe)
    by_disk = {}
    previous = None
    for disk, local, count in extents:
        # strictly increasing local addresses per member, no overlap
        if disk in by_disk:
            assert local > by_disk[disk]
        by_disk[disk] = local + count - 1
        # coalescing really happened: no two adjacent same-disk extents
        # that touch
        if previous is not None and previous[0] == disk:
            assert previous[1] + previous[2] < local
        previous = (disk, local, count)


@given(span=spans,
       sizes=st.lists(st.integers(min_value=100, max_value=4000),
                      min_size=1, max_size=5))
@settings(max_examples=200)
def test_concat_extents_cover_exactly_once(span, sizes):
    sector, nsectors = span
    total = sum(sizes)
    sector = min(sector, max(total - nsectors, 0))
    nsectors = min(nsectors, total - sector)
    if nsectors < 1:
        return
    extents = concat_extents(sector, nsectors, sizes)
    bases = [sum(sizes[:i]) for i in range(len(sizes))]
    logical = []
    for disk, local, count in extents:
        assert 0 <= local and local + count <= sizes[disk]
        logical.extend(range(bases[disk] + local,
                             bases[disk] + local + count))
    assert logical == list(range(sector, sector + nsectors))


@given(sizes=st.lists(st.integers(min_value=64, max_value=4000),
                      min_size=1, max_size=5),
       stripe=st.integers(min_value=1, max_value=64))
def test_capacity_formulas(sizes, stripe):
    assert capacity_sectors("single", sizes[:1], stripe) == sizes[0]
    assert capacity_sectors("concat", sizes, stripe) == sum(sizes)
    assert capacity_sectors("raid1", sizes, stripe) == min(sizes)
    raid0 = capacity_sectors("raid0", sizes, stripe)
    assert raid0 == (min(sizes) // stripe) * stripe * len(sizes)
    assert raid0 <= sum(sizes)
    # every logical sector of a full-capacity span must stay in bounds
    if raid0:
        for disk, local, count in raid0_extents(0, raid0, len(sizes),
                                                stripe):
            assert local + count <= sizes[disk]


# -- the PIOUS stripe map obeys the same contract -----------------------------
@given(offset=st.integers(min_value=0, max_value=500_000),
       nbytes=st.integers(min_value=1, max_value=200_000),
       stripe_kb=st.integers(min_value=1, max_value=64),
       nservers=st.integers(min_value=1, max_value=8))
@settings(max_examples=200)
def test_stripe_map_chunks_cover_exactly_once(offset, nbytes, stripe_kb,
                                              nservers):
    stripe = stripe_kb * 1024
    smap = _StripeMap("f", stripe, list(range(nservers)))
    seen = 0
    last_local = {}
    for server, local, chunk in smap.chunks(offset, nbytes):
        assert 1 <= chunk <= stripe
        # invert: local offset back to the logical byte
        unit, within = divmod(local, stripe)
        logical = (unit * nservers + server) * stripe + within
        assert logical == offset + seen
        seen += chunk
        # per-server local offsets strictly increase
        if server in last_local:
            assert local >= last_local[server]
        last_local[server] = local + chunk
    assert seen == nbytes


def test_stripe_map_rejects_empty_transfer():
    smap = _StripeMap("f", 8192, [0, 1])
    with pytest.raises(ValueError):
        list(smap.chunks(0, 0))


# -- devices over a live simulator --------------------------------------------
def _mkdisks(sim, n, capacity_mb=100):
    return [Disk(sim,
                 service=DiskServiceModel(
                     geometry=DiskGeometry.from_capacity_mb(capacity_mb)),
                 rng=np.random.default_rng(i),
                 name=f"hd{chr(ord('a') + i)}0")
            for i in range(n)]


def test_registry_carries_all_policies():
    assert list(VOLUME_POLICIES) == ["concat", "raid0", "raid1", "single"]
    assert VOLUME_POLICIES["raid0"] is Raid0Volume


def test_single_volume_requires_one_disk():
    sim = Simulator()
    with pytest.raises(ValueError):
        SingleVolume(_mkdisks(sim, 2))


def test_volume_bounds_error_names_device():
    sim = Simulator()
    volume = Raid0Volume(_mkdisks(sim, 2), stripe_sectors=16)
    with pytest.raises(ValueError) as err:
        volume.map_extents(volume.total_sectors - 1, 2, False)
    assert "beyond end of md0" in str(err.value)


def test_raid1_write_mirrors_read_rotates():
    sim = Simulator()
    volume = Raid1Volume(_mkdisks(sim, 3))
    assert volume._map(10, 4, True) == ((0, 10, 4), (1, 10, 4), (2, 10, 4))
    reads = [volume._map(10, 4, False)[0][0] for _ in range(4)]
    assert reads == [0, 1, 2, 0]


def test_volume_submit_completes_all_parts_and_counts():
    sim = Simulator()
    volume = Raid0Volume(_mkdisks(sim, 2), stripe_sectors=16)
    request = IORequest(sector=0, nsectors=64, is_write=True)
    done = []
    volume.submit(request).callbacks.append(lambda ev: done.append(ev.value))
    sim.run(until=5.0)
    assert done == [request]
    assert not request.failed
    assert request.latency > 0
    assert volume.logical_requests == 1
    assert volume.physical_requests == 4  # one part per stripe unit
    assert all(d.stats.writes == 2 for d in volume.disks)


def test_driver_traces_one_record_per_physical_part():
    sim = Simulator()
    disks = _mkdisks(sim, 2)
    volume = Raid0Volume(disks, stripe_sectors=16)
    transport = ProcTraceTransport(sim, drain_interval=0.5)
    driver = InstrumentedIDEDriver(sim, volume, node_id=0,
                                   transport=transport)
    driver.write_sectors(0, 64)       # 4 stripe units -> 4 physical parts
    driver.read_sectors(16, 16)       # exactly one stripe unit on disk 1
    sim.run(until=10)
    transport.drain_now()
    arr = transport.user_buffer.to_array()
    assert len(arr) == 5
    assert driver.requests_issued == 5
    # parts are addressed in member-local sector space
    assert arr["sector"].tolist() == [0, 0, 16, 16, 0]
    assert arr["size_kb"].tolist() == [8.0] * 5
    assert disks[0].stats.writes == 2 and disks[1].stats.writes == 2
    assert disks[1].stats.reads == 1 and disks[0].stats.reads == 0


def test_driver_single_volume_matches_bare_disk_trace():
    """The driver over `single` traces and completes exactly as the disk
    does when the same requests are submitted to it directly."""
    spans = ((1000, 8, False), (64, 8, False), (5000, 8, False),
             (2048, 16, True))

    def reference():
        sim = Simulator()
        disk = Disk(sim, rng=np.random.default_rng(0))
        rows, completions = [], []
        for sector, nsectors, is_write in spans:
            rows.append((sim.now, sector, int(is_write),
                         disk.queue_depth + 1, nsectors * 512 / 1024.0, 0))
            disk.submit(IORequest(sector=sector, nsectors=nsectors,
                                  is_write=is_write)).callbacks.append(
                lambda ev: completions.append(ev.value.complete_time))
        sim.run(until=10)
        return np.array(rows, dtype=TRACE_DTYPE), completions

    sim = Simulator()
    transport = ProcTraceTransport(sim, drain_interval=0.5)
    driver = InstrumentedIDEDriver(
        sim, SingleVolume([Disk(sim, rng=np.random.default_rng(0))]),
        transport=transport)
    completions = []
    for sector, nsectors, is_write in spans:
        handler = driver.write_sectors if is_write else driver.read_sectors
        handler(sector, nsectors).callbacks.append(
            lambda ev: completions.append(ev.value.complete_time))
    sim.run(until=10)
    transport.drain_now()
    ref_rows, ref_completions = reference()
    assert np.array_equal(transport.user_buffer.to_array(), ref_rows)
    assert completions == ref_completions
    assert len(completions) == len(spans)


def _flaky_mirror(sim):
    """raid1 over a mirror with media errors and a clean one, with every
    physical part each member accepts recorded in submit order."""
    disks = _mkdisks(sim, 2)
    disks[0].media_error_rate = 0.5
    parts = []
    for disk in disks:
        def spy(request, submit=disk.submit):
            parts.append(request)
            return submit(request)
        disk.submit = spy
    return Raid1Volume(disks), parts


def _assert_joined(outcomes, parts):
    """Each logical write (keyed by sector) completed once, at its last
    part's time, and failed exactly when one of its mirrored parts did."""
    assert sorted(outcomes) == [1000 * i for i in range(5)]
    assert len(parts) == 10
    failures = []
    for sector, (at, failed) in outcomes.items():
        pair = [p for p in parts if p.sector == sector]
        assert len(pair) == 2
        assert at == max(p.complete_time for p in pair)
        assert failed == any(p.failed for p in pair)
        failures.append(failed)
    assert True in failures and False in failures


def test_raid1_join_fails_with_any_part_through_volume_submit():
    sim = Simulator()
    volume, parts = _flaky_mirror(sim)
    outcomes = {}

    def record(ev):
        assert ev.value.sector not in outcomes
        outcomes[ev.value.sector] = (sim.now, ev.value.failed)

    for i in range(5):
        request = IORequest(sector=1000 * i, nsectors=8, is_write=True)
        volume.submit(request).callbacks.append(record)
    sim.run(until=10)
    _assert_joined(outcomes, parts)


def test_raid1_join_fails_with_any_part_through_driver():
    sim = Simulator()
    volume, parts = _flaky_mirror(sim)
    driver = InstrumentedIDEDriver(sim, volume, max_retries=0)
    outcomes = {}

    def writer(sector):
        try:
            yield driver.write_sectors(sector, 8)
            outcomes[sector] = (sim.now, False)
        except IOError:
            outcomes[sector] = (sim.now, True)

    for i in range(5):
        sim.process(writer(1000 * i))
    sim.run(until=10)
    _assert_joined(outcomes, parts)
    assert driver.hard_failures == sum(f for _, f in outcomes.values())


def test_concat_volume_splits_boundary_spans():
    sim = Simulator()
    volume = ConcatVolume(_mkdisks(sim, 2, capacity_mb=50))
    size0 = volume.disks[0].total_sectors
    parts = volume.map_extents(size0 - 8, 16, True)
    assert parts == ((0, size0 - 8, 8), (1, 0, 8))
