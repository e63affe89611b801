"""Unit tests for the streaming accumulator primitives.

The load-bearing property: updating over any partition of a record
stream and merging the partial states must equal one update over the
whole stream — that is what lets the analysis engine fan out across
chunks, nodes, and processes without changing results.
"""

import pickle
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis import (
    BandCounts,
    BinnedCounts,
    Count,
    GapStats,
    Log2Histogram,
    MeanVar,
    MinMax,
    ReservoirSample,
    Sum,
    TopK,
    ValueCounts,
)
from repro.analysis import accumulators
from repro.driver import TRACE_DTYPE


def make_records(n=1000, seed=0):
    rng = np.random.default_rng(seed)
    records = np.zeros(n, dtype=TRACE_DTYPE)
    records["time"] = np.sort(rng.uniform(0, 500, n))
    records["sector"] = rng.integers(0, 1_024_128, n)
    records["write"] = rng.random(n) < 0.8
    records["pending"] = rng.integers(1, 8, n)
    records["size_kb"] = rng.choice([0.5, 1.0, 2.0, 4.0, 32.0], n)
    records["node"] = rng.integers(0, 4, n)
    return records


def random_splits(records, pieces, seed):
    rng = np.random.default_rng(seed)
    cuts = np.sort(rng.integers(0, len(records), pieces - 1))
    return np.split(records, cuts)


def fold_split(factory, records, pieces=7, seed=1):
    """One accumulator per piece, merged pairwise left to right."""
    parts = []
    for piece in random_splits(records, pieces, seed):
        acc = factory()
        acc.update(piece)
        parts.append(acc)
    merged = parts[0]
    for acc in parts[1:]:
        merged.merge(acc)
    return merged


@pytest.mark.parametrize("factory,exact", [
    (Count, True),
    (lambda: Sum("size_kb"), True),
    (lambda: MinMax("time"), True),
    (lambda: ValueCounts("size_kb"), True),
    (lambda: TopK("sector", 5), True),
    (lambda: Log2Histogram("pending"), True),
    (lambda: BinnedCounts("time", 13, 0.0, 500.0), True),
    (lambda: BandCounts("sector", 100_000, 11), True),
    (lambda: MeanVar("size_kb"), False),
])
def test_split_merge_equals_whole(factory, exact):
    records = make_records()
    whole = factory()
    whole.update(records)
    for pieces, seed in ((2, 1), (7, 2), (25, 3)):
        split = fold_split(factory, records, pieces, seed)
        a, b = whole.result(), split.result()
        if isinstance(a, np.ndarray):
            assert np.array_equal(a, b)
        elif exact:
            assert a == b
        else:
            assert np.allclose(a, b)


def test_count_and_sum_values():
    records = make_records(100)
    c, s = Count(), Sum("size_kb")
    c.update(records)
    s.update(records)
    assert c.result() == 100
    assert s.result() == float(np.sum(records["size_kb"],
                                      dtype=np.float64))


def test_minmax_empty_and_typed():
    mm = MinMax("sector")
    assert mm.result() == (None, None)
    mm.update(make_records(10))
    lo, hi = mm.result()
    assert isinstance(lo, int) and isinstance(hi, int)
    ft = MinMax("time")
    ft.update(make_records(10))
    assert isinstance(ft.result()[0], float)


def test_meanvar_matches_numpy():
    records = make_records(512)
    mv = MeanVar("time")
    mv.update(records)
    times = records["time"].astype(np.float64)
    assert mv.mean == pytest.approx(times.mean(), rel=1e-12)
    assert mv.variance == pytest.approx(times.var(), rel=1e-12)
    assert mv.std == pytest.approx(times.std(), rel=1e-12)


def test_value_counts_exact():
    records = make_records(300)
    vc = ValueCounts("size_kb")
    vc.update(records)
    sizes, counts = np.unique(records["size_kb"], return_counts=True)
    assert vc.result() == {float(s): int(c) for s, c in zip(sizes, counts)}


def test_topk_ranking_and_ties():
    records = np.zeros(6, dtype=TRACE_DTYPE)
    records["sector"] = [5, 5, 5, 9, 9, 2]
    top = TopK("sector", 2)
    top.update(records)
    assert top.result() == [(5, 3), (9, 2)]


def test_log2_histogram_sentinels():
    records = np.zeros(3, dtype=TRACE_DTYPE)
    records["size_kb"] = [0.0, 1.0, 4.0]
    h = Log2Histogram("size_kb")
    h.update(records)
    # 0 -> sentinel; 1.0 -> exponent 1 (0.5 <= m < 1); 4.0 -> exponent 3
    assert h.result() == {-1024: 1, 1: 1, 3: 1}


def test_binned_counts_matches_numpy_and_rejects_mismatch():
    records = make_records(400)
    b = BinnedCounts("time", 10, 0.0, 500.0)
    b.update(records)
    expected = np.histogram(records["time"], bins=10, range=(0.0, 500.0))[0]
    assert np.array_equal(b.result(), expected)
    with pytest.raises(ValueError):
        b.merge(BinnedCounts("time", 11, 0.0, 500.0))


def test_band_counts_matches_bincount():
    records = make_records(400)
    bands = BandCounts("sector", 100_000, 11)
    bands.update(records)
    band_of = np.minimum(records["sector"] // 100_000, 10)
    assert np.array_equal(
        bands.result(),
        np.bincount(band_of.astype(np.int64), minlength=11))


def test_reservoir_bounded_and_deterministic():
    records = make_records(5000)
    a, b = ReservoirSample("sector", k=64, seed=3), \
        ReservoirSample("sector", k=64, seed=3)
    a.update(records)
    b.update(records)
    assert len(a.result()) == 64
    assert np.array_equal(a.result(), b.result())
    assert a.n == 5000
    # merged reservoirs still cap at k and count the union
    c = ReservoirSample("sector", k=64, seed=4)
    c.update(make_records(1000, seed=9))
    a.merge(c)
    assert len(a.result()) == 64
    assert a.n == 6000


def test_gapstats_matches_diff_over_batches():
    records = make_records(600)
    times = records["time"].astype(np.float64)
    gs = GapStats()
    for chunk in np.array_split(times, 9):
        gs.update_values(chunk)
    gaps = np.diff(times)
    n, mean, std = gs.result()
    assert n == len(gaps)
    assert mean == pytest.approx(gaps.mean(), rel=1e-12)
    assert std == pytest.approx(gaps.std(), rel=1e-12)


def test_gapstats_merge_ordered_partials():
    times = np.sort(np.random.default_rng(5).uniform(0, 100, 400))
    whole = GapStats()
    whole.update_values(times)
    left, right = GapStats(), GapStats()
    left.update_values(times[:150])
    right.update_values(times[150:])
    left.merge(right)
    assert left.result()[0] == whole.result()[0]
    assert left.result()[1] == pytest.approx(whole.result()[1], rel=1e-12)
    assert left.result()[2] == pytest.approx(whole.result()[2], rel=1e-12)


def test_gapstats_rejects_disorder():
    gs = GapStats()
    gs.update_values(np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        gs.update_values(np.array([0.5]))
    other = GapStats()
    other.update_values(np.array([1.5, 3.0]))
    with pytest.raises(ValueError):
        gs.merge(other)


def _numpy_gap_fold(batches):
    """The all-NumPy GapStats fold: a diff with the carried last time."""
    gaps, first, last = MeanVar(), None, None
    for times in batches:
        if last is not None:
            gaps.update_values(np.diff(np.concatenate([[last], times])))
        else:
            first = float(times[0])
            if len(times) > 1:
                gaps.update_values(np.diff(times))
        last = float(times[-1])
    return gaps, first, last


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       sizes=st.lists(st.sampled_from([1, 1, 1, 2, 2, 3, 5, 9]),
                      min_size=1, max_size=40),
       ticks=st.sampled_from([0, 4, 10**9]))
def test_gapstats_scalar_steps_match_numpy_fold(seed, sizes, ticks):
    """1- and 2-value batches take the scalar step, bit for bit."""
    rng = np.random.default_rng(seed)
    n = sum(sizes)
    if ticks:       # a coarse grid repeats times: zero gaps
        times = np.sort(rng.integers(0, ticks, n)) * 1e-3
    else:
        times = np.sort(rng.exponential(0.7, n).cumsum())
    batches = np.split(times, np.cumsum(sizes)[:-1])
    gs = GapStats()
    for batch in batches:
        gs.update_values(batch)
    gaps, first, last = _numpy_gap_fold(batches)
    assert gs.gaps.n == gaps.n == n - 1
    assert gs.gaps.mean.hex() == float(gaps.mean).hex()
    assert gs.gaps.m2.hex() == float(gaps.m2).hex()
    assert gs.first.hex() == first.hex()
    assert gs.last.hex() == last.hex()


#: merge block sizes: mostly the one- and two-value blocks a merged
#: stream is made of, and rows past NumPy's 8-wide pairwise unroll and
#: its 128-value pairwise block
BLOCK_SIZES = (1, 1, 1, 2, 2, 3, 5, 9, 17, 130, 300)


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       nblocks=st.integers(1, 300),
       ncuts=st.integers(0, 40),
       ticks=st.sampled_from([0, 4, 10**9]),
       slice_blocks=st.sampled_from([1, 2, 5, 64, 4096]))
def test_gapstats_update_blocks_matches_per_block_fold(seed, nblocks, ncuts,
                                                       ticks, slice_blocks):
    """Windows of blocks fold bit for bit like one batch per block,
    however the windows are cut into slices."""
    rng = np.random.default_rng(seed)
    sizes = rng.choice(BLOCK_SIZES, nblocks)
    n = int(sizes.sum())
    if ticks:
        times = np.sort(rng.integers(0, ticks, n)) * 1e-3
    else:
        times = np.sort(rng.exponential(0.7, n).cumsum())
    starts = np.concatenate(([0], np.cumsum(sizes)[:-1]))
    blocks = np.split(times, starts[1:])
    per_block, windowed = GapStats(), GapStats()
    # windows end on block boundaries, as the merge's do; the states
    # must agree after every window (early ones see the last bits of
    # a step, which a long stream's mean and m2 round away)
    edges = sorted({0, nblocks, *rng.integers(1, max(nblocks, 2), ncuts)})
    with mock.patch.object(accumulators, "_SLICE_BLOCKS", slice_blocks):
        for lo, hi in zip(edges, edges[1:]):
            for block in blocks[lo:hi]:
                per_block.update_values(block)
            first = int(starts[lo])
            end = int(starts[hi]) if hi < nblocks else n
            windowed.update_blocks(times[first:end], starts[lo:hi] - first)
            assert windowed.gaps.n == per_block.gaps.n
            for a, b in ((windowed.gaps.mean, per_block.gaps.mean),
                         (windowed.gaps.m2, per_block.gaps.m2),
                         (windowed.first, per_block.first),
                         (windowed.last, per_block.last)):
                assert float(a).hex() == float(b).hex()
    assert windowed.gaps.n == n - 1


@pytest.mark.parametrize("size", [1, 2, 3, 17])
def test_gapstats_update_blocks_step_matches_update_values(size):
    """One block folded into a running state, from many random states:
    every Chan step the window fold takes (the one-gap step written
    out, the general one for longer blocks) has the bits of
    ``update_values``.  A long stream's mean rounds a changed last bit
    of one step away, so the steps are checked one at a time."""
    rng = np.random.default_rng(size)
    for _ in range(500):
        state = GapStats()
        state.first, state.last = 0.0, float(rng.uniform(0, 100))
        state.gaps.n = int(10 ** rng.uniform(0, 6))
        state.gaps.mean = float(rng.exponential(1.0))
        state.gaps.m2 = float(rng.exponential(1.0)) * state.gaps.n
        scale = 10 ** rng.uniform(-2, 2)
        block = state.last + np.cumsum(rng.exponential(scale, size))
        want = pickle.loads(pickle.dumps(state))
        want.update_values(block)
        state.update_blocks(block, np.array([0]))
        assert state.gaps.n == want.gaps.n
        assert state.gaps.mean.hex() == want.gaps.mean.hex()
        assert state.gaps.m2.hex() == want.gaps.m2.hex()
        assert state.last.hex() == want.last.hex()


def test_gapstats_update_blocks_rejects_disorder():
    gs = GapStats()
    gs.update_blocks(np.array([1.0, 2.0, 3.0]), np.array([0, 2]))
    with pytest.raises(ValueError, match="time-ordered"):
        gs.update_blocks(np.array([2.5, 4.0]), np.array([0, 1]))


@pytest.mark.parametrize("batch", [[0.5], [0.5, 3.0]])
def test_gapstats_scalar_step_rejects_disorder(batch):
    gs = GapStats()
    gs.update_values(np.array([1.0, 2.0]))
    with pytest.raises(ValueError, match="time-ordered"):
        gs.update_values(np.array(batch))


def test_gapstats_first_single_value_adds_no_gap():
    gs = GapStats()
    gs.update_values(np.array([4.25]))
    assert (gs.first, gs.last, gs.gaps.n) == (4.25, 4.25, 0)
    gs.update_values(np.array([5.0]))
    assert (gs.first, gs.last, gs.gaps.n, gs.gaps.mean) == \
        (4.25, 5.0, 1, 0.75)


def test_only_gapstats_is_ordered():
    """The engine feeds the merged stream only to ``ordered`` ones."""
    assert GapStats.ordered
    for cls in (Count, Sum, MinMax, MeanVar, ValueCounts, TopK,
                Log2Histogram, BinnedCounts, BandCounts, ReservoirSample):
        assert not cls.ordered, cls


def test_accumulators_pickle_roundtrip():
    """Partial states must survive the trip through a worker process."""
    records = make_records(200)
    accs = [Count(), Sum("size_kb"), MinMax("time"), MeanVar("time"),
            ValueCounts("size_kb"), TopK("sector", 3),
            Log2Histogram("pending"), BinnedCounts("time", 5, 0.0, 500.0),
            BandCounts("sector", 100_000, 11),
            ReservoirSample("sector", k=16, seed=1), GapStats()]
    for acc in accs:
        acc.update(records)
        clone = pickle.loads(pickle.dumps(acc))
        a, b = acc.result(), clone.result()
        if isinstance(a, np.ndarray):
            assert np.array_equal(a, b)
        else:
            assert a == b
        # and the clone keeps accumulating (rng state restored, etc.)
        clone.update(records[:0])
