"""Unit and property tests for named random streams."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.sim import BatchedDraws, RandomStreams


def test_same_name_same_stream_object():
    rs = RandomStreams(seed=1)
    assert rs.stream("disk") is rs.stream("disk")


def test_reproducible_across_factories():
    a = RandomStreams(seed=42).stream("klog").random(5)
    b = RandomStreams(seed=42).stream("klog").random(5)
    assert np.array_equal(a, b)


def test_different_names_decorrelated():
    rs = RandomStreams(seed=42)
    a = rs.stream("a").random(100)
    b = rs.stream("b").random(100)
    assert not np.array_equal(a, b)


def test_creation_order_does_not_matter():
    rs1 = RandomStreams(seed=7)
    first = rs1.stream("x").random(3)
    rs2 = RandomStreams(seed=7)
    rs2.stream("y")  # create another stream first
    second = rs2.stream("x").random(3)
    assert np.array_equal(first, second)


def test_spawn_children_differ_from_parent_and_each_other():
    root = RandomStreams(seed=9)
    n0 = root.spawn("node0").stream("disk").random(10)
    n1 = root.spawn("node1").stream("disk").random(10)
    p = root.stream("disk").random(10)
    assert not np.array_equal(n0, n1)
    assert not np.array_equal(n0, p)


def test_spawn_reproducible():
    a = RandomStreams(seed=3).spawn("node5").stream("s").random(4)
    b = RandomStreams(seed=3).spawn("node5").stream("s").random(4)
    assert np.array_equal(a, b)


@given(st.integers(min_value=0, max_value=2**31 - 1), st.text(min_size=1, max_size=20))
def test_stream_deterministic_property(seed, name):
    x = RandomStreams(seed).stream(name).integers(0, 1 << 30)
    y = RandomStreams(seed).stream(name).integers(0, 1 << 30)
    assert x == y


@given(st.integers(min_value=0, max_value=1000))
def test_distinct_seeds_usually_distinct_draws(seed):
    a = RandomStreams(seed).stream("s").random(8)
    b = RandomStreams(seed + 1).stream("s").random(8)
    assert not np.array_equal(a, b)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 31 - 1),
       st.integers(min_value=1, max_value=700))
def test_batched_draws_match_scalar_stream(seed, n):
    # promised by the BatchedDraws docstring: prefetching blocks yields
    # the exact value sequence of per-call rng.random()
    scalar = np.random.default_rng(seed)
    batched = BatchedDraws(np.random.default_rng(seed))
    expected = [float(scalar.random()) for _ in range(n)]
    got = [float(batched.random()) for _ in range(n)]
    assert got == expected
