"""The page-touch decoder against numpy's own samplers.

``draw_page_touches`` reads a compute phase's words with one
``random_raw`` call and decodes them; these tests hold it to the plain
per-slice ``integers``/``random``/``integers`` calls in every value and
in the bit-generator state it leaves, including the 32-bit half-word
buffer that numpy keeps across bounded calls.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.sim import rng as rng_mod
from repro.sim.rng import draw_page_touches, touch_decoder_ok

#: bounds with no rejection risk to speak of, a power of two, the single
#: value numpy draws nothing for, and 2**31+1 (about half the draws reject)
BOUNDS = st.one_of(st.sampled_from([1, 2, 3, 2 ** 12, 2 ** 20, 2 ** 31 + 1]),
                   st.integers(min_value=1, max_value=2 ** 20))


def plain(gen, slices, region, touches, dirty_fraction, code_region,
          code_touches):
    """The reference: compute()'s per-slice calls before the decoder."""
    pages, dirty, code = [], [], []
    for _ in range(slices):
        if region is not None and touches > 0:
            start, npages = region
            pages.append(gen.integers(start, start + npages, size=touches))
            dirty.append(gen.random(touches) < dirty_fraction)
        if code_region is not None and code_touches > 0:
            start, npages = code_region
            code.append(gen.integers(start, start + npages,
                                     size=code_touches))
    return pages, dirty, code


def assert_same(got, want):
    for part, rows in zip(got, want):
        if not rows:
            assert part is None or part.size == 0
        else:
            assert part.tolist() == [row.tolist() for row in rows]


def pair(seed, buffered_bound):
    """Two generators in one state, optionally holding a buffered
    half-word from an odd-sized bounded draw."""
    a, b = np.random.default_rng(seed), np.random.default_rng(seed)
    if buffered_bound:
        a.integers(0, buffered_bound, size=3)
        b.integers(0, buffered_bound, size=3)
        assert a.bit_generator.state["has_uint32"] == 1
    return a, b


regions = st.one_of(st.none(), st.tuples(st.integers(0, 10_000), BOUNDS))


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1),
       slices=st.integers(1, 300),
       region=regions, touches=st.integers(0, 9),
       dirty_fraction=st.floats(0.0, 1.0),
       code_region=regions, code_touches=st.integers(0, 5),
       buffered_bound=st.sampled_from([0, 7, 2 ** 16]),
       calls=st.integers(1, 3))
def test_decoder_matches_plain_calls(seed, slices, region, touches,
                                     dirty_fraction, code_region,
                                     code_touches, buffered_bound, calls):
    fast, ref = pair(seed, buffered_bound)
    args = (region, touches, dirty_fraction, code_region, code_touches)
    # repeated calls: an odd phase leaves the next one a buffered half
    for _ in range(calls):
        assert_same(draw_page_touches(fast, slices, *args),
                    plain(ref, slices, *args))
        assert fast.bit_generator.state == ref.bit_generator.state


@pytest.mark.parametrize("code_touches", [1, 2, 3])
@pytest.mark.parametrize("touches", [0, 1, 7, 8])
@pytest.mark.parametrize("buffered_bound", [0, 5])
def test_decoder_path_itself_matches(touches, code_touches, buffered_bound):
    # the decoder alone, no fallback: the paper's sizes never reject
    fast, ref = pair(11, buffered_bound)
    args = (35, (40, 2048), touches, 0.3, (0, 64), code_touches)
    got = rng_mod._decode_touches(fast, *args)
    assert got is not None
    assert_same(got, plain(ref, *args))
    assert fast.bit_generator.state == ref.bit_generator.state


def test_rejection_restores_state_and_falls_back():
    # 2**31 + 1 rejects about half its draws: the decoder must give up
    # with the state untouched, and the public call must still agree
    fast, ref = pair(5, 3)
    before = fast.bit_generator.state
    args = (4, (0, 2 ** 31 + 1), 6, 0.5, None, 0)
    assert rng_mod._decode_touches(fast, *args) is None
    assert fast.bit_generator.state == before
    assert_same(draw_page_touches(fast, *args), plain(ref, *args))
    assert fast.bit_generator.state == ref.bit_generator.state


def test_zero_touches_and_missing_regions_draw_nothing():
    gen = np.random.default_rng(2)
    before = gen.bit_generator.state
    assert draw_page_touches(gen, 10, None, 8, 0.3, None, 2) \
        == (None, None, None)
    assert draw_page_touches(gen, 10, (0, 50), 0, 0.3, (0, 9), 0) \
        == (None, None, None)
    assert gen.bit_generator.state == before


def test_bound_of_one_draws_no_half_words():
    fast, ref = pair(9, 7)          # a half-word is buffered ...
    args = (12, (5, 1), 3, 0.4, (8, 1), 2)
    got = draw_page_touches(fast, *args)
    assert_same(got, plain(ref, *args))
    assert (got[0] == 5).all() and (got[2] == 8).all()
    # ... and stays buffered: only the uniforms took words
    assert fast.bit_generator.state == ref.bit_generator.state
    assert fast.bit_generator.state["has_uint32"] == 1


def test_failed_self_check_falls_back_to_plain_values(monkeypatch):
    def wrong(gen, slices, region, touches, *rest):
        pages, dirty, code = rng_mod._plain_touches(gen, slices, region,
                                                    touches, *rest)
        return (None if pages is None else pages + 1), dirty, code

    monkeypatch.setattr(rng_mod, "_decode_touches", wrong)
    touch_decoder_ok.cache_clear()
    try:
        assert touch_decoder_ok() is False
        fast, ref = pair(4, 0)
        args = (20, (0, 64), 8, 0.3, (100, 16), 3)
        assert_same(draw_page_touches(fast, *args), plain(ref, *args))
        assert fast.bit_generator.state == ref.bit_generator.state
    finally:
        monkeypatch.undo()
        touch_decoder_ok.cache_clear()


def test_fast_path_is_in_use_on_this_numpy(monkeypatch):
    # tripwire: a numpy release that changes its samplers turns the
    # decoder off (costing compute() its speed); fail here instead
    touch_decoder_ok.cache_clear()
    assert touch_decoder_ok() is True
    gen = np.random.default_rng(1)
    calls = []
    monkeypatch.setattr(rng_mod, "_plain_touches",
                        lambda *a: calls.append(a))
    draw_page_touches(gen, 35, (0, 4096), 8, 0.3, (0, 64), 3)
    assert calls == []
