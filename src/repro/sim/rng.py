"""Deterministic named random streams.

Every stochastic subsystem (disk service jitter, klogd arrivals, app compute
time noise, ...) draws from its own :class:`numpy.random.Generator`, derived
from a single root seed and a stream name.  This keeps experiments
reproducible and lets one subsystem's draw count change without perturbing
the others — essential when comparing ablations.
"""

from __future__ import annotations

import functools
import hashlib
import sys
from typing import Optional, Tuple

import numpy as np


class RandomStreams:
    """Factory of independent, named RNG streams under one root seed."""

    def __init__(self, seed: int = 0):
        self.seed = int(seed)
        self._cache: dict[str, np.random.Generator] = {}

    def stream(self, name: str) -> np.random.Generator:
        """Return the generator for ``name``, creating it on first use.

        The same (seed, name) pair always yields an identically-seeded
        generator, regardless of creation order.
        """
        gen = self._cache.get(name)
        if gen is None:
            digest = hashlib.sha256(
                f"{self.seed}:{name}".encode()).digest()
            child_seed = int.from_bytes(digest[:8], "little")
            gen = np.random.default_rng(child_seed)
            self._cache[name] = gen
        return gen

    def spawn(self, suffix: str) -> "RandomStreams":
        """Derive a child factory (e.g. one per cluster node)."""
        digest = hashlib.sha256(
            f"{self.seed}/spawn/{suffix}".encode()).digest()
        return RandomStreams(int.from_bytes(digest[:8], "little"))

    def snapshot_state(self) -> dict:
        """Every instantiated stream's bit-generator state, by name.

        The state dicts are plain trees (PCG64: a couple of big ints),
        so they drop straight into a checkpoint.
        """
        return {"seed": self.seed,
                "streams": {name: gen.bit_generator.state
                            for name, gen in sorted(self._cache.items())}}

    def restore_state(self, state: dict) -> None:
        """Recreate the named streams and rewind them to ``state``."""
        for name, bg_state in state["streams"].items():
            self.stream(name).bit_generator.state = bg_state

    def __repr__(self) -> str:  # pragma: no cover
        return f"RandomStreams(seed={self.seed})"


def uniform_index_drawer(gen: np.random.Generator, n: int):
    """A callable equivalent to ``lambda: int(gen.integers(n))``, cheaper.

    ``Generator.integers`` costs several microseconds per scalar call,
    almost all of it argument handling.  Underneath it is Lemire's
    bounded sampler over 32-bit half-words (low half of each 64-bit
    word first, the unused high half buffered across calls): draw
    ``u``, form ``m = u * n``, redraw while the low 32 bits of ``m``
    fall under ``2**32 % n``, return ``m >> 32``.  This drawer
    reproduces that consumption directly from
    ``bit_generator.random_raw`` at a fraction of the cost.

    The fast path is *self-verifying*: at construction it replays a
    window of draws against the real ``integers`` on a state snapshot
    and silently falls back to the plain call on any mismatch (say, a
    numpy release changing the sampler), so the value stream is
    identical to scalar ``integers`` by construction, not by assumption.

    Like :class:`BatchedDraws`, only safe when this drawer is the sole
    consumer of *bounded-integer* draws on ``gen`` (whole-word draws
    such as ``random()``/``exponential()`` interleave fine: they do not
    touch the 32-bit half-word buffer).
    """
    if n < 1:
        raise ValueError("need n >= 1")
    fallback = gen.integers
    if n == 1:
        # numpy skips the stream entirely for a single-value range
        drawer = lambda: 0  # noqa: E731
        drawer.get_state = lambda: None
        drawer.set_state = lambda _state: None
        return drawer
    raw = gen.bit_generator.random_raw
    threshold = (1 << 32) % n  # Lemire rejection bound (0 for pow2 n)
    buffered = [None]

    def fast() -> int:
        while True:
            half = buffered[0]
            if half is not None:
                buffered[0] = None
                u = half
            else:
                word = int(raw())
                buffered[0] = word >> 32
                u = word & 0xFFFFFFFF
            m = u * n
            if (m & 0xFFFFFFFF) >= threshold:
                return m >> 32

    state = gen.bit_generator.state
    expected = [int(fallback(n)) for _ in range(64)]
    gen.bit_generator.state = state
    if [fast() for _ in range(64)] != expected:  # pragma: no cover - drift
        gen.bit_generator.state = state
        drawer = lambda: int(fallback(n))  # noqa: E731
        drawer.get_state = lambda: None
        drawer.set_state = lambda _state: None
        return drawer
    gen.bit_generator.state = state
    buffered[0] = None
    # The buffered half-word is RNG state the generator itself cannot
    # see; checkpoints capture it through these hooks.
    fast.get_state = lambda: buffered[0]
    fast.set_state = lambda half: buffered.__setitem__(0, half)
    return fast


_LOW32 = np.uint64(0xFFFFFFFF)
_SHIFT32 = np.uint64(32)
_SHIFT11 = np.uint64(11)
_INV_2_53 = 1.0 / 9007199254740992.0
#: where a word's low 32-bit half sits in its ``uint32`` view
_LOW_HALF = 0 if sys.byteorder == "little" else 1


def draw_page_touches(gen: np.random.Generator, slices: int,
                      region: Optional[Tuple[int, int]], touches: int,
                      dirty_fraction: float,
                      code_region: Optional[Tuple[int, int]],
                      code_touches: int):
    """A compute phase's page touches, as numpy makes them slice by slice.

    Returns ``(pages, dirty, code)``: ``(slices, touches)`` arrays of
    page ids and write flags for ``region`` and a ``(slices,
    code_touches)`` array of page ids for ``code_region`` (either part
    ``None`` when its region is ``None`` or its count 0).  The values and
    the generator state it leaves are exactly those of the plain calls,
    per slice::

        gen.integers(start, start + npages, size=touches)
        gen.random(touches) < dirty_fraction
        gen.integers(code_start, code_start + code_npages, size=code_touches)

    but the whole phase costs one ``bit_generator.random_raw`` call,
    decoded in numpy, instead of up to three Generator calls a slice.
    The decoder follows numpy's samplers: a uniform takes a whole word,
    ``(w >> 11) * 2**-53``; a bounded draw takes a 32-bit half-word
    (low half first) through the bit generator's own buffer
    (``state["has_uint32"]``, ``state["uinteger"]``), which persists
    across calls, and maps it with Lemire's method as
    :func:`uniform_index_drawer` does.  A bound of 1 draws nothing.

    Should any bounded draw of the phase need Lemire's rejection, the
    state is put back and the phase is drawn with the plain calls, as
    it is when the process-wide self-check (:func:`touch_decoder_ok`)
    finds the decoder disagreeing with the installed numpy.  Only safe
    when the caller is the generator's sole consumer while it uses the
    touches: the phase is drawn up front.
    """
    # below, a region is read only when its count is non-zero
    if region is None:
        touches = 0
    if code_region is None:
        code_touches = 0
    if touch_decoder_ok():
        drawn = _decode_touches(gen, slices, region, touches,
                                dirty_fraction, code_region, code_touches)
        if drawn is not None:
            return drawn
    return _plain_touches(gen, slices, region, touches, dirty_fraction,
                          code_region, code_touches)


def _plain_touches(gen, slices, region, touches, dirty_fraction,
                   code_region, code_touches):
    """:func:`draw_page_touches` by the plain Generator calls."""
    pages = np.empty((slices, touches), dtype=np.int64)
    dirty = np.empty((slices, touches), dtype=bool)
    code = np.empty((slices, code_touches), dtype=np.int64)
    for i in range(slices):
        if touches:
            start, npages = region
            pages[i] = gen.integers(start, start + npages, size=touches)
            dirty[i] = gen.random(touches) < dirty_fraction
        if code_touches:
            start, npages = code_region
            code[i] = gen.integers(start, start + npages, size=code_touches)
    return (pages if touches else None, dirty if touches else None,
            code if code_touches else None)


@functools.lru_cache(maxsize=64)
def _touch_layout(slices, kb, touches, cb, buffered):
    """Where a phase's draws sit in its raw words.

    A slice draws ``kb`` bounded values, ``touches`` uniforms, then
    ``cb`` bounded values; ``buffered`` says whether the bit generator
    holds a half-word that the first bounded draw takes.  Returns the
    phase's word count, the index of each other bounded draw's
    half-word in the words' ``uint32`` view, and each uniform's word.
    """
    pattern = np.zeros(kb + touches + cb, dtype=bool)
    pattern[:kb] = True
    pattern[kb + touches:] = True
    bounded = np.tile(pattern, slices)
    # every uniform opens a word; the bounded draws after the buffered
    # half-word open one every other half-word
    opens = ~bounded
    at = np.flatnonzero(bounded)[buffered:]
    opens[at[0::2]] = True
    word_at = np.cumsum(opens) - 1
    nwords = int(word_at[-1]) + 1 if len(word_at) else 0
    word = word_at[at[0::2]]
    halves = np.empty(len(at), dtype=np.intp)
    halves[0::2] = 2 * word + _LOW_HALF
    halves[1::2] = 2 * word[:len(at) // 2] + (1 - _LOW_HALF)
    uniforms = word_at[~bounded]
    # cached, so shared by every caller with this layout
    halves.flags.writeable = uniforms.flags.writeable = False
    return nwords, halves, uniforms


def _lemire(u, start, n):
    """``start`` plus Lemire's map of half-words ``u`` onto ``[0, n)``,
    or ``None`` if any of them numpy would reject and redraw."""
    m = u * np.uint64(n)
    if ((m & _LOW32) < np.uint64((1 << 32) % n)).any():
        return None
    return (m >> _SHIFT32).astype(np.int64) + start


def _decode_touches(gen, slices, region, touches, dirty_fraction,
                    code_region, code_touches):
    """:func:`draw_page_touches` from one ``random_raw`` read.

    Returns ``None``, with the generator state as it found it, when a
    bounded draw would reject (or a bound exceeds 32 bits).
    """
    region_n = region[1] if touches else 1
    code_n = code_region[1] if code_touches else 1
    if region_n > 1 << 32 or code_n > 1 << 32:
        return None
    # a bound of 1 takes no half-word
    kb = touches if region_n > 1 else 0
    cb = code_touches if code_n > 1 else 0
    bitgen = gen.bit_generator
    saved = bitgen.state
    buffered = int(saved["has_uint32"]) if slices and kb + cb else 0
    nwords, half_at, uniform_at = _touch_layout(slices, kb, touches, cb,
                                                buffered)
    words = bitgen.random_raw(nwords) if nwords \
        else np.empty(0, dtype=np.uint64)
    halves = words.view(np.uint32)
    u = np.empty(slices * (kb + cb), dtype=np.uint64)
    if buffered:
        u[0] = saved["uinteger"]
    u[buffered:] = halves[half_at]
    u = u.reshape(slices, kb + cb)
    pages = dirty = code = None
    if touches:
        start = region[0]
        pages = _lemire(u[:, :kb], start, region_n) if kb \
            else np.full((slices, touches), start, dtype=np.int64)
        uniforms = words[uniform_at].reshape(slices, touches)
        dirty = (uniforms >> _SHIFT11).astype(np.float64) * _INV_2_53 \
            < dirty_fraction
    if code_touches:
        start = code_region[0]
        code = _lemire(u[:, kb:], start, code_n) if cb \
            else np.full((slices, code_touches), start, dtype=np.int64)
    if (touches and pages is None) or (code_touches and code is None):
        bitgen.state = saved
        return None
    if u.size:
        # leave the half-word buffer as numpy would: the high half of the
        # last bounded word drawn, flagged if it went unused
        state = bitgen.state
        state["has_uint32"] = len(half_at) % 2
        if len(half_at):
            state["uinteger"] = int(
                halves[half_at[-1] // 2 * 2 + 1 - _LOW_HALF])
        bitgen.state = state
    return pages, dirty, code


@functools.lru_cache(maxsize=None)
def touch_decoder_ok() -> bool:
    """Whether :func:`draw_page_touches` decodes raw words on this numpy.

    Checked once per process: a fixed-seed series of phases (odd counts
    carrying a buffered half-word, a bound of 1, a power of two, a
    rejection-heavy bound of ``2**31 + 1``) drawn both ways must agree
    in every value and in the generator state left behind.
    """
    cases = [(3, (5, 7), 3, 0.3, (100, 12), 3),
             (1, (7, 1), 2, 0.5, (0, 4096), 1),
             (40, (0, 35000), 8, 0.3, None, 0),
             (2, None, 0, 0.3, (9, 2 ** 31 + 1), 5),
             (6, (3, 6), 5, 0.9, (0, 1), 2),
             (17, (11, 3 * 2 ** 30), 1, 0.3, (1, 5), 0)]
    fast = np.random.default_rng(20240501)
    plain = np.random.default_rng(20240501)
    for slices, region, touches, frac, code_region, code_touches in cases:
        args = (slices, region, touches, frac, code_region, code_touches)
        got = _decode_touches(fast, *args)
        if got is None:
            got = _plain_touches(fast, *args)
        want = _plain_touches(plain, *args)
        for a, b in zip(got, want):
            if (a is None) != (b is None) \
                    or (a is not None and not np.array_equal(a, b)):
                return False
        if fast.bit_generator.state != plain.bit_generator.state:
            return False
    return True


class BatchedDraws:
    """Amortise per-draw RNG overhead by prefetching uniform blocks.

    ``gen.random()`` costs a full Generator round-trip per call;
    ``gen.random(n)`` costs nearly the same once for ``n`` values.  This
    wrapper prefetches blocks and hands them out one at a time, producing
    the **exact same value sequence** as repeated scalar calls on the
    same generator (NumPy fills batch output from the identical
    bit-stream — property-tested in ``tests/test_sim_rng.py``).

    Only safe to wrap a stream with a *single* consumer: interleaving a
    wrapped and an unwrapped handle to the same generator would let the
    prefetch reorder draws.  The disk's rotational-latency stream is such
    a single-consumer stream.
    """

    __slots__ = ("_gen", "_block", "_buf", "_i")

    def __init__(self, gen: np.random.Generator, block: int = 256):
        self._gen = gen
        self._block = int(block)
        self._buf = gen.random(self._block)
        self._i = 0

    def random(self) -> float:
        """Next uniform in [0, 1) — identical to ``gen.random()``."""
        i = self._i
        buf = self._buf
        if i >= self._block:
            buf = self._buf = self._gen.random(self._block)
            i = 0
        self._i = i + 1
        return buf[i]

    def snapshot_state(self) -> dict:
        """Prefetch buffer + cursor (the generator state travels with
        its :class:`RandomStreams` owner, not here)."""
        return {"block": self._block, "buf": self._buf.copy(),
                "i": self._i}

    def restore_state(self, state: dict) -> None:
        self._block = int(state["block"])
        self._buf = state["buf"].copy()
        self._i = int(state["i"])
