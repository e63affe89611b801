"""Deterministic named random streams.

Every stochastic subsystem (disk service jitter, klogd arrivals, app compute
time noise, ...) draws from its own :class:`numpy.random.Generator`, derived
from a single root seed and a stream name.  This keeps experiments
reproducible and lets one subsystem's draw count change without perturbing
the others — essential when comparing ablations.
"""

from __future__ import annotations

import hashlib

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
