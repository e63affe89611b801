"""Composable streaming accumulators over trace record batches.

Every accumulator folds :data:`~repro.driver.TRACE_DTYPE` record arrays
chunk by chunk (``update``), combines partial states computed on other
chunks, nodes, or processes (``merge``), and produces its summary on
demand (``result``).  The contract that makes the analysis engine exact:

* ``update`` over any partition of a stream followed by ``merge`` of the
  partial states equals one ``update`` over the whole stream, for every
  accumulator whose arithmetic is order-free (counts, integer tallies,
  min/max, dyadic-rational sums);
* accumulators are plain picklable objects, so partial states travel
  across ``multiprocessing`` workers unchanged.

Sums accumulate in float64 regardless of the column dtype.  Trace
request sizes are dyadic rationals (0.5, 1, 4, 32 KB) and the integer
columns are exact, so these sums are bit-identical however the stream
is chunked — the property the engine's equality guarantee rests on.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Tuple

import numpy as np


class Accumulator:
    """Base contract: fold record batches, merge partials, report.

    ``ordered`` marks an accumulator whose result depends on the order
    of the stream and on how it is split into batches (:class:`GapStats`).
    The analysis engine feeds only those the merged, time-sorted stream;
    every other accumulator folds each record batch once, in any order.
    """

    ordered = False

    def update(self, records: np.ndarray) -> None:
        raise NotImplementedError

    def update_blocks(self, times: np.ndarray, starts: np.ndarray) -> None:
        """Fold a window of sorted values, block by block.

        The blocks are ``times[starts[i]:starts[i + 1]]`` (the last one
        runs to the end); by default each goes through ``update_values``,
        which an ``ordered`` accumulator defines.
        """
        bounds = starts.tolist() + [len(times)]
        for lo, hi in zip(bounds, bounds[1:]):
            self.update_values(times[lo:hi])

    def merge(self, other: "Accumulator") -> None:
        raise NotImplementedError

    def result(self):
        raise NotImplementedError


class Count(Accumulator):
    """Number of records seen."""

    def __init__(self):
        self.n = 0

    def update(self, records: np.ndarray) -> None:
        self.n += len(records)

    def merge(self, other: "Count") -> None:
        self.n += other.n

    def result(self) -> int:
        return self.n


class Sum(Accumulator):
    """Float64 sum of one column (exact for integer and dyadic data)."""

    def __init__(self, field: str):
        self.field = field
        self.total = 0.0

    def update(self, records: np.ndarray) -> None:
        if len(records):
            self.total += float(np.sum(records[self.field],
                                       dtype=np.float64))

    def merge(self, other: "Sum") -> None:
        self.total += other.total

    def result(self) -> float:
        return self.total


class MinMax(Accumulator):
    """Running minimum and maximum of one column."""

    def __init__(self, field: str):
        self.field = field
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def update(self, records: np.ndarray) -> None:
        if not len(records):
            return
        lo = records[self.field].min()
        hi = records[self.field].max()
        if self.min is None or lo < self.min:
            self.min = float(lo) if records[self.field].dtype.kind == "f" \
                else int(lo)
        if self.max is None or hi > self.max:
            self.max = float(hi) if records[self.field].dtype.kind == "f" \
                else int(hi)

    def merge(self, other: "MinMax") -> None:
        if other.min is not None and (self.min is None
                                      or other.min < self.min):
            self.min = other.min
        if other.max is not None and (self.max is None
                                      or other.max > self.max):
            self.max = other.max

    def result(self) -> Tuple[Optional[float], Optional[float]]:
        return (self.min, self.max)


class MeanVar(Accumulator):
    """Streaming mean and variance of one column (Welford).

    Batches fold via the parallel update of Chan, Golub & LeVeque — the
    same formula ``merge`` uses — so the statistic is deterministic for
    a fixed partitioning and agrees with two-pass NumPy to floating
    round-off however the stream is split.
    """

    def __init__(self, field: Optional[str] = None):
        self.field = field
        self.n = 0
        self.mean = 0.0
        self.m2 = 0.0

    def update(self, records: np.ndarray) -> None:
        if not len(records):
            return
        values = records if self.field is None else records[self.field]
        self.update_values(np.asarray(values, dtype=np.float64))

    def update_values(self, values: np.ndarray) -> None:
        """Fold a plain float array (the column already extracted)."""
        if len(values):
            self._combine(len(values), *_moments(values))

    def merge(self, other: "MeanVar") -> None:
        self._combine(other.n, other.mean, other.m2)

    def _combine(self, n: int, mean: float, m2: float) -> None:
        if n == 0:
            return
        if self.n == 0:
            self.n, self.mean, self.m2 = n, mean, m2
            return
        total = self.n + n
        delta = mean - self.mean
        self.mean += delta * n / total
        self.m2 += m2 + delta * delta * self.n * n / total
        self.n = total

    @property
    def variance(self) -> float:
        """Population variance (``ddof=0``), 0 before two observations."""
        return self.m2 / self.n if self.n else 0.0

    @property
    def std(self) -> float:
        return math.sqrt(self.variance)

    def result(self) -> Tuple[int, float, float]:
        return (self.n, self.mean, self.variance)


def _moments(values: np.ndarray) -> Tuple[float, float]:
    """A non-empty batch's mean and sum of squared deviations."""
    mean = float(values.mean())
    return mean, float(np.sum((values - mean) ** 2))


class ValueCounts(Accumulator):
    """Exact occurrence count per distinct column value.

    Bounded by the number of *distinct* values (request sizes, node
    ids, sectors of a bounded disk), not by the stream length.
    """

    def __init__(self, field: str):
        self.field = field
        self.counts: Dict[float, int] = {}

    def update(self, records: np.ndarray) -> None:
        if not len(records):
            return
        values, counts = np.unique(records[self.field], return_counts=True)
        kind = values.dtype.kind
        cast = float if kind == "f" else int
        mine = self.counts
        for value, count in zip(values, counts):
            key = cast(value)
            mine[key] = mine.get(key, 0) + int(count)

    def merge(self, other: "ValueCounts") -> None:
        mine = self.counts
        for key, count in other.counts.items():
            mine[key] = mine.get(key, 0) + count

    def result(self) -> Dict[float, int]:
        """Counts keyed by value, ascending (``np.unique`` order)."""
        return dict(sorted(self.counts.items()))


class TopK(Accumulator):
    """The ``k`` most frequent values of a column (ties: smaller first)."""

    def __init__(self, field: str, k: int = 10):
        self.k = k
        self._counts = ValueCounts(field)

    def update(self, records: np.ndarray) -> None:
        self._counts.update(records)

    def merge(self, other: "TopK") -> None:
        self._counts.merge(other._counts)

    def result(self) -> List[Tuple[float, int]]:
        ranked = sorted(self._counts.counts.items(),
                        key=lambda kv: (-kv[1], kv[0]))
        return ranked[:self.k]


class Log2Histogram(Accumulator):
    """Power-of-two bucket tallies of one column.

    Buckets use the binary exponent ``e`` with ``2**(e-1) <= v < 2**e``,
    sentinel ``-1024`` for zero and ``-1025`` for negatives (kept as
    integers here — this is a versioned cached format; the obs layer
    reports the same observations as an ``underflow`` bucket) — so
    engine output diffs cleanly against
    runtime observability snapshots.
    """

    def __init__(self, field: str):
        self.field = field
        self.buckets: Dict[int, int] = {}

    def update(self, records: np.ndarray) -> None:
        if not len(records):
            return
        values = np.asarray(records[self.field], dtype=np.float64)
        keys = np.frexp(values)[1]
        keys[values == 0] = -1024
        keys[values < 0] = -1025
        uniq, counts = np.unique(keys, return_counts=True)
        mine = self.buckets
        for key, count in zip(uniq, counts):
            mine[int(key)] = mine.get(int(key), 0) + int(count)

    def merge(self, other: "Log2Histogram") -> None:
        mine = self.buckets
        for key, count in other.buckets.items():
            mine[key] = mine.get(key, 0) + count

    def result(self) -> Dict[int, int]:
        return dict(sorted(self.buckets.items()))


class BinnedCounts(Accumulator):
    """Fixed uniform-bin counts over ``[lo, hi]``, NumPy semantics.

    Per-batch counts come from ``np.histogram(values, nbins, (lo, hi))``
    — each value's bin is independent of the rest of the stream, so
    partial counts add exactly.  Values outside the range fall off, the
    right edge lands in the last bin, exactly as the one-shot call.
    """

    def __init__(self, field: str, nbins: int, lo: float, hi: float):
        if nbins < 1:
            raise ValueError("nbins must be >= 1")
        self.field = field
        self.nbins = nbins
        self.lo = float(lo)
        self.hi = float(hi)
        self.counts = np.zeros(nbins, dtype=np.int64)

    def update(self, records: np.ndarray) -> None:
        if not len(records):
            return
        values = np.asarray(records[self.field], dtype=np.float64)
        self.update_values(values)

    def update_values(self, values: np.ndarray) -> None:
        if len(values):
            self.counts += np.histogram(
                values, bins=self.nbins, range=(self.lo, self.hi))[0]

    def merge(self, other: "BinnedCounts") -> None:
        if (other.nbins, other.lo, other.hi) != \
                (self.nbins, self.lo, self.hi):
            raise ValueError("cannot merge histograms with different bins")
        self.counts += other.counts

    def result(self) -> np.ndarray:
        return self.counts


class BandCounts(Accumulator):
    """Integer band tallies: ``value // band`` clamped to the last band.

    The streaming form of the paper's Figure 7 binning (100K-sector
    spatial bands); identical to a ``np.bincount`` over the whole trace.
    """

    def __init__(self, field: str, band: int, nbands: int):
        if band < 1 or nbands < 1:
            raise ValueError("band and nbands must be >= 1")
        self.field = field
        self.band = band
        self.nbands = nbands
        self.counts = np.zeros(nbands, dtype=np.int64)

    def update(self, records: np.ndarray) -> None:
        if not len(records):
            return
        band_of = np.minimum(records[self.field] // self.band,
                             self.nbands - 1)
        self.counts += np.bincount(band_of.astype(np.int64),
                                   minlength=self.nbands)

    def merge(self, other: "BandCounts") -> None:
        if (other.band, other.nbands) != (self.band, self.nbands):
            raise ValueError("cannot merge band counts with different bands")
        self.counts += other.counts

    def result(self) -> np.ndarray:
        return self.counts


class ReservoirSample(Accumulator):
    """Uniform sample of up to ``k`` values of one column.

    Vitter's reservoir algorithm batched with NumPy; deterministic for a
    fixed seed and stream order.  ``merge`` draws the combined reservoir
    with each side weighted by its stream length, so distributed sampling
    stays uniform over the union.
    """

    def __init__(self, field: str, k: int = 1024, seed: int = 0):
        if k < 1:
            raise ValueError("k must be >= 1")
        self.field = field
        self.k = k
        self.seed = seed
        self.n = 0                      # stream length seen so far
        self.sample = np.zeros(0, dtype=np.float64)
        self._rng = np.random.default_rng(seed)

    def update(self, records: np.ndarray) -> None:
        if not len(records):
            return
        values = np.asarray(records[self.field], dtype=np.float64)
        if len(self.sample) < self.k:
            take = min(self.k - len(self.sample), len(values))
            self.sample = np.concatenate([self.sample, values[:take]])
            self.n += take
            values = values[take:]
        for value in values:
            self.n += 1
            j = self._rng.integers(0, self.n)
            if j < self.k:
                self.sample[j] = value

    def merge(self, other: "ReservoirSample") -> None:
        if other.n == 0:
            return
        if self.n == 0:
            self.n, self.sample = other.n, other.sample.copy()
            return
        total = self.n + other.n
        pool = np.concatenate([self.sample, other.sample])
        weights = np.concatenate([
            np.full(len(self.sample), self.n / len(self.sample)),
            np.full(len(other.sample), other.n / len(other.sample))])
        take = min(self.k, len(pool))
        picked = self._rng.choice(len(pool), size=take, replace=False,
                                  p=weights / weights.sum())
        self.sample = pool[picked]
        self.n = total

    def result(self) -> np.ndarray:
        return np.sort(self.sample)

    def __getstate__(self):
        state = self.__dict__.copy()
        state["_rng"] = self._rng.bit_generator.state
        return state

    def __setstate__(self, state):
        rng_state = state.pop("_rng")
        self.__dict__.update(state)
        self._rng = np.random.default_rng(self.seed)
        if isinstance(rng_state, dict):
            self._rng.bit_generator.state = rng_state


#: blocks per slice of ``GapStats.update_blocks``
_SLICE_BLOCKS = 4096


class GapStats(Accumulator):
    """Inter-arrival statistics of a *time-ordered* stream.

    Folds consecutive differences of the ``time`` column into a
    :class:`MeanVar`, carrying the boundary gap across batches.  The
    result depends on how the stream is split into batches, so the
    analysis engine feeds this accumulator its merged, globally
    time-sorted stream a window of merge blocks at a time
    (:meth:`update_blocks`), which folds exactly as one
    ``update_values`` per block would.  Partial states merge only when
    their time ranges concatenate in order (per-run folds never violate
    that).
    """

    ordered = True

    def __init__(self):
        self.gaps = MeanVar()
        self.first: Optional[float] = None
        self.last: Optional[float] = None

    def update(self, records: np.ndarray) -> None:
        if len(records):
            self.update_values(
                np.asarray(records["time"], dtype=np.float64))

    def update_values(self, times: np.ndarray) -> None:
        """Fold a sorted float64 batch of timestamps.

        Batches of one or two values after the first take a scalar
        step with the same bits as NumPy's ``mean`` and ``sum`` at those
        sizes; a merged stream is mostly such batches.
        """
        k = len(times)
        if not k:
            return
        last = self.last
        if last is not None and k <= 2:
            values = times.tolist()
            if values[0] < last:
                raise ValueError("GapStats requires a time-ordered stream")
            if k == 1:
                self.gaps._combine(1, values[0] - last, 0.0)
            else:
                a, b = values
                da, db = a - last, b - a
                mean = (da + db) / 2
                da, db = da - mean, db - mean
                self.gaps._combine(2, mean, da * da + db * db)
            self.last = values[-1]
            return
        if last is not None:
            if times[0] < last:
                raise ValueError("GapStats requires a time-ordered stream")
            with_carry = np.empty(k + 1, dtype=np.float64)
            with_carry[0] = last
            with_carry[1:] = times
            self.gaps.update_values(np.diff(with_carry))
        else:
            self.first = float(times[0])
            if k > 1:
                self.gaps.update_values(np.diff(times))
        self.last = float(times[-1])

    def update_blocks(self, times: np.ndarray, starts: np.ndarray) -> None:
        """Fold a sorted window block by block, bit-identical to
        ``update_values`` on each block in turn.

        The stream's first block takes ``update_values``.  Every later
        block's ``(count, mean, m2)`` comes from the arithmetic
        ``update_values`` would use (:meth:`_block_moments`), and the
        Chan combine runs as one plain-float loop, a slice of blocks at a
        time so its temporaries stay bounded.  A one-gap block takes the
        combine's step at ``k = 1``, ``m2 = 0`` without the products by
        one and the zero term, which keeps every bit.
        """
        if not len(starts):
            return
        if self.last is None:
            self.update_values(times[:starts[1] if len(starts) > 1
                                     else len(times)])
            starts = starts[1:]
        elif times[0] < self.last:
            raise ValueError("GapStats requires a time-ordered stream")
        gaps = self.gaps
        n, mean, m2 = gaps.n, gaps.mean, gaps.m2
        for lo in range(0, len(starts), _SLICE_BLOCKS):
            hi = lo + _SLICE_BLOCKS
            end = int(starts[hi]) if hi < len(starts) else len(times)
            counts, means, m2s = self._block_moments(times, starts[lo:hi],
                                                     end)
            if n == 0:              # the stream's first gaps
                n, mean, m2 = counts[0], means[0], m2s[0]
                counts, means, m2s = counts[1:], means[1:], m2s[1:]
            # MeanVar._combine, inlined
            for k, b_mean, b_m2 in zip(counts, means, m2s):
                total = n + k
                delta = b_mean - mean
                if k == 1:
                    mean += delta / total
                    m2 += delta * delta * n / total
                else:
                    mean += delta * k / total
                    m2 += b_m2 + delta * delta * n * k / total
                n = total
        gaps.n, gaps.mean, gaps.m2 = n, mean, m2
        self.last = float(times[-1])

    def _block_moments(self, times: np.ndarray, starts: np.ndarray,
                       end: int) -> Tuple[list, list, list]:
        """``(count, mean, m2)`` lists of the gaps each block adds.

        The blocks are ``times[starts[i]:starts[i + 1]]``, the last one
        ending at ``end``; a block's first gap is from the value before
        it (``self.last`` for a block at 0).  One- and two-value blocks
        take ``update_values``' scalar steps elementwise.  Longer blocks
        go a size at a time: the blocks of one size stack into a
        ``(blocks, size)`` array of gaps whose row ``mean`` and row
        ``sum`` of squared deviations have the bits of :func:`_moments`
        on each block alone (NumPy reduces each contiguous row as it
        reduces a 1-D array).
        """
        first = int(starts[0])
        gaps = np.diff(times[first - 1:end]) if first else \
            np.diff(times[:end], prepend=self.last)
        offsets = starts - first
        sizes = np.diff(starts, append=end)
        means = gaps[offsets]               # one value: (1, t - last, 0)
        m2s = np.zeros(len(starts))
        pairs = np.flatnonzero(sizes == 2)
        if len(pairs):
            da = means[pairs]
            db = gaps[offsets[pairs] + 1]
            mean = (da + db) / 2
            da -= mean
            db -= mean
            means[pairs] = mean
            m2s[pairs] = da * da + db * db
        for size in np.flatnonzero(np.bincount(sizes[sizes > 2])).tolist():
            rows = np.flatnonzero(sizes == size)
            block = gaps[offsets[rows, None] + np.arange(size)]
            mean = block.mean(axis=1)
            means[rows] = mean
            m2s[rows] = ((block - mean[:, None]) ** 2).sum(axis=1)
        return sizes.tolist(), means.tolist(), m2s.tolist()

    def merge(self, other: "GapStats") -> None:
        if other.first is None:
            return
        if self.last is None:
            self.gaps.merge(other.gaps)
            self.first, self.last = other.first, other.last
            return
        if other.first < self.last:
            raise ValueError("GapStats partials must be time-disjoint "
                             "and ordered")
        boundary = MeanVar()
        boundary.update_values(np.array([other.first - self.last]))
        self.gaps.merge(boundary)
        self.gaps.merge(other.gaps)
        self.last = other.last

    def result(self) -> Tuple[int, float, float]:
        """(gap count, mean gap, population std of gaps)."""
        return (self.gaps.n, self.gaps.mean, self.gaps.std)
