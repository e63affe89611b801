"""Zero-dependency metrics primitives: counters, gauges, histograms.

The instruments mirror the shape of production metric systems (Prometheus
client libraries, Recorder's per-level counters) scaled down to the
simulator: a :class:`MetricsRegistry` hands out named instruments, each
instrument can fan out into *labeled children* (per node, per disk, per
scheduler discipline), and :meth:`MetricsRegistry.snapshot` freezes
everything into plain JSON-serialisable dicts.

Two properties the experiment harness depends on:

* **determinism** — instruments count simulation facts (events, requests,
  bucket tallies), so two runs with the same seed produce identical
  snapshots apart from the explicitly wall-clock metrics (``*wall*``);
* **near-zero cost when disabled** — observability off is ``obs=None``:
  the hot layers then build no instruments, so a run without
  observability pays at most one ``is None`` test.
"""

from __future__ import annotations

import math
import time
from typing import Dict, Optional

_frexp = math.frexp

#: raw observations a histogram buffers before its call site folds them
FOLD_EVERY = 4096


class Counter:
    """A monotonically increasing value (events processed, bytes moved)."""

    kind = "counter"
    __slots__ = ("name", "help", "value", "_children")

    def __init__(self, name: str, help: str = ""):
        self.name = name
        self.help = help
        self.value: float = 0
        self._children: Optional[Dict[str, "Counter"]] = None

    def inc(self, amount: float = 1) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        self.value += amount

    def child(self, label: str) -> "Counter":
        """The labeled sub-counter (created on first use)."""
        if self._children is None:
            self._children = {}
        got = self._children.get(label)
        if got is None:
            got = self._children[label] = type(self)(
                f"{self.name}{{{label}}}", self.help)
        return got

    # -- snapshot -----------------------------------------------------------
    def _value_snapshot(self):
        return _num(self.value)

    def snapshot(self) -> dict:
        out: dict = {"type": self.kind}
        if self._children:
            out["children"] = {label: child._value_snapshot()
                               for label, child in sorted(
                                   self._children.items())}
            if self.value:
                out["value"] = self._value_snapshot()
        else:
            out["value"] = self._value_snapshot()
        return out

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<{type(self).__name__} {self.name}={self._value_snapshot()}>"


class Gauge(Counter):
    """A value that moves both ways; remembers its high-water mark."""

    kind = "gauge"
    __slots__ = ("max",)

    def __init__(self, name: str, help: str = ""):
        super().__init__(name, help)
        self.max: float = 0

    def inc(self, amount: float = 1) -> None:
        self.set(self.value + amount)

    def set(self, value: float) -> None:
        self.value = value
        if value > self.max:
            self.max = value

    def _value_snapshot(self):
        if self.max > self.value:
            return {"value": _num(self.value), "max": _num(self.max)}
        return _num(self.value)


class Histogram:
    """Distribution sketch over fixed power-of-two buckets.

    ``observe(v)`` tallies ``v`` into the bucket ``[2**(e-1), 2**e)`` (the
    binary exponent from :func:`math.frexp`); zero and negative values go
    to a single explicit ``underflow`` bucket (they have no binary
    exponent).  Log2 buckets need no a-priori range and line up exactly
    across runs — the property that makes snapshots diffable as
    regression guards.

    The hot path is deliberately an append: observations buffer raw in
    :attr:`raw` (``observe`` *is* ``raw.append`` after the first lookup)
    and fold into count/sum/min/max/buckets when any statistic is read,
    or when a call site sees :data:`FOLD_EVERY` of them buffered and
    calls :meth:`fold` — so a long run holds a bounded buffer.
    Instrumented call sites pay one list append per observation.  The
    running sum continues across folds, so where the folds fall does
    not change any statistic.
    """

    kind = "histogram"
    __slots__ = ("name", "help", "raw", "observe", "_count", "_sum",
                 "_min", "_max", "_buckets", "_underflow", "_children")

    def __init__(self, name: str, help: str = ""):
        self.name = name
        self.help = help
        #: raw observations not yet folded into the bucket tallies
        self.raw: list = []
        #: bound-method fast path: ``observe(v)`` is ``raw.append(v)``
        self.observe = self.raw.append
        self._count = 0
        self._sum = 0.0
        self._min = math.inf
        self._max = -math.inf
        #: binary exponent -> observation count (sparse, positive values)
        self._buckets: Dict[int, int] = {}
        #: observations <= 0 (no binary exponent to bucket them under)
        self._underflow = 0
        self._children: Optional[Dict[str, "Histogram"]] = None

    def fold(self) -> None:
        """Fold buffered raw observations into the running statistics."""
        raw = self.raw
        if not raw:
            return
        values = raw[:]
        del raw[:]  # in place: bound appends stay valid
        self._min = min(self._min, min(values))
        self._max = max(self._max, max(values))
        self._count += len(values)
        self._sum = sum(values, self._sum)
        buckets = self._buckets
        frexp = _frexp
        underflow = 0
        for value in values:
            if value > 0:
                key = frexp(value)[1]
                buckets[key] = buckets.get(key, 0) + 1
            else:
                underflow += 1
        if underflow:
            self._underflow += underflow

    @property
    def count(self) -> int:
        self.fold()
        return self._count

    @property
    def sum(self) -> float:
        self.fold()
        return self._sum

    @property
    def min(self) -> float:
        self.fold()
        return self._min

    @property
    def max(self) -> float:
        self.fold()
        return self._max

    @property
    def buckets(self) -> Dict[int, int]:
        """Positive-value tallies only; see :attr:`underflow` for v <= 0."""
        self.fold()
        return self._buckets

    @property
    def underflow(self) -> int:
        """Observations that were zero or negative."""
        self.fold()
        return self._underflow

    @property
    def mean(self) -> float:
        self.fold()
        return self._sum / self._count if self._count else 0.0

    def child(self, label: str) -> "Histogram":
        if self._children is None:
            self._children = {}
        got = self._children.get(label)
        if got is None:
            got = self._children[label] = Histogram(
                f"{self.name}{{{label}}}", self.help)
        return got

    # -- snapshot -----------------------------------------------------------
    def _value_snapshot(self) -> dict:
        self.fold()
        out = {"count": self._count, "sum": _num(self._sum)}
        if self._count:
            out["min"] = _num(self._min)
            out["max"] = _num(self._max)
            buckets: dict = {}
            if self._underflow:
                buckets[UNDERFLOW] = self._underflow
            buckets.update((str(k), v)
                           for k, v in sorted(self._buckets.items()))
            out["buckets"] = buckets
        return out

    def snapshot(self) -> dict:
        out: dict = {"type": self.kind}
        if self._children:
            out["children"] = {label: child._value_snapshot()
                               for label, child in sorted(
                                   self._children.items())}
            if self.count:
                out["value"] = self._value_snapshot()
        else:
            out["value"] = self._value_snapshot()
        return out

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<Histogram {self.name} n={self.count} "
                f"mean={self.mean:.6g}>")


#: bucket key for observations with no binary exponent (v <= 0)
UNDERFLOW = "underflow"


def bucket_of(value: float):
    """Bucket key: binary exponent ``e`` with ``2**(e-1) <= v < 2**e``.

    Zero and negative values map to the explicit :data:`UNDERFLOW`
    bucket (they have no binary exponent; the historical ``-1024`` /
    ``-1025`` integer sentinels leaked raw into snapshots and renders).
    """
    if value <= 0:
        return UNDERFLOW
    return math.frexp(value)[1]


def bucket_edge(key) -> float:
    """Inclusive upper edge of a bucket (``0`` for the underflow bucket).

    The pre-underflow integer sentinels are still accepted so old
    persisted snapshots keep rendering.
    """
    if key == UNDERFLOW or key == -1024:
        return 0.0
    if key == -1025:
        return -math.inf
    return 2.0 ** key


class Span:
    """Context manager timing a block into a histogram (wall seconds)."""

    __slots__ = ("_hist", "_t0")

    def __init__(self, histogram: Histogram):
        self._hist = histogram

    def __enter__(self) -> "Span":
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self._hist.observe(time.perf_counter() - self._t0)


class MetricsRegistry:
    """Named instruments, created on first use, snapshotted on demand."""

    def __init__(self):
        self._metrics: Dict[str, object] = {}

    def __len__(self) -> int:
        return len(self._metrics)

    def counter(self, name: str, help: str = "") -> Counter:
        return self._get(name, Counter, help)

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._get(name, Gauge, help)

    def histogram(self, name: str, help: str = "") -> Histogram:
        return self._get(name, Histogram, help)

    def span(self, name: str, help: str = "") -> Span:
        """``with registry.span("phase.settle"): ...`` wall timing."""
        return Span(self.histogram(name, help))

    def snapshot(self) -> dict:
        """Every instrument as a plain dict, sorted by metric name."""
        return {name: self._metrics[name].snapshot()
                for name in sorted(self._metrics)}

    # -- checkpoint state surface -------------------------------------------
    def snapshot_state(self) -> dict:
        """Full internal state of every instrument (checkpoint path).

        Unlike :meth:`snapshot` (a lossy report), this keeps everything
        needed to put the registry back exactly: helps, gauge high-water
        marks, histogram extrema, and the child tree.
        """
        return {name: _instrument_state(self._metrics[name])
                for name in sorted(self._metrics)}

    def restore_state(self, state: dict) -> None:
        """Recreate/overwrite instruments so counting continues exactly
        where the snapshot left off.  Instruments already registered are
        updated in place (live references keep working)."""
        makers = {"counter": self.counter, "gauge": self.gauge,
                  "histogram": self.histogram}
        for name, sub in state.items():
            instrument = makers[sub["kind"]](name, sub.get("help", ""))
            _restore_instrument(instrument, sub)

    # -- internals ----------------------------------------------------------
    def _get(self, name: str, cls, help: str):
        got = self._metrics.get(name)
        if got is None:
            got = self._metrics[name] = cls(name, help)
        elif type(got) is not cls:
            raise TypeError(f"metric {name!r} already registered as "
                            f"{type(got).__name__}, not {cls.__name__}")
        return got


def _instrument_state(m) -> dict:
    """One instrument's complete state as a plain tree (recursive)."""
    if m.kind == "histogram":
        m.fold()
        state: dict = {"kind": "histogram", "help": m.help,
                       "count": m._count, "sum": m._sum,
                       "min": m._min, "max": m._max,
                       "underflow": m._underflow,
                       "buckets": {str(k): int(v)
                                   for k, v in sorted(m._buckets.items())}}
    else:
        state = {"kind": m.kind, "help": m.help, "value": m.value}
        if m.kind == "gauge":
            state["max"] = m.max
    if m._children:
        state["children"] = {label: _instrument_state(child)
                             for label, child in sorted(m._children.items())}
    return state


def _restore_instrument(m, state: dict) -> None:
    if state["kind"] == "histogram":
        del m.raw[:]
        m._count = int(state["count"])
        m._sum = float(state["sum"])
        m._min = float(state["min"])
        m._max = float(state["max"])
        m._underflow = int(state["underflow"])
        m._buckets = {int(k): int(v)
                      for k, v in state["buckets"].items()}
    else:
        m.value = state["value"]
        if state["kind"] == "gauge":
            m.max = state["max"]
    for label, sub in state.get("children", {}).items():
        _restore_instrument(m.child(label), sub)


def _num(value: float):
    """Ints stay ints in snapshots (JSON round-trip friendly)."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    return value
