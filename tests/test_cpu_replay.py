"""Replayed-vs-per-slice equivalence for the round-robin CPU.

:class:`SlicedCPU` below is the test oracle: the per-slice CPU the
replay replaced, verbatim — a capacity-1 :class:`Resource` re-requested
every timeslice, so every slice costs a queued grant and a queued
timeout.  The production :class:`~repro.kernel.cpu.CPU` is only allowed
to be *cheaper*: under any arrival pattern, every process must resume
in the same order, at the same float instant, with the same
``busy_time`` — compared bit for bit through ``float.hex``.

The patterns mix the chunk sizes that matter: 0.25 s (five 0.05 s
slices plus a 1.4e-17 s residue that takes no time once the clock is
past about 0.2 s), 0.37 s (a positive tail slice) and 1e-17 s (a lone
zero-length slice), with immediate and delay-0 re-arrival after a
completion, idle gaps, ``speed != 1``, and a bystander that wakes at
delay 0 after every completion, three times in a row — a same-instant
neighbour of a zero-length slice's grant and timeout.  Gaps
are drawn from multiples of the timeslice and from the chunk sizes as
well as from uniform floats, so timers fire exactly at slice boundaries:
there the per-slice CPU's order depends on when each slice's grant
fired.
"""

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.kernel import CPU
from repro.sim import Resource, Simulator


class SlicedCPU:
    """Reference CPU: one queued grant and one timeout per timeslice."""

    def __init__(self, sim, speed=1.0, timeslice=0.05):
        self.sim = sim
        self.speed = speed
        self.timeslice = timeslice
        self._res = Resource(sim, capacity=1)
        self.busy_time = 0.0

    def execute(self, reference_seconds):
        if reference_seconds < 0:
            raise ValueError("negative compute time")
        remaining = reference_seconds / self.speed
        while remaining > 0:
            with self._res.request() as req:
                yield req
                slice_len = min(self.timeslice, remaining)
                yield self.sim.timeout(slice_len)
                remaining -= slice_len
                self.busy_time += slice_len


#: chunk sizes with distinct slice shapes (see the module docstring)
CHUNKS = (0.25, 0.37, 1e-17)

#: gaps that end exactly on a slice boundary or a completion: multiples
#: of the timeslice and the chunk sizes
TIES = (0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.37)

#: how a worker reaches its next execute: immediately, after a delay-0
#: sleep, or after an idle gap
gaps = st.one_of(st.none(), st.just(0.0), st.sampled_from(TIES),
                 st.floats(min_value=1e-3, max_value=0.6))
steps = st.lists(st.tuples(gaps, st.sampled_from(CHUNKS)),
                 min_size=1, max_size=8)
patterns = st.lists(steps, min_size=1, max_size=4)


def replay(cpu_cls, pattern, speed, start=0.0, bystander=True,
           bystander_chunk=None):
    """Run ``pattern`` (one step list per worker) on a fresh CPU.

    Returns the resume log (who, what, ``float.hex`` of the instant),
    the CPU's ``busy_time`` and the final clock, all as hex strings.
    """
    sim = Simulator()
    if start:
        sim.run(until=start)
    cpu = cpu_cls(sim, speed=speed)
    log = []

    def wake(name, depth=0):
        log.append(("bystander", name, depth, sim.now.hex()))
        if depth < 2:
            # a chain of delay-0 wakes: each level can fall on either
            # side of a later zero-length slice's hops
            sim.timeout(0).callbacks.append(
                lambda _ev: wake(name, depth + 1))
        elif bystander_chunk is not None:
            sim.process(extra(name))

    def extra(name):
        yield from cpu.execute(bystander_chunk)
        log.append(("extra", name, sim.now.hex()))

    def worker(w, worker_steps):
        for k, (gap, chunk) in enumerate(worker_steps):
            if gap is not None:
                yield sim.timeout(gap)
            log.append(("arrive", (w, k), sim.now.hex()))
            yield from cpu.execute(chunk)
            log.append(("done", (w, k), sim.now.hex()))
            if bystander:
                sim.timeout(0).callbacks.append(
                    lambda _ev, name=(w, k): wake(name))

    for w, worker_steps in enumerate(pattern):
        sim.process(worker(w, worker_steps))
    sim.run()
    return log, cpu.busy_time.hex(), sim.now.hex()


#: a 0.25 s job, a zero-length one, and a worker whose 0.05 s timer ends
#: the first job's first slice: the timer was queued before that slice's
#: grant fired, so the arriving worker goes first
TIMER_AT_FIRST_SLICE_END = [[(None, 0.25)], [(None, 1e-17)],
                            [(0.05, 0.25)]]


@settings(max_examples=300, deadline=None)
@given(pattern=patterns,
       speed=st.sampled_from([1.0, 0.8, 1.25, 3.0]),
       start=st.sampled_from([0.0, 0.3, 1000.0]),
       bystander=st.booleans())
@example(pattern=TIMER_AT_FIRST_SLICE_END, speed=1.0, start=0.3,
         bystander=False)
# a one-slice job, and a worker whose timer ends exactly that slice: the
# timer fires first, so the arriving worker resumes first
@example(pattern=[[(None, 0.05)], [(0.05, 0.25)]], speed=1.0, start=0.0,
         bystander=False)
# a 0.25 s job against a 0.25 s timer: the arriving worker takes the CPU
# before the job's zero-length residue slice, which then ends at 0.30 s
@example(pattern=[[(None, 0.25)], [(0.25, 0.25)]], speed=1.0, start=0.0,
         bystander=False)
def test_replay_matches_per_slice_cpu(pattern, speed, start, bystander):
    assert replay(CPU, pattern, speed, start, bystander) == \
        replay(SlicedCPU, pattern, speed, start, bystander)


@settings(max_examples=100, deadline=None)
@given(pattern=patterns, chunk=st.sampled_from(CHUNKS),
       speed=st.sampled_from([1.0, 1.25]))
@example(pattern=TIMER_AT_FIRST_SLICE_END, chunk=0.25, speed=1.0)
def test_replay_matches_with_arriving_bystander(pattern, chunk, speed):
    """The bystander itself computes: an arrival at every completion
    instant, queued among the zero-length slices' grants and timeouts."""
    assert replay(CPU, pattern, speed, 1000.0, True, chunk) == \
        replay(SlicedCPU, pattern, speed, 1000.0, True, chunk)


def test_residue_slice_keeps_the_same_instant_order():
    """A 0.25 s chunk ends on a zero-length slice once the clock is
    past ~0.2 s; a delay-0 neighbour queued at the fifth slice's end
    must still resume *before* the chunk completes."""
    pattern = [[(None, 0.25)], [(None, 0.25), (0.0, 0.25)]]
    got = replay(CPU, pattern, 1.0, 1000.0)
    assert got == replay(SlicedCPU, pattern, 1.0, 1000.0)
    rem = 0.25
    for _ in range(5):
        rem -= 0.05
    assert 0.0 < rem < 2e-17 and 1000.0 + rem == 1000.0  # the residue


@pytest.mark.parametrize("chunk", [0.25, 0.37])
def test_uncontended_execute_queues_one_wakeup(chunk):
    """A lone execute in an otherwise empty simulation: nothing else is
    queued before its last slice starts, so its completion is the one
    entry (the zero-length residue of a 0.25 s chunk folds into it)."""
    sim = Simulator()
    sim.run(until=100.0)
    cpu = CPU(sim)
    seen = []

    def job():
        for _ in range(4):
            yield from cpu.execute(chunk)
        seen.append(sim.now)

    sim.process(job())
    before = sim._seq
    sim.run()
    assert sim._seq - before == 1 + 4  # Initialize, one wake-up each
    assert seen == [pytest.approx(100.0 + 4 * chunk)]


def test_snapshot_refuses_a_busy_cpu():
    sim = Simulator()
    cpu = CPU(sim)

    def job():
        yield from cpu.execute(1.0)

    sim.process(job())
    sim.run(until=0.5)
    with pytest.raises(RuntimeError, match="not idle"):
        cpu.snapshot_state()
    sim.run()
    assert cpu.snapshot_state() == {"busy_time": cpu.busy_time}
