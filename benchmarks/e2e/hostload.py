"""Host load measured while timed code runs, to take it out of the
benchmark's times.

The benchmark runs on virtual machines shared with other tenants, whose
load slows every operation by up to about twofold, in spells from
seconds to hours that a run can neither control nor wait out.  Timing
more repeats does not remove that: a 20-second operation spans several
spells, and ten runs of a workload fall in differently loaded minutes.

Load acts in two ways, and :class:`HostLoad` measures both where they
act:

* other processes on the same kernel take the CPU away: the process is
  runnable but waits for a CPU.  The kernel counts that wait per thread
  (``/proc/self/schedstat``), and it is subtracted from the host
  seconds;
* other tenants of the machine slow the CPU while the process runs.
  Every :data:`INTERVAL_S` of the process's CPU time, a profiling timer
  interrupts it to time a fixed pure-Python loop that fills a small
  dict, in thread CPU time (about 1 % of the process's time).  The mean
  sample time over :data:`REFERENCE_S` is the *slowdown*: how much
  slower than the reference host this one ran the timed code.

So

    reference seconds = (host seconds - run-queue wait) / slowdown

is how long the timed code would have taken on the reference host with
a CPU to itself.  Comparisons hold on any host, as long as both sides
run there.

The rescaling assumes load slows the measured code as much as it slows
the loop.  Both are allocation-heavy interpreter code; where they
differ (numpy kernels, memory-bound work) the correction is partial.
Of the loops tried (integer arithmetic, random list reads, a heap of
small objects, dict fills), the dict fill tracked the simulation best.
Each sample runs the loop once untimed first: a process that shares its
CPU resumes with caches another process filled, which slows a short
loop far more than the code it samples.
"""

from __future__ import annotations

import signal
from time import thread_time

#: seconds of the process's CPU time between two samples
INTERVAL_S = 0.005
#: entries the reference loop puts in its dict
LOOP = 400
#: the timed loop's time on the reference host, which sets the scale of
#: the rescaled times: about its time on an unloaded 2-vCPU Intel Xeon
#: virtual machine running Python 3.11, sampled inside operations
REFERENCE_S = 20e-6
#: per-thread scheduler statistics: CPU ns, run-queue wait ns, slices
SCHEDSTAT = "/proc/self/schedstat"


#: the active samplers, outermost first; each sample goes to all of them
_active: list = []


def _loop() -> None:
    table = {}
    for i in range(LOOP):
        table[i] = i


def _sample(signum, frame) -> None:
    _loop()
    start = thread_time()
    _loop()
    elapsed = thread_time() - start
    for load in _active:
        load.samples.append(elapsed)


def run_queue_wait() -> float:
    """Seconds the calling thread has spent runnable but waiting for a
    CPU (0.0 where the kernel does not report it)."""
    try:
        with open(SCHEDSTAT) as stats:
            return int(stats.read().split()[1]) / 1e9
    except (OSError, IndexError, ValueError):
        return 0.0


class HostLoad:
    """Measures the host's load while active (a context manager).

    Samplers nest: an inner one (an operation) shares the samples of the
    outer one (the set-up that runs it).  Uses ``SIGPROF`` and
    ``ITIMER_PROF``, so only in the main thread.
    """

    def __init__(self):
        self.samples: list = []
        #: run-queue wait while active, in seconds (set on exit)
        self.waited = 0.0
        self._waited_before = 0.0
        self._previous = None

    def __enter__(self) -> "HostLoad":
        self.samples = []
        self._waited_before = run_queue_wait()
        if not _active:
            self._previous = signal.signal(signal.SIGPROF, _sample)
            signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)
        _active.append(self)
        return self

    def __exit__(self, *exc) -> None:
        _active.remove(self)
        if not _active:
            signal.setitimer(signal.ITIMER_PROF, 0, 0)
            signal.signal(signal.SIGPROF, self._previous)
        self.waited = run_queue_wait() - self._waited_before

    @property
    def slowdown(self) -> float:
        """How many times slower than the reference host this one ran
        while active (1.0 without samples: code too short to sample)."""
        if not self.samples:
            return 1.0
        return sum(self.samples) / len(self.samples) / REFERENCE_S

    def reference_s(self, host_s: float) -> float:
        """``host_s`` seconds measured around the active period, as
        seconds on the reference host with a CPU to itself."""
        return (host_s - self.waited) / self.slowdown
