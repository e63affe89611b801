"""The paper's methodological note, as a test.

"(Note: I/O instrumentation did not measurably change the execution time
of any of the applications.)" — section 4.3.  We verify the reproduction
has the same property: running an application with tracing ON vs OFF
leaves its duration essentially unchanged (the trace ring is memory-
buffered; only the small instrumentation-log writes are added, and those
are asynchronous).
"""

import pytest

from repro.apps import PPMApplication, WaveletApplication
from repro.cluster import BeowulfCluster
from repro.driver import HDIO_SET_TRACE, TraceLevel
from repro.sim import Simulator


def run_app(appcls, trace_on, seed=5, **app_kw):
    sim = Simulator()
    cluster = BeowulfCluster(sim, nnodes=1, seed=seed)
    node = cluster.nodes[0]
    if not trace_on:
        node.kernel.driver.ioctl(HDIO_SET_TRACE, TraceLevel.OFF)
    app = appcls(node, **app_kw)

    def setup():
        yield from app.install()

    sim.process(setup())
    sim.run(until=1.0)
    cluster.reset_trace_clocks()
    node.kernel.spawn(app.run(), name=app.name)
    sim.run(until=3000.0)
    transport = node.kernel.transport
    transport.drain_now()
    return app.stats.duration, len(transport.user_buffer.to_array())


@pytest.mark.parametrize("appcls", [PPMApplication, WaveletApplication])
def test_tracing_does_not_measurably_change_execution_time(appcls):
    on_duration, on_records = run_app(appcls, trace_on=True)
    off_duration, off_records = run_app(appcls, trace_on=False)
    assert on_records > 0
    assert off_records == 0
    # within 2% — "did not measurably change the execution time"
    assert on_duration == pytest.approx(off_duration, rel=0.02)
