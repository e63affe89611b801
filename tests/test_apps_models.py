"""Integration tests for the application workload models.

These check that each model reproduces its application's qualitative I/O
signature from the paper (request-size classes, read/write mix, phase
timing), running solo on one node of the simulated cluster.
"""

import numpy as np
import pytest

from repro.apps import (
    NBodyApplication,
    NBodyParams,
    PPMApplication,
    PPMParams,
    WaveletApplication,
)
from repro.cluster import BeowulfCluster
from repro.sim import Simulator


def run_solo(appcls, seed=3, until=2000.0, **app_kw):
    sim = Simulator()
    cluster = BeowulfCluster(sim, nnodes=1, seed=seed)
    node = cluster.nodes[0]
    app = appcls(node, **app_kw)

    def setup():
        yield from app.install()
        yield from node.kernel.cache.sync()

    sim.process(setup())
    sim.run(until=1.0)
    cluster.reset_trace_clocks()
    node.kernel.spawn(app.run(), name=app.name)
    sim.run(until=until)
    return app, cluster.gather_traces(), node


@pytest.fixture(scope="module")
def ppm_run():
    return run_solo(PPMApplication)


@pytest.fixture(scope="module")
def wavelet_run():
    return run_solo(WaveletApplication)


@pytest.fixture(scope="module")
def nbody_run():
    return run_solo(NBodyApplication)


# -- PPM ---------------------------------------------------------------------

def test_ppm_duration_near_paper(ppm_run):
    app, arr, _ = ppm_run
    assert 150 < app.stats.duration < 320  # paper figure spans ~250 s


def test_ppm_low_io_mostly_writes(ppm_run):
    app, arr, _ = ppm_run
    read_frac = (arr["write"] == 0).mean()
    assert read_frac < 0.10               # Table 1: 4% reads
    rate = len(arr) / app.stats.duration
    assert rate < 10.0                    # "relatively low" I/O


def test_ppm_1kb_blocks_dominate(ppm_run):
    _, arr, _ = ppm_run
    sizes, counts = np.unique(arr["size_kb"], return_counts=True)
    assert sizes[np.argmax(counts)] == 1.0


def test_ppm_paging_blip_is_late(ppm_run):
    app, arr, _ = ppm_run
    paging = arr[arr["size_kb"] == 4.0]
    reads4 = paging[paging["write"] == 0]
    third = app.stats.duration / 3
    # no paging through the body of the run...
    middle = reads4[(reads4["time"] >= third) & (reads4["time"] < 2 * third)]
    assert len(middle) == 0
    # ... but a brief burst near the end (paper: ~230 s of ~250)
    late = reads4[reads4["time"] >= 2 * third]
    assert len(late) > 0


def test_ppm_stats_file_written(ppm_run):
    app, _, node = ppm_run
    inode = node.kernel.fs.lookup("/home/ppm/stats.0")
    p = PPMParams()
    expected = (p.steps // p.stats_interval + (p.steps % p.stats_interval > 0)) \
        * p.stats_bytes
    assert inode.size_bytes >= p.stats_bytes
    assert node.kernel.fs.lookup("/home/ppm/result.0").size_bytes == \
        p.output_kb * 1024


# -- Wavelet -----------------------------------------------------------------

def test_wavelet_balanced_read_write_mix(wavelet_run):
    app, arr, _ = wavelet_run
    read_frac = (arr["write"] == 0).mean()
    assert 0.40 < read_frac < 0.60        # Table 1: 49% / 51%


def test_wavelet_heavy_4kb_paging(wavelet_run):
    _, arr, _ = wavelet_run
    frac_4kb = (arr["size_kb"] == 4.0).mean()
    assert frac_4kb > 0.5                 # Figure 3's dense paging band


def test_wavelet_has_16kb_read_burst(wavelet_run):
    app, arr, _ = wavelet_run
    big_reads = arr[(arr["size_kb"] >= 8.0) & (arr["write"] == 0)]
    assert len(big_reads) > 0
    assert big_reads["size_kb"].max() == 16.0
    # image read happens in the first third of the run (~50 s in paper)
    assert big_reads["time"].min() < 0.4 * app.stats.duration


def test_wavelet_activity_heavier_at_ends_than_middle(wavelet_run):
    app, arr, _ = wavelet_run
    third = app.stats.duration / 3
    first = (arr["time"] < third).sum()
    middle = ((arr["time"] >= third) & (arr["time"] < 2 * third)).sum()
    last = (arr["time"] >= 2 * third).sum()
    assert first > middle
    assert last > middle


def test_wavelet_much_more_io_than_ppm(wavelet_run, ppm_run):
    _, wav_arr, _ = wavelet_run
    _, ppm_arr, _ = ppm_run
    assert len(wav_arr) > 4 * len(ppm_arr)


# -- N-body ----------------------------------------------------------------

def test_nbody_duration_near_paper(nbody_run):
    app, _, _ = nbody_run
    assert 150 < app.stats.duration < 320


def test_nbody_write_dominated_with_modest_reads(nbody_run):
    _, arr, _ = nbody_run
    read_frac = (arr["write"] == 0).mean()
    assert 0.03 < read_frac < 0.25        # Table 1: 13% reads


def test_nbody_more_paging_than_ppm_less_than_wavelet(nbody_run, ppm_run,
                                                      wavelet_run):
    def paging(arr):
        return (arr["size_kb"] == 4.0).sum()

    _, nb, _ = nbody_run
    _, pp, _ = ppm_run
    _, wv, _ = wavelet_run
    assert paging(pp) < paging(nb) < paging(wv)


def test_nbody_2kb_requests_present(nbody_run):
    _, arr, _ = nbody_run
    # write-back clustering of adjacent summary blocks
    assert (arr["size_kb"] == 2.0).sum() > 0


def test_nbody_interaction_count_matches_paper_scale():
    p = NBodyParams()
    # 16 processors x per-processor interactions over the run ~ 303 million
    total_cluster = p.interactions_per_step * p.steps * 16
    assert 1e8 < total_cluster < 1e9


# -- cross-cutting ------------------------------------------------------------

def test_all_apps_clean_up_address_spaces(ppm_run, wavelet_run, nbody_run):
    for app, _, node in (ppm_run, wavelet_run, nbody_run):
        assert app.aspace is None
        assert node.kernel.vm.frames_used == 0


def test_app_on_bare_kernel_without_pvm():
    from repro.kernel import NodeKernel
    sim = Simulator()
    kernel = NodeKernel(sim, node_id=0)
    app = PPMApplication(kernel, params=PPMParams(steps=2))

    def setup():
        yield from app.install()

    sim.process(setup())
    sim.run(until=1.0)
    kernel.spawn(app.run(), name="ppm")
    sim.run(until=200.0)
    assert app.stats.finished_at > app.stats.started_at


def test_page_ids_stop_below_the_address_space_limit():
    from repro.kernel import NodeKernel
    from repro.kernel.vm import PAGE_LIMIT
    from tests.conftest import drive
    sim = Simulator()
    kernel = NodeKernel(sim, node_id=0)
    app = PPMApplication(kernel, params=PPMParams(steps=2))
    sim.process(app.install())
    sim.run(until=1.0)
    app._setup_address_space()
    app._next_page = PAGE_LIMIT - 2
    assert app.allocate(4) == (PAGE_LIMIT - 2, 1)
    with pytest.raises(ValueError):
        app.allocate(8)            # would mint page id PAGE_LIMIT
    with pytest.raises(ValueError):
        app.map_binary()
    assert app._next_page == PAGE_LIMIT - 1
    # the last valid page and another space's first page stay apart
    other = kernel.vm.create_space("other")
    for space, page in ((app.aspace, PAGE_LIMIT - 1), (other, 0)):
        drive(sim, kernel.vm.access(space, page, write=True),
              until=sim.now + 1.0)
    assert (app.aspace.rss, other.rss, kernel.vm.frames_used) == (1, 1, 2)


def test_subregion_validation():
    from repro.apps.base import ESSApplication
    with pytest.raises(ValueError):
        ESSApplication.subregion((0, 100), 0.5, 0.5)
    lo, n = ESSApplication.subregion((10, 100), 0.25, 0.75)
    assert lo == 35 and n == 50


def test_multinode_apps_communicate():
    """With nnodes > 1 the parallel codes exchange PVM messages."""
    from repro.core import ExperimentRunner
    runner = ExperimentRunner(nnodes=2, seed=8)
    result = runner.run("ppm")
    sent = sum(s.messages_sent for s in result.app_stats["ppm"])
    assert sent > 0
    nb = runner.run("nbody")
    assert sum(s.messages_sent for s in nb.app_stats["nbody"]) > 0


class _CountingCPU:
    """Stands in for the node CPU: every execute yields once."""

    def __init__(self):
        self.executed = []

    def execute(self, seconds):
        self.executed.append(seconds)
        yield seconds


@pytest.mark.parametrize("kwargs", [
    {"slice_seconds": 0},
    {"slice_seconds": -0.25},
    {"slice_seconds": float("nan")},
    {"region": (10, 0)},
    {"region": (0, 8), "touches_per_slice": -1},
    {"code_region": (0, 0)},
    {"code_region": (0, 8), "code_touches": -2},
])
def test_compute_rejects_bad_arguments_before_time_passes(kwargs):
    from repro.kernel import NodeKernel
    sim = Simulator()
    kernel = NodeKernel(sim, node_id=0)
    kernel.cpu = cpu = _CountingCPU()
    app = PPMApplication(kernel, params=PPMParams(steps=2))
    gen = app.compute(1.0, **kwargs)
    with pytest.raises(ValueError):
        # bounded: a generator that never checks would spin forever
        for _ in range(50):
            next(gen)
    assert cpu.executed == [] and app.stats.compute_seconds == 0
