"""A finished run frees itself, by reference counting alone.

``ExperimentRunner`` closes the run's simulator when the run ends, and
no layer keeps a reference cycle, so once the runner and the result are
dropped every object of the run is gone, even with the garbage
collector switched off.  Reading the last cluster after a run gives
exactly what it gave before the teardown.  Equal disk models share one
set of service-time tables.
"""

import dataclasses
import gc
import weakref

import numpy as np
import pytest

from repro.cluster import PIOUS, BeowulfCluster
from repro.config import Scenario, parse_axis_spec, run_sweep
from repro.core import ExperimentRunner
from repro.disk import DiskServiceModel, IORequest
from repro.disk.geometry import ZBRGeometry
from repro.disk.service import _ServiceTables
from repro.sim import Simulator

SHORT = Scenario().with_overrides({"cluster.nnodes": 2, "seed": 1})


def readings(cluster) -> list:
    """What a caller reads from a finished cluster."""
    out = [cluster.sim.now, dataclasses.asdict(cluster.network.stats)]
    for node in cluster.nodes:
        kernel = node.kernel
        out.append((
            dataclasses.asdict(kernel.cache.stats),
            kernel.fs.fsck(),
            kernel.vm.frames_used,
            dataclasses.asdict(kernel.vm.stats),
            None if kernel.housekeeping is None
            else kernel.housekeeping.messages,
            kernel.syslog.bytes_logged,
            kernel.apps_running,
            [dataclasses.asdict(d.stats) for d in kernel.disks],
            kernel.driver.requests_issued,
            kernel.transport.records_drained,
            kernel.transport.dropped,
        ))
    return out


@pytest.fixture
def runs(monkeypatch):
    """Weak references to the parts of every cluster built, and the
    readings of each one just before and just after its teardown."""
    gc.collect()
    gc.disable()
    built, pairs = [], []
    clusters = weakref.WeakValueDictionary()
    init, close = BeowulfCluster.__init__, Simulator.close

    def tracked_init(self, sim, *args, **kwargs):
        init(self, sim, *args, **kwargs)
        kernel = self.nodes[0].kernel
        built.append([weakref.ref(part) for part in (
            sim, self, kernel, kernel.cache, kernel.vm, kernel.transport,
            kernel.disk)])
        clusters[id(sim)] = self

    def tracked_close(sim):
        cluster = clusters.get(id(sim))
        before = readings(cluster)
        close(sim)
        pairs.append((before, readings(cluster)))

    monkeypatch.setattr(BeowulfCluster, "__init__", tracked_init)
    monkeypatch.setattr(Simulator, "close", tracked_close)
    try:
        yield built, pairs
    finally:
        gc.enable()


def assert_freed(built, pairs, nruns):
    assert len(built) == len(pairs) == nruns
    for before, after in pairs:
        assert after == before
    alive = [ref() for refs in built for ref in refs if ref() is not None]
    assert not alive, sorted({type(o).__name__ for o in alive})


@pytest.mark.parametrize("experiment, duration, options", [
    ("baseline", 60.0, {}),
    ("combined", None, {}),
    ("baseline", 60.0, {"obs": True}),
])
def test_a_dropped_run_is_freed(runs, experiment, duration, options):
    built, pairs = runs
    runner = ExperimentRunner(scenario=SHORT, **options)
    result = runner.run(experiment, duration=duration)
    assert len(result.trace.records) > 0
    # the last cluster stays readable: what it read at the teardown
    assert readings(runner.last_cluster) == pairs[0][1]
    del runner, result
    assert_freed(built, pairs, 1)


def test_a_stored_run_is_freed(runs, tmp_path):
    built, pairs = runs
    runner = ExperimentRunner(scenario=SHORT, sink=tmp_path / "runs")
    result = runner.run("baseline", duration=60.0)
    assert (runner.last_run_dir / "manifest.json").exists()
    del runner, result
    assert_freed(built, pairs, 1)


def test_a_resumed_run_is_freed(runs, tmp_path):
    built, pairs = runs
    path = tmp_path / "run.ckpt"
    first = ExperimentRunner(scenario=SHORT).run(
        "baseline", duration=60.0, checkpoint_every=20.0, checkpoint=path)
    runner = ExperimentRunner(scenario=SHORT)
    resumed = runner.run("baseline", duration=60.0, checkpoint=path)
    assert resumed.trace.records.tobytes() == first.trace.records.tobytes()
    del first, runner, resumed
    assert_freed(built, pairs, 2)


def test_a_serial_sweep_frees_every_point(runs):
    built, pairs = runs
    results = run_sweep(SHORT, [parse_axis_spec("scheduler=clook,fifo,sstf")],
                        duration=60.0, parallel=False)
    assert len(results) == 3
    del results
    assert_freed(built, pairs, 3)


def test_a_cluster_with_a_pious_service_is_freed(runs):
    built, pairs = runs
    sim = Simulator()
    cluster = BeowulfCluster(sim, nnodes=2, seed=1)
    pious = weakref.ref(PIOUS(cluster))
    sim.run(until=10.0)
    sim.close()
    del sim, cluster
    assert pious() is None
    assert_freed(built, pairs, 1)


def test_a_failed_run_is_freed(runs):
    built, pairs = runs
    runner = ExperimentRunner(scenario=SHORT.with_overrides(
        {"experiment.hard_limit": 1.0}))
    with pytest.raises(RuntimeError, match="hard limit"):
        runner.run("ppm")
    del runner
    alive = [ref() for refs in built for ref in refs if ref() is not None]
    assert not alive


# -- shared service-time tables ------------------------------------------------
def test_equal_disk_models_share_one_tables_object():
    model = DiskServiceModel()
    assert DiskServiceModel() is not model
    assert DiskServiceModel().tables is model.tables
    assert DiskServiceModel(rpm=5400.0).tables is not model.tables
    zoned = DiskServiceModel(geometry=ZBRGeometry())
    assert zoned.tables is not model.tables
    cluster = BeowulfCluster(Simulator(), nnodes=3, seed=0)
    assert len({id(disk.service.tables) for node in cluster.nodes
                for disk in node.kernel.disks}) == 1


@pytest.mark.parametrize("model", [DiskServiceModel(),
                                   DiskServiceModel(geometry=ZBRGeometry())])
def test_shared_tables_give_bit_identical_service_times(model):
    own = DiskServiceModel(**{f.name: getattr(model, f.name)
                              for f in dataclasses.fields(model)})
    # a private, freshly built copy of the tables
    object.__setattr__(own, "_tables", _ServiceTables(own))
    assert own.tables is not model.tables
    rng = np.random.default_rng(5)
    total = model.geometry.total_sectors
    requests = [IORequest(int(s), int(n), False) for s, n in zip(
        rng.integers(0, total - 64, 200), rng.integers(1, 64, 200))]
    heads = rng.integers(0, model.geometry.cylinders, 200)
    for request, head in zip(requests, heads):
        assert model.service_time(request, int(head),
                                  np.random.default_rng(int(head))) == \
            own.service_time(request, int(head),
                             np.random.default_rng(int(head)))
    shared = model.service_durations(requests, 7, np.random.default_rng(9))
    private = own.service_durations(requests, 7, np.random.default_rng(9))
    assert shared.tobytes() == private.tobytes()
