"""The default scenario reproduces the pre-scenario stack bit for bit.

The metric values below were captured from the experiment runner
*before* the configuration layer existed (nnodes=2, seed=1,
baseline_duration=300).  The refactor routes every construction through
``Scenario`` — these tests pin that the default route is numerically
invisible, and that an explicit ``Scenario`` takes the same path as the
legacy keyword arguments.
"""

import hashlib

import pytest

from repro import migrate
from repro.config import ConfigError, Scenario
from repro.core import ExperimentRunner

#: (total_requests, read_fraction, requests_per_second, duration,
#:  mean_size_kb, mean_pending, kb_moved) at nnodes=2 seed=1
GOLDEN = {
    "baseline": (546, 0.0, 0.91, 300.0,
                 1.2747252747252746, 1.0, 696.0),
    "ppm": (532, 0.06015037593984962, 1.1498440913458223,
            231.33571064287787, 1.5, 1.0, 798.0),
    "wavelet": (15961, 0.5172608232566882, 23.202771255277224,
                343.94598439119295, 3.8795814798571517,
                1.3828707474469017, 61922.0),
    "nbody": (732, 0.17486338797814208, 1.6224120105942452,
              225.59004593780355, 1.8114754098360655, 1.0, 1326.0),
    "combined": (48105, 0.5317534559817066, 31.023722544478584,
                 775.2938083273543, 3.875044174202266,
                 2.0466687454526555, 186409.0),
}


def golden_scenario():
    return Scenario().with_overrides({
        "seed": 1,
        "cluster.nnodes": 2,
        "experiment.baseline_duration": 300.0,
    })


def _assert_golden(metrics, name):
    expected = GOLDEN[name]
    got = (metrics.total_requests, metrics.read_fraction,
           metrics.requests_per_second, metrics.duration,
           metrics.mean_size_kb, metrics.mean_pending, metrics.kb_moved)
    assert got == expected, f"{name}: {got} != golden {expected}"


#: ``golden_scenario().fingerprint()``, as the runner resolved it when
#: it still took ``baseline_duration=`` as a keyword
GOLDEN_FINGERPRINT = "888dcd7fd02d"


@pytest.fixture(scope="module")
def legacy_runner():
    return ExperimentRunner(nnodes=2, seed=1, scenario=Scenario()
                            .with_overrides({
                                "experiment.baseline_duration": 300.0}))


@pytest.fixture(scope="module")
def scenario_runner():
    return ExperimentRunner(scenario=golden_scenario())


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_legacy_kwargs_bit_identical(legacy_runner, name):
    _assert_golden(legacy_runner.run(name).metrics, name)


@pytest.mark.parametrize("name", ["baseline", "ppm", "nbody"])
def test_explicit_scenario_bit_identical(scenario_runner, name):
    # the fast subset; the legacy parametrization above already covers
    # every experiment, and both constructors resolve to one scenario
    _assert_golden(scenario_runner.run(name).metrics, name)


def test_both_constructions_resolve_to_same_scenario(legacy_runner,
                                                     scenario_runner):
    assert legacy_runner.scenario == scenario_runner.scenario
    assert legacy_runner.scenario.fingerprint() == \
        scenario_runner.scenario.fingerprint() == GOLDEN_FINGERPRINT


def test_engine_choice_does_not_change_fingerprint():
    # scenarios stored in checkpoints and manifests while the event queue
    # was selectable name it in an [engine] table; whichever engine they
    # name, the migration chains load them to the same fingerprint, so
    # sweep checkpoints keyed by it stay valid.  A standalone scenario
    # naming the retired table is rejected.
    base = golden_scenario()
    for queue in ("calendar", "heap"):
        stored = dict(base.to_dict(), engine={"event_queue": queue})
        tree = migrate.checkpoint(
            {"format": "repro-checkpoint-v1", "ticks": {},
             "clock": {"now": 0.0, "seq": 0, "queue_kind": queue},
             "meta": {"scenario": dict(stored)}}, version=1)
        manifest = migrate.manifest({"format": "repro-run-v2",
                                     "scenario": dict(stored)})
        for migrated in (tree["meta"]["scenario"], manifest["scenario"]):
            assert Scenario.from_dict(migrated).fingerprint() == \
                base.fingerprint()
        with pytest.raises(ConfigError) as err:
            Scenario.from_dict(stored)
        assert err.value.path == "scenario.engine"


#: (records, trace sha256) of a 2-node wavelet run at seed 3 for every
#: discipline x volume policy, recorded by the release whose disks were
#: served by a process.  ``raid0``/``raid1`` stripe or mirror over two
#: members, each with ``media_error_rate=0.01``.
TRACE_DIGESTS = {
    ("clook", "single"): (16073, "8fd22a7a5d55fa7133fa6d1b53855766"
                                 "9866c609eb3c71968ce9a7281a62e49c"),
    ("clook", "raid0"): (17228, "f2aaee2a86df8fb110ec9bdb3fa5f83d"
                                "3c00468325121a896f4ef3e7e48a9ef7"),
    ("clook", "raid1"): (24283, "6cbbb4ea5a4636d4ca2665628ee8a395"
                                "55a18ea6ee3d78a2df1a608047382c15"),
    ("fifo", "single"): (16012, "d7c74518acf16a2898ec4182d9667ce8"
                                "91d401c4d5e2cd8022434c7cff8f774a"),
    ("fifo", "raid0"): (17287, "d94fd51da7cbb6a3aaf8805e187f04fb"
                               "90a538ecce3791b9882e9e32b962458f"),
    ("fifo", "raid1"): (24274, "97c7d9f3c1b1d7166c6ccfc1aabb6d8d"
                               "4c0fc2a6cbd6f988d047a8e31d8c7937"),
    ("scan", "single"): (16006, "c729f3e5df39ebf4da93fbe907725a8f"
                                "d30859cac6af5141005e2bb9ed83a85c"),
    ("scan", "raid0"): (17259, "4380c81000a110ac3f2c99aab5f11909"
                               "008e0a97313636317c0bd650b95fd28c"),
    ("scan", "raid1"): (24130, "10dee3fda7169320f60dac4713efa32d"
                               "84138a5391ef1062621de14f2f308d1c"),
    ("sstf", "single"): (16055, "70ab28037bb155b065504e499cad5d8b"
                                "d9bb4accd0cdca6dd03671cb94edae5a"),
    ("sstf", "raid0"): (17209, "8e797d387427128001fae8f05ff24fef"
                               "6f3dbeb1d11efcab3f1e168eae7cbb67"),
    ("sstf", "raid1"): (24402, "12f570b204aac48b512d6d252505f9cb"
                               "214f9da9e2b142d9bddf64647f27ca87"),
}


def discipline_scenario(scheduler, policy):
    if policy == "single":
        node = {"disks": [{"scheduler": {"kind": scheduler}}]}
    else:
        disk = {"scheduler": {"kind": scheduler}, "media_error_rate": 0.01}
        node = {"disks": [disk, dict(disk)], "volume": {"policy": policy}}
    return Scenario.from_dict({"cluster": {"nnodes": 2}, "seed": 3,
                               "node": node})


@pytest.mark.parametrize("scheduler,policy", sorted(TRACE_DIGESTS),
                         ids=lambda v: v)
def test_discipline_volume_trace_digest(scheduler, policy):
    records = ExperimentRunner(
        scenario=discipline_scenario(scheduler, policy)).run(
            "wavelet").trace.records
    assert (len(records), hashlib.sha256(records.tobytes()).hexdigest()) \
        == TRACE_DIGESTS[scheduler, policy]
