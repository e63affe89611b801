"""The default scenario reproduces the pre-scenario stack bit for bit.

The metric values below were captured from the experiment runner
*before* the configuration layer existed (nnodes=2, seed=1,
baseline_duration=300).  The refactor routes every construction through
``Scenario`` — these tests pin that the default route is numerically
invisible, and that an explicit ``Scenario`` takes the same path as the
legacy keyword arguments.
"""

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


@pytest.fixture(scope="module")
def legacy_runner():
    return ExperimentRunner(nnodes=2, seed=1, baseline_duration=300.0)


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
        scenario_runner.scenario.fingerprint()


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
