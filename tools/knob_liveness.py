#!/usr/bin/env python
"""CI check that every scenario knob moves a run.

Perturbs each leaf of ``Scenario().to_dict()`` in turn: a number
doubled, a flag flipped, a kind swapped for the next name in its table,
the workload mix cut by its last application.  Where the doubled
number makes the scenario invalid, the first valid of half, +10 % and
-10 % is used instead.  Each perturbed scenario runs ``baseline`` (its
own ``experiment.baseline_duration``, 300 s) and ``combined`` on a
2-node, seed-1 cluster, and the tool hashes both traces.

It fails on any leaf whose perturbation leaves the hash unchanged,
unless :data:`LIMIT_ONLY` lists the leaf with the test that shows its
limit biting: such a knob only bounds something (a capacity, a queue
depth, a time limit) that the default run never reaches.  It also fails
on a leaf no valid perturbation exists for.

Usage (about a minute on a 2-vCPU host)::

    PYTHONPATH=src python tools/knob_liveness.py
"""

from __future__ import annotations

import hashlib
import sys
import time
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.config import ConfigError, LayoutConfig, Scenario
from repro.core import ExperimentRunner
from repro.disk import DRIVE_CACHES, SCHEDULERS, VOLUME_POLICIES

#: leaves that move no trace of the default run, each with the test that
#: shows it biting: most only bound something the run never reaches; the
#: volume knobs act only over several disks (the default node has one)
LIMIT_ONLY: Dict[str, str] = {
    "node.disks[0].capacity_mb":
        "tests/test_config_scenario.py::test_bad_disk_layout_fails_at_"
        "validate[capacity_mb]",
    "node.disks[0].cache.segment_sectors":
        "tests/test_config_limits.py::test_segment_size_bounds_a_cached_read",
    "node.driver.ring_capacity":
        "tests/test_config_limits.py::test_small_ring_drops_trace_records",
    "experiment.hard_limit":
        "tests/test_core_experiments.py::test_hard_limit_enforced",
    "node.volume.policy":
        "tests/test_config_limits.py::test_volume_knobs_act_only_over_"
        "several_disks",
    "node.volume.stripe_kb":
        "tests/test_config_limits.py::test_volume_knobs_act_only_over_"
        "several_disks",
}
for _zone in LayoutConfig.ZONES:
    LIMIT_ONLY[f"node.layout.{_zone}_sectors"] = (
        "tests/test_config_limits.py::test_zone_size_bounds_what_the_zone_"
        f"holds[{_zone}]")

#: the name tables a string leaf's kind is swapped within
KINDS = {
    "node.disks[0].scheduler.kind": SCHEDULERS,
    "node.disks[0].cache.kind": DRIVE_CACHES,
    "node.volume.policy": VOLUME_POLICIES,
}


def leaves(value: Any, path: str = "") -> Iterator[Tuple[str, Any]]:
    """(dotted override path, value) of every leaf; a list of tables is
    indexed, a list of names (the workload mix) is one leaf."""
    if isinstance(value, dict):
        for key, sub in value.items():
            yield from leaves(sub, f"{path}.{key}" if path else key)
    elif isinstance(value, list) and value and isinstance(value[0], dict):
        for i, sub in enumerate(value):
            yield from leaves(sub, f"{path}[{i}]")
    else:
        yield path, value


def candidates(path: str, value: Any) -> List[Any]:
    """Perturbed values to try, in order."""
    if isinstance(value, bool):
        return [not value]
    if isinstance(value, (int, float)):
        if value == 0:
            # 2 keeps a sector count block-aligned
            return [2] if isinstance(value, int) else [0.01]
        kind = type(value)
        return [kind(value * f) for f in (2, 0.5, 1.1, 0.9)]
    if isinstance(value, list):           # the workload mix
        return [value[:-1]]
    if path in KINDS:
        names = sorted(KINDS[path])
        return names[names.index(value) + 1:] + names[:names.index(value)]
    raise ValueError(f"{path}: no perturbation for {value!r}")


def perturb(base: Scenario, path: str, value: Any) -> Optional[tuple]:
    """The first valid perturbed scenario and its value, or None."""
    for new in candidates(path, value):
        try:
            return base.with_override(path, new).validate(), new
        except ConfigError:
            continue
    return None


def trace_hash(scenario: Scenario) -> str:
    digest = hashlib.sha256()
    runner = ExperimentRunner(scenario=scenario)
    for experiment in ("baseline", "combined"):
        digest.update(runner.run(experiment).trace.records.tobytes())
    return digest.hexdigest()


def main() -> int:
    base = Scenario().with_overrides({
        "cluster.nnodes": 2, "seed": 1,
        "experiment.baseline_duration": 300.0}).validate()
    paths = [(p, v) for p, v in leaves(base.to_dict())
             if p != "name"]          # a label: it names the run only

    start = time.perf_counter()
    reference = trace_hash(base)
    failures = []
    for path, value in paths:
        found = perturb(base, path, value)
        if found is None:
            failures.append(f"{path}: no valid perturbation of {value!r}")
            print(f"  INVALID {path} = {value!r}")
            continue
        scenario, new = found
        moved = trace_hash(scenario) != reference
        if moved:
            verdict = "live"
        elif path in LIMIT_ONLY:
            verdict = "limit-only"
        else:
            verdict = "INERT"
            failures.append(f"{path}: {value!r} -> {new!r} moved no trace")
        print(f"  {verdict:<10} {path} {value!r} -> {new!r}")
    print(f"{len(paths)} leaves in {time.perf_counter() - start:.0f} s")
    if failures:
        print("knob liveness FAILED:\n  " + "\n  ".join(failures))
        return 1
    print("knob liveness OK: every leaf moves a trace or is limit-only")
    return 0


if __name__ == "__main__":
    sys.exit(main())
