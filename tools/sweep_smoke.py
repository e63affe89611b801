#!/usr/bin/env python
"""CI smoke test for the scenario sweep runner.

Drives the ``repro-experiment sweep`` CLI over two small 2x2 grids —
disk stack (scheduler x drive-cache segments) and cluster fabric
(network channels x volume policy) — with short durations, then asserts:

* the comparison table rendered with one row per grid point;
* every grid point landed in the run catalog as its own run;
* each manifest is the current version and carries the fully-resolved
  scenario block with that point's overrides applied, including the
  fabric blocks (``network``, ``node.disks``, ``node.volume``), and
  rebuilds into a scenario whose dict is that block;
* the JSON results file round-trips, and the ablated stacks produced
  different scenario fingerprints, in the JSON and in the manifests;
* every finished run was freed by reference counting.  The grids'
  points run in a process pool, so the smoke also runs a one-point
  sweep and a single experiment through the CLI in this process; with
  ``gc.DEBUG_SAVEALL`` set from the start, no object the garbage
  collector found (during the runs or in a last full collection) may
  have a type from a ``repro.`` module.

Usage::

    PYTHONPATH=src python tools/sweep_smoke.py [--duration 60]
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import sys
import tempfile
from pathlib import Path

from repro.cli import main as cli_main
from repro.config import Scenario
from repro.migrate import MANIFEST_FORMAT
from repro.store import RunCatalog

AXES = {"scheduler": ("clook", "fifo"),
        "drive_cache_segments": ("0", "4")}
FABRIC_AXES = {"network.channels": ("1", "2"),
               "node.volume.policy": ("single", "raid0")}


def _run_sweep_cli(sink: Path, out_json: Path, duration: float,
                   axes: dict) -> tuple:
    argv = ["sweep", "--on", "baseline", "--nodes", "1",
            "--duration", str(duration)]
    for name, values in axes.items():
        argv += ["--grid", f"{name}=" + ",".join(values)]
    argv += ["--sink", str(sink), "--json", str(out_json)]
    print("repro-experiment", " ".join(argv))
    table = io.StringIO()
    with contextlib.redirect_stdout(table):
        rc = cli_main(argv)
    sys.stdout.write(table.getvalue())
    assert rc == 0, f"sweep CLI exited {rc}"

    results = json.loads(out_json.read_text())
    assert len(results) == 4, f"expected 4 grid points, got {len(results)}"
    fingerprints = {r["fingerprint"] for r in results}
    assert len(fingerprints) == 4, "ablated stacks must differ"
    header = table.getvalue().splitlines()[2]
    for name in axes:
        assert name in header, f"table misses the {name} column"
    for r in results:
        assert r["metrics"]["total_requests"] > 0, r["label"]

    catalog = RunCatalog(sink)
    runs = catalog.runs()
    assert len(runs) == 4, f"expected 4 catalog runs, got {runs}"
    # every result row names the catalog run it was stored under
    assert sorted(r["run_id"] for r in results) == sorted(runs), \
        "sweep results must stamp their catalog run ids"
    return catalog, runs


def run_smoke(duration: float, workdir: Path) -> int:
    # -- grid 1: the disk stack ------------------------------------------
    sink = workdir / "runs"
    catalog, runs = _run_sweep_cli(sink, workdir / "sweep.json",
                                   duration, AXES)
    for run_id in runs:
        manifest = catalog.manifest(run_id)
        assert manifest["format"] == MANIFEST_FORMAT, run_id
        scenario = manifest.get("scenario")
        assert scenario is not None, f"{run_id}: no scenario block"
        overrides = dict(pair.split("=") for pair in
                         scenario["name"].split(","))
        assert scenario["node"]["disks"][0]["scheduler"]["kind"] == \
            overrides["scheduler"], run_id
        assert scenario["node"]["disks"][0]["cache"]["nsegments"] == \
            int(overrides["drive_cache_segments"]), run_id

    # -- grid 2: the cluster fabric --------------------------------------
    fabric_sink = workdir / "fabric-runs"
    catalog, runs = _run_sweep_cli(fabric_sink, workdir / "fabric.json",
                                   duration, FABRIC_AXES)
    fingerprints = set()
    for run_id in runs:
        scenario = catalog.manifest(run_id)["scenario"]
        overrides = dict(pair.split("=") for pair in
                         scenario["name"].split(","))
        assert scenario["network"]["channels"] == \
            int(overrides["network.channels"]), run_id
        assert scenario["node"]["volume"]["policy"] == \
            overrides["node.volume.policy"], run_id
        # the manifest scenario rebuilds byte-for-byte
        rebuilt = Scenario.from_dict(scenario)
        assert rebuilt.to_dict() == scenario, run_id
        fingerprints.add(rebuilt.fingerprint())
    assert len(fingerprints) == len(runs), \
        f"fabric runs share a fingerprint: {sorted(fingerprints)}"
    print(f"sweep smoke OK: 4 stack runs in {sink} and 4 fabric runs "
          f"in {fabric_sink}, all with distinct fingerprints")

    # -- in this process: a one-point sweep and a single experiment --------
    local_sink = workdir / "local-runs"
    argv_sweep = ["sweep", "--on", "baseline", "--nodes", "1",
                  "--duration", str(duration), "--grid", "scheduler=clook",
                  "--sink", str(local_sink)]
    argv_run = ["baseline", "--nodes", "1", "--duration", str(duration),
                "--sink", str(local_sink)]
    for argv in (argv_sweep, argv_run):
        print("repro-experiment", " ".join(argv))
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli_main(argv)
        assert rc == 0, f"{argv[0]} CLI exited {rc}"
    assert len(RunCatalog(local_sink).runs()) == 2
    return 0


def _cyclic_repro_garbage() -> dict:
    """Type name -> count of the ``repro.`` objects among everything the
    collector found since ``gc.DEBUG_SAVEALL`` was set, plus a last full
    collection."""
    gc.collect()
    found: dict = {}
    for obj in gc.garbage:
        kind = type(obj)
        if kind.__module__.startswith("repro."):
            name = f"{kind.__module__}.{kind.__qualname__}"
            found[name] = found.get(name, 0) + 1
    gc.set_debug(0)
    gc.garbage.clear()
    return found


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--duration", type=float, default=60.0,
                        help="baseline window per grid point (seconds)")
    parser.add_argument("--keep", type=Path, default=None, metavar="DIR",
                        help="run in DIR and keep the artifacts")
    args = parser.parse_args()
    # keep whatever the collector frees, so the check below also sees
    # cycles collected while the runs went on
    gc.set_debug(gc.DEBUG_SAVEALL)
    if args.keep:
        args.keep.mkdir(parents=True, exist_ok=True)
        rc = run_smoke(args.duration, args.keep)
    else:
        with tempfile.TemporaryDirectory(prefix="sweep-smoke-") as tmp:
            rc = run_smoke(args.duration, Path(tmp))
    leaked = _cyclic_repro_garbage()
    assert not leaked, \
        f"finished runs left reference cycles of repro objects: {leaked}"
    print("no repro object was left to the garbage collector")
    return rc


if __name__ == "__main__":
    sys.exit(main())
