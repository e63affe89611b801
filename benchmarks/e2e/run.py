#!/usr/bin/env python3
"""End-to-end benchmark: the paper's experiments at 16 nodes.

Run from the repository root (no install needed; ``src/`` is put on the
path)::

    python3 benchmarks/e2e/run.py                        # all workloads
    python3 benchmarks/e2e/run.py --workload baseline --seed 2 --seconds 10
    python3 benchmarks/e2e/run.py --trace 1 --spans spans.json
    python3 benchmarks/e2e/run.py --out runs.json      # appends; see compare.py
    python3 benchmarks/e2e/run.py --record-expected

Load model: one client, closed loop -- each operation starts when the
previous one finished.  Every workload runs in fresh child processes,
one at a time, each a single thread.  ``--seed`` reaches the program
only as the scenario seed.  A run repeats the workload's operations in
whole passes until ``--seconds`` have been measured (at least one
pass); ``wall_s`` sums one pass with each operation at its median
repeat.  Times are host seconds less the time spent waiting for a CPU,
divided by the host's slowdown sampled while they ran (``hostload.py``),
so they do not move with other tenants' load.

With ``--trace 0`` the command prints the end-to-end metrics
(``wall_s``, ``records_per_s``, ``peak_rss_mb``, ``setup_s``) plus
``error_rate``; with ``--trace 1`` it runs one untraced and one traced
pass and prints the per-layer metrics.  The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.

Exit status: 0 when every operation verified, 1 when one failed (or a
child crashed, or the traced spans did not nest or add up), 2 when an
operation ran on a seed with no recorded digest and
``--allow-unverified`` was not given.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO = HERE.parents[1]
SRC = REPO / "src"
EXPECTED = HERE / "expected.json"
WORKDIR = HERE / ".work"

#: end-to-end metric -> unit (``error_rate`` is printed, but failures
#: reach the JSON line as ``failed`` / ``attempted``)
END_TO_END = {"wall_s": "s", "records_per_s": "records/s",
              "peak_rss_mb": "MB", "setup_s": "s"}

#: per-layer metric -> unit, besides ``<layer>.self_s`` (s) and
#: ``<layer>.calls`` (count); ``sim_s``/``sim_ms`` are simulated time,
#: every other time is host time
MODELLED = {
    "trace.overhead": "x",
    "trace.root_s": "s",
    "sim.events": "count",
    "sim.host_us_per_event": "us",
    "disk.requests": "count",
    "disk.busy_s": "sim_s",
    "disk.mean_latency_ms": "sim_ms",
    "disk.max_queue_depth": "count",
    "disk.sched.requests_per_drain": "requests/drain",
    "disk.cache.hit_ratio": "ratio",
    "kernel.bcache.hit_ratio": "ratio",
    "kernel.bcache.writebacks": "count",
    "kernel.vm.faults": "count",
    "kernel.vm.swap_ins": "count",
    "driver.requests_issued": "count",
    "driver.ring_dropped": "count",
    "cluster.net.messages": "count",
    "cluster.net.busy_s": "sim_s",
    "store.records_written": "count",
    "store.compression_ratio": "ratio",
    "analysis.chunks_scanned": "count",
    "analysis.merge_blocks": "count",
    "analysis.records_per_merge_block": "records/block",
}

WORKLOADS = ("baseline", "single-apps", "combined-capture",
             "analyze-wavelet")
#: set-ups per untraced run; setup_s is their median
SETUPS = 3
#: seeds ``--record-expected`` records: every workload's operations at
#: these seeds, which takes baseline operations up to seed 102
RECORD_SEEDS = range(100)
#: the traced layer self times must add up to the traced wall this well
SELF_TIME_TOLERANCE = 0.02
#: a child's longest run (a traced combined-capture pass on a slow host)
#: takes about 100 s; one that hangs fails the run well inside 3 minutes
CHILD_TIMEOUT = 150


class ChildFailed(RuntimeError):
    """A workload child exited non-zero or printed no result."""


def parse_args(argv=None):
    parser = argparse.ArgumentParser(
        description="End-to-end benchmark of the reproduction at the "
                    "paper's 16 nodes")
    parser.add_argument("--workload", action="append", choices=WORKLOADS,
                        help="workload to run (repeatable; default all)")
    parser.add_argument("--seed", type=int, default=1,
                        help="scenario seed (default 1)")
    parser.add_argument("--seconds", type=float, default=0.0,
                        help="measure whole passes until this many "
                             "seconds have passed (default: one pass)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: traced run, per-layer metrics")
    parser.add_argument("--spans", metavar="OUT.json",
                        help="with --trace 1: write every span here "
                             "(OUT-<workload>.json for several workloads)")
    parser.add_argument("--quick", action="store_true",
                        help="2 nodes, 120 s baseline, ppm for every app")
    parser.add_argument("--allow-unverified", action="store_true",
                        help="exit 0 for operations on seeds with no "
                             "recorded digest (still checked by "
                             "invariants, still printed)")
    parser.add_argument("--out", metavar="RUNS.json",
                        help="append every run to this file (compare.py "
                             "reads it)")
    parser.add_argument("--record-expected", action="store_true",
                        help="record into expected.json the digest of "
                             "every operation of seeds "
                             f"{RECORD_SEEDS.start}-{RECORD_SEEDS.stop - 1} "
                             "not recorded yet, full and --quick scale")
    # internal: the workload child
    parser.add_argument("--child", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--spawned-at", type=float,
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.spans and not args.trace:
        parser.error("--spans needs --trace 1")
    args.workload = tuple(args.workload or WORKLOADS)
    return args


# -- the workload child -------------------------------------------------------
def child_main(args) -> int:
    """Set up, measure, check; print one JSON line for the parent."""
    from hostload import HostLoad

    workload = args.workload[0]
    WORKDIR.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=WORKDIR))
    try:
        with HostLoad() as load:
            sys.path.insert(0, str(SRC))
            import workloads as wl

            expected = load_expected()
            session = wl.Session(tmp, expected)
            setup_ops, ops = wl.plan(workload, args.seed, args.quick)
            if args.record_expected:
                ops = wl.unrecorded(ops, expected)
            wl.warm_up(tmp, args.seed)
            out = {"setup": [session.setup(op) for op in setup_ops]}
            setup_host_s = time.time() - args.spawned_at
        out["setup_s"] = load.reference_s(setup_host_s)
        if not args.setup_only:
            out.update(measure(args, session, ops))
        out["peak_rss_mb"] = \
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print(json.dumps(out))
    return 0


def measure(args, session, ops) -> dict:
    """Whole untraced passes until ``--seconds`` have passed (at least
    one); with ``--trace 1`` one untraced pass, then one traced pass."""
    from layers import Tracer
    from workloads import Counters

    passes, outcomes = [], []
    started = time.perf_counter()
    while True:
        results = [session.run(op) for op in ops]
        outcomes += results
        passes.append(sum(r["wall_s"] for r in results))
        if args.trace or time.perf_counter() - started >= args.seconds:
            break
    out = {"passes": passes, "ops": outcomes}
    if not args.trace:
        return out
    tracer, counters = Tracer(), Counters()
    tracer.install()
    try:
        traced = [session.run(op, tracer=tracer, counters=counters)
                  for op in ops]
    finally:
        tracer.uninstall()
    outcomes += traced
    report = tracer.report()
    if args.spans:
        tracer.write_spans(args.spans)
    traced_s = sum(r["host_s"] for r in traced)
    untraced_host_s = sum(r["host_s"] for r in outcomes[:len(ops)])
    out["layers"] = report["layers"]
    out["layer_metrics"] = layer_metrics(
        report, counters.metrics(), untraced_s=passes[0],
        overhead=traced_s / untraced_host_s)
    self_sum = sum(entry["self_s"] for entry in report["layers"].values())
    out["check"] = {"self_sum_s": self_sum, "traced_s": traced_s,
                    "spans": report["spans"], "nested": report["nested"],
                    "ok": report["nested"] and abs(self_sum - traced_s)
                    <= SELF_TIME_TOLERANCE * traced_s}
    return out


def layer_metrics(report: dict, modelled: dict, *, untraced_s: float,
                  overhead: float) -> dict:
    """Every per-layer metric, by name (see :data:`MODELLED`).

    ``untraced_s`` is the untraced pass's ``wall_s``; ``overhead`` is
    traced over untraced host seconds (the traced pass is unsampled)."""
    metrics = {}
    for layer, entry in report["layers"].items():
        metrics[f"{layer}.self_s"] = entry["self_s"]
        if layer != "unattributed":
            metrics[f"{layer}.calls"] = entry["calls"]
    metrics.update(modelled)
    drains = [tally for name, tally in report["counted"].items()
              if name.endswith(".drain")]
    drain_calls = sum(calls for calls, _ in drains)
    merge_blocks, merged = report["counted"][
        "repro.analysis.engine:merged_time_blocks"]
    events = modelled["sim.events"]
    metrics.update({
        "trace.overhead": overhead,
        "trace.root_s": report["root_s"],
        "sim.host_us_per_event": 1e6 * untraced_s / events if events
        else 0.0,
        "disk.sched.requests_per_drain":
            sum(n for _, n in drains) / drain_calls if drain_calls else 0.0,
        "analysis.merge_blocks": merge_blocks,
        "analysis.records_per_merge_block":
            merged / merge_blocks if merge_blocks else 0.0,
    })
    return metrics


def per_layer_unit(name: str) -> str:
    if name.endswith(".self_s"):
        return "s"
    if name.endswith(".calls"):
        return "count"
    return MODELLED[name]


# -- the parent ---------------------------------------------------------------
def spawn(args, workload: str, *, seed: int, setup_only: bool = False,
          quick: bool = False, record: bool = False) -> dict:
    """Run one fresh workload child; returns its parsed result."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--child",
           "--workload", workload, "--seed", str(seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    if quick:
        cmd.append("--quick")
    if record:
        cmd.append("--record-expected")
    if args.spans:
        cmd += ["--spans", spans_path(args, workload)]
    cmd += ["--spawned-at", repr(time.time())]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              cwd=REPO, timeout=CHILD_TIMEOUT)
    except subprocess.TimeoutExpired as exc:
        raise ChildFailed(f"{workload}: child timed out") from exc
    lines = [line for line in proc.stdout.splitlines() if line.strip()]
    if proc.returncode != 0 or not lines:
        raise ChildFailed(f"{workload}: child exited {proc.returncode}")
    return json.loads(lines[-1])


def spans_path(args, workload: str) -> str:
    """``--spans`` as given for one workload, else one file per workload
    (``OUT-<workload>.json``)."""
    path = Path(args.spans).resolve()
    if len(args.workload) > 1:
        path = path.with_name(f"{path.stem}-{workload}{path.suffix}")
    return str(path)


def median_pass(ops: list) -> tuple:
    """``(seconds, records)`` of one pass, each operation at the median
    ``wall_s`` of its repeats in the run.

    Failed operations count only when nothing succeeded.
    """
    repeats: dict = {}
    for op in [op for op in ops if op["status"] != "failed"] or ops:
        walls, _ = repeats.setdefault((op["key"], op["seed"]),
                                      ([], op["records"]))
        walls.append(op["wall_s"])
    return (sum(statistics.median(walls) for walls, _ in repeats.values()),
            sum(records for _, records in repeats.values()))


def run_workload(args, workload: str) -> dict:
    """One run of one workload: set-ups, measurement, summary."""
    setups = []
    if not args.trace:
        for _ in range(SETUPS - 1):
            setups.append(spawn(args, workload, seed=args.seed,
                                setup_only=True, quick=args.quick)
                          ["setup_s"])
    child = spawn(args, workload, seed=args.seed, quick=args.quick)
    setups.append(child["setup_s"])
    ops = child["ops"]
    failed = sum(op["status"] == "failed" for op in ops)
    run = {"workload": workload, "seed": args.seed, "trace": args.trace,
           "quick": args.quick, "attempted": len(ops), "failed": failed,
           "unverified": sum(op["status"] == "unverified" for op in ops),
           "ops": ops, "passes": len(child["passes"]),
           "slowdown": statistics.median(op["slowdown"] for op in ops)}
    if args.trace:
        run["metrics"] = {name: {"value": value,
                                 "unit": per_layer_unit(name)}
                          for name, value in child["layer_metrics"].items()}
        run["layers"] = child["layers"]
        run["check"] = child["check"]
    else:
        wall, records = median_pass(ops)
        values = {"wall_s": wall,
                  "records_per_s": records / wall if wall else 0.0,
                  "peak_rss_mb": child["peak_rss_mb"],
                  "setup_s": statistics.median(setups)}
        run["metrics"] = {name: {"value": values[name], "unit": unit}
                          for name, unit in END_TO_END.items()}
        run["setups"] = setups
    run["correct"] = failed == 0 and run.get("check", {}).get("ok", True)
    return run


def print_run(run: dict) -> None:
    mode = "traced" if run["trace"] else "untraced"
    scale = "quick" if run["quick"] else "16 nodes"
    print(f"== {run['workload']} (seed {run['seed']}, {scale}, {mode}): "
          f"{run['attempted']} ops in {run['passes']} pass(es), "
          f"{run['failed']} failed, {run['unverified']} unverified; "
          f"host slowdown {run['slowdown']:.2f}x")
    for op in run["ops"]:
        line = (f"   {op['status']:<10} {op['key']} seed {op['seed']}: "
                f"{op['wall_s']:.4f} s ({op['host_s']:.4f} host s, "
                f"{op['waited_s']:.4f} s waiting for a CPU, ran at "
                f"{op['slowdown']:.2f}x), {op['records']} records")
        if op["status"] == "unverified":
            line += " (no recorded digest; invariants checked)"
        print(line)
        for problem in op["problems"]:
            print(f"      {problem.rstrip()}")
    if run["trace"]:
        root = run["metrics"]["trace.root_s"]["value"]
        print(f"   {'layer':<18} {'self_s':>10} {'calls':>10} {'share':>7}")
        for layer, entry in run["layers"].items():
            share = entry["self_s"] / root if root else 0.0
            print(f"   {layer:<18} {entry['self_s']:>10.4f} "
                  f"{entry['calls']:>10d} {share:>7.1%}")
        check = run["check"]
        print(f"   self times sum to {check['self_sum_s']:.4f} s; traced "
              f"wall {check['traced_s']:.4f} s over {check['spans']} "
              f"spans; spans {'nest' if check['nested'] else 'MIS-NEST'}: "
              f"{'ok' if check['ok'] else 'MISMATCH'}")
    else:
        rate = run["failed"] / run["attempted"]
        print(f"   {'error_rate':<32} {rate:>16.6g} fraction")
    for name, metric in run["metrics"].items():
        if name.endswith((".self_s", ".calls")):
            continue      # in the layer table above
        print(f"   {name:<32} {metric['value']:>16.6g} {metric['unit']}")


def summary_line(runs: list) -> dict:
    """The final JSON line: one workload's metrics by name, or every
    workload's as ``workload/metric``."""
    return {"correct": all(run["correct"] for run in runs),
            "attempted": sum(run["attempted"] for run in runs),
            "failed": sum(run["failed"] for run in runs),
            "metrics": {name if len(runs) == 1
                        else f"{run['workload']}/{name}": metric
                        for run in runs
                        for name, metric in run["metrics"].items()}}


def append_runs(path: str, runs: list) -> None:
    target = Path(path)
    data = json.loads(target.read_text()) if target.exists() else \
        {"runs": []}
    for run in runs:
        data["runs"].append({key: value for key, value in run.items()
                             if key not in ("ops", "layers")})
    target.write_text(json.dumps(data, indent=1) + "\n")


def load_expected() -> dict:
    """``{operation key: {seed: sha256}}`` from ``expected.json``."""
    return json.loads(EXPECTED.read_text()) if EXPECTED.exists() else {}


def record_expected(args) -> int:
    """Record the digest of every operation of the selected workloads at
    :data:`RECORD_SEEDS` that ``expected.json`` does not hold yet.

    Recorded digests are never replaced; delete ``expected.json`` to
    record outputs that changed on purpose.  The file is rewritten after
    every child, so an interrupted recording keeps what it finished.
    """
    sys.path.insert(0, str(SRC))
    import workloads as wl

    expected = load_expected()
    for quick in (True, False):
        for workload in args.workload:
            for seed in RECORD_SEEDS:
                setup_ops, ops = wl.plan(workload, seed, quick)
                if not wl.unrecorded(setup_ops + ops, expected):
                    continue
                child = spawn(args, workload, seed=seed, quick=quick,
                              record=True)
                for op in child["setup"] + child["ops"]:
                    if op["status"] == "failed":
                        print(f"{op['key']} seed {op['seed']} failed: "
                              + "; ".join(op["problems"]), file=sys.stderr)
                        return 1
                    expected.setdefault(op["key"], {})[str(op["seed"])] = \
                        op["sha256"]
                EXPECTED.write_text(
                    json.dumps(expected, indent=1, sort_keys=True) + "\n")
                print(f"recorded {workload} seed {seed}"
                      f"{' (quick)' if quick else ''}", flush=True)
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"run.py: no repro sources under {SRC}; run from a full "
              "checkout of the repository", file=sys.stderr)
        return 1
    if args.child:
        return child_main(args)
    if args.record_expected:
        args.seconds = 0.0
        return record_expected(args)
    runs = []
    try:
        for workload in args.workload:
            run = run_workload(args, workload)
            print_run(run)
            runs.append(run)
    except ChildFailed as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    if args.out:
        append_runs(args.out, runs)
    line = summary_line(runs)
    print(json.dumps(line))
    if not line["correct"]:
        return 1
    unverified = sum(run["unverified"] for run in runs)
    return 2 if unverified and not args.allow_unverified else 0


if __name__ == "__main__":
    raise SystemExit(main())
