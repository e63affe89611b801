"""Tests of the end-to-end benchmark harness, at ``--quick`` scale.

Run with ``PYTHONPATH=src python -m pytest benchmarks/e2e -q``; they sit
outside the tier-1 ``testpaths``.
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
REPO = HERE.parents[1]
BENCHMARK = json.loads((REPO / "BENCHMARK.json").read_text())
#: the line run.py prints for an operation with no recorded digest
UNVERIFIED_OP = re.compile(r"^\s+unverified\s+\S+ seed \d+:", re.M)


def bench(*args, cwd=REPO, script=HERE / "run.py"):
    return subprocess.run([sys.executable, str(script), "--quick", *args],
                          capture_output=True, text=True, cwd=cwd,
                          timeout=600)


def summary(proc) -> dict:
    return json.loads(proc.stdout.splitlines()[-1])


def printed(stdout: str, name: str, unit: str) -> bool:
    return re.search(rf"^\s+{re.escape(name)}\s+\S+ {re.escape(unit)}$",
                     stdout, re.M) is not None


@pytest.fixture(scope="module")
def quick_run():
    return bench("--seed", "1")


def test_every_end_to_end_metric_is_printed_with_its_unit(quick_run):
    assert quick_run.returncode == 0, quick_run.stderr
    line = summary(quick_run)
    assert line["correct"] and line["failed"] == 0 and line["attempted"]
    for metric in BENCHMARK["end_to_end"]:
        assert printed(quick_run.stdout, metric["name"], metric["unit"])
        for workload in BENCHMARK["workloads"]:
            value = line["metrics"][f"{workload['name']}/{metric['name']}"]
            assert value["unit"] == metric["unit"] and value["value"] > 0
    assert printed(quick_run.stdout, "error_rate", "fraction")
    assert not UNVERIFIED_OP.search(quick_run.stdout)


def copy_benchmark(root: Path) -> Path:
    """The benchmark's files under ``root``, as in a checkout; returns
    the copied ``run.py``."""
    shutil.copy(REPO / "BENCHMARK.json", root)
    shutil.copytree(HERE, root / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    return root / "benchmarks" / "e2e" / "run.py"


def test_corrupted_digest_fails_every_operation(tmp_path):
    script = copy_benchmark(tmp_path)
    (tmp_path / "src").symlink_to(REPO / "src")
    path = script.with_name("expected.json")
    expected = json.loads(path.read_text())
    for key, seeds in expected.items():
        if key.startswith("baseline/n2/"):
            expected[key] = {seed: "0" * 64 for seed in seeds}
    path.write_text(json.dumps(expected))
    proc = bench("--workload", "baseline", cwd=tmp_path, script=script)
    assert proc.returncode == 1
    assert re.search(r"error_rate\s+1 fraction", proc.stdout)
    line = summary(proc)
    assert not line["correct"]
    assert line["failed"] == line["attempted"] == 4


def test_unrecorded_seed_is_unverified_not_passed():
    proc = bench("--workload", "single-apps", "--seed", "917")
    assert proc.returncode == 2
    assert UNVERIFIED_OP.search(proc.stdout)
    allowed = bench("--workload", "single-apps", "--seed", "917",
                    "--allow-unverified")
    assert allowed.returncode == 0
    assert UNVERIFIED_OP.search(allowed.stdout)


def test_traced_self_times_add_up_to_the_root():
    proc = bench("--workload", "single-apps", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    metrics = summary(proc)["metrics"]
    for metric in BENCHMARK["per_layer"]:
        assert metrics[metric["name"]]["unit"] == metric["unit"]
    self_sum = sum(m["value"] for name, m in metrics.items()
                   if name.endswith(".self_s"))
    root = metrics["trace.root_s"]["value"]
    assert abs(self_sum - root) <= 0.02 * root
    assert metrics["sim.events"]["value"] > 0
    assert metrics["analysis.self_s"]["value"] == 0.0
    assert metrics["trace.overhead"]["value"] > 1.0


def test_mis_nested_spans_fail_the_nesting_check():
    from layers import Tracer

    def report(close_outer_first: bool) -> dict:
        tracer = Tracer()
        kind = tracer._kind("sim", "test span")
        with tracer.op("test"):
            outer = tracer._open(kind)
            inner = tracer._open(kind)
            first, second = ((outer, inner) if close_outer_first
                             else (inner, outer))
            tracer._close(first)
            tracer._close(second)
        return tracer.report()

    assert report(close_outer_first=False)["nested"]
    assert not report(close_outer_first=True)["nested"]


def test_host_load_samplers_nest_and_restore_the_timer():
    import signal
    import time

    from hostload import HostLoad

    handler = signal.getsignal(signal.SIGPROF)
    with HostLoad() as outer:
        with HostLoad() as inner:
            end = time.perf_counter() + 0.2
            while time.perf_counter() < end:
                pass
        assert signal.getitimer(signal.ITIMER_PROF) != (0.0, 0.0)
    assert signal.getsignal(signal.SIGPROF) is handler
    assert signal.getitimer(signal.ITIMER_PROF) == (0.0, 0.0)
    assert len(inner.samples) >= 10
    assert set(inner.samples) <= set(outer.samples)
    assert 0.1 < inner.slowdown < 10.0
    assert 0.0 <= inner.waited <= outer.waited < 0.2
    assert inner.reference_s(0.2) == \
        pytest.approx((0.2 - inner.waited) / inner.slowdown)
    assert HostLoad().slowdown == 1.0


#: five steady runs: 10.00 .. 10.04
STEADY = [10.0 + 0.01 * i for i in range(5)]


def compare_verdicts(tmp_path, parent: dict, change: dict) -> tuple:
    """Run compare.py on five runs per workload; ``parent`` / ``change``
    give one metric's five values, every other metric is :data:`STEADY`.
    Returns the exit code and the verdict of each (metric, workload)."""
    paths = []
    for side, values in (("parent", parent), ("change", change)):
        runs = [{"workload": w["name"], "seed": 1, "trace": 0,
                 "metrics": {m["name"]: {
                     "value": values.get(m["name"], STEADY)[i],
                     "unit": m["unit"]} for m in BENCHMARK["end_to_end"]}}
                for w in BENCHMARK["workloads"] for i in range(5)]
        paths.append(tmp_path / f"{side}.json")
        paths[-1].write_text(json.dumps({"runs": runs}))
    proc = subprocess.run([sys.executable, str(HERE / "compare.py"),
                           *map(str, paths)],
                          capture_output=True, text=True, timeout=60)
    rows = [line.split() for line in proc.stdout.splitlines()[1:]]
    assert len(rows) == (len(BENCHMARK["end_to_end"])
                         * len(BENCHMARK["workloads"]))
    return proc.returncode, {(row[0], row[1]): row[-1] for row in rows}


def test_compare_flags_a_wall_time_regression(tmp_path):
    bound = next(m["bound"] for m in BENCHMARK["end_to_end"]
                 if m["name"] == "wall_s")
    rc, verdicts = compare_verdicts(
        tmp_path, {}, {"wall_s": [v * (1 + 2 * bound) for v in STEADY]})
    assert rc == 1
    for (metric, _), verdict in verdicts.items():
        assert verdict == ("worse" if metric == "wall_s" else "same")


def test_compare_wide_throughput_spread(tmp_path):
    """records_per_s is higher-better; with a spread above the bound,
    overlapping sets stay unresolved even when the change's median
    dropped, and only a change above every parent run is better."""
    parent = {"records_per_s": [100.0, 120.0, 140.0, 160.0, 180.0]}
    dropped = {"records_per_s": [90.0, 100.0, 110.0, 130.0, 170.0]}
    rc, verdicts = compare_verdicts(tmp_path, parent, dropped)
    assert rc == 1
    for (metric, _), verdict in verdicts.items():
        assert verdict == ("unresolved" if metric == "records_per_s"
                           else "same")
    risen = {"records_per_s": [200.0, 250.0, 300.0, 350.0, 400.0]}
    rc, verdicts = compare_verdicts(tmp_path, parent, risen)
    assert rc == 0
    for (metric, _), verdict in verdicts.items():
        assert verdict == ("better" if metric == "records_per_s"
                           else "same")
    rc, verdicts = compare_verdicts(tmp_path, risen, parent)
    assert rc == 1
    assert {verdict for (metric, _), verdict in verdicts.items()
            if metric == "records_per_s"} == {"worse"}


def test_refuses_to_run_without_the_sources(tmp_path):
    proc = bench(cwd=tmp_path, script=copy_benchmark(tmp_path))
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
