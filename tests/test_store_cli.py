"""Tests for the repro-trace command-line tool."""

import numpy as np
import pytest

from repro.driver import TRACE_DTYPE
from repro.store import TraceReader, write_trace
from repro.store.cli import build_parser, main


@pytest.fixture()
def trace_file(tmp_path):
    rng = np.random.default_rng(5)
    n = 2_000
    arr = np.empty(n, dtype=TRACE_DTYPE)
    arr["time"] = np.sort(rng.exponential(0.05, n).cumsum())
    arr["sector"] = rng.integers(0, 500_000, n)
    arr["write"] = rng.integers(0, 2, n)
    arr["pending"] = rng.integers(0, 10, n)
    arr["size_kb"] = rng.choice([1.0, 4.0], n)
    arr["node"] = rng.integers(0, 2, n)
    path = tmp_path / "t.rpt"
    write_trace(path, arr, chunk_records=256)
    return path, arr


def test_parser_requires_subcommand():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_info(trace_file, capsys):
    path, arr = trace_file
    assert main(["info", str(path)]) == 0
    out = capsys.readouterr().out
    assert "trace store v1" in out
    assert "2,000" in out


def test_info_verbose_lists_chunks(trace_file, capsys):
    path, arr = trace_file
    assert main(["info", "-v", str(path)]) == 0
    out = capsys.readouterr().out
    assert "chunk" in out
    # 2000 records / 256 per chunk = 8 chunks
    assert " 7 " in out.splitlines()[-1]


def test_info_bad_file(tmp_path, capsys):
    bad = tmp_path / "bad.rpt"
    bad.write_bytes(b"nope")
    assert main(["info", str(bad)]) == 1


def test_cat_filters_and_limit(trace_file, capsys):
    path, arr = trace_file
    assert main(["cat", str(path), "--limit", "5"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0].split(",") == list(TRACE_DTYPE.names)
    assert len(lines) == 6

    assert main(["cat", str(path), "--writes", "--no-header"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == int(np.count_nonzero(arr["write"]))

    t0, t1 = float(arr["time"][100]), float(arr["time"][200])
    assert main(["cat", str(path), "--t0", str(t0), "--t1", str(t1),
                 "--no-header", "--node", "1"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    mask = (arr["time"] >= t0) & (arr["time"] < t1) & (arr["node"] == 1)
    assert len(lines) == int(np.count_nonzero(mask))


def test_convert_roundtrip_via_csv_and_npy(trace_file, tmp_path, capsys):
    path, arr = trace_file
    csv_path = tmp_path / "t.csv"
    npy_path = tmp_path / "t.npy"
    back_path = tmp_path / "back.rpt"
    assert main(["convert", str(path), str(csv_path)]) == 0
    assert main(["convert", str(path), str(npy_path)]) == 0
    assert np.array_equal(np.load(npy_path), arr)
    assert main(["convert", str(csv_path), str(back_path)]) == 0
    with TraceReader(back_path) as reader:
        got = reader.read()
    assert len(got) == len(arr)
    assert np.allclose(got["time"], arr["time"])
    assert np.array_equal(got["sector"], arr["sector"])


def test_convert_with_filter(trace_file, tmp_path):
    path, arr = trace_file
    out = tmp_path / "reads.rpt"
    assert main(["convert", str(path), str(out), "--reads"]) == 0
    with TraceReader(out) as reader:
        got = reader.read()
    assert np.array_equal(got, arr[arr["write"] == 0])


def test_merge_is_time_ordered_and_complete(trace_file, tmp_path, capsys):
    path, arr = trace_file
    # split by node into two files, merge back
    parts = []
    for node in (0, 1):
        part = tmp_path / f"n{node}.rpt"
        write_trace(part, arr[arr["node"] == node], chunk_records=128)
        parts.append(str(part))
    out = tmp_path / "merged.rpt"
    assert main(["merge", str(out), *parts]) == 0
    with TraceReader(out) as reader:
        got = reader.read()
    assert len(got) == len(arr)
    assert np.all(np.diff(got["time"]) >= 0)
    assert np.array_equal(np.sort(got["sector"]), np.sort(arr["sector"]))

    # equal timestamps across files: three sources on a coarse time grid
    # (with one empty file) must come out in per-record (time, source)
    # order, equal times in source-file order
    rng = np.random.default_rng(11)
    tied = arr.copy()
    tied["time"] = np.round(tied["time"] * 2) / 2
    owner = rng.integers(0, 4, len(tied))
    owner[owner == 2] = 3            # source 2 stays empty
    parts = []
    for k in range(4):
        part = tmp_path / f"tied{k}.rpt"
        write_trace(part, tied[owner == k], chunk_records=[5, 64, 1, 7][k])
        parts.append(str(part))
    assert main(["merge", str(out), *parts]) == 0
    with TraceReader(out) as reader:
        got = reader.read()
    # the reference order: sources concatenated in order, stable by time
    stacked = np.concatenate([tied[owner == k] for k in range(4)])
    expected = stacked[np.argsort(stacked["time"], kind="stable")]
    assert len(np.unique(got["time"])) < len(got) // 4
    assert got.tobytes() == expected.tobytes()


def test_ls_empty_and_populated(tmp_path, capsys):
    assert main(["ls", str(tmp_path / "none")]) == 1
    capsys.readouterr()

    from repro.core import ExperimentRunner
    root = tmp_path / "runs"
    runner = ExperimentRunner(nnodes=1, seed=0, sink=root)
    runner.run("baseline", duration=60.0)
    assert main(["ls", str(root)]) == 0
    out = capsys.readouterr().out
    assert "baseline" in out
    assert "req/s/node" in out


@pytest.fixture()
def captured_run(tmp_path):
    from repro.core import ExperimentRunner
    root = tmp_path / "runs"
    runner = ExperimentRunner(nnodes=2, seed=4, sink=root)
    result = runner.run("baseline", duration=100.0)
    return root, result


def test_analyze_human_output(captured_run, capsys):
    root, result = captured_run
    assert main(["analyze", str(root), "--stats"]) == 0
    captured = capsys.readouterr()
    assert "baseline" in captured.out
    assert "requests" in captured.out
    assert "chunks scanned" in captured.err
    # second invocation is served from the analysis.json cache
    assert main(["analyze", str(root), "--stats"]) == 0
    assert "0 chunks scanned" in capsys.readouterr().err
    assert (root / "baseline" / "analysis.json").is_file()


def test_analyze_json_matches_in_memory(captured_run, capsys):
    import json
    root, result = captured_run
    assert main(["analyze", str(root), "baseline", "--json", "--no-cache",
                 "--pipelines", "metrics,sizes",
                 "--t0", "0", "--t1", str(result.duration)]) == 0
    payload = json.loads(capsys.readouterr().out)
    metrics = payload["baseline"]["metrics"]
    assert metrics["total_requests"] == len(result.trace)
    histogram = {float(s): c
                 for s, c in payload["baseline"]["sizes"]["histogram"]}
    from repro.core.sizes import size_histogram
    assert histogram == size_histogram(result.trace)
    assert not (root / "baseline" / "analysis.json").exists()


def test_analyze_missing_run_and_empty_catalog(tmp_path, capsys):
    assert main(["analyze", str(tmp_path / "none")]) == 1
    assert "no runs" in capsys.readouterr().err


def test_analyze_unknown_run_errors(captured_run, capsys):
    root, _ = captured_run
    assert main(["analyze", str(root), "nope"]) == 1
    assert "no run" in capsys.readouterr().err


def test_analyze_unknown_pipeline_exits_2(captured_run, capsys):
    root, _ = captured_run
    rc = main(["analyze", str(root), "--pipelines", "bogus"])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("repro-trace: error:")
    assert "bogus" in err
    assert "Traceback" not in err
