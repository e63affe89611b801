"""The trace store end to end: store, inspect, query, replay.

Runs a small combined experiment with a run-catalog sink (one ``.rpt``
file per node, written once the run finished), then works
entirely from disk: lists the catalog, prints the chunk index, answers a
time-window query while counting how many chunks the index let it skip,
reloads the merged ``TraceDataset`` for the analysis layer, and replays
the stored trace against two disk schedulers without ever materialising
it whole.

    python examples/trace_store.py [catalog_dir]
"""

import sys
from pathlib import Path

from repro.core import ExperimentRunner, compute_metrics
from repro.store import RunCatalog, TraceReader, TraceWriter
from repro.synth.replay import replay_trace


def main(root: Path) -> None:
    print(f"== storing a combined run in {root}/ ==")
    runner = ExperimentRunner(nnodes=2, seed=0, sink=root)
    result = runner.run("combined")
    print(f"simulated {len(result.trace)} requests over "
          f"{result.duration:.0f} s; stored in {runner.last_run_dir}")

    catalog = RunCatalog(root)
    run_id = catalog.runs()[-1]
    manifest = catalog.manifest(run_id)
    print(f"\n== catalog entry {run_id!r} ==")
    print(f"nodes {manifest['nnodes']}, seed {manifest['seed']}, "
          f"{manifest['records']} records, "
          f"{manifest['metrics']['read_pct']}% reads")

    node0 = catalog.trace_paths(run_id)[0]
    with TraceReader(node0) as reader:
        t_lo, t_hi = reader.time_span
        print(f"\n== {node0.name}: {len(reader)} records, "
              f"{reader.chunk_count} chunks, "
              f"{t_lo:.1f}..{t_hi:.1f} s ==")

    # predicate pushdown: a narrow window decompresses few chunks.
    # Re-chunk finely first — at this toy scale the whole node fits in
    # one default 64 Ki-record chunk and there is nothing to skip.
    fine = node0.with_name("node0_fine.rpt")
    with TraceReader(node0) as reader, TraceWriter(
            fine, chunk_records=2048) as writer:
        for batch in reader.iter_arrays():
            writer.append_array(batch)
    mid = (t_lo + t_hi) / 2
    with TraceReader(fine) as reader:
        window = reader.read(t0=mid - 20, t1=mid + 20)
        print(f"40 s window -> {len(window)} records; decompressed "
              f"{reader.chunks_read}/{reader.chunk_count} chunks")

    # the analysis layer sees a normal TraceDataset
    dataset = catalog.load_dataset(run_id)
    metrics = compute_metrics(dataset, label=run_id)
    print(f"\nmerged dataset: {metrics.total_requests} requests, "
          f"{metrics.read_pct}% reads / {metrics.write_pct}% writes")

    # replay straight from the stored file (streams chunk by chunk)
    print("\n== replaying node 0 from disk ==")
    for scheduler in ("fifo", "clook"):
        with TraceReader(node0) as reader:
            report = replay_trace(reader, scheduler=scheduler)
        print(f"  {report}")


if __name__ == "__main__":
    main(Path(sys.argv[1]) if len(sys.argv) > 1
         else Path("/tmp/repro_runs"))
