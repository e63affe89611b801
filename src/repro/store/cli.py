"""``repro-trace``: inspect and manipulate stored traces.

Subcommands::

    repro-trace info  FILE...            # header/index summary (-v: chunks)
    repro-trace cat   FILE [filters]     # records as CSV on stdout
    repro-trace convert SRC DST          # between .rpt / .npy / .csv
    repro-trace merge OUT SRC...         # time-ordered k-way merge
    repro-trace ls    DIR                # list a run catalog
    repro-trace analyze DIR [RUN...]     # streaming characterization
    repro-trace obs   RUN [RUN]          # dump/compare runtime metrics

``cat``/``convert``/``merge`` stream chunk by chunk — a multi-gigabyte
trace never has to fit in memory.  Filters (``--t0/--t1/--node/--reads/
--writes``) push down to the chunk index, so a narrow time window only
decompresses the chunks it touches.
"""

from __future__ import annotations

import argparse
import csv
import sys
from pathlib import Path
from typing import List, Optional

import numpy as np

from repro.driver import TRACE_DTYPE
from repro.store.catalog import MANIFEST_NAME, RunCatalog
from repro.store.format import StoreFormatError
from repro.store.reader import TraceReader
from repro.store.writer import TraceWriter


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-trace",
        description="Inspect, convert, and merge repro trace store files "
                    "(.rpt) and run catalogs.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_info = sub.add_parser("info", help="summarise trace store files")
    p_info.add_argument("files", nargs="+", type=Path)
    p_info.add_argument("-v", "--verbose", action="store_true",
                        help="also print the per-chunk index")

    p_cat = sub.add_parser("cat", help="print records as CSV")
    p_cat.add_argument("file", type=Path)
    _add_filters(p_cat)
    p_cat.add_argument("--limit", type=int, default=None,
                       help="stop after N records")
    p_cat.add_argument("--no-header", action="store_true",
                       help="omit the CSV header row")

    p_conv = sub.add_parser("convert",
                            help="convert between .rpt/.npy/.csv by suffix")
    p_conv.add_argument("src", type=Path)
    p_conv.add_argument("dst", type=Path)
    _add_filters(p_conv)

    p_merge = sub.add_parser("merge",
                             help="merge traces into one time-ordered file")
    p_merge.add_argument("out", type=Path)
    p_merge.add_argument("sources", nargs="+", type=Path)

    p_ls = sub.add_parser("ls", help="list the runs of a catalog directory")
    p_ls.add_argument("root", type=Path, nargs="?", default=Path("runs"))

    p_an = sub.add_parser(
        "analyze",
        help="run streaming characterization pipelines over stored runs")
    p_an.add_argument("root", type=Path,
                      help="run catalog directory (see `repro-trace ls`)")
    p_an.add_argument("runs", nargs="*",
                      help="run ids to analyze (default: every run)")
    p_an.add_argument("--pipelines", default=None, metavar="NAMES",
                      help="comma-separated pipeline names "
                           "(default: metrics,sizes,spatial,arrival)")
    p_an.add_argument("--workers", type=int, default=1,
                      help="process count for per-node fan-out")
    p_an.add_argument("--refresh", action="store_true",
                      help="recompute even when a cached summary is valid")
    p_an.add_argument("--no-cache", action="store_true",
                      help="neither read nor write analysis.json caches")
    p_an.add_argument("--json", action="store_true",
                      help="emit results as one JSON object")
    p_an.add_argument("--stats", action="store_true",
                      help="print engine counters (chunks scanned/skipped, "
                           "cache hits) to stderr")
    _add_filters(p_an)

    p_obs = sub.add_parser(
        "obs", help="dump or compare run observability snapshots")
    p_obs.add_argument("paths", nargs="+", type=Path,
                       help="run directories (manifest.json), experiment "
                            "directories (experiment.json), or raw "
                            "snapshot .json files; two paths print a "
                            "delta column")
    p_obs.add_argument("--json", action="store_true",
                       help="emit the snapshots as one JSON object "
                            "instead of a table")
    p_obs.add_argument("--only", metavar="PREFIX", default=None,
                       help="restrict to metrics whose name starts with "
                            "PREFIX (e.g. disk. or sim.)")
    return parser


def _add_filters(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--t0", type=float, default=None,
                        help="keep records with time >= T0")
    parser.add_argument("--t1", type=float, default=None,
                        help="keep records with time < T1")
    parser.add_argument("--node", type=int, default=None,
                        help="keep one node's records")
    group = parser.add_mutually_exclusive_group()
    group.add_argument("--reads", action="store_true",
                       help="keep only reads")
    group.add_argument("--writes", action="store_true",
                       help="keep only writes")


def _write_filter(args) -> Optional[bool]:
    if getattr(args, "reads", False):
        return False
    if getattr(args, "writes", False):
        return True
    return None


def _iter_source(path: Path, t0=None, t1=None, node=None, write=None):
    """Yield record arrays from any supported trace file, filtered."""
    if path.suffix == ".rpt":
        with TraceReader(path) as reader:
            yield from reader.iter_arrays(t0=t0, t1=t1, node=node,
                                          write=write)
        return
    from repro.core.trace import TraceDataset
    dataset = TraceDataset.load(path)
    if t0 is not None or t1 is not None:
        dataset = dataset.between(t0 if t0 is not None else 0.0,
                                  t1 if t1 is not None else np.inf)
    if node is not None:
        dataset = dataset.node(node)
    if write is True:
        dataset = dataset.writes()
    elif write is False:
        dataset = dataset.reads()
    if len(dataset):
        yield dataset.records


# -- subcommands ---------------------------------------------------------------
def cmd_info(args) -> int:
    status = 0
    for path in args.files:
        try:
            with TraceReader(path) as reader:
                _print_info(path, reader, args.verbose)
        except (OSError, StoreFormatError) as exc:
            print(f"{path}: {exc}", file=sys.stderr)
            status = 1
    return status


def _print_info(path: Path, reader: TraceReader, verbose: bool) -> None:
    size = path.stat().st_size
    t_lo, t_hi = reader.time_span
    raw = sum(c.raw for c in reader.chunks)
    comp = sum(c.comp for c in reader.chunks)
    writes = sum(c.writes for c in reader.chunks)
    reads = len(reader) - writes
    ratio = raw / comp if comp else 0.0
    state = ""
    if reader.recovered:
        state = " (recovered: no footer"
        if reader.tail_bytes:
            state += f"; dropped {reader.tail_bytes:,} B torn tail"
        state += ")"
    print(f"{path}: trace store v{1}{state}")
    print(f"  records   {len(reader):>12,}  "
          f"({reads:,} reads / {writes:,} writes)")
    print(f"  chunks    {reader.chunk_count:>12,}  "
          f"(<= {reader.header['chunk_records']:,} records each)")
    print(f"  time      {t_lo:>12.3f} .. {t_hi:.3f} s")
    print(f"  nodes     {', '.join(str(n) for n in reader.nodes()) or '-'}")
    print(f"  size      {size:>12,} B on disk; payload {comp:,} B "
          f"from {raw:,} B raw ({ratio:.1f}x)")
    if verbose:
        print(f"  {'chunk':>5} {'offset':>10} {'count':>8} "
              f"{'t0':>10} {'t1':>10} {'sectors':>23} {'nodes':>8}")
        for i, c in enumerate(reader.chunks):
            print(f"  {i:>5} {c.offset:>10} {c.count:>8} "
                  f"{c.t0:>10.3f} {c.t1:>10.3f} "
                  f"{c.s0:>11}-{c.s1:<11} "
                  f"{','.join(str(n) for n in c.nodes):>8}")


def cmd_cat(args) -> int:
    writer = csv.writer(sys.stdout)
    if not args.no_header:
        writer.writerow(TRACE_DTYPE.names)
    remaining = args.limit
    for batch in _iter_source(args.file, t0=args.t0, t1=args.t1,
                              node=args.node, write=_write_filter(args)):
        if remaining is not None:
            batch = batch[:remaining]
        for row in batch:
            writer.writerow([row[name] for name in TRACE_DTYPE.names])
        if remaining is not None:
            remaining -= len(batch)
            if remaining <= 0:
                break
    return 0


def cmd_convert(args) -> int:
    batches = _iter_source(args.src, t0=args.t0, t1=args.t1,
                           node=args.node, write=_write_filter(args))
    suffix = args.dst.suffix
    if suffix == ".rpt":
        with TraceWriter(args.dst) as writer:
            for batch in batches:
                writer.append_array(batch)
        total = writer.records_written
    elif suffix == ".csv":
        with args.dst.open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(TRACE_DTYPE.names)
            total = 0
            for batch in batches:
                for row in batch:
                    writer.writerow([row[name]
                                     for name in TRACE_DTYPE.names])
                total += len(batch)
    else:
        from repro.core.trace import TraceDataset
        parts = list(batches)
        arr = np.concatenate(parts) if parts \
            else np.zeros(0, dtype=TRACE_DTYPE)
        TraceDataset(arr).save(args.dst)
        total = len(arr)
    print(f"{args.src} -> {args.dst}: {total:,} records", file=sys.stderr)
    return 0


def _next_batch(source) -> Optional[np.ndarray]:
    """The source's next non-empty record batch, None once exhausted."""
    return next((batch for batch in source if len(batch)), None)


def cmd_merge(args) -> int:
    # A k-way merge in rounds of whole record runs.  The stream whose
    # loaded batch ends first (ties: the earlier source) bounds what is
    # safe to write: each stream's prefix up to that end time, equal
    # times included only from sources up to it.  Concatenated in source
    # order and stably sorted by time, the prefixes come out in
    # per-record (time, source) order.
    sources = [_iter_source(path) for path in args.sources]
    pending = [_next_batch(source) for source in sources]
    with TraceWriter(args.out) as writer:
        while True:
            live = [i for i, batch in enumerate(pending)
                    if batch is not None]
            if not live:
                break
            end, first = min((float(pending[i]["time"][-1]), i)
                             for i in live)
            parts = []
            for i in live:
                batch = pending[i]
                cut = int(np.searchsorted(
                    batch["time"], end,
                    side="right" if i <= first else "left"))
                parts.append(batch[:cut])
                pending[i] = batch[cut:] if cut < len(batch) \
                    else _next_batch(sources[i])
            merged = np.concatenate(parts)
            writer.append_array(
                merged[np.argsort(merged["time"], kind="stable")])
    total = writer.records_written
    print(f"merged {len(args.sources)} files -> {args.out}: "
          f"{total:,} records", file=sys.stderr)
    return 0


def cmd_ls(args) -> int:
    catalog = RunCatalog(args.root)
    runs = catalog.runs()
    if not runs:
        print(f"no runs under {args.root}", file=sys.stderr)
        return 1
    print(f"{'run':<16} {'nodes':>5} {'seed':>6} {'records':>10} "
          f"{'duration':>10} {'req/s/node':>11}")
    for run_id in runs:
        m = catalog.manifest(run_id)
        metrics = m.get("metrics", {})
        duration = m.get("duration")
        rps = metrics.get("requests_per_second")
        print(f"{run_id:<16} {m.get('nnodes', '-'):>5} "
              f"{str(m.get('seed', '-')):>6} {m.get('records', 0):>10,} "
              f"{f'{duration:.0f} s' if duration is not None else '-':>10} "
              f"{f'{rps:.2f}' if rps is not None else '-':>11}")
    return 0


def cmd_analyze(args) -> int:
    import json

    from repro.analysis import AnalysisEngine, make_pipelines
    from repro.obs import MetricsRegistry

    catalog = RunCatalog(args.root)
    run_ids = list(args.runs) or catalog.runs()
    if not run_ids:
        print(f"no runs under {args.root}", file=sys.stderr)
        return 1
    names = [n.strip() for n in args.pipelines.split(",")] \
        if args.pipelines else None
    try:
        pipes = {p.name: p for p in make_pipelines(names)}
    except ValueError as exc:
        print(f"repro-trace: error: {exc}", file=sys.stderr)
        return 2
    registry = MetricsRegistry()
    engine = AnalysisEngine(catalog, workers=args.workers,
                            cache=not args.no_cache, obs=registry)
    predicates = dict(t0=args.t0, t1=args.t1, node=args.node,
                      write=_write_filter(args))
    filtered = any(v is not None for v in predicates.values())

    results = {}
    status = 0
    for run_id in run_ids:
        try:
            results[run_id] = engine.analyze(
                run_id, list(pipes.values()), refresh=args.refresh,
                **predicates)
        except FileNotFoundError:
            print(f"{args.root}: no run {run_id!r}", file=sys.stderr)
            status = 1
    if args.json:
        payload = {run_id: {name: None if result is None
                            else pipes[name].to_json(result)
                            for name, result in out.items()}
                   for run_id, out in results.items()}
        json.dump(payload, sys.stdout, indent=2)
        print()
    else:
        for run_id, out in results.items():
            _print_analysis(run_id, out, filtered)
    if args.stats:
        def count(name: str) -> float:
            return registry.counter(f"analysis.{name}").value
        print(f"engine: {count('chunks_scanned'):,.0f} chunks scanned, "
              f"{count('chunks_skipped'):,.0f} skipped, "
              f"{count('cache_hits'):,.0f} cache hits, "
              f"{count('cache_misses'):,.0f} misses", file=sys.stderr)
    return status


def _print_analysis(run_id: str, out: dict, filtered: bool) -> None:
    note = " (filtered)" if filtered else ""
    print(f"{run_id}{note}")
    metrics = out.get("metrics")
    if metrics is not None:
        print(f"  requests  {metrics.total_requests:>10,}  "
              f"({metrics.read_pct}% read / {metrics.write_pct}% write), "
              f"{metrics.requests_per_second:.2f} req/s/node")
        print(f"  moved     {metrics.kb_moved:>10,.0f} KB over "
              f"{metrics.duration:.0f} s on {metrics.nnodes} node(s), "
              f"mean {metrics.mean_size_kb:.2f} KB")
    sizes = out.get("sizes")
    if sizes is not None and sizes.histogram:
        top = sorted(sizes.histogram.items(),
                     key=lambda kv: (-kv[1], kv[0]))[:4]
        split = ", ".join(f"{size:g} KB x {count:,}" for size, count in top)
        print(f"  sizes     {split}")
    spatial = out.get("spatial")
    if spatial is not None:
        print(f"  spatial   top-20% bands carry "
              f"{spatial.top_20pct_share:.0%} of requests "
              f"(gini {spatial.gini:.2f})")
    arrival = out.get("arrival")
    if arrival is not None:
        burst = "bursty" if arrival.is_bursty else "smooth"
        print(f"  arrival   mean gap {arrival.mean_gap * 1e3:.1f} ms, "
              f"cv {arrival.cv_gap:.2f}, idc {arrival.idc:.2f} ({burst})")
    hotspots = out.get("hotspots")
    if hotspots is not None and hotspots.spots:
        sector, count, _ = hotspots.spots[0]
        print(f"  hottest   sector {sector:,} ({count:,} accesses)")


def _load_snapshot(path: Path) -> dict:
    """An obs snapshot from a run dir, experiment dir, or JSON file."""
    import json
    if path.is_dir():
        for meta_name, kind in ((MANIFEST_NAME, "run"),
                                ("experiment.json", "experiment")):
            meta_path = path / meta_name
            if meta_path.is_file():
                obs = json.loads(meta_path.read_text()).get("obs")
                if not obs:
                    raise ValueError(
                        f"{kind} was recorded without --obs")
                return obs
        raise FileNotFoundError(str(path / MANIFEST_NAME))
    data = json.loads(path.read_text())
    if isinstance(data.get("obs"), dict):
        return data["obs"]
    return data


def cmd_obs(args) -> int:
    from repro.obs import render_snapshot_table
    snapshots = {}
    status = 0
    for path in args.paths:
        label = path.name or str(path)
        if label in snapshots:
            label = str(path)
        try:
            snapshots[label] = _load_snapshot(path)
        except (OSError, ValueError, KeyError) as exc:
            print(f"{path}: {exc}", file=sys.stderr)
            status = 1
    if not snapshots:
        return status or 1
    if args.json:
        import json
        json.dump(snapshots, sys.stdout, indent=2)
        print()
    else:
        only = [args.only] if args.only else None
        print(render_snapshot_table(snapshots, only=only))
    return status


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    handler = {"info": cmd_info, "cat": cmd_cat, "convert": cmd_convert,
               "merge": cmd_merge, "ls": cmd_ls, "obs": cmd_obs,
               "analyze": cmd_analyze}[args.command]
    try:
        return handler(args)
    except BrokenPipeError:  # e.g. `repro-trace cat ... | head`
        return 0
    except FileNotFoundError as exc:
        print(f"repro-trace: error: {exc.filename}: no such file",
              file=sys.stderr)
        return 1
    except StoreFormatError as exc:
        print(f"repro-trace: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
