"""Command-line driver: run experiments, print figures and Table 1.

Examples::

    repro-experiment baseline --nodes 4 --duration 500
    repro-experiment combined --figures 5 6 7 8 --csv-dir out/
    repro-experiment all --table
    repro-experiment wavelet --scenario myscenario.toml
    repro-experiment sweep --on baseline --duration 120 \
        --grid scheduler=clook,fifo --grid drive_cache_segments=0,4
    repro-experiment baseline --duration 200 --profile \
        --profile-out baseline.pstats
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional

from repro.config.sweep import checkpoint_path
from repro.core import ExperimentRunner, EXPERIMENTS, make_figure, render_table1
from repro.core.experiments import check_duration
from repro.core.figures import FIGURE_EXPERIMENT

#: cluster size of a command given neither ``--nodes`` nor a scenario
#: file (the paper's cluster had 16)
DEFAULT_NODES = 4


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-experiment",
        description="Reproduce the I/O characterization experiments of "
                    "Berry & El-Ghazawi (IPPS 1996) on a simulated "
                    "Beowulf cluster.")
    parser.add_argument("experiment",
                        choices=list(EXPERIMENTS) + ["all", "sweep"],
                        help="which experiment to run ('sweep' expands "
                             "--grid axes over the base scenario)")
    parser.add_argument("--nodes", type=int, default=None,
                        help="cluster size (paper: 16; default "
                             f"{DEFAULT_NODES}, or the scenario file's "
                             "value)")
    parser.add_argument("--seed", type=int, default=None,
                        help="root random seed (default 0)")
    parser.add_argument("--duration", type=float, default=None,
                        help="baseline duration in seconds (default 2000)")
    parser.add_argument("--scenario", type=Path, default=None,
                        metavar="FILE",
                        help="base scenario as TOML or JSON (see "
                             "repro.config.Scenario); flags like --nodes "
                             "override its fields")
    parser.add_argument("--grid", action="append", default=[],
                        metavar="AXIS=V1,V2",
                        help="sweep axis (repeatable): a repro.config "
                             "alias like scheduler=clook,fifo or a dotted "
                             "scenario path")
    parser.add_argument("--on", default="baseline", metavar="NAME",
                        help="which experiment the sweep runs at every "
                             "grid point (default baseline)")
    parser.add_argument("--json", type=Path, default=None, metavar="FILE",
                        help="with 'sweep': also write the comparison "
                             "results as JSON")
    parser.add_argument("--figures", type=int, nargs="*", default=None,
                        metavar="N",
                        help="figure numbers to render (default: all that "
                             "this experiment supports)")
    parser.add_argument("--table", action="store_true",
                        help="print Table 1 for the experiments run")
    parser.add_argument("--report", action="store_true",
                        help="print the full characterization report "
                             "(metrics, classes, locality, patterns)")
    parser.add_argument("--claims", action="store_true",
                        help="evaluate the paper-claim scorecard against "
                             "the experiments run")
    parser.add_argument("--html", type=Path, metavar="FILE",
                        help="write a single-file HTML report (Table 1, "
                             "scorecard, inline SVG figures)")
    parser.add_argument("--fit-model", type=Path, metavar="FILE",
                        help="fit the workload parameter set on the (last) "
                             "experiment's trace and write it as JSON")
    parser.add_argument("--csv-dir", type=Path, default=None,
                        help="export figure data and traces as CSV here")
    parser.add_argument("--sink", type=Path, default=None, metavar="DIR",
                        help="store per-node traces in a run catalog "
                             "at DIR (chunked .rpt files + manifest; "
                             "inspect with repro-trace)")
    parser.add_argument("--checkpoint-every", type=float, default=None,
                        metavar="SECONDS",
                        help="capture a resumable whole-stack checkpoint "
                             "every SECONDS of simulated time, one .ckpt "
                             "file per run under --checkpoint-dir; "
                             "running the same command again resumes "
                             "from it bit-identically (a re-run sweep "
                             "also skips finished points)")
    parser.add_argument("--checkpoint-dir", type=Path,
                        default=Path("checkpoints"), metavar="DIR",
                        help="where checkpoints land (default "
                             "checkpoints/)")
    parser.add_argument("--obs", action="store_true",
                        help="record runtime observability metrics "
                             "(simulator, disks, caches, trace path) and "
                             "print the snapshot per experiment (not "
                             "with 'sweep')")
    parser.add_argument("--profile", action="store_true",
                        help="run the experiments under cProfile and "
                             "print the top functions by cumulative "
                             "time to stderr afterwards")
    parser.add_argument("--profile-out", type=Path, default=None,
                        metavar="FILE.pstats",
                        help="dump the raw profile to FILE.pstats as "
                             "well (implies --profile; inspect with "
                             "python -m pstats FILE.pstats)")
    parser.add_argument("--width", type=int, default=72,
                        help="plot width in characters")
    parser.add_argument("--parallel", action="store_true",
                        help="with 'all': run the five experiments in "
                             "separate processes")
    return parser


def _profiled(call, out: Optional[Path], limit: int = 25):
    """Run ``call()`` under cProfile; table to stderr, pstats to ``out``.

    The profile covers only the simulation runs, not figure rendering
    or analysis, so the table shows the engine hot path.
    """
    import cProfile
    import pstats

    profiler = cProfile.Profile()
    try:
        return profiler.runcall(call)
    finally:
        stats = pstats.Stats(profiler, stream=sys.stderr)
        stats.sort_stats("cumulative")
        print(f"profile: top {limit} functions by cumulative time",
              file=sys.stderr)
        stats.print_stats(limit)
        if out is not None:
            stats.dump_stats(out)
            print(f"profile data -> {out} "
                  f"(inspect with: python -m pstats {out})",
                  file=sys.stderr)


def _scenario(args):
    """The scenario a command runs: the ``--scenario`` file, else the
    default one on :data:`DEFAULT_NODES` nodes, with ``--nodes`` and
    ``--seed`` set on top."""
    from repro.config import Scenario
    scenario = Scenario.load(args.scenario) if args.scenario \
        else Scenario().with_override("cluster.nnodes", DEFAULT_NODES)
    overrides = {}
    if args.nodes is not None:
        overrides["cluster.nnodes"] = args.nodes
    if args.seed is not None:
        overrides["seed"] = args.seed
    return scenario.with_overrides(overrides)


def _run_sweep(args) -> int:
    from repro.config import (ConfigError, parse_axis_spec, run_sweep,
                              render_sweep_table, sweep_to_json)
    base = _scenario(args)
    try:
        axes = [parse_axis_spec(spec) for spec in args.grid]
    except ConfigError as exc:
        print(f"sweep failed: {exc}", file=sys.stderr)
        return 2
    if not axes:
        print("sweep needs at least one --grid AXIS=V1,V2",
              file=sys.stderr)
        return 2
    if args.on not in EXPERIMENTS + ("serial",):
        print(f"unknown experiment {args.on!r} for --on; choose from "
              f"{', '.join(EXPERIMENTS + ('serial',))}", file=sys.stderr)
        return 2
    try:
        check_duration(args.on, args.duration)
    except ValueError as exc:
        print(f"sweep failed: --duration: {exc}", file=sys.stderr)
        return 2
    npoints = 1
    for axis in axes:
        npoints *= len(axis.values)
    print(f"sweeping {args.on} over {npoints} scenarios "
          f"({' x '.join(a.name for a in axes)}) ...", file=sys.stderr)
    sink = str(args.sink) if args.sink else None

    def execute():
        return run_sweep(base, axes, experiment=args.on,
                         duration=args.duration, sink=sink,
                         checkpoint_every=args.checkpoint_every,
                         checkpoint_dir=str(args.checkpoint_dir))

    try:
        results = _profiled(execute, args.profile_out) \
            if args.profile else execute()
    except ConfigError as exc:
        print(f"sweep failed: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        # a worker process died or raised: surface one line, not a
        # traceback, and exit non-zero so scripts notice
        print(f"sweep failed: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return 1
    print(render_sweep_table(
        results, title=f"scenario sweep: {args.on}"))
    if args.json:
        args.json.write_text(sweep_to_json(results))
        print(f"sweep results -> {args.json}", file=sys.stderr)
    if args.sink:
        print(f"run catalog -> {args.sink} "
              f"(browse with: repro-trace ls {args.sink})", file=sys.stderr)
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.profile_out:
        args.profile = True
    if args.experiment == "sweep":
        if args.obs:
            print("--obs does not apply to the 'sweep' experiment",
                  file=sys.stderr)
            raise SystemExit(2)
        return _run_sweep(args)
    if args.grid:
        print("--grid only applies to the 'sweep' experiment",
              file=sys.stderr)
        raise SystemExit(2)
    scenario = _scenario(args)
    if args.duration is not None:
        scenario = scenario.with_override("experiment.baseline_duration",
                                          args.duration)
    runner = ExperimentRunner(scenario=scenario, sink=args.sink,
                              obs=args.obs)
    names = list(EXPERIMENTS) if args.experiment == "all" \
        else [args.experiment]

    nnodes = runner.scenario.cluster.nnodes
    every, ckdir = args.checkpoint_every, args.checkpoint_dir

    def announce(name: str) -> None:
        resumes = every is not None and checkpoint_path(
            ckdir, runner.scenario, name, None).exists()
        print(f"{'resuming' if resumes else 'running'} {name} on "
              f"{nnodes} nodes ...", file=sys.stderr)

    def execute():
        if args.experiment == "all" and args.parallel:
            for name in names:
                announce(name)
            return runner.run_all(parallel=True, checkpoint_every=every,
                                  checkpoint_dir=ckdir)
        results = {}
        for name in names:
            announce(name)
            results.update(runner.run_all(names=[name],
                                          checkpoint_every=every,
                                          checkpoint_dir=ckdir))
        return results

    from repro.checkpoint import CheckpointError
    try:
        results = _profiled(execute, args.profile_out) \
            if args.profile else execute()
    except CheckpointError as exc:
        print(f"checkpoint error: {exc}", file=sys.stderr)
        return 1
    for name, result in results.items():
        m = result.metrics
        print(f"  {name}: {m.total_requests} requests, "
              f"{m.read_pct}% reads / {m.write_pct}% writes, "
              f"{m.requests_per_second:.2f} req/s/node over "
              f"{m.duration:.0f} s", file=sys.stderr)

    wanted = args.figures
    if wanted is None:
        wanted = [n for n, exp in sorted(FIGURE_EXPERIMENT.items())
                  if exp in results]
    for number in wanted:
        exp = FIGURE_EXPERIMENT.get(number)
        if exp is None:
            print(f"no Figure {number} in the paper", file=sys.stderr)
            return 2
        if exp not in results:
            print(f"Figure {number} needs the {exp!r} experiment "
                  f"(not run)", file=sys.stderr)
            return 2
        fig = make_figure(number, results[exp])
        print(fig.render(width=args.width))
        print()
        if args.csv_dir:
            args.csv_dir.mkdir(parents=True, exist_ok=True)
            fig.to_csv(args.csv_dir / f"figure{number}.csv")

    if args.obs:
        from repro.obs import render_snapshot_table
        for name, result in results.items():
            if result.obs:
                print(f"runtime metrics: {name}")
                print(render_snapshot_table({name: result.obs},
                                            indent="  "))
                print()
    if args.report:
        from repro.core import characterize
        for result in results.values():
            print(characterize(result))
            print()
    if args.html:
        from repro.core.html_report import build_html_report
        args.html.write_text(build_html_report(results))
        print(f"HTML report -> {args.html}", file=sys.stderr)
    if args.fit_model:
        from repro.synth import fit_workload_model
        last = results[names[-1]]
        model = fit_workload_model(last.trace)
        args.fit_model.write_text(model.to_json())
        print(f"parameter set fitted on {last.name!r} "
              f"({model.source_records} records) -> {args.fit_model}",
              file=sys.stderr)
    if args.claims:
        from repro.core.claims import evaluate_claims, render_scorecard
        print(render_scorecard(evaluate_claims(results)))
    if args.table or args.experiment == "all":
        print(render_table1(results))
    if args.csv_dir:
        args.csv_dir.mkdir(parents=True, exist_ok=True)
        for name, result in results.items():
            result.trace.save(args.csv_dir / f"trace_{name}.csv")
        print(f"CSV written to {args.csv_dir}", file=sys.stderr)
    if args.sink:
        print(f"run catalog -> {args.sink} "
              f"(browse with: repro-trace ls {args.sink})", file=sys.stderr)
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
