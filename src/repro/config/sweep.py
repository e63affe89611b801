"""Grid sweeps over scenarios: expand axes, fan out runs, compare.

A sweep takes a base :class:`~repro.config.Scenario` plus axis specs
like ``scheduler=clook,fifo`` and ``drive_cache_segments=0,4,8``,
expands their cross product into labeled scenarios, runs the chosen
experiment once per point (in parallel across processes by default),
and renders a side-by-side comparison table of the workload metrics.

Axis names may be full dotted scenario paths
(``node.disk.scheduler.kind``) or one of the short aliases in
:data:`GRID_ALIASES` covering the knobs the paper's ablations turn.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from typing import (Any, Callable, Dict, List, Mapping, Optional,
                    Sequence, Tuple)

from repro.config.scenario import ConfigError, Scenario

#: short axis names accepted in grid specs, mapped to scenario paths
#: (the disk aliases use ``disks[*]`` so they cover every member of a
#: multi-disk node)
GRID_ALIASES: Dict[str, str] = {
    "scheduler": "node.disks[*].scheduler.kind",
    "drive_cache": "node.disks[*].cache.kind",
    "drive_cache_segments": "node.disks[*].cache.nsegments",
    "lookahead_sectors": "node.disks[*].cache.lookahead_sectors",
    "nnodes": "cluster.nnodes",
    "seed": "seed",
    "readahead_kb": "node.max_readahead_kb",
    "buffer_cache_kb": "node.buffer_cache_kb",
    "bdflush_interval": "node.bdflush_interval",
    "ram_mb": "node.vm.ram_mb",
    "cpu_speed": "node.cpu_speed",
    "drain_interval": "node.driver.drain_interval",
    "volume_policy": "node.volume.policy",
    "volume_stripe_kb": "node.volume.stripe_kb",
    "network_channels": "network.channels",
    "network_bandwidth_bps": "network.bandwidth_bps",
    "pious_stripe_kb": "pious.stripe_kb",
    "pious_nservers": "pious.nservers",
}


@dataclass(frozen=True)
class SweepAxis:
    """One grid dimension: display name, scenario path, and values."""

    name: str           # what the user typed (and what labels show)
    path: str           # resolved dotted scenario path
    values: Tuple[str, ...]


@dataclass(frozen=True)
class SweepPoint:
    """One cell of the grid: a labeled, fully-overridden scenario."""

    label: str
    overrides: Tuple[Tuple[str, str], ...]   # (axis display name, value)
    scenario: Scenario


def parse_axis_spec(spec: str) -> SweepAxis:
    """Parse ``name=v1,v2,...`` into a :class:`SweepAxis`."""
    name, sep, rest = spec.partition("=")
    name = name.strip()
    if not sep or not name:
        raise ConfigError("sweep.grid",
                          f"bad axis spec {spec!r}; expected name=v1,v2")
    values = tuple(v.strip() for v in rest.split(",") if v.strip())
    if not values:
        raise ConfigError(f"sweep.grid.{name}",
                          f"axis {name!r} lists no values")
    return SweepAxis(name=name, path=GRID_ALIASES.get(name, name),
                     values=values)


def expand_grid(base: Scenario,
                axes: Sequence[SweepAxis],
                node_overrides: Optional[
                    Mapping[Any, Mapping[str, Any]]] = None
                ) -> List[SweepPoint]:
    """The cross product of all axes, applied over ``base``.

    Every point's scenario is validated eagerly, so a bad registry name
    or out-of-range value fails before any simulation starts.

    ``node_overrides`` makes the grid heterogeneous: a mapping of node
    id to per-node override paths (rooted under ``node``), applied to
    ``base`` before the axes expand — e.g. ``{3: {"disks[0].cache.nsegments":
    0}}`` models one degraded disk among sixteen at every grid point.
    Axis paths may themselves be ``node[N].``-prefixed.
    """
    if node_overrides:
        for node_id, per_node in sorted(
                node_overrides.items(), key=lambda kv: str(kv[0])):
            for sub_path, value in per_node.items():
                base = base.with_override(f"node[{node_id}].{sub_path}",
                                          value)
    points: List[SweepPoint] = [SweepPoint("", (), base)]
    for axis in axes:
        expanded: List[SweepPoint] = []
        for point in points:
            for value in axis.values:
                label = (f"{point.label},{axis.name}={value}"
                         if point.label else f"{axis.name}={value}")
                scenario = point.scenario.with_override(axis.path, value)
                expanded.append(SweepPoint(
                    label=label,
                    overrides=point.overrides + ((axis.name, value),),
                    scenario=scenario))
        points = expanded
    out = []
    for point in points:
        scenario = replace(point.scenario,
                           name=point.label or point.scenario.name)
        scenario.validate()
        out.append(replace(point, scenario=scenario))
    return out


@dataclass(frozen=True)
class SweepResult:
    """One completed grid point: its label, overrides, and metrics.

    ``run_id`` is the catalog run id the point landed in when the sweep
    ran with a ``sink`` (``None`` otherwise), so grid points map back to
    stored runs without re-deriving names.
    """

    label: str
    overrides: Tuple[Tuple[str, str], ...]
    fingerprint: str
    metrics: Dict[str, Any]
    run_id: Optional[str] = None

    def to_dict(self) -> dict:
        return {"label": self.label,
                "overrides": dict(self.overrides),
                "fingerprint": self.fingerprint,
                "run_id": self.run_id,
                "metrics": self.metrics}


def _sweep_worker(args: tuple
                  ) -> Tuple[dict, Optional[str], Optional[float]]:
    """Run one grid point (top-level so it pickles across processes).

    Returns the point's summary metrics, the catalog run id it was
    captured under (``None`` when no sink is set), and the simulator's
    achieved events/sec for the point (``None`` without ``obs``).

    With checkpointing on, each point owns two files under the
    checkpoint directory, keyed by its scenario fingerprint:
    ``<fp>.ckpt`` (the live checkpoint, overwritten per epoch) and
    ``<fp>.done.json`` (written on completion).  A restarted sweep skips
    finished points via the done marker and resumes half-run ones from
    their checkpoint — preempt/restart costs only the unfinished tails.
    """
    from time import perf_counter

    scenario_dict, name, duration, sink, obs, every, ckdir = args
    from repro.core.experiments import ExperimentRunner
    scenario = Scenario.from_dict(scenario_dict)

    ckpt = done = None
    if ckdir is not None:
        from pathlib import Path
        fp = scenario.fingerprint()
        Path(ckdir).mkdir(parents=True, exist_ok=True)
        ckpt = Path(ckdir) / f"{fp}.ckpt"
        done = Path(ckdir) / f"{fp}.done.json"
        if done.exists():
            data = json.loads(done.read_text())
            return data["metrics"], data.get("run_id"), None

    runner = ExperimentRunner(scenario=scenario, sink=sink, obs=obs)
    wall = perf_counter()
    if ckpt is not None and ckpt.exists():
        result = runner.run(name, resume_from=ckpt)
    else:
        result = runner.run(name, duration=duration,
                            checkpoint_every=every,
                            checkpoint_dir=ckpt)
    wall = perf_counter() - wall
    run_dir = getattr(runner, "last_run_dir", None)
    run_id = run_dir.name if run_dir else None
    eps = None
    if obs:
        from repro.obs.recorder import events_per_second
        eps = events_per_second(result.obs, wall)
    if done is not None:
        tmp = done.with_suffix(".tmp")
        tmp.write_text(json.dumps({"metrics": result.metrics.to_dict(),
                                   "run_id": run_id}))
        import os
        os.replace(tmp, done)
        if ckpt.exists():
            ckpt.unlink()
    return result.metrics.to_dict(), run_id, eps


def run_sweep(base: Scenario, axes: Sequence[SweepAxis],
              experiment: str = "baseline", *,
              duration: Optional[float] = None,
              workers: Optional[int] = None,
              parallel: bool = True,
              sink: Optional[str] = None,
              node_overrides: Optional[
                  Mapping[Any, Mapping[str, Any]]] = None,
              obs: bool = False,
              on_point: Optional[Callable[..., Any]] = None,
              checkpoint_every: Optional[float] = None,
              checkpoint_dir: Optional[str] = None
              ) -> List[SweepResult]:
    """Run ``experiment`` at every grid point; returns one result each.

    Points fan out across a process pool (``workers`` defaults to the
    pool's own sizing) unless ``parallel=False``, which runs them
    sequentially in-process — handy under profilers and in tests.
    ``node_overrides`` passes through to :func:`expand_grid` for
    heterogeneous (per-node) grids.

    ``on_point(done, total, result, events_per_sec)`` fires in the
    calling process as each grid point completes (in grid order), with
    ``done`` counting completed points — this is what streams live
    sweep progress out of ``repro.serve`` workers.  ``obs=True`` runs
    every point with an :class:`~repro.obs.ObsRecorder` so the
    callback's ``events_per_sec`` is real (results stay bit-identical;
    the snapshot additionally lands in each point's run manifest).

    ``checkpoint_every`` makes every point capture a resumable
    checkpoint at that simulated-seconds cadence under
    ``checkpoint_dir`` (default ``checkpoints/``), keyed by the point's
    scenario fingerprint.  Re-running the same sweep over the same
    directory skips finished points (their done markers hold the stored
    metrics) and resumes interrupted ones bit-identically — so a
    preempted sweep restarts where it stopped instead of from scratch.
    """
    points = expand_grid(base, axes, node_overrides=node_overrides)
    ckdir = None
    if checkpoint_every is not None:
        ckdir = str(checkpoint_dir) if checkpoint_dir is not None \
            else "checkpoints"
    jobs = [(p.scenario.to_dict(), experiment, duration, sink, obs,
             checkpoint_every, ckdir)
            for p in points]

    results: List[SweepResult] = []

    def collect(point: SweepPoint, raw: tuple) -> None:
        metrics, run_id, eps = raw
        result = SweepResult(label=point.label, overrides=point.overrides,
                             fingerprint=point.scenario.fingerprint(),
                             metrics=metrics, run_id=run_id)
        results.append(result)
        if on_point is not None:
            on_point(len(results), len(points), result, eps)

    if parallel and len(points) > 1:
        import multiprocessing as mp
        ctx = mp.get_context("spawn")
        nworkers = min(workers or ctx.cpu_count(), len(jobs))
        with ctx.Pool(processes=nworkers) as pool:
            for point, raw in zip(points,
                                  pool.imap(_sweep_worker, jobs)):
                collect(point, raw)
    else:
        for point, job in zip(points, jobs):
            collect(point, _sweep_worker(job))
    return results


# -- presentation -------------------------------------------------------------
_COLUMNS = (
    ("requests", "total_requests", "{:d}"),
    ("read%", "read_pct", "{:.1f}"),
    ("write%", "write_pct", "{:.1f}"),
    ("req/s", "requests_per_second", "{:.2f}"),
    ("KB/s", "throughput_kb_per_s", "{:.1f}"),
    ("mean KB", "mean_size_kb", "{:.2f}"),
    ("pending", "mean_pending", "{:.2f}"),
    ("duration", "duration", "{:.1f}"),
)


def render_sweep_table(results: Sequence[SweepResult],
                       title: str = "scenario sweep") -> str:
    """Fixed-width comparison table, one row per grid point."""
    if not results:
        return f"{title}: no grid points"
    axis_names = [name for name, _ in results[0].overrides]
    rows = []
    for result in results:
        metrics = dict(result.metrics)
        if "throughput_kb_per_s" not in metrics:
            dur = metrics.get("duration") or 0.0
            metrics["throughput_kb_per_s"] = (
                metrics.get("kb_moved", 0.0) / dur if dur else 0.0)
        row = [dict(result.overrides).get(name, "") for name in axis_names]
        for _, key, fmt in _COLUMNS:
            value = metrics.get(key)
            row.append("-" if value is None else fmt.format(value))
        rows.append(row)
    headers = axis_names + [h for h, _, _ in _COLUMNS]
    widths = [max(len(h), *(len(r[i]) for r in rows))
              for i, h in enumerate(headers)]
    def line(cells: Sequence[str]) -> str:
        return "  ".join(c.rjust(w) for c, w in zip(cells, widths))
    bar = "-" * len(line(headers))
    out = [title, bar, line(headers), bar]
    out.extend(line(r) for r in rows)
    out.append(bar)
    return "\n".join(out)


def sweep_to_json(results: Sequence[SweepResult],
                  indent: int = 2) -> str:
    return json.dumps([r.to_dict() for r in results], indent=indent)
