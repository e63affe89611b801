"""The five experiments of the study, as repeatable procedures.

Every experiment is one procedure: build a fresh simulated Beowulf
cluster, install the application binaries and input files (pre-trace,
like software installed long before the measurements), cold-start the
caches, switch the trace clock to zero, excite the system, and return
the gathered traces plus per-application statistics.  Experiments differ
only in their plan — which applications run, and whether each node runs
them side by side or back to back; the baseline is the plan with no
applications and a fixed observation window.  Resuming a checkpoint is
the same procedure with the stack built from the captured tree.

Experiment protocol (paper section 3.5):

1. ``baseline`` — no user applications, default 2000 s;
2-4. ``ppm`` / ``wavelet`` / ``nbody`` — one application at a time;
5. ``combined`` — all three simultaneously (the emulated production
   environment, ~700 s in the paper).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional, Sequence, Tuple

from repro.apps import WORKLOADS, AppStats, ESSApplication
from repro.checkpoint import (CheckpointCoordinator, CheckpointError,
                              arm_tick_preloads, capture_state,
                              load_checkpoint, restore_cluster_state,
                              save_checkpoint, verify_restored_queue)
from repro.cluster import BeowulfCluster
from repro.config import Scenario
from repro.config.sweep import checkpoint_path
from repro.core.metrics import WorkloadMetrics, compute_metrics
from repro.core.trace import TraceDataset
from repro.driver.trace import time_window
from repro.sim import Simulator

#: canonical experiment names, in the paper's order
EXPERIMENTS = ("baseline", "ppm", "wavelet", "nbody", "combined")


@dataclass
class ExperimentResult:
    """Everything one experiment produced."""

    name: str
    trace: TraceDataset
    duration: float
    nnodes: int
    app_stats: Dict[str, List[AppStats]] = field(default_factory=dict)
    #: runtime observability snapshot (None unless run with ``obs=True``)
    obs: Optional[dict] = None

    @property
    def metrics(self) -> WorkloadMetrics:
        """Table-1 metrics, via the streaming ``metrics`` pipeline.

        ``compute_metrics`` is an adapter over
        :class:`~repro.analysis.MetricsPipeline`, so this equals what
        :class:`~repro.analysis.AnalysisEngine` reports for the same
        run, bit for bit.
        """
        # nnodes is threaded through explicitly: a node that issued zero
        # requests still divides the per-disk averages (Table 1).
        return compute_metrics(self.trace, label=self.name,
                               duration=self.duration, nnodes=self.nnodes)


def check_duration(experiment: str, duration: Optional[float]) -> None:
    """The one rule for an explicit observation window (``None`` passes).

    A duration is given for the baseline only — application runs end
    when their applications do — and must be finite and above 0.
    Raises :class:`ValueError`.
    """
    if duration is None:
        return
    if experiment != "baseline":
        raise ValueError(
            "duration= only applies to the baseline experiment; "
            "application runs end when the applications do")
    if not (math.isfinite(duration) and duration > 0):
        raise ValueError(
            f"duration must be finite and positive, got {duration!r}")


@dataclass(frozen=True)
class _Plan:
    """One experiment as the runner executes it.

    ``apps`` run one process per (application, node), or with
    ``serial`` one chain per node running them back to back.  A plan
    with an observation ``window`` is the baseline: it runs no
    applications and ends at ``t0 + window``.
    """

    name: str
    apps: Tuple[str, ...] = ()
    serial: bool = False
    window: Optional[float] = None


def _run_one_experiment(args) -> "ExperimentResult":
    """Top-level worker for ProcessPoolExecutor (must be picklable)."""
    scenario_dict, name, sink, obs, every, directory = args
    runner = ExperimentRunner(scenario=Scenario.from_dict(scenario_dict),
                              sink=sink, obs=obs)
    return runner._run_keyed(name, every, directory)


class ExperimentRunner:
    """Builds clusters and runs the study's experiments on them.

    The cluster is ``scenario`` (default :class:`~repro.config.Scenario`,
    the paper's 16 nodes) with ``nnodes`` and ``seed`` set on top; every
    other setting is a field of the scenario.

    With ``sink=`` set to a directory, every finished run is also stored
    in a :class:`~repro.store.RunCatalog` there: one ``.rpt`` file per
    node holding exactly that node's rows of ``result.trace``, and a
    ``manifest.json`` with the resolved scenario and summary metrics —
    the one stored form of a result.  The run directory is claimed only
    then, so an interrupted run leaves nothing in the catalog.

    With ``obs=True``, each run gets a fresh
    :class:`~repro.obs.ObsRecorder`: the simulator and disks record live
    counters/histograms, node and store counters are harvested at the
    end, and the snapshot lands on ``result.obs`` (and in the catalog
    manifest when a sink is set).
    """

    def __init__(self, nnodes: Optional[int] = None,
                 seed: Optional[int] = None,
                 sink=None,
                 obs: bool = False,
                 scenario: Optional[Scenario] = None):
        base = scenario if scenario is not None else Scenario()
        overrides: Dict[str, object] = {}
        if nnodes is not None:
            overrides["cluster.nnodes"] = nnodes
        if seed is not None:
            overrides["seed"] = seed
        if overrides:
            base = base.with_overrides(overrides)
        #: the fully-resolved scenario this runner executes
        self.scenario = base.validate()
        self.sink = sink
        self.obs = obs
        self._recorder = None
        self._wall_start = 0.0

    # -- public API --------------------------------------------------------
    def run(self, name: str, *,
            duration: Optional[float] = None,
            checkpoint_every: Optional[float] = None,
            checkpoint=None) -> ExperimentResult:
        """Run one experiment by name — the single entry point.

        ``name`` is one of :data:`EXPERIMENTS` or ``"serial"``.
        ``duration`` sets the baseline observation window (default
        ``scenario.experiment.baseline_duration``; see
        :func:`check_duration`); application experiments run until
        their applications finish, so passing a duration for them is an
        error.

        ``checkpoint`` is the run's one ``.ckpt`` file, named by
        :func:`repro.config.sweep.checkpoint_path`.  If it exists, the
        run resumes from it (checked against ``name``, this runner's
        scenario and ``duration``) and continues bit-identically to the
        uninterrupted checkpointing run — same trace records, same
        metrics, same obs counters.  The whole stack is captured every
        ``checkpoint_every`` simulated seconds (default: the cadence the
        file was captured at), each capture overwriting the file; a
        missing file needs a cadence.  Checkpointing itself leaves the
        baseline unchanged but not application runs: their capture
        holds act as a barrier.
        """
        tree = None
        path = None if checkpoint is None else Path(checkpoint)
        if path is not None and path.exists():
            tree = load_checkpoint(path)
            plan = self._resumed_plan(tree["meta"], name)
            if checkpoint_every is None:
                # the continuation must re-arm at the same epochs to stay
                # bit-identical; overriding the cadence is an explicit
                # choice
                checkpoint_every = tree["meta"]["checkpoint_every"]
        else:
            plan = self._plan(name)
            if (path is None) != (checkpoint_every is None):
                raise ValueError(
                    "checkpoint= and checkpoint_every= go together: "
                    "captures need a file, and a missing file a cadence")
        check_duration(plan.name, duration)
        if duration is not None:
            if tree is None:
                plan = replace(plan, window=duration)
            elif duration != plan.window:
                raise CheckpointError(
                    f"checkpoint observed a {plan.window}s window; "
                    f"cannot resume it as {duration}s")
        if path is not None:
            path.parent.mkdir(parents=True, exist_ok=True)
        return self._execute(plan, tree, checkpoint_every, path)

    def run_all(self, parallel: bool = False,
                max_workers: Optional[int] = None,
                names: Optional[Sequence[str]] = None, *,
                checkpoint_every: Optional[float] = None,
                checkpoint_dir=None) -> Dict[str, ExperimentResult]:
        """Run the five experiments (or ``names``); ``parallel=True``
        uses one process per experiment (they are fully independent
        simulations).  With ``checkpoint_every``, each experiment runs
        on its own :func:`~repro.config.sweep.checkpoint_path` file
        under ``checkpoint_dir`` (resuming it when it exists)."""
        names = tuple(names) if names is not None else EXPERIMENTS
        if not parallel:
            return {name: self._run_keyed(name, checkpoint_every,
                                          checkpoint_dir)
                    for name in names}
        import concurrent.futures
        sink = str(self.sink) if self.sink is not None else None
        scenario_dict = self.scenario.to_dict()
        args = [(scenario_dict, name, sink, bool(self.obs),
                 checkpoint_every, checkpoint_dir) for name in names]
        with concurrent.futures.ProcessPoolExecutor(
                max_workers=max_workers or len(names)) as pool:
            results = list(pool.map(_run_one_experiment, args))
        return dict(zip(names, results))

    def _run_keyed(self, name: str, every: Optional[float],
                   directory) -> ExperimentResult:
        """``run(name)``; with ``every``, on the run's
        :func:`~repro.config.sweep.checkpoint_path` file in ``directory``."""
        path = None if every is None \
            else checkpoint_path(directory, self.scenario, name, None)
        return self.run(name, checkpoint_every=every, checkpoint=path)

    # -- workload assembly ---------------------------------------------------
    def make_app(self, app_name: str, node) -> ESSApplication:
        """Instantiate a workload model configured for this cluster.

        The model and its params class come from the
        :data:`~repro.apps.WORKLOADS` table; scenario
        ``workload.params`` overrides are applied on top of the
        cluster-derived defaults.
        """
        entry = WORKLOADS[app_name]
        kwargs = {"nnodes": self.scenario.cluster.nnodes}
        kwargs.update(self.scenario.workload.params_for(app_name))
        params = entry.params_cls(**kwargs)
        return entry.app_cls(node, seed=self.scenario.seed, params=params)

    # -- plans ----------------------------------------------------------------
    def _plan(self, name: str) -> _Plan:
        if name == "baseline":
            return _Plan("baseline",
                         window=self.scenario.experiment.baseline_duration)
        mix = tuple(self.scenario.workload.mix)
        if name == "combined":
            return _Plan("combined", apps=mix)
        if name == "serial":
            # Extension: the same applications back to back — a
            # batch-queue counterfactual to ``combined`` (identical work,
            # no multiprogramming) that isolates what concurrency itself
            # does to the I/O.
            return _Plan("serial", apps=mix, serial=True)
        if name in WORKLOADS:
            return _Plan(name, apps=(name,))
        raise ValueError(f"unknown experiment {name!r}; "
                         f"choose from {EXPERIMENTS + ('serial',)}")

    def _resumed_plan(self, meta: dict, name: Optional[str]) -> _Plan:
        """The plan a checkpoint was captured under (checked against
        ``name`` and this runner's scenario)."""
        if name is not None and name != meta["experiment"]:
            raise CheckpointError(
                f"checkpoint is for experiment {meta['experiment']!r}, "
                f"not {name!r}")
        if meta["scenario"] != self.scenario.to_dict():
            raise CheckpointError(
                "checkpoint was captured under a different scenario; "
                "construct the runner from the same one to resume")
        if meta["kind"] == "baseline":
            return _Plan("baseline", window=float(meta["duration"]))
        return _Plan(meta["experiment"], apps=tuple(meta["app_names"]),
                     serial=bool(meta["serial"]))

    # -- the protocol ---------------------------------------------------------
    def _execute(self, plan: _Plan, tree: Optional[dict],
                 every: Optional[float],
                 path: Optional[Path]) -> ExperimentResult:
        """Build (or restore ``tree``), install, quiesce, zero the trace
        clock, excite, gather — the one procedure behind every run."""
        sim, cluster = self._build(tree)
        try:
            # always attached: an unarmed coordinator fires no events
            coordinator = CheckpointCoordinator(sim)
            apps: Dict[str, List[ESSApplication]] = {n: [] for n in plan.apps}
            installs = []
            for node in cluster.nodes:
                for app_name in plan.apps:
                    app = self.make_app(app_name, node)
                    app.attach_coordinator(coordinator)
                    apps[app_name].append(app)
                    key = f"{app_name}:{node.node_id}"
                    if tree is None:
                        installs.append(sim.process(app.install(),
                                                    name=f"install:{key}"))
                    elif key in tree["apps"]:
                        app.resume_from(tree["apps"][key])
                    else:
                        raise CheckpointError(
                            f"checkpoint lacks a resume token for {key}")
            if tree is None:
                self._settle(sim, cluster, installs)
                t0 = sim.now
            else:
                t0 = float(tree["meta"]["t0"])
            procs = self._spawn_apps(cluster, apps, plan)
            done = None if plan.window is not None else sim.all_of(procs)
            if tree is not None:
                sim.settle()
                if not coordinator.all_held:
                    raise CheckpointError(
                        "resumed applications did not park on their holds")
                verify_restored_queue(sim, tree)
                self._restore_obs(tree)
                coordinator.release()

            limits = self.scenario.experiment
            end = t0 + (plan.window if done is None else limits.hard_limit)
            self._epochs(sim, cluster, coordinator, apps, plan, t0=t0, end=end,
                         done=done, every=every, path=path)
            duration = plan.window
            if done is not None:
                if not done.triggered:
                    raise RuntimeError(
                        f"experiment {plan.name!r} exceeded the "
                        f"{limits.hard_limit}s hard limit")
                finish = sim.now
                # Grace period: let the write-back daemons flush the tail.
                sim.run(until=finish + limits.flush_grace)
                duration = finish - t0 + limits.flush_grace
            trace = TraceDataset(
                time_window(cluster.gather_traces(), 0, duration))
            result = ExperimentResult(
                name=plan.name, trace=trace, duration=duration,
                nnodes=self.scenario.cluster.nnodes,
                app_stats={n: [a.stats for a in apps[n]] for n in plan.apps})
            self._finish(cluster, result)
        finally:
            # free the finished (or failed) run by reference counting
            sim.close()
        return result

    def _build(self, tree: Optional[dict] = None):
        """A fresh simulator + cluster, restored around ``tree`` if given.

        Order matters on a restore: the clock and tick preloads are
        staged *before* the cluster exists, so every daemon's first
        sleep replays its snapshotted queue entry; layer state goes back
        before any event fires.
        """
        registry = None
        self._recorder = None
        if self.obs:
            from repro.obs import ObsRecorder
            self._recorder = self.obs if isinstance(self.obs, ObsRecorder) \
                else ObsRecorder()
            registry = self._recorder.registry
        self._wall_start = perf_counter()
        sim = Simulator(obs=registry)
        if tree is not None:
            sim.restore_clock(tree["clock"])
            arm_tick_preloads(sim, tree)
        cluster = BeowulfCluster(sim, scenario=self.scenario, obs=registry)
        #: the most recent cluster, kept for post-experiment inspection
        #: (filesystem checks, kernel statistics)
        self.last_cluster = cluster
        if tree is not None:
            restore_cluster_state(cluster, tree)
        return sim, cluster

    def _settle(self, sim: Simulator, cluster: BeowulfCluster,
                setup_procs: list) -> None:
        """Run setup, quiesce the caches, and zero the trace clocks."""
        sim.run(until=sim.now + 5.0)
        if not all(p.triggered for p in setup_procs):
            raise RuntimeError("experiment setup did not finish in time")
        # Write back install-time dirt.  Clean buffers stay cached: the
        # measured system had been running long before the experiments, so
        # hot metadata (inode table, directories) lives in the buffer
        # cache, while application binaries and input data — never read
        # yet — are cold on disk.
        for node in cluster.nodes:
            sim.process(node.kernel.cache.sync(),
                        name=f"sync:{node.node_id}")
        sim.run(until=sim.now + 30.0)
        cluster.reset_trace_clocks()

    def _spawn_apps(self, cluster: BeowulfCluster, apps, plan: _Plan):
        """Spawn the application processes; identical on first run and
        resume (the spawn structure — chains vs. one process per app —
        must match for the continuation to be bit-identical)."""
        procs = []
        if plan.serial:
            # one chain per node running its applications back to back
            def chain(node_apps):
                for app in node_apps:
                    yield from app.run()

            for node in cluster.nodes:
                node_apps = [apps[a][node.node_id] for a in plan.apps]
                procs.append(node.kernel.spawn(
                    chain(node_apps), name=f"serial:{node.node_id}"))
        else:
            for app_name in plan.apps:
                for app in apps[app_name]:
                    procs.append(app.kernel.spawn(
                        app.run(), name=f"{app_name}:{app.node_id}"))
        return procs

    def _epochs(self, sim: Simulator, cluster: BeowulfCluster,
                coordinator: CheckpointCoordinator, apps, plan: _Plan, *,
                t0: float, end: float, done, every: Optional[float],
                path: Optional[Path]) -> None:
        """Run to ``end`` (or until ``done``), capturing at ``t0 + k*every``.

        The schedule is *absolute*: a settle that overshoots an epoch
        does not shift the later ones, so a resumed run recomputes the
        identical schedule from the restored clock.  Without ``every``
        this is a single ``sim.run``.
        """
        while True:
            target = end
            if every is not None:
                k = int((sim.now - t0) // every) + 1
                # the floor division can round one epoch short of the
                # clock (t0=35.0, every=0.05, now=35.05 gives k=1, whose
                # instant *is* now): step on to the first later instant
                while t0 + k * every <= sim.now:
                    k += 1
                target = min(end, t0 + k * every)
            if target > sim.now:
                sim.run(until=target, stop=done)
            if sim.now >= end or (done is not None and done.triggered):
                return
            # park every application at its next body boundary (vacuous
            # for a plan without applications)
            coordinator.arm()
            budget = 5_000_000
            while not coordinator.all_held:
                sim.step()
                budget -= 1
                if budget <= 0:
                    raise CheckpointError(
                        "applications never reached their hold points")
            if done is not None and done.triggered:
                coordinator.release()
                return
            sim.settle()
            app_map = {f"{a.name}:{a.node_id}": a
                       for fam in plan.apps for a in apps[fam]}
            tree = capture_state(sim, cluster, apps=app_map,
                                 obs=self._registry(),
                                 meta=self._ckpt_meta(plan, t0, every, k))
            save_checkpoint(tree, path)
            coordinator.release()

    # -- checkpoint helpers ---------------------------------------------------
    def _registry(self):
        return None if self._recorder is None else self._recorder.registry

    def _run_name(self, name: str) -> str:
        """``name``, tagged ``@<scenario name>`` for a named scenario."""
        if self.scenario.name in ("", "default"):
            return name
        return f"{name}@{self.scenario.name}"

    def _ckpt_meta(self, plan: _Plan, t0: float, every: float,
                   epoch: int) -> dict:
        meta = {"experiment": plan.name,
                "kind": "baseline" if plan.window is not None else "apps",
                "t0": t0, "checkpoint_every": every, "epoch": epoch,
                "scenario": self.scenario.to_dict()}
        if plan.window is not None:
            meta["duration"] = plan.window
        else:
            meta["app_names"] = list(plan.apps)
            meta["serial"] = plan.serial
        return meta

    def _restore_obs(self, tree: dict) -> None:
        """Put back the captured metrics (after the restore settle, which
        itself counts events; live instrument references stay valid
        because the restore mutates in place)."""
        if self._recorder is not None and tree["obs"] is not None:
            self._recorder.registry.restore_state(tree["obs"])

    # -- the stored run -------------------------------------------------------
    def _finish(self, cluster: BeowulfCluster,
                result: ExperimentResult) -> None:
        """Collect observability and, with a ``sink``, store the run:
        one file per node from ``result.trace``, then the manifest."""
        capture = None
        if self.sink is not None:
            from repro.store import RunCatalog
            catalog = self.sink if isinstance(self.sink, RunCatalog) \
                else RunCatalog(self.sink)
            capture = catalog.start_run(
                self._run_name(result.name), nnodes=result.nnodes,
                seed=self.scenario.seed, scenario=self.scenario.to_dict())
            capture.write_trace(result.trace)
        recorder = self._recorder
        if recorder is not None:
            recorder.collect_cluster(cluster)
            if capture is not None:
                recorder.collect_capture(capture)
            recorder.collect_run(
                wall_seconds=perf_counter() - self._wall_start,
                sim_seconds=result.duration)
            result.obs = recorder.snapshot()
        if capture is not None:
            capture.finalize(result)
            #: directory of the last stored run, for callers/tests
            self.last_run_dir = capture.directory
