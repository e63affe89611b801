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

from dataclasses import dataclass, field, replace
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional, Sequence, Tuple

from repro.apps import WORKLOADS, AppStats, ESSApplication
from repro.checkpoint import (CheckpointCoordinator, CheckpointError,
                              arm_tick_preloads, capture_state, check_format,
                              drain_to_quiescence, load_checkpoint,
                              restore_cluster_state, save_checkpoint,
                              verify_restored_queue)
from repro.cluster import BeowulfCluster
from repro.config import Scenario
from repro.core.metrics import WorkloadMetrics, compute_metrics
from repro.core.trace import TraceDataset
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

    # -- persistence ----------------------------------------------------------
    def save(self, directory: "str | Path") -> "Path":
        """Persist to ``directory``; returns the directory written.

        Experiment results are *directories* (``experiment.json``
        metadata next to a ``trace.npy``), unlike
        :meth:`TraceDataset.save`, which writes a single file.  The
        directory is created if needed; ``str`` and
        :class:`~pathlib.Path` are both accepted.
        """
        import json
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        self.trace.save(directory / "trace.npy")
        meta = {
            "format": "repro-experiment-v1",
            "name": self.name,
            "duration": self.duration,
            "nnodes": self.nnodes,
            "app_stats": {
                app: [{"started_at": s.started_at,
                       "finished_at": s.finished_at,
                       "bytes_read": s.bytes_read,
                       "bytes_written": s.bytes_written,
                       "compute_seconds": s.compute_seconds,
                       "pages_touched": s.pages_touched,
                       "messages_sent": s.messages_sent}
                      for s in stats_list]
                for app, stats_list in self.app_stats.items()
            },
        }
        if self.obs is not None:
            meta["obs"] = self.obs
        (directory / "experiment.json").write_text(json.dumps(meta, indent=2))
        return directory

    @classmethod
    def load(cls, directory: "str | Path") -> "ExperimentResult":
        """Load a result saved by :meth:`save`.

        ``directory`` (``str`` or :class:`~pathlib.Path`) is the
        experiment *directory*, not a file inside it.
        """
        import json
        directory = Path(directory)
        meta = json.loads((directory / "experiment.json").read_text())
        if meta.get("format") != "repro-experiment-v1":
            raise ValueError("not a repro experiment directory")
        app_stats = {
            app: [AppStats(**fields) for fields in stats_list]
            for app, stats_list in meta["app_stats"].items()
        }
        return cls(name=meta["name"],
                   trace=TraceDataset.load(directory / "trace.npy"),
                   duration=float(meta["duration"]),
                   nnodes=int(meta["nnodes"]),
                   app_stats=app_stats,
                   obs=meta.get("obs"))


#: entry points removed after their deprecation cycle -> replacement
_REMOVED_RUNNERS = {
    "run_baseline": 'run("baseline", duration=...)',
    "run_single": "run(app_name)",
    "run_combined": 'run("combined")',
    "run_serial": 'run("serial")',
}


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
    scenario_dict, name, sink, obs = args
    runner = ExperimentRunner(scenario=Scenario.from_dict(scenario_dict),
                              sink=sink, obs=obs)
    return runner.run(name)


class ExperimentRunner:
    """Builds clusters and runs the study's experiments on them.

    With ``sink=`` set to a directory, every run is also captured into a
    :class:`~repro.store.RunCatalog` there: per-node ``.rpt`` trace files
    stream to disk *during* the experiment (bounded writer memory) and a
    ``manifest.json`` with config, seed, and summary metrics is written
    at the end.

    With ``obs=True``, each run gets a fresh
    :class:`~repro.obs.ObsRecorder`: the simulator and disks record live
    counters/histograms, node and store counters are harvested at the
    end, and the snapshot lands on ``result.obs`` (and in the catalog
    manifest when a sink is set).  The last run's recorder stays on
    ``runner.last_obs``.
    """

    def __init__(self, nnodes: Optional[int] = None,
                 seed: Optional[int] = None,
                 housekeeping_message_rate: Optional[float] = None,
                 baseline_duration: Optional[float] = None,
                 hard_limit: Optional[float] = None,
                 flush_grace: Optional[float] = None,
                 sink=None,
                 obs: bool = False,
                 scenario: Optional[Scenario] = None):
        base = scenario if scenario is not None else Scenario()
        overrides: Dict[str, object] = {}
        if nnodes is not None:
            overrides["cluster.nnodes"] = nnodes
        elif scenario is None:
            overrides["cluster.nnodes"] = 4   # historical runner default
        if seed is not None:
            overrides["seed"] = seed
        if housekeeping_message_rate is not None:
            overrides["cluster.housekeeping_message_rate"] = \
                housekeeping_message_rate
        if baseline_duration is not None:
            overrides["experiment.baseline_duration"] = baseline_duration
        if hard_limit is not None:
            overrides["experiment.hard_limit"] = hard_limit
        if flush_grace is not None:
            overrides["experiment.flush_grace"] = flush_grace
        if overrides:
            base = base.with_overrides(overrides)
        #: the fully-resolved scenario this runner executes
        self.scenario = base.validate()
        self.nnodes = base.cluster.nnodes
        self.seed = base.seed
        self.housekeeping_message_rate = \
            base.cluster.housekeeping_message_rate
        self.baseline_duration = base.experiment.baseline_duration
        self.hard_limit = base.experiment.hard_limit
        self.flush_grace = base.experiment.flush_grace
        self.sink = sink
        self.obs = obs
        #: ObsRecorder of the most recent run (None without obs)
        self.last_obs = None
        self._recorder = None
        self._wall_start = 0.0

    # -- public API --------------------------------------------------------
    def run(self, name: str, *,
            duration: Optional[float] = None,
            checkpoint_every: Optional[float] = None,
            checkpoint_dir=None,
            resume_from=None) -> ExperimentResult:
        """Run one experiment by name — the single entry point.

        ``name`` is one of :data:`EXPERIMENTS` or ``"serial"``.
        ``duration`` sets the baseline observation window (default
        ``baseline_duration``; it must be positive); application
        experiments run until their applications finish, so passing a
        duration for them is an error.

        ``checkpoint_every`` captures the whole stack into a ``.ckpt``
        file every that many simulated seconds (under
        ``checkpoint_dir``, default ``checkpoints/``).  ``resume_from``
        restores such a file and continues the run; the continuation is
        bit-identical to the uninterrupted (checkpointing) run — same
        trace records, same metrics, same obs counters.  Checkpointing
        itself leaves the baseline unchanged but not application runs:
        their capture holds act as a barrier.
        """
        tree = None
        if resume_from is None:
            plan = self._plan(name)
        else:
            tree = check_format(load_checkpoint(resume_from))
            plan = self._resumed_plan(tree["meta"], name)
            if checkpoint_every is None:
                # the continuation must re-arm at the same epochs to stay
                # bit-identical; overriding the cadence is an explicit
                # choice
                checkpoint_every = tree["meta"]["checkpoint_every"]
        if duration is not None:
            if plan.window is None:
                raise ValueError(
                    "duration= only applies to the baseline experiment; "
                    "application runs end when the applications do")
            if duration <= 0:
                raise ValueError(
                    f"duration must be positive, got {duration!r}")
            if tree is None:
                plan = replace(plan, window=duration)
            elif duration != plan.window:
                raise CheckpointError(
                    f"checkpoint observed a {plan.window}s window; "
                    f"cannot resume it as {duration}s")
        path = None
        if checkpoint_every is not None:
            path = Path(resume_from) \
                if resume_from is not None and checkpoint_dir is None \
                else self._checkpoint_target(checkpoint_dir, plan.name)
        return self._execute(plan, tree, checkpoint_every, path)

    def run_all(self, parallel: bool = False,
                max_workers: Optional[int] = None,
                names: Optional[Sequence[str]] = None
                ) -> Dict[str, ExperimentResult]:
        """Run the five experiments (or ``names``); ``parallel=True``
        uses one process per experiment (they are fully independent
        simulations)."""
        names = tuple(names) if names is not None else EXPERIMENTS
        if not parallel:
            return {name: self.run(name) for name in names}
        import concurrent.futures
        sink = str(self.sink) if self.sink is not None else None
        scenario_dict = self.scenario.to_dict()
        args = [(scenario_dict, name, sink, bool(self.obs))
                for name in names]
        with concurrent.futures.ProcessPoolExecutor(
                max_workers=max_workers or len(names)) as pool:
            results = list(pool.map(_run_one_experiment, args))
        return dict(zip(names, results))

    def __getattr__(self, name: str):
        # the PR-3 deprecation shims (run_baseline/run_single/
        # run_combined/run_serial) are gone; point stragglers at run()
        if name in _REMOVED_RUNNERS:
            raise AttributeError(
                f"ExperimentRunner.{name}() was removed; use "
                f"ExperimentRunner.{_REMOVED_RUNNERS[name]}")
        raise AttributeError(
            f"{type(self).__name__!r} object has no attribute {name!r}")

    # -- workload assembly ---------------------------------------------------
    def make_app(self, app_name: str, node) -> ESSApplication:
        """Instantiate a workload model configured for this cluster.

        The model and its params class come from the
        :data:`~repro.apps.WORKLOADS` registry; scenario
        ``workload.params`` overrides are applied on top of the
        cluster-derived defaults.
        """
        entry = WORKLOADS.get(app_name)
        kwargs = {"nnodes": self.nnodes}
        kwargs.update(self.scenario.workload.params_for(app_name))
        params = entry.params_cls(**kwargs)
        return entry.app_cls(node, seed=self.seed, params=params)

    # -- plans ----------------------------------------------------------------
    def _plan(self, name: str) -> _Plan:
        if name == "baseline":
            return _Plan("baseline", window=self.baseline_duration)
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
        # normalize through from_dict: older checkpoints carry retired keys
        stored = Scenario.from_dict(meta["scenario"], validate=False)
        if stored.to_dict() != self.scenario.to_dict():
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
            coordinator.arm_for_resume()
            t0 = float(tree["meta"]["t0"])
        capture = self._start_capture(plan.name, cluster)
        if tree is not None:
            self._reseed_writers(capture, cluster)
        procs = self._spawn_apps(cluster, apps, plan)
        done = None if plan.window is not None else sim.all_of(procs)
        if tree is not None:
            drain_to_quiescence(sim)
            if not coordinator.all_held:
                raise CheckpointError(
                    "resumed applications did not park on their holds")
            verify_restored_queue(sim, tree)
            self._restore_obs(tree)
            coordinator.release()

        end = t0 + (plan.window if done is None else self.hard_limit)
        self._epochs(sim, cluster, coordinator, apps, plan, t0=t0, end=end,
                     done=done, every=every, path=path)
        duration = plan.window
        if done is not None:
            if not done.triggered:
                raise RuntimeError(
                    f"experiment {plan.name!r} exceeded the "
                    f"{self.hard_limit}s hard limit")
            finish = sim.now
            # Grace period: let the write-back daemons flush the tail.
            sim.run(until=finish + self.flush_grace)
            duration = finish - t0 + self.flush_grace
        trace = TraceDataset(cluster.gather_traces()).between(0, duration)
        result = ExperimentResult(
            name=plan.name, trace=trace, duration=duration,
            nnodes=self.nnodes,
            app_stats={n: [a.stats for a in apps[n]] for n in plan.apps})
        self._finish_capture(capture, cluster, result)
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
        self.last_obs = self._recorder
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

    def _checkpoint_target(self, checkpoint_dir, name: str) -> Path:
        """Where checkpoints land: ``checkpoint_dir`` is a directory
        (default ``checkpoints/``) or, when it ends in ``.ckpt``, the
        exact target file (how sweep points pin per-fingerprint files)."""
        if checkpoint_dir is not None \
                and str(checkpoint_dir).endswith(".ckpt"):
            path = Path(checkpoint_dir)
            path.parent.mkdir(parents=True, exist_ok=True)
            return path
        directory = Path(checkpoint_dir) if checkpoint_dir is not None \
            else Path("checkpoints")
        directory.mkdir(parents=True, exist_ok=True)
        stem = name
        if self.scenario.name not in ("", "default"):
            stem = f"{name}@{self.scenario.name}"
        return directory / f"{stem}.ckpt"

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
        """Put back the captured metrics (after the drain, which itself
        counts events; live instrument references stay valid because the
        restore mutates in place)."""
        if self._recorder is not None and tree["obs"] is not None:
            self._recorder.registry.restore_state(tree["obs"])

    def _reseed_writers(self, capture, cluster: BeowulfCluster) -> None:
        """Seed fresh streaming writers with the records captured before
        the checkpoint, so a resumed run's ``.rpt`` files hold the whole
        trace from t=0."""
        if capture is None:
            return
        for node in cluster.nodes:
            buffered = node.kernel.transport.user_buffer.to_array()
            if len(buffered):
                capture.writer_for(node.node_id).append_array(buffered)

    # -- streaming capture ----------------------------------------------------
    def _start_capture(self, name: str, cluster: BeowulfCluster):
        """Attach per-node store writers when a ``sink`` is configured.

        Called after :meth:`_settle` so the streamed files start at the
        zeroed trace clock, exactly like the in-memory capture.
        """
        if self.sink is None:
            return None
        from repro.store import RunCatalog
        catalog = self.sink if isinstance(self.sink, RunCatalog) \
            else RunCatalog(self.sink)
        run_name = name
        if self.scenario.name not in ("", "default"):
            run_name = f"{name}@{self.scenario.name}"
        capture = catalog.start_run(
            run_name, nnodes=self.nnodes, seed=self.seed,
            config={"nnodes": self.nnodes,
                    "baseline_duration": self.baseline_duration,
                    "housekeeping_message_rate":
                        self.housekeeping_message_rate,
                    "hard_limit": self.hard_limit,
                    "flush_grace": self.flush_grace},
            scenario=self.scenario.to_dict())
        capture.attach(cluster)
        return capture

    def _finish_capture(self, capture, cluster: BeowulfCluster,
                        result: ExperimentResult) -> None:
        """Seal the run: close streamed files, collect observability,
        and write the manifest (traces already fully drained by
        ``gather_traces``)."""
        if capture is not None:
            capture.detach(cluster)
            # spill writer tails *before* harvesting the store counters
            capture.close_writers()
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
            #: directory of the last captured run, for callers/tests
            self.last_run_dir = capture.directory
