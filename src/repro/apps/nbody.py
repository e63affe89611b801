"""N-body workload model.

The paper's N-body run (oct-tree, 8K particles per processor, 303 million
total interactions) shows consistent 1 KB block I/O with more 2 KB
requests than PPM and a few 4 KB page swaps: a compute-bound simulation
whose higher memory pressure faults occasionally to maintain the working
set, writing per-step statistical summaries (Table 1: 13% reads / 87%
writes).

Compute per step derives from the Barnes-Hut interaction-count estimate
at the reference CPU rate.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.apps.base import ESSApplication, REF_MFLOPS
from repro.apps.kernels.barnes_hut import interactions_estimate


@dataclass(frozen=True)
class NBodyParams:
    """Workload knobs, defaulted to the study's configuration."""

    particles: int = 8192
    steps: int = 50
    theta: float = 0.5
    flops_per_interaction: int = 20
    #: bytes of the per-step statistical summary
    summary_bytes: int = 300
    #: steps between tree-exchange communications
    exchange_interval: int = 1
    #: particle + tree memory footprint (KB); slightly oversubscribes a
    #: 16 MB node together with the system, so some paging occurs
    footprint_kb: int = 7 * 1024
    #: final snapshot written per node (KB)
    output_kb: int = 64
    nnodes: int = 1

    @property
    def interactions_per_step(self) -> float:
        return interactions_estimate(self.particles, self.theta)

    @property
    def compute_per_step(self) -> float:
        flops = self.interactions_per_step * self.flops_per_interaction
        return flops / (REF_MFLOPS * 1e6)

class NBodyApplication(ESSApplication):
    """Oct-tree gravitational N-body simulation."""

    name = "nbody"
    binary_kb = 256

    def __init__(self, node, seed: int = 0,
                 params: NBodyParams = NBodyParams()):
        super().__init__(node, seed=seed)
        self.params = params

    @property
    def summary_path(self) -> str:
        return f"{self.output_dir}/summary.{self.node_id}"

    def bodies(self) -> list:
        from functools import partial
        return ([self._body_setup]
                + [partial(self._body_step, step)
                   for step in range(self.params.steps)]
                + [self._body_finish])

    def _body_setup(self):
        p = self.params
        self._binary = self.map_binary()
        yield from self.load_pages(self._binary)
        self._particles = self.allocate(p.footprint_kb)
        yield from self.load_pages(self._particles, write=True)
        self._summary_h = yield from self.kernel.create(self.summary_path)

    def _body_step(self, step: int):
        p = self.params
        # Tree rebuild + force evaluation: touches spread across
        # the whole footprint, many of them writes.
        yield from self.compute(p.compute_per_step, region=self._particles,
                                touches_per_slice=8,
                                dirty_fraction=0.5)
        if p.nnodes > 1 and step % p.exchange_interval == 0:
            # exchange of locally-essential tree (bodies near the
            # domain boundary)
            yield from self.exchange_with_neighbors(
                tag=200 + step,
                nbytes=p.particles // 8 * 32,
                nnodes=p.nnodes)
        yield from self.append_stats(self._summary_h, p.summary_bytes)

    def _body_finish(self):
        p = self.params
        out_h = yield from self.kernel.create(
            f"{self.output_dir}/snapshot.{self.node_id}")
        yield from self.write_file(out_h, p.output_kb * 1024)
        yield from self.barrier("done", p.nnodes)

    def snapshot_app_state(self) -> dict:
        if self.cursor < 1:
            return {}
        return {"binary": list(self._binary),
                "particles": list(self._particles),
                "summary": self._summary_h.snapshot_state()}

    def restore_app_state(self, state: dict) -> None:
        if not state:
            return
        self._binary = tuple(int(v) for v in state["binary"])
        self._particles = tuple(int(v) for v in state["particles"])
        self._summary_h = self._reopen_handle(self.summary_path,
                                              state["summary"])
