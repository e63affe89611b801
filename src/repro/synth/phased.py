"""Phase-aware workload synthesis.

The flat :class:`~repro.synth.model.WorkloadModel` matches aggregate
statistics but smears the *phase structure* — the paper's figures hinge
on when things happen (the wavelet read burst at ~50 s, the terminal
surge).  :func:`fit_phased_model` fits an independent parameter set per
time window, so generated traces reproduce the time profile as well.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.core.trace import TraceDataset
from repro.driver.trace import merge_by_time
from repro.synth.model import WorkloadModel, fit_workload_model


@dataclass
class PhasedWorkloadModel:
    """A sequence of per-window parameter sets."""

    window: float
    #: one model per window; None where the window saw < 2 requests
    models: List[Optional[WorkloadModel]]
    source_duration: float

    @property
    def nwindows(self) -> int:
        return len(self.models)

    def generate(self, rng: Optional[np.random.Generator] = None,
                 node: int = 0) -> TraceDataset:
        """Draw a synthetic trace spanning the source duration."""
        rng = rng or np.random.default_rng(0)
        pieces = []
        for i, model in enumerate(self.models):
            if model is None:
                continue
            start = i * self.window
            span = min(self.window, self.source_duration - start)
            if span <= 0:
                continue
            piece = model.generate(span, rng=rng, node=node)
            if len(piece):
                shifted = piece.records.copy()
                shifted["time"] += start
                pieces.append(shifted)
        return TraceDataset(merge_by_time(pieces))


def fit_phased_model(trace: TraceDataset, window: float = 30.0,
                     hot_set_size: int = 64) -> PhasedWorkloadModel:
    """Fit one parameter set per ``window`` seconds of the trace."""
    if len(trace) < 2:
        raise ValueError("need at least 2 records")
    if window <= 0:
        raise ValueError("window must be positive")
    duration = trace.duration
    nwindows = max(1, int(np.ceil(duration / window)))
    models: List[Optional[WorkloadModel]] = []
    for i in range(nwindows):
        # the final window is closed so the record at t == duration counts
        end = (i + 1) * window if i < nwindows - 1 else duration + 1e-9
        piece = trace.between(i * window, end)
        if len(piece) < 2:
            models.append(None)
            continue
        shifted = piece.records.copy()
        shifted["time"] -= i * window
        model = fit_workload_model(TraceDataset(shifted),
                                   hot_set_size=hot_set_size)
        # rate over the full window, not over the piece's internal span
        model.arrival_rate = len(piece) / window
        models.append(model)
    return PhasedWorkloadModel(window=window, models=models,
                               source_duration=duration)
