"""Tests for phase-aware workload synthesis."""

import numpy as np
import pytest

from repro.core import TraceDataset
from repro.synth import fit_phased_model, fit_workload_model


def phased_trace():
    """Three distinct phases: quiet / read burst / write surge."""
    rows = []
    rng = np.random.default_rng(0)
    # phase 1 (0-100 s): sparse 1 KB writes
    for t in np.sort(rng.uniform(0, 100, size=50)):
        rows.append((float(t), 44_000, 1, 1, 1.0, 0))
    # phase 2 (100-150 s): dense 16 KB reads
    for t in np.sort(rng.uniform(100, 150, size=400)):
        rows.append((float(t), int(rng.integers(96_000, 97_000)), 0, 1,
                     16.0, 0))
    # phase 3 (150-300 s): moderate 4 KB writes
    for t in np.sort(rng.uniform(150, 300, size=300)):
        rows.append((float(t), int(rng.integers(240_000, 250_000)), 1, 1,
                     4.0, 0))
    rows.sort(key=lambda r: r[0])
    return TraceDataset.from_records(rows)


@pytest.fixture(scope="module")
def phased():
    return fit_phased_model(phased_trace(), window=25.0)


def test_window_count_and_activity(phased):
    assert phased.nwindows == 12
    assert sum(m is not None for m in phased.models) >= 10


def test_rate_profile_shows_the_burst(phased):
    profile = np.array([m.arrival_rate if m is not None else 0.0
                        for m in phased.models])
    # the burst windows (100-150 s -> windows 4 and 5) dominate
    assert profile[4] > 3 * profile[0]
    assert np.argmax(profile) in (4, 5)


def test_generated_trace_preserves_phase_timing(phased):
    synth = phased.generate(rng=np.random.default_rng(1))
    real = phased_trace()
    bins = np.arange(0, 301, 25.0)
    real_counts = np.histogram(real.time, bins=bins)[0].astype(float)
    synth_counts = np.histogram(synth.time, bins=bins)[0].astype(float)
    # windowed-count correlation is high for the phased model...
    corr = np.corrcoef(real_counts, synth_counts)[0, 1]
    assert corr > 0.9
    # ... and beats the flat model by a wide margin
    flat = fit_workload_model(real).generate(real.duration,
                                             rng=np.random.default_rng(1))
    flat_counts = np.histogram(flat.time, bins=bins)[0].astype(float)
    flat_corr = np.corrcoef(real_counts, flat_counts)[0, 1]
    assert corr > flat_corr + 0.3


def test_generated_trace_preserves_phase_content(phased):
    synth = phased.generate(rng=np.random.default_rng(2))
    burst = synth.between(100, 150)
    tail = synth.between(150, 300)
    assert (burst.size_kb == 16.0).mean() > 0.9
    assert (burst.write == 0).mean() > 0.9
    assert (tail.size_kb == 4.0).mean() > 0.9
    assert (tail.write == 1).mean() > 0.9


def test_generation_sorted_and_in_range(phased):
    synth = phased.generate(rng=np.random.default_rng(3))
    assert (np.diff(synth.time) >= 0).all()
    assert synth.time.max() <= phased.source_duration


def test_empty_windows_generate_nothing():
    rows = [(0.0, 1, 1, 1, 1.0, 0), (1.0, 1, 1, 1, 1.0, 0),
            (99.0, 2, 1, 1, 1.0, 0), (100.0, 2, 1, 1, 1.0, 0)]
    model = fit_phased_model(TraceDataset.from_records(rows), window=10.0)
    assert sum(m is not None for m in model.models) == 2
    synth = model.generate(rng=np.random.default_rng(4))
    # nothing generated in the dead middle
    assert len(synth.between(20, 80)) == 0


def test_validation():
    with pytest.raises(ValueError):
        fit_phased_model(TraceDataset.empty())
    ds = phased_trace()
    with pytest.raises(ValueError):
        fit_phased_model(ds, window=0)
