"""Tests for replication statistics."""

import numpy as np
import pytest

from repro.config import Scenario
from repro.core.stats import (
    MetricCI,
    confidence_interval,
    render_replication,
    replicate,
    t_critical_95,
)


def test_t_critical_values():
    assert t_critical_95(1) == pytest.approx(12.706)
    assert t_critical_95(30) == pytest.approx(2.042)
    assert t_critical_95(1000) == pytest.approx(1.96)
    with pytest.raises(ValueError):
        t_critical_95(0)


def test_confidence_interval_math():
    # n=4, mean 10, sd 2 -> sem 1, t(3)=3.182
    ci = confidence_interval("x", [8.0, 10.0, 10.0, 12.0])
    assert ci.mean == pytest.approx(10.0)
    expected_sem = np.std([8, 10, 10, 12], ddof=1) / 2
    assert ci.half_width == pytest.approx(3.182 * expected_sem)
    assert ci.contains(10.5) or ci.half_width < 0.5


def test_confidence_interval_needs_replications():
    with pytest.raises(ValueError):
        confidence_interval("x", [1.0])


def test_ci_coverage_property():
    # samples from N(5, 1): the CI should usually contain 5
    rng = np.random.default_rng(0)
    hits = 0
    for _ in range(100):
        ci = confidence_interval("x", rng.normal(5, 1, size=10))
        hits += ci.contains(5.0)
    assert hits >= 85   # nominal 95%


def test_replicate_baseline_consistent_across_seeds():
    cis = replicate("baseline", seeds=[1, 2, 3], nnodes=1,
                    runner_kwargs={"scenario": Scenario().with_overrides(
                        {"experiment.baseline_duration": 600.0})})
    rate = cis["requests_per_second"]
    assert rate.n == 3
    # the paper's 0.9 req/s falls inside (or near) the interval
    assert abs(rate.mean - 0.9) < 0.3
    # seeds agree: the interval is tight relative to the mean
    assert rate.half_width < 0.5 * rate.mean
    reads = cis["read_fraction"]
    assert reads.mean < 0.03


def test_replicate_validation():
    with pytest.raises(ValueError):
        replicate("baseline", seeds=[1])


def test_render_replication():
    cis = {"x": MetricCI("x", 1.0, 0.1, (0.9, 1.0, 1.1))}
    text = render_replication("demo", cis)
    assert "demo" in text and "3 replications" in text
    assert "±" in text
