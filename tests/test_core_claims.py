"""Tests for the paper-claim scorecard."""

import pytest

from repro.config import Scenario
from repro.core import ExperimentRunner
from repro.core.claims import CLAIMS, evaluate_claims, render_scorecard


@pytest.fixture(scope="module")
def results():
    runner = ExperimentRunner(nnodes=2, seed=1, scenario=Scenario()
                              .with_overrides({
                                  "experiment.baseline_duration": 800.0}))
    return runner.run_all()


def test_claim_ids_unique():
    ids = [c.id for c in CLAIMS]
    assert len(ids) == len(set(ids))
    assert len(CLAIMS) >= 15


def test_all_claims_evaluated_against_full_results(results):
    outcomes = evaluate_claims(results)
    assert len(outcomes) == len(CLAIMS)
    assert all(o.passed is not None for o in outcomes)


def test_every_claim_passes_at_default_configuration(results):
    outcomes = evaluate_claims(results)
    failing = [(o.claim.id, o.detail) for o in outcomes if not o.passed]
    assert not failing, f"claims failing: {failing}"


def test_missing_experiments_are_skipped(results):
    partial = {"baseline": results["baseline"]}
    outcomes = evaluate_claims(partial)
    statuses = {o.claim.id: o.status for o in outcomes}
    assert statuses["B1"] == "PASS"
    assert statuses["W1"] == "SKIP"
    assert statuses["C1"] == "SKIP"


def test_render_scorecard(results):
    text = render_scorecard(evaluate_claims(results))
    assert "scorecard" in text
    assert "B1" in text and "L2" in text
    assert "claims hold" in text


def test_render_with_skips(results):
    text = render_scorecard(evaluate_claims(
        {"baseline": results["baseline"]}))
    assert "skipped" in text


def test_cli_claims_flag(capsys):
    from repro.cli import main
    rc = main(["baseline", "--nodes", "1", "--duration", "400", "--claims"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "scorecard" in out
    assert "SKIP" in out     # app claims skipped when only baseline ran
