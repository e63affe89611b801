"""End-to-end HTTP tests for the experiment service.

One module-scoped daemon runs a real (small) baseline job and a 2-point
sweep once; the read-only tests then share those finished jobs.  The
restart test gets its own service root: an accept-only daemon queues a
job, dies, and a successor must pick the job up and run it — the
durability claim at the heart of ``repro.serve``.
"""

import json

import pytest

from repro.config import Scenario
from repro.serve import ExperimentService, ServeClient, ServeError

# small but real: two simulated nodes, a short observation window
SCENARIO = Scenario().with_overrides(
    {"cluster.nnodes": 2, "seed": 7}).to_dict()
DURATION = 80.0


@pytest.fixture(scope="module")
def service(tmp_path_factory):
    service = ExperimentService(tmp_path_factory.mktemp("serve-root"),
                                workers=2).start()
    yield service
    service.shutdown()


@pytest.fixture(scope="module")
def client(service):
    return ServeClient(service.url)


@pytest.fixture(scope="module")
def baseline_job(client):
    job = client.submit(scenario=SCENARIO, experiment="baseline",
                        duration=DURATION)
    return client.wait(job["id"], timeout=120)


@pytest.fixture(scope="module")
def sweep_job(client):
    job = client.submit(scenario=SCENARIO, experiment="baseline",
                        duration=DURATION,
                        grid=["scheduler=clook,fifo"],
                        catalog="team-a")
    return client.wait(job["id"], timeout=240)


# -- jobs ----------------------------------------------------------------------
def test_submitted_job_runs_to_finished(baseline_job):
    assert baseline_job["state"] == "finished"
    assert baseline_job["run_ids"] == ["baseline"]
    assert baseline_job["result"]["total_requests"] > 0
    assert baseline_job["started"] >= baseline_job["created"]
    assert baseline_job["finished"] >= baseline_job["started"]


def test_job_listing_and_filters(client, baseline_job):
    jobs = client.jobs()
    assert any(j["id"] == baseline_job["id"] for j in jobs)
    finished = client.jobs(state="finished")
    assert all(j["state"] == "finished" for j in finished)
    status, table, _ = client.request("GET", "/v1/jobs?format=text")
    assert status == 200
    assert table.splitlines()[0].startswith("job")
    assert baseline_job["id"] in table


def test_unknown_job_is_404(client):
    with pytest.raises(ServeError) as err:
        client.job("job-999999")
    assert err.value.status == 404


def test_bad_submissions_are_400(client):
    for body in ({"experiment": "not-an-experiment"},
                 {"grid": "scheduler=clook"},        # not a list
                 {"grid": ["nonsense"]},             # unparseable axis
                 {"catalog": "../escape"},
                 {"scenario": {"cluster": {"nnodes": "many"}}},
                 {"kind": "sweep"},                  # sweep without grid
                 {"experiment": "ppm", "duration": 60},
                 {"duration": 0},
                 {"duration": "inf"}):
        with pytest.raises(ServeError) as err:
            client.request("POST", "/v1/jobs", body=body)
        assert err.value.status == 400, body


def test_cancel_terminal_job_conflicts(client, baseline_job):
    with pytest.raises(ServeError) as err:
        client.cancel(baseline_job["id"])
    assert err.value.status == 409
    with pytest.raises(ServeError) as err:
        client.cancel("job-424242")
    assert err.value.status == 404


# -- sweeps feed the catalog ---------------------------------------------------
def test_sweep_job_stamps_run_ids(sweep_job, client):
    assert sweep_job["state"] == "finished"
    assert sorted(sweep_job["run_ids"]) == [
        "baseline@scheduler=clook", "baseline@scheduler=fifo"]
    # every per-point summary carries the run id it was stored under
    by_label = {row["run_id"] for row in sweep_job["result"]}
    assert by_label == set(sweep_job["run_ids"])
    runs = client.runs(catalog="team-a")
    assert sorted(r["run"] for r in runs["team-a"]) == \
        sorted(sweep_job["run_ids"])


def test_runs_index_covers_all_catalogs(client, baseline_job, sweep_job):
    runs = client.runs()
    assert set(runs) >= {"default", "team-a"}
    default = {r["run"]: r for r in runs["default"]}
    assert default["baseline"]["records"] > 0
    assert default["baseline"]["nnodes"] == 2
    assert default["baseline"]["fingerprint"]
    with pytest.raises(ServeError) as err:
        client.runs(catalog="nope")
    assert err.value.status == 404


# -- progress events over SSE --------------------------------------------------
def test_event_stream_replays_job_history(client, baseline_job):
    events = list(client.events(baseline_job["id"]))
    kinds = [e["event"] for e in events]
    assert kinds[0] == "queued"
    assert "started" in kinds
    assert kinds[-1] == "finished"
    assert [e["id"] for e in events] == list(range(1, len(events) + 1))
    point = next(e for e in events if e["event"] == "point")
    assert point["k"] == 1 and point["n"] == 1
    assert point["run_id"] == "baseline"
    assert point["events_per_sec"] is None or point["events_per_sec"] > 0


def test_event_stream_resumes_after_cursor(client, baseline_job,
                                           sweep_job):
    full = list(client.events(sweep_job["id"]))
    assert sum(1 for e in full if e["event"] == "point") == 2
    resumed = list(client.events(sweep_job["id"], after=full[1]["id"]))
    assert resumed == full[2:]
    # ?after= is the query-string spelling of Last-Event-ID
    status, body, _ = client.request(
        "GET", f"/v1/jobs/{sweep_job['id']}/events?after={full[-1]['id']}")
    assert status == 200 and body is None
    metrics = client.metrics()
    assert metrics["serve.event_streams"]["value"] >= 3
    assert metrics["serve.events_sent"]["value"] >= len(full) + len(resumed)


def test_event_stream_unknown_job_is_404(client):
    with pytest.raises(ServeError) as err:
        list(client.events("job-999999"))
    assert err.value.status == 404


# -- analysis: cached, ETagged, bit-identical ----------------------------------
def test_analysis_matches_trace_cli_bit_for_bit(service, client,
                                                baseline_job, capsys):
    from repro.store.cli import main as trace_main

    answer = client.analysis("baseline", pipeline="metrics")
    assert not answer.from_cache
    assert answer.etag and answer.etag.startswith('"')
    assert answer.payload["pipeline"] == "metrics"

    root = service.root / "catalogs" / "default"
    assert trace_main(["analyze", str(root), "baseline",
                       "--pipelines", "metrics", "--json"]) == 0
    cli_payload = json.loads(capsys.readouterr().out)
    assert answer.result == cli_payload["baseline"]["metrics"]


def test_repeat_analysis_is_304(client, baseline_job):
    first = client.analysis("baseline", pipeline="sizes")
    again = client.analysis("baseline", pipeline="sizes")
    assert not first.from_cache
    assert again.from_cache
    assert again.etag == first.etag
    assert again.result == first.result
    metrics = client.metrics()
    assert metrics["serve.analysis_304s"]["value"] >= 1


def test_analysis_predicates_change_the_etag(client, baseline_job):
    full = client.analysis("baseline")
    reads = client.analysis("baseline", rw="reads")
    assert reads.etag != full.etag
    assert reads.payload["predicates"] == {"write": False}
    assert reads.result["total_requests"] <= full.result["total_requests"]


def test_analysis_errors(client, baseline_job):
    with pytest.raises(ServeError) as err:
        client.analysis("baseline", pipeline="bogus")
    assert err.value.status == 404
    with pytest.raises(ServeError) as err:
        client.analysis("no-such-run")
    assert err.value.status == 404
    with pytest.raises(ServeError) as err:
        client.request("GET", "/v1/analysis/baseline/metrics?rw=sideways")
    assert err.value.status == 400


# -- service plumbing ----------------------------------------------------------
def test_status_endpoint(client, baseline_job):
    status = client.status()
    assert status["server"] == "repro-serve/1"
    assert status["workers"] == 2
    assert status["jobs"]["finished"] >= 1
    assert "default" in status["catalogs"]


def test_request_metrics_are_counted(client):
    client.status()
    metrics = client.metrics()
    assert metrics["serve.requests"]["children"]["get_status"] >= 1
    assert "get_status" in metrics["serve.request_seconds"]["children"]


def test_unrouted_path_is_404(client):
    with pytest.raises(ServeError) as err:
        client.request("GET", "/v2/everything")
    assert err.value.status == 404


# -- durability: the daemon restart test ---------------------------------------
def test_queued_job_survives_daemon_restart(tmp_path):
    root = tmp_path / "serve-root"
    first = ExperimentService(root, workers=0).start()   # accept-only
    client = ServeClient(first.url)
    job = client.submit(scenario=SCENARIO, duration=DURATION)
    cancelled = client.submit(scenario=SCENARIO, duration=DURATION)
    assert client.cancel(cancelled["id"])["state"] == "cancelled"
    first.shutdown()                                     # daemon dies

    second = ExperimentService(root, workers=1).start()
    try:
        client = ServeClient(second.url)
        final = client.wait(job["id"], timeout=120)
        assert final["state"] == "finished"
        assert final["run_ids"] == ["baseline"]
        # the cancelled job stayed cancelled across the restart
        assert client.job(cancelled["id"])["state"] == "cancelled"
    finally:
        second.shutdown()
