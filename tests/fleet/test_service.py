"""Service tests: golden parity, backpressure, metrics, validation."""

from __future__ import annotations

import os
import signal

import pytest

from repro.fleet import (
    FleetConfig,
    FleetError,
    FleetService,
    encode_batch,
    reference_verdicts,
    serve_workload,
)
from repro.fleet.ha import HAConfig

#: Both service modes, for the tests that must hold in each: the plain
#: service (no journal, no heartbeats) and the HA service with failure
#: detection left to the caller.  Looping inside the test keeps one
#: test id per scenario.
SERVICE_MODES = (None, HAConfig(heartbeat_every=None, auto_failover=False))


def metric(result, name, label=None):
    total = 0
    for entry in result.metrics:
        if entry.get("name") != name:
            continue
        if label is not None and entry["labels"].get("shard") != label:
            continue
        total += entry["value"]
    return total


# ----------------------------------------------------------------------
# Golden parity: the non-negotiable
# ----------------------------------------------------------------------
@pytest.mark.parametrize("wire_version", [1, 2])
@pytest.mark.parametrize("n_shards", [1, 2, 3])
def test_golden_parity_across_shard_counts(small_workload, n_shards, wire_version):
    """Streaming through the service yields bit-identical verdict
    sequences to a direct single-process monitor feed — at every shard
    count and both wire versions."""
    jobs, batches = small_workload
    reference = reference_verdicts(jobs, batches)
    for ha in SERVICE_MODES:
        result = serve_workload(
            jobs,
            batches,
            FleetConfig(
                n_shards=n_shards, return_verdicts=True, wire_version=wire_version
            ),
            ha=ha,
        )
        assert result.errors == []
        for job in jobs:
            got = result.verdicts_for(job.job_id)
            want = reference[job.job_id]
            assert len(got) == len(want)
            assert got == want, f"verdicts diverge for job {job.job_id} (ha={ha})"
        assert result.lost_records == 0
        assert result.accounting_ok


def test_golden_parity_with_tiny_queue(small_workload):
    """Queue depth must not affect results under the block policy."""
    jobs, batches = small_workload
    reference = reference_verdicts(jobs, batches)
    result = serve_workload(
        jobs,
        batches,
        FleetConfig(n_shards=2, queue_depth=1, policy="block", return_verdicts=True),
    )
    for job in jobs:
        assert result.verdicts_for(job.job_id) == reference[job.job_id]


@pytest.mark.parametrize("wire_version", [1, 2])
def test_parity_with_pre_encoded_units(small_workload, wire_version):
    """The encode -> peek -> route -> decode path is lossless for JSON
    lines and binary frames alike."""
    jobs, batches = small_workload
    reference = reference_verdicts(jobs, batches)
    units = [encode_batch(batch, version=wire_version) for batch in batches]
    result = serve_workload(
        jobs, units, FleetConfig(n_shards=2, return_verdicts=True)
    )
    for job in jobs:
        assert result.verdicts_for(job.job_id) == reference[job.job_id]


def test_parity_with_coalescing_disabled(small_workload):
    """coalesce=1 degenerates to one-batch-at-a-time scoring; verdicts
    must not depend on how the worker groups its wake-ups."""
    jobs, batches = small_workload
    reference = reference_verdicts(jobs, batches)
    result = serve_workload(
        jobs,
        batches,
        FleetConfig(n_shards=2, return_verdicts=True, wire_version=2, coalesce=1),
    )
    for job in jobs:
        assert result.verdicts_for(job.job_id) == reference[job.job_id]


def test_config_rejects_bad_wire_version_and_coalesce():
    with pytest.raises(FleetError, match="wire version"):
        FleetConfig(wire_version=3)
    with pytest.raises(FleetError, match="coalesce"):
        FleetConfig(coalesce=0)


def test_config_rejects_non_positive_quiet_gap():
    with pytest.raises(FleetError, match="quiet_gap"):
        FleetConfig(quiet_gap=0)


# ----------------------------------------------------------------------
# Backpressure
# ----------------------------------------------------------------------
def test_block_policy_never_loses_records(small_workload):
    jobs, batches = small_workload
    for ha in SERVICE_MODES:
        result = serve_workload(
            jobs, batches, FleetConfig(n_shards=2, queue_depth=2, policy="block"), ha=ha
        )
        assert result.shed_records == 0
        assert result.processed_records == result.submitted_records
        assert result.processed_batches == len(batches)
        assert result.lost_records == 0
        assert result.accounting_ok


def test_shed_oldest_counts_drops_and_completes(small_workload):
    """A one-deep queue forces shedding; the run still completes, every
    drop is counted, and accounting balances exactly."""
    jobs, batches = small_workload
    for ha in SERVICE_MODES:
        result = serve_workload(
            jobs,
            batches,
            FleetConfig(n_shards=1, queue_depth=1, policy="shed-oldest"),
            ha=ha,
        )
        assert result.shed_records > 0
        assert result.processed_records + result.shed_records == result.submitted_records
        assert metric(result, "fleet.shed_records") == result.shed_records
        assert result.lost_records == 0
        assert result.accounting_ok


def test_shed_never_drops_job_registrations(small_workload):
    """Control messages survive shedding: every job's monitor exists, so
    no batch lands in the unknown-job counter."""
    jobs, batches = small_workload
    result = serve_workload(
        jobs,
        batches,
        FleetConfig(n_shards=1, queue_depth=1, policy="shed-oldest"),
    )
    assert metric(result, "fleet.unknown_job_batches") == 0


def test_config_validation():
    with pytest.raises(FleetError):
        FleetConfig(n_shards=0)
    with pytest.raises(FleetError):
        FleetConfig(queue_depth=0)
    with pytest.raises(FleetError):
        FleetConfig(policy="drop-newest")


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def test_fleet_metrics_snapshot(small_workload):
    jobs, batches = small_workload
    result = serve_workload(jobs, batches, FleetConfig(n_shards=2))
    total_records = sum(batch.n_records for batch in batches)
    assert metric(result, "fleet.records") == total_records
    assert metric(result, "fleet.batches") == len(batches)
    assert metric(result, "fleet.submitted_records") == total_records
    # per-shard detection latency histograms made it across the process
    # boundary and cover every batch
    latency = [
        entry
        for entry in result.metrics
        if entry.get("name") == "fleet.detection_latency_s"
    ]
    assert len(latency) == 2
    assert sum(entry["count"] for entry in latency) == len(batches)
    assert all(entry["sum"] >= 0.0 for entry in latency)
    # queue depth was sampled at the frontend
    depth_samples = [
        entry
        for entry in result.metrics
        if entry.get("name") == "fleet.queue_depth_samples"
    ]
    assert depth_samples and depth_samples[0]["count"] == len(batches)


# ----------------------------------------------------------------------
# Validation and incidents
# ----------------------------------------------------------------------
def test_validation_against_ground_truth(small_workload):
    jobs, batches = small_workload
    result = serve_workload(jobs, batches, FleetConfig(n_shards=2))
    validation = result.validate()
    assert validation.checked == len(jobs)
    assert validation.ok, (validation.missed, validation.false_alarms)
    faulted = {job.job_id for job in jobs if job.faulted}
    assert {incident.job_id for incident in result.incidents} == faulted


def test_incidents_deduplicate_iterations(small_workload):
    """A persistent fault alarms many iterations but yields one incident
    per (job, link), with the span rolled up."""
    jobs, batches = small_workload
    result = serve_workload(jobs, batches, FleetConfig(n_shards=2))
    keys = [(incident.job_id, incident.link) for incident in result.incidents]
    assert len(keys) == len(set(keys))
    assert any(incident.n_iterations > 1 for incident in result.incidents)
    for incident in result.incidents:
        assert incident.first_seen <= incident.last_seen
        assert incident.worst_deviation < 0  # deficits are negative


def test_faulted_job_incident_names_the_injected_link(small_workload):
    jobs, batches = small_workload
    result = serve_workload(jobs, batches, FleetConfig(n_shards=2))
    for job in jobs:
        if job.faulted:
            links = {incident.link for incident in result.incidents_for(job.job_id)}
            assert job.fault_link in links


def test_incident_log_lifecycle(small_workload):
    jobs, batches = small_workload
    result = serve_workload(jobs, batches, FleetConfig(n_shards=2))
    log = result.incident_log
    assert log is not None
    opened = log.of_type("incident.opened")
    closed = log.of_type("incident.closed")
    assert len(opened) == len(result.incidents)
    assert len(closed) == len(result.incidents)


# ----------------------------------------------------------------------
# Protocol robustness
# ----------------------------------------------------------------------
def test_unknown_job_batches_counted_not_fatal(small_workload):
    jobs, batches = small_workload
    stranger = [batch for batch in batches if batch.job_id == jobs[0].job_id]
    result = serve_workload(jobs[1:], stranger + batches[:0], FleetConfig(n_shards=1))
    assert metric(result, "fleet.unknown_job_batches") == len(stranger)
    assert result.errors == []


def test_malformed_line_reported_not_fatal(small_workload):
    jobs, batches = small_workload
    service = FleetService(FleetConfig(n_shards=1))
    with service:
        for job in jobs:
            service.submit_job(job)
        # declares two records but carries none: decodes must fail in the
        # worker, be reported, and not take the shard down
        service.submit_encoded('["fprec",1,"b",%d,2,0,"allreduce",[]]' % jobs[0].job_id)
        for batch in batches[:3]:
            service.submit(batch)
    result = service.result
    assert result.processed_batches == 3  # the good ones still flowed
    assert len(result.errors) == 1
    assert metric(result, "fleet.worker_errors") == 1


def test_submit_before_start_raises(small_workload):
    jobs, batches = small_workload
    service = FleetService(FleetConfig(n_shards=1))
    with pytest.raises(FleetError, match="not started"):
        service.submit(batches[0])
    with pytest.raises(FleetError, match="not started"):
        service.submit_job(jobs[0])


def test_failover_and_pin_need_ha(small_workload):
    """Without an HAConfig there is no journal to replay: the
    availability operations refuse instead of losing records."""
    jobs, _batches = small_workload
    service = FleetService(FleetConfig(n_shards=2))
    with service:
        for job in jobs:
            service.submit_job(job)
        with pytest.raises(FleetError, match="ha=HAConfig"):
            service.failover(0)
        with pytest.raises(FleetError, match="ha=HAConfig"):
            service.pin_job(jobs[0].job_id, 1)
        assert service.epoch == 1


def test_blocking_submit_to_dead_full_shard_raises(small_workload):
    """A SIGKILLed shard never drains its inbox; without HA nothing can
    fail it over, so a blocking submit must raise, not hang."""
    jobs, batches = small_workload
    service = FleetService(FleetConfig(n_shards=1, queue_depth=1))
    service.start()
    try:
        for job in jobs:
            service.submit_job(job)
        worker = service._workers[0]
        os.kill(worker.pid, signal.SIGKILL)
        worker.join(timeout=10.0)
        with pytest.raises(FleetError, match="died with a full inbox"):
            for batch in batches:
                service.submit(batch)
    finally:
        service._abort()
