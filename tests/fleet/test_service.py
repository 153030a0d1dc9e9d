"""Service tests: golden parity, backpressure, metrics, validation."""

from __future__ import annotations

import dataclasses
import io
import os
import signal

import pytest

from repro.fleet import (
    CodecError,
    FleetConfig,
    FleetError,
    FleetService,
    JobConfig,
    StreamDecoder,
    UnsupportedVersionError,
    encode_batch,
    read_fprec,
    reference_verdicts,
    serve_workload,
)
from repro.fleet.ha import HAConfig

from .legacy_v1 import v1_batch_line

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


def v1_capture(batches) -> bytes:
    """The batches as an old v1 ``.fprec`` capture stream."""
    return b"".join(v1_batch_line(batch).encode() + b"\n" for batch in batches)


# ----------------------------------------------------------------------
# Golden parity: the non-negotiable
# ----------------------------------------------------------------------
@pytest.mark.parametrize("capture_version", [1, 2])
@pytest.mark.parametrize("n_shards", [1, 2, 3])
def test_golden_parity_across_shard_counts(small_workload, n_shards, capture_version):
    """Streaming through the service yields bit-identical verdict
    sequences to a direct single-process monitor feed — at every shard
    count, for fresh batches and for batches read back from an old v1
    capture."""
    jobs, batches = small_workload
    reference = reference_verdicts(jobs, batches)
    if capture_version == 1:
        served = read_fprec(io.BytesIO(v1_capture(batches))).batches
    else:
        served = batches
    for ha in SERVICE_MODES:
        result = serve_workload(
            jobs, served, FleetConfig(n_shards=n_shards, return_verdicts=True), ha=ha
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


@pytest.mark.parametrize("capture_version", [1, 2])
def test_parity_with_pre_encoded_units(small_workload, capture_version):
    """The encode -> peek -> route -> decode path is lossless for v2
    frames, written directly or converted at the edge from v1 lines."""
    jobs, batches = small_workload
    reference = reference_verdicts(jobs, batches)
    if capture_version == 1:
        decoder = StreamDecoder(raw=True)
        units = [frame for _kind, frame in decoder.feed(v1_capture(batches))]
        assert decoder.finish() == []
    else:
        units = [encode_batch(batch) for batch in batches]
    assert all(isinstance(unit, bytes) for unit in units)
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
        FleetConfig(n_shards=2, return_verdicts=True, coalesce=1),
    )
    for job in jobs:
        assert result.verdicts_for(job.job_id) == reference[job.job_id]


def test_config_rejects_bad_wire_version_and_coalesce():
    for version in (1, 3):
        with pytest.raises(UnsupportedVersionError, match="v1 is decode-only"):
            FleetConfig(wire_version=version)
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
    frame = bytearray(encode_batch(batches[0]))
    # A valid header over corrupt columns (an unknown value flag): only
    # the full decode in the worker can tell, so it must fail there, be
    # reported, and not take the shard down.
    frame[-1] = 0x7F
    service = FleetService(FleetConfig(n_shards=1))
    with service:
        for job in jobs:
            service.submit_job(job)
        service.submit_encoded(bytes(frame))
        for batch in batches[1:4]:
            service.submit(batch)
    result = service.result
    assert result.processed_batches == 3  # the good ones still flowed
    assert len(result.errors) == 1
    assert metric(result, "fleet.worker_errors") == 1
    # The rejected unit is settled, not lost: the ledger still balances.
    assert result.lost_records == 0
    assert result.accounting_ok
    assert result.rejected_unique_records == batches[0].n_records


def test_failing_job_registration_reported_not_fatal(small_workload):
    """A job whose monitor cannot be built fails inside the worker's
    control-message handling: it is reported, and the shard keeps
    serving the other jobs through to a clean shutdown."""
    jobs, batches = small_workload
    broken = dataclasses.replace(
        jobs[0].experiment, job_id=max(job.job_id for job in jobs) + 1
    )
    # Past validation on purpose: only the worker's monitor build sees it.
    object.__setattr__(broken, "n_spines", 0)
    service = FleetService(FleetConfig(n_shards=1))
    with service:
        service.submit_job(JobConfig(job_id=broken.job_id, experiment=broken))
        for job in jobs:
            service.submit_job(job)
        for batch in batches:
            service.submit(batch)
    result = service.result
    assert len(result.errors) == 1
    assert "need at least one spine" in result.errors[0]
    assert metric(result, "fleet.worker_errors") == 1
    assert metric(result, "fleet.jobs") == len(jobs)
    assert result.processed_batches == len(batches)
    assert result.lost_records == 0
    assert result.accounting_ok


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


def test_submit_encoded_rejects_v1_lines(small_workload):
    """Past the edge the fleet carries v2 frames only: a v1 line is
    refused at submit, before anything is journaled or counted."""
    jobs, batches = small_workload
    service = FleetService(
        FleetConfig(n_shards=1), ha=HAConfig(heartbeat_every=None, auto_failover=False)
    )
    with service:
        for job in jobs:
            service.submit_job(job)
        for submit in (service.submit_encoded, service.try_submit_encoded):
            with pytest.raises(CodecError, match="v1 lines are decoded at the edge"):
                submit(v1_batch_line(batches[0]))
        with pytest.raises(CodecError):
            service.journal.append(0, v1_batch_line(batches[0]))
    result = service.result
    assert result.submitted_batches == 0
    assert result.lost_records == 0
    assert result.accounting_ok
    with pytest.raises(CodecError):
        serve_workload(jobs, [v1_batch_line(batches[0])], FleetConfig(n_shards=1))


def _doctored_headers(frame: bytes) -> dict[str, bytes]:
    flags = bytearray(frame)
    flags[6] = 1  # reserved flags must be zero
    empty = bytearray(frame)
    empty[28:32] = bytes(4)  # n_records must be positive
    return {"reserved frame flags": bytes(flags), "empty": bytes(empty)}


@pytest.mark.parametrize("defect", ["reserved frame flags", "empty"])
def test_malformed_frame_header_rejected_at_ingest(small_workload, defect):
    """The ingest peek checks every header field the worker's decode
    does, so a bad header is refused at submit instead of being counted
    and then lost in the worker."""
    jobs, batches = small_workload
    bad = _doctored_headers(encode_batch(batches[0]))[defect]
    service = FleetService(FleetConfig(n_shards=1))
    with service:
        for job in jobs:
            service.submit_job(job)
        with pytest.raises(CodecError, match=defect):
            service.submit_encoded(bad)
        assert service.try_submit_encoded(encode_batch(batches[0]))
        with pytest.raises(CodecError, match=defect):
            service.try_submit_encoded(bad)
    result = service.result
    assert result.errors == []
    assert result.submitted_batches == 1
    assert result.processed_batches == 1
    assert result.lost_records == 0
    assert result.accounting_ok
