"""HA fleet: failover parity — the subsystem's load-bearing guarantee.

Killing any single shard worker mid-run must yield bit-identical
:class:`IterationVerdict` sequences and an identical incident rollup
(no duplicates, no gaps) versus an uninterrupted run on the same seed,
with zero lost records.  The kill is deterministic: SIGKILL a chosen
shard after a chosen fraction of the stream, then an explicit
``check_health`` drives detection and journal replay.
"""

from __future__ import annotations

import os
import signal
import threading
import time

import pytest

from repro.fleet import FleetConfig, FleetService, reference_verdicts, transport
from repro.fleet.ha import HAConfig, HeartbeatMonitor
from repro.fleet.shard import FleetError


def ha_service(n_shards: int, **ha_overrides) -> FleetService:
    """An HA service tuned for deterministic tests: no wall-clock
    failure detection, health checks driven explicitly."""
    defaults = dict(heartbeat_every=None, auto_failover=False)
    defaults.update(ha_overrides)
    return FleetService(
        FleetConfig(n_shards=n_shards, return_verdicts=True),
        ha=HAConfig(**defaults),
    )


def incident_rollup(result) -> list[dict]:
    return [incident.to_event() for incident in result.incidents]


def run_with_kill(jobs, batches, n_shards: int, victim: int, kill_at: int):
    """Stream the workload, SIGKILL ``victim`` after ``kill_at``
    batches, fail over, and finish the stream."""
    service = ha_service(n_shards)
    service.start()
    try:
        for job in jobs:
            service.submit_job(job)
        for batch in batches[:kill_at]:
            service.submit(batch)
        worker = service._workers[victim]
        os.kill(worker.pid, signal.SIGKILL)
        worker.join(timeout=10.0)
        recovered = service.check_health()
        assert recovered == [victim]
        for batch in batches[kill_at:]:
            service.submit(batch)
    except BaseException:
        service._abort()
        raise
    return service.close()


@pytest.mark.parametrize("n_shards", [2, 3])
def test_killing_any_shard_preserves_verdict_and_incident_parity(
    n_shards, small_workload
):
    """The acceptance criterion: for shard counts 2 and 3, kill *each*
    shard in turn mid-stream and compare against the uninterrupted
    reference."""
    jobs, batches = small_workload
    reference = reference_verdicts(jobs, batches)
    for victim in range(n_shards):
        result = run_with_kill(
            jobs, batches, n_shards, victim=victim, kill_at=len(batches) // 2
        )
        assert result.failovers == 1
        assert result.errors == []
        for job in jobs:
            assert result.verdicts_for(job.job_id) == reference[job.job_id], (
                f"verdict divergence for job {job.job_id} after killing "
                f"shard {victim}/{n_shards}"
            )
        assert result.lost_records == 0
        assert result.accounting_ok


def test_incident_rollup_identical_after_failover(small_workload):
    """No duplicate ``incident.opened``, no gaps: the full incident
    lifecycle (rollups and reopened counters) matches an uninterrupted
    run exactly."""
    jobs, batches = small_workload
    service = ha_service(2)
    with service:
        for job in jobs:
            service.submit_job(job)
        for batch in batches:
            service.submit(batch)
    undisturbed = service.result
    disturbed = run_with_kill(jobs, batches, 2, victim=1, kill_at=len(batches) // 3)
    assert incident_rollup(disturbed) == incident_rollup(undisturbed)
    opened = disturbed.incident_log.of_type("incident.opened")
    keys = [(event["job_id"], event["link"]) for event in opened]
    assert len(keys) == len(set(keys)), "duplicate incident.opened after replay"
    assert disturbed.validate().ok


def test_failover_replays_the_dead_shards_journal(small_workload):
    jobs, batches = small_workload
    result = run_with_kill(jobs, batches, 2, victim=0, kill_at=len(batches))
    # Killed after the whole stream: everything queued on the victim
    # that had not been scored yet was recovered through the journal.
    assert result.failovers == 1
    assert result.replayed_records > 0
    assert result.epoch == 2
    assert result.lost_records == 0


def test_failover_replay_into_a_full_pipe_does_not_hang(small_workload, monkeypatch):
    """Journal replay must keep draining survivor output while it
    waits on a full inbox.  With 4 KiB outbox pipes and 4-deep inboxes,
    the survivor soon blocks writing replayed verdicts; a replay put
    that stops reading then waits forever on the survivor's inbox."""
    monkeypatch.setattr(transport, "PIPE_CAPACITY", 4096)
    jobs, batches = small_workload
    reference = reference_verdicts(jobs, batches)
    service = FleetService(
        FleetConfig(n_shards=2, return_verdicts=True, queue_depth=4),
        ha=HAConfig(heartbeat_every=None, auto_failover=False),
    )
    service.start()
    try:
        for job in jobs:
            service.submit_job(job)
        for batch in batches:
            service.submit(batch)
        deadline = time.monotonic() + 30.0
        while sum(len(v) for v in service.verdicts.values()) < len(batches):
            assert time.monotonic() < deadline, "the stream never drained"
            if service.poll() == 0:
                time.sleep(0.001)
        worker = service._workers[1]
        os.kill(worker.pid, signal.SIGKILL)
        worker.join(timeout=10.0)
        replay = threading.Thread(target=service.failover, args=(1,), daemon=True)
        replay.start()
        replay.join(timeout=30.0)
        assert not replay.is_alive(), "failover hung replaying the journal"
    except BaseException:
        service._abort()
        raise
    result = service.close()
    assert result.failovers == 1
    for job in jobs:
        assert result.verdicts_for(job.job_id) == reference[job.job_id]
    assert result.lost_records == 0
    assert result.accounting_ok


def test_process_exit_detected_by_check_health(small_workload):
    jobs, batches = small_workload
    service = ha_service(2)
    with service:
        for job in jobs:
            service.submit_job(job)
        assert service.check_health() == []
        worker = service._workers[1]
        os.kill(worker.pid, signal.SIGKILL)
        worker.join(timeout=10.0)
        assert service.check_health() == [1]
        assert service.epoch == 2
        assert sorted(service._live_shards) == [0]
        for batch in batches:
            service.submit(batch)
    assert service.result.validate().ok
    assert service.result.lost_records == 0


def test_auto_failover_recovers_during_submit(small_workload):
    """With auto_failover on, the ingest path itself detects the dead
    worker (poll-side health check) and ingest never wedges."""
    jobs, batches = small_workload
    service = FleetService(
        FleetConfig(n_shards=2, return_verdicts=True, queue_depth=4),
        ha=HAConfig(heartbeat_every=None, auto_failover=True, dispatch_retry_s=0.05),
    )
    reference = reference_verdicts(jobs, batches)
    with service:
        for job in jobs:
            service.submit_job(job)
        os.kill(service._workers[0].pid, signal.SIGKILL)
        service._workers[0].join(timeout=10.0)
        for batch in batches:
            service.submit(batch)
    result = service.result
    assert result.failovers == 1
    assert result.lost_records == 0
    for job in jobs:
        assert result.verdicts_for(job.job_id) == reference[job.job_id]


def test_cannot_fail_over_the_last_shard(small_workload):
    jobs, _batches = small_workload
    service = ha_service(2)
    with service:
        for job in jobs:
            service.submit_job(job)
        service.failover(0, reason="test")
        with pytest.raises(FleetError):
            service.failover(1, reason="test")


def test_failover_of_non_live_shard_rejected(small_workload):
    service = ha_service(2)
    with service:
        with pytest.raises(FleetError):
            service.failover(7)


def test_ha_events_record_the_failover(small_workload):
    jobs, batches = small_workload
    service = ha_service(2)
    with service:
        for job in jobs:
            service.submit_job(job)
        for batch in batches[: len(batches) // 2]:
            service.submit(batch)
        service.failover(0, reason="drill")
    events = service.ha_log.of_type("ha.failover")
    assert len(events) == 1
    assert events[0]["shard"] == 0
    assert events[0]["reason"] == "drill"
    assert events[0]["epoch"] == 2
    views = service.ha_log.of_type("ha.view_committed")
    assert [event["epoch"] for event in views] == [1, 2]


def test_pin_job_overrides_the_ring_and_hands_off(small_workload):
    jobs, batches = small_workload
    reference = reference_verdicts(jobs, batches)
    service = ha_service(2)
    with service:
        for job in jobs:
            service.submit_job(job)
        half = len(batches) // 2
        for batch in batches[:half]:
            service.submit(batch)
        target_job = jobs[0].job_id
        old = service._route(target_job)
        new = 1 - old
        view = service.pin_job(target_job, new)
        assert view.pin_map[target_job] == new
        assert service._route(target_job) == new
        for batch in batches[half:]:
            service.submit(batch)
    result = service.result
    assert result.lost_records == 0
    for job in jobs:
        assert result.verdicts_for(job.job_id) == reference[job.job_id]


# ----------------------------------------------------------------------
# Heartbeat monitor (pure bookkeeping)
# ----------------------------------------------------------------------
def test_heartbeat_monitor_counts_missed_intervals():
    monitor = HeartbeatMonitor(interval=1.0, miss_limit=3)
    monitor.watch(0, now=100.0)
    assert monitor.misses(0, now=100.5) == 0
    assert monitor.misses(0, now=102.5) == 2
    monitor.beat(0, seq=1, now=102.0)
    assert monitor.misses(0, now=102.5) == 0
    assert monitor.overdue(now=105.5) == [0]
    monitor.unwatch(0)
    assert monitor.overdue(now=200.0) == []


def test_heartbeat_monitor_ignores_stale_beats():
    monitor = HeartbeatMonitor(interval=1.0, miss_limit=2)
    monitor.watch(0, now=100.0)
    monitor.beat(0, seq=2, now=105.0)
    monitor.beat(0, seq=1, now=101.0)  # late arrival must not rewind
    assert monitor.misses(0, now=105.5) == 0
    monitor.beat(7, seq=1, now=105.0)  # unwatched shard: ignored
    assert monitor.misses(7, now=200.0) == 0


def test_heartbeat_timeout_triggers_failover(small_workload):
    """A worker that stops beating (but has not exited) is declared
    dead once ``miss_limit`` intervals pass."""
    jobs, batches = small_workload
    service = FleetService(
        FleetConfig(n_shards=2, return_verdicts=True),
        ha=HAConfig(heartbeat_every=0.05, miss_limit=3, auto_failover=False),
    )
    with service:
        for job in jobs:
            service.submit_job(job)
        # A clock far in the future makes every live worker overdue;
        # the detector must terminate and recover exactly one (the
        # first), after which only one shard remains and the second
        # cannot be failed over.
        deadline = time.time() + 3600.0
        recovered = service.check_health(now=deadline)
        assert recovered == [0]
        for batch in batches:
            service.submit(batch)
    assert service.result.failovers == 1
    assert service.result.validate().ok


def test_result_ledger_shapes(small_workload):
    jobs, batches = small_workload
    service = ha_service(3)
    with service:
        for job in jobs:
            service.submit_job(job)
        for batch in batches:
            service.submit(batch)
    result = service.result
    assert result.epoch == 1
    assert result.failovers == 0
    assert result.duplicate_verdicts == 0
    assert result.fenced_messages == 0
    assert result.processed_unique_records == result.submitted_records
    assert result.shed_unique_records == 0
    assert result.lost_records == 0
    assert result.accounting_ok
