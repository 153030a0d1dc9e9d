"""Live resharding: grow/shrink the pool mid-run without losing work.

The invariant under any sequence of grows and shrinks:
``processed + shed == submitted`` (counted in unique records), verdict
parity with the uninterrupted reference, and minimal movement — only
jobs whose ring owner actually changed are handed off.
"""

from __future__ import annotations

import pytest

from repro.fleet import FleetConfig, FleetService, reference_verdicts
from repro.fleet.ha import HAConfig, grow, shrink
from repro.fleet.shard import FleetError


def ha_service(n_shards: int) -> FleetService:
    return FleetService(
        FleetConfig(n_shards=n_shards, return_verdicts=True),
        ha=HAConfig(heartbeat_every=None, auto_failover=False),
    )


def assert_parity(result, jobs, batches):
    reference = reference_verdicts(jobs, batches)
    for job in jobs:
        assert result.verdicts_for(job.job_id) == reference[job.job_id]
    assert result.lost_records == 0
    assert result.accounting_ok


def test_grow_mid_run_preserves_parity(small_workload):
    jobs, batches = small_workload
    service = ha_service(2)
    with service:
        for job in jobs:
            service.submit_job(job)
        third = len(batches) // 3
        for batch in batches[:third]:
            service.submit(batch)
        report = grow(service, n_new=1)
        assert report.shards_before == (0, 1)
        assert report.shards_after == (0, 1, 2)
        assert report.epoch_after == report.epoch_before + 1
        for batch in batches[third:]:
            service.submit(batch)
    assert_parity(service.result, jobs, batches)


def test_shrink_mid_run_preserves_parity(small_workload):
    jobs, batches = small_workload
    service = ha_service(3)
    with service:
        for job in jobs:
            service.submit_job(job)
        half = len(batches) // 2
        for batch in batches[:half]:
            service.submit(batch)
        report = shrink(service, 1)
        assert report.shards_after == (0, 2)
        assert sorted(service._live_shards) == [0, 2]
        for batch in batches[half:]:
            service.submit(batch)
    assert_parity(service.result, jobs, batches)
    assert service.result.epoch == 2


def test_grow_then_shrink_round_trip(small_workload):
    jobs, batches = small_workload
    service = ha_service(2)
    with service:
        for job in jobs:
            service.submit_job(job)
        third = len(batches) // 3
        for batch in batches[:third]:
            service.submit(batch)
        grow(service, n_new=2)  # 2 -> 4
        for batch in batches[third : 2 * third]:
            service.submit(batch)
        shrink(service, 0)  # 4 -> 3, retire an original shard
        for batch in batches[2 * third :]:
            service.submit(batch)
    result = service.result
    assert_parity(result, jobs, batches)
    assert result.epoch == 3
    reports = service.ha_log.of_type("ha.reshard")
    assert [event["reason"] for event in reports] == ["grow:+2", "shrink:0"]


def test_grow_moves_only_jobs_whose_owner_changed(small_workload):
    """Minimal movement: consistent hashing means growing the pool only
    hands off jobs the wider ring actually assigns to a new owner."""
    jobs, _batches = small_workload
    service = ha_service(2)
    with service:
        for job in jobs:
            service.submit_job(job)
        before = {job.job_id: service._route(job.job_id) for job in jobs}
        report = grow(service, n_new=1)
        after = {job.job_id: service._route(job.job_id) for job in jobs}
        changed = {j for j in before if before[j] != after[j]}
        assert set(report.moved_jobs) == changed
        # Every move lands on the new shard — survivors never swap
        # jobs among themselves.
        assert all(after[j] == 2 for j in changed)


def test_shrink_moves_exactly_the_retirees_jobs(small_workload):
    jobs, _batches = small_workload
    service = ha_service(3)
    with service:
        for job in jobs:
            service.submit_job(job)
        owned = sorted(
            job.job_id for job in jobs if service._route(job.job_id) == 2
        )
        report = shrink(service, 2)
        assert sorted(report.moved_jobs) == owned


def test_shrink_rejects_last_shard_and_unknown_shard(small_workload):
    jobs, _batches = small_workload
    service = ha_service(2)
    with service:
        for job in jobs:
            service.submit_job(job)
        with pytest.raises(FleetError):
            shrink(service, 9)
        shrink(service, 1)
        with pytest.raises(FleetError):
            shrink(service, 0)


def test_grow_requires_positive_count(small_workload):
    service = ha_service(2)
    with service:
        with pytest.raises(FleetError):
            grow(service, n_new=0)


def test_reshard_report_accounting(small_workload):
    jobs, batches = small_workload
    service = ha_service(2)
    with service:
        for job in jobs:
            service.submit_job(job)
        for batch in batches[: len(batches) // 2]:
            service.submit(batch)
        report = grow(service, n_new=1)
        assert report.moved == len(report.moved_jobs)
        if report.moved:
            # Moved jobs had journaled history: the handoff replayed it.
            assert report.replayed_units > 0
        else:
            assert report.replayed_units == 0
        for batch in batches[len(batches) // 2 :]:
            service.submit(batch)
    assert_parity(service.result, jobs, batches)
