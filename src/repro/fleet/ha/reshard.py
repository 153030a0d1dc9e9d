"""Live resharding: grow or shrink the worker pool mid-run.

Both directions ride the same machinery as failover — a coordinator
view commit (epoch bump) changes the routes, and journal replay moves
each affected job's complete history to its new owner — but with a
*live* source, so nothing is ever at risk:

- :func:`grow` spawns fresh workers first, commits the wider view, and
  hands off exactly the jobs the consistent-hash ring moves (about
  ``moved/new`` of the total, the virtual-replica minimal-movement
  property).  Old owners are told to ``forget`` the moved monitors
  after the handoff.
- :func:`shrink` commits the narrower view first (so no new traffic
  routes to the retiring shard), replays the retiree's journal into the
  survivors, then stops the retiree gracefully and waits for its final
  drain — any verdicts it produced for queued pre-commit batches are
  deduplicated against the replayed ones, both being bit-identical.

The ``processed + shed == submitted`` conservation law holds across
the epoch boundary because the service settles its in-flight ledger by
``(job, iteration)``, not by shard: whichever owner delivers an
iteration first settles it, and the duplicate is dropped.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..shard import FleetError

if TYPE_CHECKING:
    from ..service import FleetService


@dataclass(frozen=True)
class ReshardReport:
    """What one grow/shrink operation did."""

    reason: str
    epoch_before: int
    epoch_after: int
    shards_before: tuple[int, ...]
    shards_after: tuple[int, ...]
    moved_jobs: tuple[int, ...]
    replayed_units: int
    replayed_records: int

    @property
    def moved(self) -> int:
        return len(self.moved_jobs)


def grow(service: FleetService, n_new: int = 1) -> ReshardReport:
    """Add ``n_new`` workers to a running HA fleet and hand over the
    jobs the wider consistent-hash ring reassigns to them."""
    service._require_ha("grow")
    if n_new < 1:
        raise FleetError("grow needs at least one new shard")
    epoch_before = service.epoch
    shards_before = tuple(sorted(service._live_shards))
    old_routes = {job_id: service._route(job_id) for job_id in service.jobs}
    for _ in range(n_new):
        service._spawn_worker(len(service._inboxes))
    view = service.coordinator.commit(
        shards=sorted(service._live_shards),
        pins=service.view.pins,
        reason=f"grow:+{n_new}",
    )
    service._broadcast_epoch(view)
    moved_by_source: dict[int, set[int]] = {}
    for job_id, source in old_routes.items():
        if service._route(job_id) != source:
            moved_by_source.setdefault(source, set()).add(job_id)
    units = records = 0
    for source in sorted(moved_by_source):
        replayed_units, replayed_records = service._replay_journal(
            source, moved_by_source[source], forget=True
        )
        units += replayed_units
        records += replayed_records
    return _report(
        service,
        reason=f"grow:+{n_new}",
        epoch_before=epoch_before,
        shards_before=shards_before,
        moved_by_source=moved_by_source,
        units=units,
        records=records,
    )


def shrink(service: FleetService, shard_id: int) -> ReshardReport:
    """Retire one live worker from a running HA fleet: move its jobs to
    the survivors (journal-checkpointed handoff), then drain and stop it."""
    service._require_ha("shrink")
    epoch_before = service.epoch
    shards_before = tuple(sorted(service._live_shards))
    # New routes first: no fresh traffic may land on the retiree while
    # its journal is being replayed, or the replay would be incomplete.
    view, moved = service._commit_without(shard_id, f"shrink:{shard_id}")
    units, records = service._replay_journal(shard_id, moved)
    # Graceful retirement: the stop barrier flushes anything still
    # queued (its verdicts dedup against the replayed ones), then the
    # worker ships its metrics and exits.
    service._put_draining(shard_id, ("stop",))
    service._await_stopped({shard_id})
    service._retire_shard(shard_id)
    service._broadcast_epoch(view)
    return _report(
        service,
        reason=f"shrink:{shard_id}",
        epoch_before=epoch_before,
        shards_before=shards_before,
        moved_by_source={shard_id: moved},
        units=units,
        records=records,
    )


def _report(
    service: FleetService,
    reason: str,
    epoch_before: int,
    shards_before: tuple[int, ...],
    moved_by_source: dict[int, set[int]],
    units: int,
    records: int,
) -> ReshardReport:
    moved_jobs = tuple(
        sorted(job for jobs in moved_by_source.values() for job in jobs)
    )
    report = ReshardReport(
        reason=reason,
        epoch_before=epoch_before,
        epoch_after=service.epoch,
        shards_before=shards_before,
        shards_after=tuple(sorted(service._live_shards)),
        moved_jobs=moved_jobs,
        replayed_units=units,
        replayed_records=records,
    )
    service.ha_log.emit(
        "ha.reshard",
        reason=reason,
        epoch_before=epoch_before,
        epoch_after=report.epoch_after,
        shards=list(report.shards_after),
        moved_jobs=list(moved_jobs),
        replayed_units=units,
        replayed_records=records,
    )
    service.registry.counter("ha.reshards").inc()
    return report
