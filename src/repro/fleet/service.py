"""The fleet service: sharded streaming monitoring of many jobs.

:class:`FleetService` is the serving layer over everything below it:
records arrive as encoded v2 frames (:mod:`repro.fleet.codec`), are
routed by consistent hash (:mod:`repro.fleet.shard`) to a pool of
worker processes each owning the monitors of its jobs, and triggered
verdicts flow back to the parent where the aggregator
(:mod:`repro.fleet.aggregate`) collapses them into incidents.

Backpressure is explicit.  Every shard's inbox is a bounded queue;
``policy`` selects what happens when a flood outruns the workers:

``"block"``
    ``submit`` blocks until the shard drains — no record is ever lost,
    ingest slows to detection speed.
``"shed-oldest"``
    the oldest queued batch is evicted to make room for the new one —
    ingest never stalls, and every shed record is counted in the
    ``fleet.shed_records`` metric (control messages are never shed).

Golden parity: a job streamed through the service produces bit-identical
:class:`~repro.core.monitor.IterationVerdict` sequences to feeding the
same records directly into its monitor (:func:`reference_verdicts`),
for any shard count, batch order interleaving, or queue depth — per-job
order is preserved because a job maps to exactly one shard FIFO.  (Shed
mode trades this away by design: dropped records are dropped.)

Routing reads the view a
:class:`~repro.fleet.ha.coordinator.ReplicatedCoordinator` committed,
and every unit opens a ``(job, iteration)`` ledger entry, so
:attr:`FleetResult.accounting_ok` holds for every run.  An
:class:`~repro.fleet.ha.failover.HAConfig` adds the journal, heartbeats
and failover of :mod:`repro.fleet.ha.failover`.
"""

from __future__ import annotations

import functools
import multiprocessing
import os
import queue as queue_module
import time
from dataclasses import dataclass

from ..core.monitor import IterationVerdict
from ..telemetry.events import EventLog
from ..telemetry.registry import MetricsRegistry
from .aggregate import DEFAULT_QUIET_GAP, FleetAggregator, Incident
from .codec import (
    FPREC_VERSION_BINARY,
    JobConfig,
    RecordBatch,
    decode_job,
    encode_batch,
    encode_job,
    peek_batch_tag,
    require_frame,
    require_write_version,
)
from .ha.coordinator import ReplicatedCoordinator, View
from .ha.failover import HAConfig, HeartbeatMonitor, ShardJournal
from .shard import FleetError, ShardAssignment, ShardRouter, build_monitor, shard_worker
from .transport import OutboxReader, new_outbox_pipe

#: How long ``close`` waits for a single outbox message before declaring
#: the drain wedged (a worker died without its "done").
DRAIN_TIMEOUT_S = 120.0

#: Submit drains the outbox every this many batches (amortizes the
#: zero-timeout select() behind ``Queue.get_nowait``).
POLL_EVERY = 16

#: Consistent-hash points per shard on the routing ring.
RING_REPLICAS = 64

#: Coordinator ensemble size (3 tolerates one replica failure).
COORDINATOR_REPLICAS = 3

#: Leadership lease length in coordinator logical ticks.
LEASE_TICKS = 16


@dataclass(frozen=True)
class FleetConfig:
    """Service shape and backpressure policy."""

    n_shards: int = 2
    queue_depth: int = 1024
    policy: str = "block"  # "block" | "shed-oldest"
    return_verdicts: bool = False
    #: Must be 2: kept only for callers that still pass it (see
    #: :func:`~repro.fleet.codec.require_write_version`).
    wire_version: int = FPREC_VERSION_BINARY
    #: Max messages a worker drains per wake-up for block scoring.
    #: Capped at ``queue_depth`` so a worker never buffers more than
    #: the bounded queue itself may hold — otherwise coalescing would
    #: silently widen the backpressure window.
    coalesce: int = 32
    #: Iterations a link may sit quiet before a fresh alarm reopens its
    #: incident (``incident.reopened`` in the lifecycle log).
    quiet_gap: int = DEFAULT_QUIET_GAP

    def __post_init__(self) -> None:
        if self.n_shards < 1:
            raise FleetError("need at least one shard")
        if self.queue_depth < 1:
            raise FleetError("queue depth must be at least 1")
        if self.policy not in ("block", "shed-oldest"):
            raise FleetError(
                f"unknown backpressure policy {self.policy!r} "
                "(expected 'block' or 'shed-oldest')"
            )
        require_write_version(self.wire_version)
        if self.coalesce < 1:
            raise FleetError("coalesce must be at least 1")
        if self.quiet_gap < 1:
            raise FleetError("quiet_gap must be at least 1 iteration")


@dataclass(frozen=True)
class FleetValidation:
    """Detection outcome vs. ground truth (jobs with ``faulted`` set)."""

    checked: int
    missed: tuple[int, ...]  # faulted jobs with no incident
    false_alarms: tuple[int, ...]  # healthy jobs with an incident

    @property
    def ok(self) -> bool:
        return not self.missed and not self.false_alarms


@dataclass
class FleetResult:
    """Everything a finished service run produced."""

    jobs: dict[int, JobConfig]
    verdicts: dict[int, list[IterationVerdict]]
    incidents: list[Incident]
    metrics: list[dict]  # merged fleet-wide MetricsRegistry snapshot
    errors: list[str]
    submitted_batches: int = 0
    submitted_records: int = 0
    shed_batches: int = 0
    shed_records: int = 0
    summaries: int = 0
    elapsed_s: float = 0.0
    submit_elapsed_s: float = 0.0
    incident_log: EventLog | None = None
    #: The availability ledger: view epoch at close, failovers, and the
    #: cross-epoch record accounting (``lost_records`` must be zero).
    epoch: int = 0
    failovers: int = 0
    duplicate_verdicts: int = 0
    fenced_messages: int = 0
    processed_unique_records: int = 0
    shed_unique_records: int = 0
    #: Records of units a worker rejected (undecodable columns, or a
    #: failed block score); each such unit is also in ``errors``.
    rejected_unique_records: int = 0
    lost_records: int = 0

    @property
    def accounting_ok(self) -> bool:
        """The cross-epoch conservation law: every submitted record was
        processed, shed or rejected (once), none lost."""
        return (
            self.lost_records == 0
            and self.processed_unique_records
            + self.shed_unique_records
            + self.rejected_unique_records
            == self.submitted_records
        )

    def _metric_total(self, name: str) -> int:
        """``name`` summed over every shard in the merged snapshot."""
        return sum(
            entry["value"]
            for entry in self.metrics
            if entry.get("name") == name
        )

    @property
    def processed_records(self) -> int:
        return self._metric_total("fleet.records")

    @property
    def processed_batches(self) -> int:
        return self._metric_total("fleet.batches")

    @property
    def replayed_records(self) -> int:
        return self._metric_total("fleet.replayed_records")

    @property
    def ingest_records_per_sec(self) -> float:
        if self.submit_elapsed_s <= 0:
            return 0.0
        return self.submitted_records / self.submit_elapsed_s

    def verdicts_for(self, job_id: int) -> list[IterationVerdict]:
        return sorted(self.verdicts.get(job_id, []), key=lambda v: v.iteration)

    def incidents_for(self, job_id: int) -> list[Incident]:
        return [i for i in self.incidents if i.job_id == job_id]

    def validate(self) -> FleetValidation:
        """Compare incidents against the jobs' ground truth."""
        detected = {incident.job_id for incident in self.incidents}
        return validate_detection(self.jobs.values(), detected)


def validate_detection(jobs, detected_job_ids) -> FleetValidation:
    """Ground-truth check shared by ``serve`` and ``replay``: every
    faulted job detected, no healthy job alarmed; jobs with unknown
    truth (``faulted is None``) are excluded."""
    detected = set(detected_job_ids)
    missed = []
    false_alarms = []
    checked = 0
    for job in jobs:
        if job.faulted is None:
            continue
        checked += 1
        if job.faulted and job.job_id not in detected:
            missed.append(job.job_id)
        elif not job.faulted and job.job_id in detected:
            false_alarms.append(job.job_id)
    return FleetValidation(
        checked=checked, missed=tuple(sorted(missed)), false_alarms=tuple(sorted(false_alarms))
    )


@functools.lru_cache(maxsize=64)
def _ring(shards: tuple[int, ...]) -> ShardRouter:
    """The consistent-hash ring over a view's shard ids."""
    return ShardRouter.from_ids(shards, n_replicas=RING_REPLICAS)


# ----------------------------------------------------------------------
# The service
# ----------------------------------------------------------------------
class FleetService:
    """Long-running sharded monitoring service (context manager).

    >>> service = FleetService(FleetConfig(n_shards=2))   # doctest: +SKIP
    ... with service:
    ...     for job in jobs:
    ...         service.submit_job(job)
    ...     for batch in batches:
    ...         service.submit(batch)
    ... result = service.result

    Passing ``ha=HAConfig(...)`` makes the service survive its own
    shards: it journals every unit before dispatch, watches worker
    heartbeats, and adds

    - ``check_health()`` / ``failover(shard)`` — detection and recovery;
      with ``auto_failover`` (default) every ``poll`` checks.
    - ``pin_job(job, shard)`` — commit an explicit assignment override
      through the coordinator (with journal handoff if the job moves).
    - ``grow()`` / ``shrink()`` in :mod:`repro.fleet.ha.reshard` resize
      the pool mid-run through the same view/replay machinery.

    The golden-parity guarantee is preserved *through* failover: kill
    any single shard mid-run and the per-job verdict sequences and the
    incident rollup are bit-identical to an uninterrupted run.  Without
    ``ha`` those four operations raise :class:`FleetError`.
    """

    def __init__(
        self,
        config: FleetConfig | None = None,
        telemetry=None,
        ha: HAConfig | None = None,
    ) -> None:
        self.config = config or FleetConfig()
        self.ha = ha
        self.registry = MetricsRegistry()
        #: Incident log (JSONL-ready) fed by the aggregator.
        self.incident_log = EventLog()
        self.aggregator = FleetAggregator(
            event_log=self.incident_log, quiet_gap=self.config.quiet_gap
        )
        #: Optional duck-typed telemetry session for service-level events.
        self.telemetry = telemetry
        #: Lifecycle log for ``ha.*`` events (elections, views,
        #: failovers) — separate from the incident log.
        self.ha_log = EventLog()
        self.coordinator = ReplicatedCoordinator(
            n_replicas=COORDINATOR_REPLICAS,
            lease_ticks=LEASE_TICKS,
            event_log=self.ha_log,
            registry=self.registry,
        )
        # Without HA: no heartbeats and no auto-failover; the other
        # knobs keep their HAConfig defaults.
        knobs = ha or HAConfig(heartbeat_every=None, auto_failover=False)
        self.heartbeats = HeartbeatMonitor(knobs.heartbeat_every, knobs.miss_limit)
        self._auto_failover = knobs.auto_failover
        self._retry_s = knobs.dispatch_retry_s
        #: Per-shard write-ahead journal; only an HA service keeps one.
        self.journal: ShardJournal | None = None
        self.jobs: dict[int, JobConfig] = {}
        self.verdicts: dict[int, list[IterationVerdict]] = {}
        self.errors: list[str] = []
        self.result: FleetResult | None = None
        self.failovers = 0
        self.duplicate_verdicts = 0
        self.fenced_messages = 0
        self._processed_unique = 0
        self._shed_unique = 0
        self._rejected_unique = 0
        self._seen: dict[int, set[int]] = {}
        self._inflight: dict[tuple[int, int], int] = {}
        self._closing = False
        self._checking = False
        self._inboxes: list = []
        self._workers: list = []
        self._live_shards: set[int] = set()
        self._context = None
        self._outboxes: list = []
        self._worker_snapshots: list = []
        self._done: set[int] = set()
        self._summaries = 0
        self._started_at: float | None = None
        self._submit_busy_s = 0.0
        self._submitted_records_c = self.registry.counter("fleet.submitted_records")
        self._submitted_batches_c = self.registry.counter("fleet.submitted_batches")
        self._shed_records_c = self.registry.counter("fleet.shed_records")
        self._shed_batches_c = self.registry.counter("fleet.shed_batches")

    # ------------------------------------------------------------------
    def __enter__(self) -> "FleetService":
        self.start()
        return self

    def __exit__(self, exc_type, _exc, _tb) -> None:
        if exc_type is None:
            self.close()
        else:  # tear down without draining on error paths
            self._abort()

    @property
    def started(self) -> bool:
        return self._started_at is not None

    def start(self) -> None:
        """Spawn the shard workers and open their queues, then bootstrap
        epoch 1 through the coordinator."""
        if self.started:
            raise FleetError("service already started")
        self._closing = False
        if self.ha is not None:
            self.journal = ShardJournal(self.ha.journal_dir)
        self._context = multiprocessing.get_context()
        for shard in range(self.config.n_shards):
            self._spawn_worker(shard)
        self._started_at = time.perf_counter()
        view = self.coordinator.commit(
            shards=range(self.config.n_shards), reason="bootstrap"
        )
        self._broadcast_epoch(view)

    def _spawn_worker(self, shard: int) -> None:
        """Start one shard worker process; shard ids index the inbox and
        worker tables, so spawn order must follow shard id order
        (``grow`` appends new ids)."""
        if shard != len(self._inboxes):
            raise FleetError(
                f"shard ids must be dense: spawning {shard} "
                f"with {len(self._inboxes)} existing"
            )
        inbox = self._context.Queue(maxsize=self.config.queue_depth)
        read_fd, write_fd = new_outbox_pipe()
        worker = self._context.Process(
            target=shard_worker,
            args=(
                shard,
                inbox,
                (read_fd, write_fd),
                self.config.return_verdicts,
                min(self.config.coalesce, self.config.queue_depth),
                self.heartbeats.interval,
            ),
            daemon=True,
            name=f"fleet-shard-{shard}",
        )
        worker.start()
        # The worker owns the write end now; dropping our copy makes its
        # death observable as EOF on the read end.
        os.close(write_fd)
        self._inboxes.append(inbox)
        self._outboxes.append(OutboxReader(read_fd))
        self._workers.append(worker)
        self._live_shards.add(shard)
        self.heartbeats.watch(shard, time.time())

    # ------------------------------------------------------------------
    # View-driven routing
    # ------------------------------------------------------------------
    @property
    def view(self) -> View:
        """The committed coordinator view routing reads against."""
        return self.coordinator.view

    @property
    def epoch(self) -> int:
        return self.coordinator.epoch

    def _route(self, job_id: int) -> int:
        """The shard a job's records go to: an (epoch, assignment) read
        of the committed view — its pin, else the ring over its shards."""
        view = self.coordinator.view
        pinned = view.pin_map.get(job_id)
        if pinned is not None:
            return pinned
        return _ring(view.shards).shard_for(job_id)

    def assignment(self) -> ShardAssignment:
        """How the registered jobs spread over the committed view's shards."""
        per_shard = dict.fromkeys(self.view.shards, 0)
        for job_id in self.jobs:
            per_shard[self._route(job_id)] += 1
        return ShardAssignment(n_shards=len(per_shard), jobs_per_shard=per_shard)

    def _broadcast_epoch(self, view: View) -> None:
        for shard in sorted(self._live_shards):
            self._put_draining(shard, ("epoch", view.epoch))

    # ------------------------------------------------------------------
    # Ingest
    # ------------------------------------------------------------------
    def submit_job(self, job: JobConfig) -> int:
        """Register a monitored job; returns its shard.

        Control messages always use the draining put: registration is
        never shed, whatever the record policy.
        """
        self._require_started()
        shard = self._route(job.job_id)
        if self.journal is not None:
            self.journal.append(shard, encode_job(job))
        self._put_draining(shard, ("job", job))
        self.jobs[job.job_id] = job
        self.registry.counter("fleet.submitted_jobs").inc()
        return shard

    def submit(self, batch: RecordBatch) -> None:
        """Encode (as a v2 frame) and ingest one batch."""
        self.submit_encoded(encode_batch(batch), batch.job_id, batch.n_records)

    def submit_encoded(
        self, frame: bytes, job_id: int | None = None, n_records: int | None = None
    ) -> None:
        """Ingest an already-encoded v2 batch frame (the replay fast
        path); a v1 ``str`` line raises :class:`CodecError` (convert it
        at the edge with :func:`~repro.fleet.codec.transcode_line`).

        ``job_id``/``n_records`` may be omitted; they are then peeked
        from the frame header without a full parse.
        """
        self._ingest(frame, job_id, n_records, wait=True)

    def try_submit_encoded(
        self,
        frame: bytes,
        job_id: int | None = None,
        n_records: int | None = None,
    ) -> bool:
        """Non-blocking ingest for event-loop frontends: returns False
        (accepting nothing, counting nothing) when the target shard's
        bounded inbox is full under the ``block`` policy, instead of
        stalling the caller.  The TCP server turns a False into paused
        reads on that connection — per-connection backpressure without
        blocking every other stream sharing the event loop.  Under
        ``shed-oldest`` it always accepts (the shed counters absorb the
        overflow, exactly as in blocking submit).
        """
        return self._ingest(frame, job_id, n_records, wait=False)

    def _ingest(
        self, frame: bytes, job_id: int | None, n_records: int | None, wait: bool
    ) -> bool:
        """The one ingest body: peek the frame once, route it, enter it
        in the journal and the in-flight ledger, enqueue it under the
        backpressure policy, and count it.  ``wait=False`` returns False
        on a full inbox under ``block``, before anything is recorded."""
        self._require_started()
        frame = require_frame(frame)
        peeked_job, peeked_records, iteration = peek_batch_tag(frame)
        if job_id is None or n_records is None:
            job_id, n_records = peeked_job, peeked_records
        started = time.perf_counter()
        shard = self._route(job_id)
        blocking = self.config.policy == "block"
        # Only this thread puts, so an inbox that is not full now still
        # has room when the put below runs.
        if blocking and not wait and self._inboxes[shard].full():
            return False
        # Journal and ledger first: the unit is on record before a
        # worker can score it or a failover can replay it.
        if self.journal is not None:
            self.journal.append(shard, frame)
        self._inflight[(job_id, iteration)] = n_records
        message = ("batch", frame, n_records, time.time())
        if blocking:
            self._put_draining(shard, message)
        else:
            self._put_shedding(shard, message)
        self._submitted_batches_c.inc()
        self._submitted_records_c.inc(n_records)
        self._sample_depth(shard, self._inboxes[shard])
        self._submit_busy_s += time.perf_counter() - started
        # Draining the outbox costs a zero-timeout select() per call; on
        # the ingest hot path it is amortized over POLL_EVERY batches
        # (close() always drains fully regardless).
        if self._submitted_batches_c.value % POLL_EVERY == 0:
            self.poll()
        return True

    def _put_draining(self, shard: int, message) -> None:
        """The blocking inbox put every message but a shed-policy batch
        goes through.

        Outbox pipes are bounded: a worker stalled on verdict output
        only resumes when the parent reads, so a plain blocking ``put``
        could deadlock the pair.  This put keeps draining worker output
        while it waits (``poll`` also runs the auto-failover check).
        If the target is failed over meanwhile, the put is dropped: the
        unit was journaled first and the replay carried it to the new
        owner.  A dead target that nothing will fail over raises
        :class:`FleetError` within ``dispatch_retry_s`` instead of
        hanging.
        """
        inbox = self._inboxes[shard]
        recheck_at = time.monotonic() + self._retry_s
        while True:
            try:
                inbox.put_nowait(message)
                return
            except queue_module.Full:
                pass
            if self.poll() == 0:
                time.sleep(0.0005)
            if shard not in self._live_shards:
                return
            if time.monotonic() < recheck_at:
                continue
            if not self._workers[shard].is_alive():
                raise FleetError(
                    f"shard {shard} died with a full inbox; "
                    "nothing will ever drain it"
                )
            recheck_at = time.monotonic() + self._retry_s

    def _put_shedding(self, shard: int, message) -> None:
        """Shed-oldest put: evict queued batches until there is room.

        Only batches are shed.  A control message raced out of the queue
        is re-enqueued at the back; any of its job's batches that arrive
        before it then land in the worker's ``unknown_job`` counter
        rather than deadlocking anything (registering jobs before the
        record flood, as ``serve_workload`` does, avoids the race
        entirely).
        """
        inbox = self._inboxes[shard]
        while True:
            try:
                inbox.put_nowait(message)
                return
            except queue_module.Full:
                pass
            try:
                evicted = inbox.get_nowait()
            except queue_module.Empty:
                # Full-but-empty means the queued item is still in the
                # feeder thread's buffer; spinning here starves the
                # feeder of the GIL for a whole switch interval, so
                # sleep long enough for it to actually flush.
                time.sleep(0.0001)
                continue
            if evicted[0] in ("batch", "replay"):
                self._on_shed(evicted)
            else:  # never drop control messages
                self._put_draining(shard, evicted)

    def _on_shed(self, evicted) -> None:
        """Account one evicted batch message and settle its ledger entry."""
        self._shed_batches_c.inc()
        self._shed_records_c.inc(evicted[2])
        if self.telemetry is not None:
            self.telemetry.emit(
                "fleet.shed", n_records=evicted[2], policy=self.config.policy
            )
        job_id, _n, iteration = peek_batch_tag(evicted[1])
        settled = self._inflight.pop((job_id, iteration), None)
        if settled is not None:
            self._shed_unique += settled

    def _sample_depth(self, shard: int, inbox) -> None:
        try:
            depth = inbox.qsize()
        except NotImplementedError:  # pragma: no cover - macOS
            return
        self.registry.gauge("fleet.queue_depth", shard=str(shard)).set(depth)
        self.registry.histogram(
            "fleet.queue_depth_samples",
            buckets=(0, 1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 4096),
        ).observe(depth)

    # ------------------------------------------------------------------
    # Output: fencing, replay dedup, ledger settlement
    # ------------------------------------------------------------------
    def poll(self) -> int:
        """Drain ready worker output without blocking; returns the
        number of messages handled.  With ``auto_failover`` it then
        checks shard health.

        Each shard has its own framed outbox pipe, read non-blocking —
        a worker SIGKILLed mid-send tears only its own stream (the torn
        tail is dropped at EOF), and can never stall this loop or any
        surviving worker.
        """
        handled = self._drain_outboxes()
        if self._auto_failover:
            self.check_health()
        return handled

    def _drain_outboxes(self) -> int:
        self._require_started()
        handled = 0
        for reader in self._outboxes:
            if reader is None:
                continue
            for message in reader.drain():
                self._handle(message)
                handled += 1
        return handled

    def _handle(self, message) -> None:
        kind = message[0]
        if kind == "verdict":
            _kind, shard, job_id, verdict = message
            if self._settle(shard, job_id, verdict.iteration):
                if self.config.return_verdicts or verdict.triggered:
                    self.verdicts.setdefault(job_id, []).append(verdict)
                self.aggregator.observe(job_id, verdict)
        elif kind == "summary":
            if self._settle(message[1], message[2], message[3]):
                self._summaries += 1
                self.aggregator.verdicts_seen += 1
        elif kind == "heartbeat":
            _kind, shard, epoch, seq, sent_at = message
            if not self._fenced(shard):
                self.registry.counter("fleet.heartbeats_seen").inc()
                self.heartbeats.beat(shard, seq, sent_at)
                if epoch != self.epoch:
                    self.registry.counter("ha.stale_heartbeats").inc()
        elif kind == "error":
            _kind, shard, detail, units = message
            self.errors.append(f"shard {shard}: {detail}")
            # A fenced shard's units were replayed to the new owner,
            # which settles them itself.
            if units and not self._fenced(shard):
                for job_id, iteration in units:
                    settled = self._inflight.pop((job_id, iteration), None)
                    if settled is not None:
                        self._rejected_unique += settled
        elif kind == "metrics":
            self._worker_snapshots.append(message[2])
        elif kind == "done":
            self._done.add(message[1])
        else:  # pragma: no cover - protocol bug
            raise FleetError(f"unknown outbox message kind {kind!r}")

    def _fenced(self, shard: int) -> bool:
        """True (and counted) for output from a shard no longer live."""
        if shard in self._live_shards:
            return False
        self.fenced_messages += 1
        self.registry.counter("ha.fenced_messages").inc()
        return True

    def _settle(self, shard: int, job_id: int, iteration: int) -> bool:
        """Mark ``(job, iteration)`` delivered and settle its ledger
        entry; False for output to drop (fenced, or a journal-replay
        duplicate)."""
        if self._fenced(shard):
            return False
        seen = self._seen.setdefault(job_id, set())
        if iteration in seen:
            self.duplicate_verdicts += 1
            self.registry.counter("ha.duplicate_verdicts").inc()
            return False
        seen.add(iteration)
        settled = self._inflight.pop((job_id, iteration), None)
        if settled is not None:
            self._processed_unique += settled
        return True

    # ------------------------------------------------------------------
    # Detection and failover (HA only)
    # ------------------------------------------------------------------
    def _require_ha(self, operation: str) -> None:
        self._require_started()
        if self.ha is None:
            raise FleetError(
                f"{operation} needs a journal: build the service with ha=HAConfig()"
            )

    def check_health(self, now: float | None = None) -> list[int]:
        """Detect dead shards (exited process or heartbeat silence) and
        fail each one over; returns the shards recovered."""
        if not self.started or self._closing or self._checking:
            return []
        self._checking = True
        try:
            self._drain_outboxes()  # fold queued beats before judging silence
            if now is None:
                now = time.time()
            failed: list[tuple[int, str]] = []
            for shard in sorted(self._live_shards):
                if not self._workers[shard].is_alive():
                    failed.append((shard, "process-exit"))
                elif self.heartbeats.misses(shard, now) >= self.heartbeats.miss_limit:
                    failed.append((shard, "heartbeat-timeout"))
            recovered: list[int] = []
            for shard, reason in failed:
                if len(self._live_shards) < 2:
                    # Never auto-evict the last live shard: a slow-but-
                    # alive worker is better than no fleet at all.
                    self.ha_log.emit(
                        "ha.failover_skipped", shard=shard, reason=reason
                    )
                    continue
                self.failover(shard, reason=reason)
                recovered.append(shard)
            return recovered
        finally:
            self._checking = False

    def failover(self, dead_shard: int, reason: str = "forced") -> View:
        """Recover from the loss of ``dead_shard``: fence it, commit the
        survivor view (epoch bump), and replay its journal through the
        new owners.  Returns the committed view."""
        self._require_ha("failover")
        view, moved = self._commit_without(dead_shard, f"failover:{reason}")
        worker = self._workers[dead_shard]
        if worker.is_alive():
            worker.terminate()
        worker.join(timeout=5.0)
        # Anything still buffered for the dead inbox will never be read;
        # without this, the queue's feeder thread deadlocks interpreter
        # exit trying to flush into the full pipe.
        self._inboxes[dead_shard].cancel_join_thread()
        # Everything the shard shipped before dying is valid pre-death
        # output: harvest it (the reader is at EOF now), then drop the
        # pipe — a frame torn by the kill is discarded with it.
        self._drain_outboxes()
        self._retire_shard(dead_shard)
        self._broadcast_epoch(view)
        units, records = self._replay_journal(dead_shard, moved)
        self.failovers += 1
        self.registry.counter("ha.failovers").inc()
        self.registry.counter("ha.replayed_units").inc(units)
        self.ha_log.emit(
            "ha.failover",
            epoch=view.epoch,
            shard=dead_shard,
            reason=reason,
            moved_jobs=sorted(moved),
            replayed_units=units,
            replayed_records=records,
        )
        if self.telemetry is not None:
            self.telemetry.emit(
                "ha.failover", epoch=view.epoch, shard=dead_shard, reason=reason
            )
        return view

    def _commit_without(self, shard: int, reason: str) -> tuple[View, set[int]]:
        """Commit the view minus ``shard`` (and its pins); returns the
        view and the jobs ``shard`` owned before, which now need a new
        owner."""
        if shard not in self._live_shards:
            raise FleetError(f"shard {shard} is not live")
        if len(self._live_shards) < 2:
            raise FleetError(f"cannot remove shard {shard}: it is the last live one")
        moved = {
            job_id
            for job_id in self.jobs
            if self._route(job_id) == shard
        }
        pins = tuple(
            (job_id, owner)
            for job_id, owner in self.view.pins
            if owner != shard
        )
        view = self.coordinator.commit(
            shards=[owner for owner in self.view.shards if owner != shard],
            pins=pins,
            reason=reason,
        )
        return view, moved

    def _replay_journal(
        self, source: int, moved_jobs: set[int], forget: bool = False
    ) -> tuple[int, int]:
        """Replay ``source``'s journal for ``moved_jobs`` into their
        current owners (appending to the owners' journals, so each
        shard's journal stays the complete history of every job it now
        holds).  Returns ``(units, records)`` replayed.

        ``forget=True`` hands off from a still-live source: it is then
        told to forget the moved jobs (frees the monitors; any of their
        verdicts still in flight are deduplicated)."""
        units = records = 0
        if not moved_jobs:
            return units, records
        now = time.time()
        for kind, unit in self.journal.units(source):
            if kind == "j":
                job = decode_job(unit)
                job_id, n_records = job.job_id, 0
                message = ("job", job)
            else:
                job_id, n_records, _iteration = peek_batch_tag(unit)
                message = ("replay", unit, n_records, now)
            if job_id not in moved_jobs:
                continue
            target = self._route(job_id)
            self.journal.append(target, unit)
            self._put_draining(target, message)
            units += 1
            records += n_records
        if forget:
            self._put_draining(source, ("forget", tuple(sorted(moved_jobs))))
        return units, records

    def pin_job(self, job_id: int, shard: int) -> View:
        """Commit an explicit ``job -> shard`` assignment override (the
        writable half of the coordinator's map); if the job is live and
        actually moves, its history is handed off journal-first exactly
        like a failover."""
        self._require_ha("pin_job")
        if shard not in self._live_shards:
            raise FleetError(f"cannot pin job {job_id} to dead shard {shard}")
        old = self._route(job_id)
        pins = dict(self.view.pin_map)
        pins[job_id] = shard
        view = self.coordinator.commit(
            shards=self.view.shards,
            pins=tuple(sorted(pins.items())),
            reason=f"pin:{job_id}",
        )
        self._broadcast_epoch(view)
        if old != shard and job_id in self.jobs:
            self._replay_journal(old, {job_id}, forget=True)
        return view

    # ------------------------------------------------------------------
    # Shutdown
    # ------------------------------------------------------------------
    def close(self) -> FleetResult:
        """Final health pass, stop ingesting, drain every shard, join
        workers, and build the final :class:`FleetResult` (also kept in
        ``self.result``)."""
        self._require_started()
        if self._auto_failover:
            self.check_health()
        self._closing = True
        submit_elapsed = self._submit_busy_s
        expected = set(self._live_shards)
        for shard in sorted(expected):
            self._put_draining(shard, ("stop",))
        try:
            self._await_stopped(expected)
        except FleetError:
            self._abort()
            raise
        elapsed = time.perf_counter() - self._started_at
        for snapshot in self._worker_snapshots:
            self.registry.merge_snapshot(snapshot)
        incidents = self.aggregator.finalize()
        self._teardown()
        self.result = FleetResult(
            jobs=dict(self.jobs),
            verdicts={job: list(v) for job, v in self.verdicts.items()},
            incidents=incidents,
            metrics=self.registry.snapshot(),
            errors=list(self.errors),
            submitted_batches=self._submitted_batches_c.value,
            submitted_records=self._submitted_records_c.value,
            shed_batches=self._shed_batches_c.value,
            shed_records=self._shed_records_c.value,
            summaries=self._summaries,
            elapsed_s=elapsed,
            submit_elapsed_s=submit_elapsed,
            incident_log=self.incident_log,
            epoch=self.epoch,
            failovers=self.failovers,
            duplicate_verdicts=self.duplicate_verdicts,
            fenced_messages=self.fenced_messages,
            processed_unique_records=self._processed_unique,
            shed_unique_records=self._shed_unique,
            rejected_unique_records=self._rejected_unique,
            lost_records=sum(self._inflight.values()),
        )
        if self.telemetry is not None:
            self.telemetry.emit(
                "fleet.closed",
                submitted_records=self._submitted_records_c.value,
                shed_records=self._shed_records_c.value,
                incidents=len(incidents),
                elapsed_s=elapsed,
            )
        return self.result

    def _await_stopped(self, shards: set[int]) -> None:
        """Poll until every shard in ``shards`` has sent its "done" (its
        last message, so all its output is folded), then join their
        workers; raises :class:`FleetError` once no
        output arrives for ``DRAIN_TIMEOUT_S`` (a worker died without
        its "done")."""
        deadline = time.monotonic() + DRAIN_TIMEOUT_S
        while not shards <= self._done:
            if self.poll() > 0:
                deadline = time.monotonic() + DRAIN_TIMEOUT_S
            elif time.monotonic() > deadline:
                dead = [w.name for w in self._workers if not w.is_alive()]
                raise FleetError(
                    "fleet drain timed out waiting for shard workers "
                    f"(dead: {dead or 'none'})"
                )
            else:
                time.sleep(0.002)
        for shard in sorted(shards):
            self._workers[shard].join(timeout=DRAIN_TIMEOUT_S)

    def _abort(self) -> None:
        """Kill workers without draining (error-path teardown)."""
        for worker in self._workers:
            if worker.is_alive():
                worker.terminate()
        for worker in self._workers:
            worker.join(timeout=5.0)
        self._teardown()

    def _retire_shard(self, shard: int) -> None:
        """Take an exited shard out of service: out of the live set and
        the heartbeat watch, its outbox reader closed (everything
        readable was harvested)."""
        self._live_shards.discard(shard)
        self.heartbeats.unwatch(shard)
        self._outboxes[shard].close()
        self._outboxes[shard] = None

    def _teardown(self) -> None:
        for inbox in self._inboxes:
            inbox.cancel_join_thread()
            inbox.close()
        for reader in self._outboxes:
            if reader is not None:
                reader.close()
        if self.journal is not None:
            self.journal.close()
        self._inboxes = []
        self._outboxes = []
        self._workers = []
        self._live_shards = set()
        self._done = set()
        self._started_at = None

    def _require_started(self) -> None:
        if not self.started:
            raise FleetError("service not started (use start() or a with block)")


# ----------------------------------------------------------------------
# Convenience drivers
# ----------------------------------------------------------------------
def serve_workload(
    jobs,
    batches,
    config: FleetConfig | None = None,
    telemetry=None,
    ha: HAConfig | None = None,
) -> FleetResult:
    """Run a whole workload through a fresh service: register every job,
    stream every batch (a :class:`RecordBatch` or an encoded v2 frame),
    drain, and return the result."""
    service = FleetService(config=config, telemetry=telemetry, ha=ha)
    with service:
        for job in jobs:
            service.submit_job(job)
        for batch in batches:
            if isinstance(batch, RecordBatch):
                service.submit(batch)
            else:
                service.submit_encoded(batch)
    result = service.result
    assert result is not None
    return result


def serve_fprec(
    source,
    config: FleetConfig | None = None,
    telemetry=None,
) -> FleetResult:
    """Replay a recorded ``.fprec`` stream through a fresh service."""
    from .codec import read_fprec

    content = read_fprec(source)
    return serve_workload(
        content.jobs, content.batches, config=config, telemetry=telemetry
    )


def reference_verdicts(
    jobs, batches
) -> dict[int, list[IterationVerdict]]:
    """The golden reference: feed every batch directly into its job's
    monitor, single process, in submission order.  The fleet service
    must match this bit for bit (block policy)."""
    monitors = {job.job_id: build_monitor(job) for job in jobs}
    verdicts: dict[int, list[IterationVerdict]] = {
        job.job_id: [] for job in jobs
    }
    for batch in batches:
        monitor = monitors.get(batch.job_id)
        if monitor is None:
            continue
        verdicts[batch.job_id].append(monitor.process_iteration(list(batch.records)))
    return verdicts
