"""The two fleet workloads: ``fleet-serve`` and ``fleet-live``.

Both use paper-scale jobs: a 32x16 fabric, 8 GiB collectives and 25 %
of jobs faulted.  The fleet benchmarks under ``benchmarks/`` use 2 GiB;
with the reference verdicts that setting falsely alarms on most healthy
jobs, and a correctness gate needs a workload whose right answer is
"no false alarms".

The capture is generated job by job, encoded as fprec v2 frames, and
checked against the scalar golden reference (``reference_verdicts``) as
it goes; the ``RecordBatch`` objects and the quiet verdicts are dropped
straight away, so only the frames and the triggered reference verdicts
stay in memory while the service is timed.
"""

from __future__ import annotations

import asyncio
import pathlib
import random
import shutil
import socket
import time
from contextlib import nullcontext
from dataclasses import dataclass

from repro.analysis.experiments import ExperimentConfig
from repro.fleet import (
    FleetAggregator,
    FleetConfig,
    FleetService,
    build_monitor,
    decode_batch_segment,
    encode_batch,
    encode_job,
    reference_verdicts,
)
from repro.fleet.ha import FleetNetServer, HAConfig, HAFleetService
from repro.fleet.loadgen import LoadGenConfig, generate_jobs, job_records
from repro.units import GIB

from common import (
    MAX_PARALLEL,
    Outcome,
    beyond,
    freeze_harness,
    histogram_mean,
    histogram_percentile,
    log,
    median,
    peak_rss_mb,
    percentile,
)
from spans import SpanRecorder, write_trace

EXPERIMENT = ExperimentConfig(n_leaves=32, n_spines=16, collective_bytes=8 * GIB)
FAULT_FRACTION = 0.25
N_SHARDS = MAX_PARALLEL

SERVE_JOBS = 64
SERVE_ITERATIONS = 48
#: Passes per run at least, whatever ``--seconds`` says.
SERVE_MIN_PASSES = 5
#: Serial process_block drain size, as the shard worker coalesces.
COALESCE = 32

LIVE_JOBS = 48
LIVE_PERIOD_S = 0.100  # each job finishes an iteration every 100 ms
#: Each iteration finishes up to this much early or late.  Without it
#: every job would hold a fixed slot relative to the service's
#: every-16th-batch outbox drain, and the faulted jobs a seed happens to
#: pick would set the alarm latency.
LIVE_JITTER_S = 0.025
LIVE_CONNECTIONS = MAX_PARALLEL
LIVE_SETUPS = 5


@dataclass
class Capture:
    """Encoded jobs plus the compact golden reference."""

    jobs: list
    #: Per job, in iteration order: ``(frame, n_records)``.
    frames: dict[int, list[tuple[bytes, int]]]
    #: Per job: the reference's triggered verdicts, in iteration order.
    alarms: dict[int, list]
    n_iterations: int

    @property
    def n_batches(self) -> int:
        return sum(len(f) for f in self.frames.values())

    @property
    def n_records(self) -> int:
        return sum(n for f in self.frames.values() for _frame, n in f)

    @property
    def n_bytes(self) -> int:
        return sum(len(frame) for f in self.frames.values() for frame, _n in f)

    def round_robin(self) -> list[tuple[bytes, int, int]]:
        """``(frame, job_id, n_records)`` in loadgen arrival order:
        iteration 0 of every job, then iteration 1, and so on."""
        order = []
        for iteration in range(self.n_iterations):
            for job in self.jobs:
                frame, n_records = self.frames[job.job_id][iteration]
                order.append((frame, job.job_id, n_records))
        return order

    def reference_incidents(self) -> list:
        aggregator = FleetAggregator()
        for job in self.jobs:
            for verdict in self.alarms[job.job_id]:
                aggregator.observe(job.job_id, verdict)
        return aggregator.finalize()


def make_capture(seed: int, n_jobs: int, n_iterations: int) -> Capture:
    config = LoadGenConfig(
        n_jobs=n_jobs,
        n_iterations=n_iterations,
        fault_fraction=FAULT_FRACTION,
        base_seed=seed,
        experiment=EXPERIMENT,
    )
    jobs = generate_jobs(config)
    frames: dict[int, list[tuple[bytes, int]]] = {}
    alarms: dict[int, list] = {}
    for job in jobs:
        batches = job_records(config, job)
        frames[job.job_id] = [
            (encode_batch(batch, version=2), batch.n_records) for batch in batches
        ]
        verdicts = reference_verdicts([job], batches)[job.job_id]
        alarms[job.job_id] = [v for v in verdicts if v.triggered]
    return Capture(jobs=jobs, frames=frames, alarms=alarms, n_iterations=n_iterations)


def describe(capture: Capture) -> str:
    faulted = sum(1 for job in capture.jobs if job.faulted)
    return (
        f"{len(capture.jobs)} jobs ({faulted} faulted) x {capture.n_iterations} "
        f"iterations, {EXPERIMENT.n_leaves}x{EXPERIMENT.n_spines} fabric, "
        f"{EXPERIMENT.collective_bytes // GIB} GiB collectives: "
        f"{capture.n_batches} batches, {capture.n_records} records, "
        f"{capture.n_bytes / 1e6:.1f} MB of fprec v2"
    )


def shard_layers(out: Outcome, metrics: list[dict]) -> None:
    """Worker-side numbers the program ships back in FleetResult.metrics."""
    out.layers["shard.detect_compute_ms"] = 1e3 * histogram_mean(
        metrics, "fleet.detect_compute_s"
    )
    out.layers["shard.queue_latency_p50_ms"] = 1e3 * histogram_percentile(
        metrics, "fleet.detection_latency_s", 50
    )
    out.layers["shard.queue_depth_p90"] = histogram_percentile(
        metrics, "fleet.queue_depth_samples", 90
    )


def poll_gaps_ms(recorder: SpanRecorder) -> list[float]:
    starts = [start for start, _end in recorder.named("fleet.service:poll")]
    return [1e3 * (b - a) for a, b in zip(starts, starts[1:])]


def trace_service(recorder: SpanRecorder, service, submit_name: str) -> list[int]:
    """Wrap the service's entry points; returns a one-element list that
    accumulates what ``poll()`` returned (messages handled)."""
    handled = [0]
    poll = service.poll

    def counted_poll():
        n = poll()
        handled[0] += n
        return n

    service.poll = recorder.wrap("fleet.service:poll", counted_poll)
    name = submit_name.split(":", 1)[1]
    setattr(service, name, recorder.wrap(submit_name, getattr(service, name)))
    service.aggregator.observe = recorder.wrap(
        "fleet.aggregate:observe", service.aggregator.observe
    )
    return handled


# ----------------------------------------------------------------------
# fleet-serve
# ----------------------------------------------------------------------
def serve_pass(capture: Capture, order, recorder: SpanRecorder | None = None):
    """One closed-loop pass; returns ``(setup_s, elapsed_s,
    latencies_ms, result, messages_handled)``, where ``elapsed_s`` runs
    from the first ``submit_encoded`` until ``close()`` has returned
    with every verdict folded."""
    config = FleetConfig(
        n_shards=N_SHARDS, policy="block", return_verdicts=False, wire_version=2
    )
    started = time.perf_counter()
    service = FleetService(config)
    handled = None
    n = len(order)
    submitted_at = [0.0] * n
    folded_at = [0.0] * n
    with service:
        for job in capture.jobs:
            service.submit_job(job)
        setup_s = time.perf_counter() - started
        if recorder is not None:
            recorder.new_trace()
            handled = trace_service(
                recorder, service, "fleet.service:submit_encoded"
            )
            service.close = recorder.wrap("fleet.service:close", service.close)
        aggregator = service.aggregator
        submit = service.submit_encoded
        folded = 0

        def stamp() -> int:
            nonlocal folded
            seen = aggregator.verdicts_seen
            if seen > folded:
                folded_at[folded:seen] = [time.perf_counter()] * (seen - folded)
                folded = seen
            return seen

        first = time.perf_counter()
        for k, (frame, job_id, n_records) in enumerate(order):
            submitted_at[k] = time.perf_counter()
            submit(frame, job_id, n_records)
            stamp()
        # Fold what is still queued before close(), so each verdict is
        # stamped when it is folded rather than when close() returns.
        drain = recorder.span("fleet.service:drain") if recorder else nullcontext()
        with drain:
            while stamp() < n:
                if service.poll() == 0:
                    time.sleep(0.0005)
    done = time.perf_counter()
    result = service.result
    # A batch's latency: from its submit until the fleet had folded as
    # many verdicts as batches submitted up to it (verdicts come back in
    # submission order per shard, and the two shards keep pace).  The
    # first n_shards * queue_depth batches of a pass only fill the
    # inboxes; latency is taken once the pipeline is full.
    full = config.n_shards * config.queue_depth
    latencies = [1e3 * (f - s) for s, f in zip(submitted_at[full:], folded_at[full:])]
    return setup_s, done - first, latencies, result, (handled[0] if handled else 0)


def check_serve(out: Outcome, capture: Capture, result, reference_incidents) -> int:
    """Every fleet-serve check; returns the failed records."""
    verdicts_ok = all(
        result.verdicts_for(job.job_id) == capture.alarms[job.job_id]
        for job in capture.jobs
    )
    out.check(verdicts_ok, "fleet-serve: triggered verdicts differ from reference_verdicts")
    out.check(
        result.incidents == reference_incidents,
        "fleet-serve: incidents differ from the reference folded through FleetAggregator",
    )
    validation = result.validate()
    out.check(
        validation.ok,
        f"fleet-serve: validate() missed={validation.missed} "
        f"false_alarms={validation.false_alarms}",
    )
    out.check(
        result.processed_records == result.submitted_records,
        f"fleet-serve: processed {result.processed_records} of "
        f"{result.submitted_records} submitted records",
    )
    out.check(result.shed_records == 0, f"fleet-serve: shed {result.shed_records} records")
    out.check(not result.errors, f"fleet-serve: errors {result.errors[:3]}")
    lost = max(0, result.submitted_records - result.processed_records)
    return result.shed_records + lost + len(result.errors)


def serial_pass(capture: Capture, order, out: Outcome) -> None:
    """Serial decode and ``process_block`` scoring of the same frames in
    this process: the rate the sharded service is compared against."""
    started = time.perf_counter()
    segments = [decode_batch_segment(frame) for frame, _job, _n in order]
    decode_s = time.perf_counter() - started
    monitors = {job.job_id: build_monitor(job) for job in capture.jobs}
    verdicts: dict[int, list] = {job.job_id: [] for job in capture.jobs}
    started = time.perf_counter()
    for offset in range(0, len(segments), COALESCE):
        groups: dict[int, list] = {}
        for segment in segments[offset : offset + COALESCE]:
            groups.setdefault(segment.job_id, []).append(segment)
        for job_id, group in groups.items():
            verdicts[job_id].extend(monitors[job_id].process_block(group))
    score_s = time.perf_counter() - started
    out.check(
        all(
            [v for v in verdicts[job.job_id] if v.triggered] == capture.alarms[job.job_id]
            for job in capture.jobs
        ),
        "fleet-serve: serial process_block verdicts differ from reference_verdicts",
    )
    out.layers["codec.decode_mb_per_s"] = capture.n_bytes / 1e6 / decode_s
    out.layers["monitor.block_records_per_s"] = capture.n_records / score_s
    out.layers["fleet.serial_records_per_s"] = capture.n_records / (decode_s + score_s)


def run_serve(seed: int, seconds: float, trace: bool, out: Outcome, out_dir: pathlib.Path):
    log(f"fleet-serve: generating {SERVE_JOBS} jobs x {SERVE_ITERATIONS} iterations")
    capture = make_capture(seed, SERVE_JOBS, SERVE_ITERATIONS)
    order = capture.round_robin()
    reference_incidents = capture.reference_incidents()
    out.note(f"size: {describe(capture)}")
    out.note(
        f"service: FleetService {N_SHARDS} shards, block policy, "
        "return_verdicts=False, closed loop (submit blocks on a full inbox)"
    )
    freeze_harness()

    def passes(recorder=None):
        """Closed-loop passes until ``seconds`` have passed (at least
        SERVE_MIN_PASSES), after one warm-up pass that is checked but
        not timed."""
        setups, elapsed, latencies = [], [], []
        handled = batches = 0
        metrics = None
        started = None
        while len(elapsed) < SERVE_MIN_PASSES or time.perf_counter() - started < seconds:
            setup_s, elapsed_s, lat, result, n_handled = serve_pass(capture, order, recorder)
            out.attempted += result.submitted_records
            out.failed += check_serve(out, capture, result, reference_incidents)
            metrics = result.metrics
            if started is None:  # the warm-up pass
                started = time.perf_counter()
                continue
            setups.append(setup_s)
            elapsed.append(elapsed_s)
            latencies.extend(lat)
            handled += n_handled
            batches += result.submitted_batches
        # Records over time summed across passes: pass times come in two
        # modes on a 2-CPU host (how the parent and the two shard
        # processes get scheduled), and a median of a few samples jumps
        # between them where the sum does not.
        rate = capture.n_records * len(elapsed) / sum(elapsed)
        return setups, rate, elapsed, latencies, metrics, handled / batches

    setups, rate, elapsed, latencies, _metrics, _per_batch = passes()
    out.e2e["setup_s"] = median(setups)
    out.e2e["throughput_per_s"] = rate
    out.layers["latency.p50_ms"] = percentile(latencies, 50)
    out.e2e["latency_p90_ms"] = percentile(latencies, 90)
    out.e2e["peak_rss_mb"] = peak_rss_mb()
    out.layers["latency.samples"] = len(latencies)
    out.note(
        f"fleet_records_per_s = {rate:.1f} (throughput_per_s; {len(elapsed)} passes "
        f"after a warm-up, per pass: {[round(capture.n_records / e) for e in elapsed]})"
    )
    out.note(
        f"batch latency (submit -> verdict folded, full pipeline): p50 {out.layers['latency.p50_ms']:.2f} ms, "
        f"p90 {out.e2e['latency_p90_ms']:.2f} ms over {len(latencies)} batches "
        f"({beyond(len(latencies), 90):.0f} beyond p90)"
    )
    out.note(f"setup_s = median of {len(setups)} service starts + job registrations")
    if not trace:
        return

    recorder = SpanRecorder()
    _setups, traced_rate, traced_elapsed, _lat, metrics, per_batch = passes(recorder)
    traced_passes = len(traced_elapsed) + 1
    out.layers["trace.overhead_pct"] = 100.0 * (rate / traced_rate - 1.0)
    out.layers["service.submit_s"] = (
        recorder.self_time("fleet.service:submit_encoded") / traced_passes
    )
    out.layers["service.poll_s"] = recorder.busy("fleet.service:poll") / traced_passes
    out.layers["service.close_drain_s"] = (
        recorder.busy("fleet.service:drain") + recorder.busy("fleet.service:close")
    ) / traced_passes
    out.layers["aggregate.observe_s"] = (
        recorder.busy("fleet.aggregate:observe") / traced_passes
    )
    out.layers["service.poll_gap_p50_ms"] = percentile(poll_gaps_ms(recorder), 50)
    out.layers["service.messages_per_batch"] = per_batch
    shard_layers(out, metrics)
    out.layers["trace.spans"] = len(recorder.spans)
    serial_pass(capture, order, out)
    out.layers["fleet.serial_ratio"] = rate / out.layers["fleet.serial_records_per_s"]
    out.note(
        f"fleet.serial_ratio = {out.layers['fleet.serial_ratio']:.3f} "
        f"= {rate:.0f} rec/s (fleet, {N_SHARDS} shards) / "
        f"{out.layers['fleet.serial_records_per_s']:.0f} rec/s (serial decode + "
        f"process_block, coalesce {COALESCE}, one process)"
    )
    out.note(
        f"tracing overhead: {out.layers['trace.overhead_pct']:+.1f} % "
        f"(untraced {rate:.0f} vs traced {traced_rate:.0f} rec/s)"
    )
    write_trace(out, recorder, out_dir, "fleet-serve", seed)


# ----------------------------------------------------------------------
# fleet-live
# ----------------------------------------------------------------------
def live_schedule(capture: Capture, seed: int):
    """``(due_offset_s, lane, frame, job_id, iteration, n_records)`` in
    due order: job ``i`` finishes iteration ``k`` at
    ``k * period + i * period / n_jobs`` (staggered phases) plus a
    seeded jitter of at most ``LIVE_JITTER_S`` either way; jobs keep one
    connection each (job affinity, as ``stream_workload`` lanes)."""
    n_jobs = len(capture.jobs)
    rng = random.Random(seed)
    schedule = []
    for index, job in enumerate(capture.jobs):
        lane = index % LIVE_CONNECTIONS
        phase = index * LIVE_PERIOD_S / n_jobs
        for iteration, (frame, n_records) in enumerate(capture.frames[job.job_id]):
            jitter = rng.uniform(-LIVE_JITTER_S, LIVE_JITTER_S)
            due = LIVE_JITTER_S + iteration * LIVE_PERIOD_S + phase + jitter
            schedule.append((due, lane, frame, job.job_id, iteration, n_records))
    schedule.sort(key=lambda entry: entry[0])
    return schedule


def _send_open_loop(sockets, schedule, start: float, lags: list[float]) -> None:
    """The load generator (its own thread): send each batch at its due
    time, however far behind the server is; then half-close and wait for
    the server's close, which acknowledges full consumption."""
    for due, lane, frame, _job, _iteration, _n in schedule:
        delay = start + due - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        lags.append(time.perf_counter() - start - due)
        sockets[lane].sendall(frame)
    for sock in sockets:
        sock.shutdown(socket.SHUT_WR)
    for sock in sockets:
        while sock.recv(65536):
            pass
        sock.close()


class LiveRun:
    """One fleet-live service life: bring-up, open-loop stream, drain."""

    def __init__(self, capture: Capture, journal_dir: pathlib.Path) -> None:
        self.capture = capture
        self.journal_dir = journal_dir
        self.service = None
        self.server = None
        self.sockets: list[socket.socket] = []

    async def bring_up(self) -> float:
        """Service and server start plus job registration over TCP;
        returns the seconds until every job is registered."""
        if self.journal_dir.exists():
            shutil.rmtree(self.journal_dir)
        started = time.perf_counter()
        self.service = HAFleetService(
            FleetConfig(n_shards=N_SHARDS, wire_version=2),
            ha=HAConfig(journal_dir=self.journal_dir),
        )
        self.service.start()
        self.server = FleetNetServer(self.service)
        await self.server.start()
        loop = asyncio.get_running_loop()
        for _ in range(LIVE_CONNECTIONS):
            sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            sock.setblocking(False)
            await loop.sock_connect(sock, ("127.0.0.1", self.server.port))
            sock.setblocking(True)
            self.sockets.append(sock)
        for index, job in enumerate(self.capture.jobs):
            self.sockets[index % LIVE_CONNECTIONS].sendall(encode_job(job, version=2))
        while len(self.service.jobs) < len(self.capture.jobs):
            await asyncio.sleep(0.0002)
        return time.perf_counter() - started

    async def tear_down(self) -> None:
        await asyncio.to_thread(_send_open_loop, self.sockets, [], 0.0, [])
        await self.server.close()
        self.service.close()
        shutil.rmtree(self.journal_dir, ignore_errors=True)

    async def stream(self, schedule, recorder: SpanRecorder | None):
        service = self.service
        handled = None
        if recorder is not None:
            recorder.new_trace()
            handled = trace_service(recorder, service, "fleet.ha:try_submit_encoded")
            service.close = recorder.wrap("fleet.service:close", service.close)
        job_ids = [job.job_id for job in self.capture.jobs]
        seen = dict.fromkeys(job_ids, 0)
        observed: dict[tuple[int, int], float] = {}
        stop = asyncio.Event()

        async def observe() -> None:
            # Reads service.verdicts only; never calls poll().
            verdicts = service.verdicts
            while not stop.is_set():
                now = time.perf_counter()
                for job_id in job_ids:
                    got = verdicts.get(job_id)
                    if got is not None and len(got) > seen[job_id]:
                        for verdict in got[seen[job_id] :]:
                            observed.setdefault((job_id, verdict.iteration), now)
                        seen[job_id] = len(got)
                await asyncio.sleep(0.001)

        lags: list[float] = []
        observer = asyncio.create_task(observe())
        start = time.perf_counter() + 0.05
        try:
            await asyncio.to_thread(_send_open_loop, self.sockets, schedule, start, lags)
        finally:
            stop.set()
            await observer
        await self.server.close()
        result = service.close()
        drained = time.perf_counter()
        for job_id, verdicts in result.verdicts.items():
            for verdict in verdicts:
                observed.setdefault((job_id, verdict.iteration), drained)
        journal_bytes = sum(p.stat().st_size for p in self.journal_dir.glob("*"))
        shutil.rmtree(self.journal_dir, ignore_errors=True)
        return start, drained, observed, lags, result, journal_bytes, handled


def run_live(seed: int, seconds: float, trace: bool, out: Outcome, out_dir: pathlib.Path):
    n_iterations = max(1, round(seconds / LIVE_PERIOD_S))
    log(f"fleet-live: generating {LIVE_JOBS} jobs x {n_iterations} iterations")
    capture = make_capture(seed, LIVE_JOBS, n_iterations)
    schedule = live_schedule(capture, seed)
    due = {(job, it): d for d, _lane, _f, job, it, _n in schedule}
    alarms = [(job.job_id, v.iteration) for job in capture.jobs for v in capture.alarms[job.job_id]]
    offered = capture.n_records / (n_iterations * LIVE_PERIOD_S)
    out.note(f"size: {describe(capture)}")
    out.note(
        f"load: open loop, each job one batch per {LIVE_PERIOD_S * 1e3:.0f} ms "
        f"(staggered, +-{LIVE_JITTER_S * 1e3:.0f} ms jitter), {offered:.0f} records/s offered over {LIVE_CONNECTIONS} "
        f"TCP connections into FleetNetServer + HAFleetService ({N_SHARDS} shards)"
    )
    journal_dir = out_dir / f"journal-fleet-live-{seed}"
    freeze_harness()

    async def life(recorder):
        setups = []
        for _ in range(LIVE_SETUPS - 1):
            run = LiveRun(capture, journal_dir)
            setups.append(await run.bring_up())
            await run.tear_down()
        run = LiveRun(capture, journal_dir)
        setups.append(await run.bring_up())
        return (setups, run.server.stats, *await run.stream(schedule, recorder))

    def measure(recorder=None):
        setups, stats, start, drained, observed, lags, result, journal_bytes, handled = (
            asyncio.run(life(recorder))
        )
        latencies = [
            1e3 * (observed[key] - start - due[key]) for key in alarms if key in observed
        ]
        missing = len(alarms) - len(latencies)
        out.check(missing == 0, f"fleet-live: {missing} of {len(alarms)} reference alarms never observed")
        out.check(result.lost_records == 0, f"fleet-live: lost {result.lost_records} records")
        out.check(result.accounting_ok, "fleet-live: record accounting does not balance")
        out.check(stats.protocol_errors == 0, f"fleet-live: {stats.protocol_errors} protocol errors")
        out.check(not result.errors, f"fleet-live: errors {result.errors[:3]}")
        out.attempted += result.submitted_records + len(alarms)
        out.failed += result.shed_records + result.lost_records + len(result.errors) + missing
        throughput = result.submitted_records / (drained - start)
        return setups, stats, latencies, lags, result, journal_bytes, handled, throughput

    setups, stats, latencies, lags, result, journal_bytes, _h, throughput = measure()
    p50 = percentile(latencies, 50)
    out.e2e["setup_s"] = median(setups)
    out.e2e["throughput_per_s"] = throughput
    out.layers["latency.p50_ms"] = p50
    out.e2e["latency_p90_ms"] = percentile(latencies, 90)
    out.e2e["peak_rss_mb"] = peak_rss_mb()
    out.layers["latency.samples"] = len(latencies)
    out.note(
        f"alarm_latency_p50_ms = {p50:.2f}, alarm_latency_p90_ms = "
        f"{out.e2e['latency_p90_ms']:.2f} (due -> triggered verdict in service.verdicts; "
        f"{len(latencies)} alarms, {beyond(len(latencies), 90):.0f} beyond p90; "
        f"p99 {percentile(latencies, 99):.2f} ms with {beyond(len(latencies), 99):.0f} beyond)"
    )
    out.note(f"records/s delivered = {throughput:.1f} (throughput_per_s; offered {offered:.0f})")
    out.note(
        f"send lag p50 {percentile(lags, 50) * 1e3:.3f} ms, p99 "
        f"{percentile(lags, 99) * 1e3:.3f} ms over {len(lags)} sends"
    )
    out.note(f"setup_s = median of {len(setups)} service+server starts with TCP job registration")
    if not trace:
        return

    recorder = SpanRecorder()
    _s, stats, traced_latencies, lags, result, journal_bytes, handled, _t = measure(recorder)
    p90 = out.e2e["latency_p90_ms"]
    traced_p90 = percentile(traced_latencies, 90)
    out.layers["trace.overhead_pct"] = 100.0 * (traced_p90 / p90 - 1.0)
    out.layers["ha.submit_s"] = recorder.busy("fleet.ha:try_submit_encoded")
    out.layers["service.submit_s"] = recorder.self_time("fleet.ha:try_submit_encoded")
    out.layers["service.poll_s"] = recorder.busy("fleet.service:poll")
    out.layers["service.close_drain_s"] = recorder.busy("fleet.service:close")
    out.layers["aggregate.observe_s"] = recorder.busy("fleet.aggregate:observe")
    out.layers["service.poll_gap_p50_ms"] = percentile(poll_gaps_ms(recorder), 50)
    out.layers["service.messages_per_batch"] = handled[0] / result.submitted_batches
    out.layers["ha.journal_bytes"] = journal_bytes
    out.layers["netserver.backpressure_waits"] = stats.backpressure_waits
    out.layers["loadgen.send_lag_p99_ms"] = 1e3 * percentile(lags, 99)
    shard_layers(out, result.metrics)
    out.layers["trace.spans"] = len(recorder.spans)
    out.note(
        f"tracing overhead: {out.layers['trace.overhead_pct']:+.1f} % on alarm latency p90 "
        f"(untraced {p90:.2f} ms vs traced {traced_p90:.2f} ms)"
    )
    out.note(
        f"poll gap p50 {out.layers['service.poll_gap_p50_ms']:.2f} ms "
        f"(prediction: alarm p50 near half of it)"
    )
    write_trace(out, recorder, out_dir, "fleet-live", seed)
