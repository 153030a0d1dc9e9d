"""v2 binary columnar ingest vs the v1 JSON-per-iteration path.

The wire-format claim is quantitative: decoding v2 frames into columnar
segments and scoring them in coalesced ``process_block`` batches must
ingest at least 3x the records/sec of the v1 path (JSON decode +
one-at-a-time ``process_iteration``) in the same single process.  Both
passes run the identical workload in the same interpreter, so the floor
is machine-independent; the recorded absolute rates live in
``fleet_ingest_v2_baseline.json`` (regenerate with
``REPRO_UPDATE_BASELINE=1``) for cross-machine context.

Golden parity is asserted inside the measurement itself: both passes
must produce identical verdict sequences, so the speedup can never be
bought with a scoring shortcut.
"""

from __future__ import annotations

import json
import os
import pathlib
import time
from collections import defaultdict

from tests.fleet.legacy_v1 import v1_batch_line

from repro.analysis.experiments import ExperimentConfig
from repro.fleet import (
    LoadGenConfig,
    build_monitor,
    decode_batch,
    decode_batch_segment,
    encode_batch,
    generate_workload,
)
from repro.units import GIB

MIN_SPEEDUP = 3.0
REPEATS = 3  # best-of-N passes, to shrug off scheduler noise
COALESCE = 32  # matches the shard worker's default drain size

#: Same fleet-scale workload the service throughput benchmark uses.
CONFIG = LoadGenConfig(
    n_jobs=12,
    n_iterations=12,
    fault_fraction=0.25,
    base_seed=11,
    experiment=ExperimentConfig(n_leaves=32, n_spines=16, collective_bytes=2 * GIB),
)

BASELINE_PATH = pathlib.Path(__file__).with_name("fleet_ingest_v2_baseline.json")


def v1_pass(jobs, lines):
    """The old hot path: JSON decode, then score one iteration at a time."""
    monitors = {job.job_id: build_monitor(job) for job in jobs}
    verdicts = defaultdict(list)
    started = time.perf_counter()
    for line in lines:
        batch = decode_batch(line)
        verdicts[batch.job_id].append(
            monitors[batch.job_id].process_iteration(list(batch.records))
        )
    return time.perf_counter() - started, dict(verdicts)


def v2_pass(jobs, frames):
    """The new hot path: binary frames straight to columnar segments,
    scored per job in coalesced vectorized blocks (the same grouping the
    shard worker performs)."""
    monitors = {job.job_id: build_monitor(job) for job in jobs}
    verdicts = defaultdict(list)
    pending = []

    def flush():
        groups = defaultdict(list)
        for segment in pending:
            groups[segment.job_id].append(segment)
        for job_id, segments in groups.items():
            verdicts[job_id].extend(monitors[job_id].process_block(segments))
        pending.clear()

    started = time.perf_counter()
    for frame in frames:
        pending.append(decode_batch_segment(frame))
        if len(pending) >= COALESCE:
            flush()
    flush()
    return time.perf_counter() - started, dict(verdicts)


def experiment():
    jobs, batches = generate_workload(CONFIG)
    lines = [v1_batch_line(batch) for batch in batches]
    frames = [encode_batch(batch) for batch in batches]
    total_records = sum(batch.n_records for batch in batches)

    v1_s, v1_verdicts = v1_pass(jobs, lines)
    v2_s, v2_verdicts = v2_pass(jobs, frames)
    assert v1_verdicts == v2_verdicts, "wire/scoring paths diverged"
    for _ in range(REPEATS - 1):
        v1_s = min(v1_s, v1_pass(jobs, lines)[0])
        v2_s = min(v2_s, v2_pass(jobs, frames)[0])

    wire_bytes = {"v1": sum(map(len, lines)), "v2": sum(map(len, frames))}
    return total_records, v1_s, v2_s, wire_bytes


def test_v2_ingest_speedup(run_once):
    total_records, v1_s, v2_s, wire_bytes = run_once(experiment)
    v1_rate = total_records / v1_s
    v2_rate = total_records / v2_s
    speedup = v2_rate / v1_rate

    print(
        f"\nv1 JSON + scalar:      {total_records} records in {v1_s:.3f}s "
        f"({v1_rate:,.0f} records/sec, {wire_bytes['v1']:,} wire bytes)"
    )
    print(
        f"v2 columnar + blocks:  {total_records} records in {v2_s:.3f}s "
        f"({v2_rate:,.0f} records/sec, {wire_bytes['v2']:,} wire bytes)"
    )
    print(f"ingest speedup: {speedup:.1f}x (floor {MIN_SPEEDUP:.0f}x)")

    if BASELINE_PATH.exists():
        baseline = json.loads(BASELINE_PATH.read_text())
        print(
            f"recorded baseline: {baseline['v2_speedup']:.1f}x "
            f"({baseline['v2_records_per_sec']:,.0f} records/sec v2, "
            f"{baseline['v1_records_per_sec']:,.0f} records/sec v1 on "
            f"{baseline['machine']})"
        )

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
                    "coalesce": COALESCE,
                    "v1_records_per_sec": round(v1_rate),
                    "v2_records_per_sec": round(v2_rate),
                    "v2_speedup": round(speedup, 1),
                    "wire_bytes_v1": wire_bytes["v1"],
                    "wire_bytes_v2": wire_bytes["v2"],
                    "machine": f"{platform.machine()}-{os.cpu_count()}cpu",
                },
                indent=2,
            )
            + "\n"
        )
        print(f"baseline updated: {BASELINE_PATH}")

    assert speedup >= MIN_SPEEDUP, (
        f"v2 columnar ingest only {speedup:.2f}x over the v1 JSON path "
        f"(needs >= {MIN_SPEEDUP}x)"
    )
