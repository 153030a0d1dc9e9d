"""Shared pieces of the benchmark: metric names, statistics, memory,
and the outcome every workload returns.

Every workload reports every end-to-end metric (with ``--trace 0``) and
every per-layer metric (with ``--trace 1``).  A per-layer metric of a
layer the workload never enters reads 0.
"""

from __future__ import annotations

import gc
import os
import platform
import resource
import sys
from dataclasses import dataclass, field

import numpy as np

#: End-to-end metrics and their units.  What "one unit of work" is
#: depends on the workload (see README.md): a record on the fleet
#: workloads, a monitored iteration on chaos-simnet, a trial on
#: roc-trials, and an alarm for fleet-live's latency.  The median
#: latency is printed and traced but not gated: on a host whose speed
#: switches between two modes from second to second, the median of a
#: run lands in either mode, where the 90th percentile does not.
END_TO_END = {
    "setup_s": "s",
    "throughput_per_s": "1/s",
    "latency_p90_ms": "ms",
    "peak_rss_mb": "MB",
}

#: Per-layer metrics from the traced run, with units.
PER_LAYER = {
    "codec.decode_mb_per_s": "MB/s",
    "monitor.block_records_per_s": "1/s",
    "monitor.iteration_ms": "ms",
    "fleet.serial_records_per_s": "1/s",
    "fleet.serial_ratio": "ratio",
    "service.submit_s": "s",
    "service.poll_s": "s",
    "service.poll_gap_p50_ms": "ms",
    "service.close_drain_s": "s",
    "service.messages_per_batch": "ratio",
    "shard.detect_compute_ms": "ms",
    "shard.queue_latency_p50_ms": "ms",
    "shard.queue_depth_p90": "count",
    "aggregate.observe_s": "s",
    "ha.submit_s": "s",
    "ha.journal_bytes": "bytes",
    "netserver.backpressure_waits": "count",
    "loadgen.send_lag_p99_ms": "ms",
    "simnet.events": "count",
    "simnet.events_per_s": "1/s",
    "simnet.self_s": "s",
    "simnet.retransmitted_packets": "count",
    "scenarios.check_s": "s",
    "remediation.observe_s": "s",
    "fastsim.run_iterations_ms": "ms",
    "analysis.predictor_build_ms": "ms",
    "latency.p50_ms": "ms",
    "latency.samples": "count",
    "trace.spans": "count",
    "trace.overhead_pct": "%",
}

#: Workers, shards and connections never exceed this.
MAX_PARALLEL = 2


@dataclass
class Outcome:
    """What one workload run measured and checked."""

    e2e: dict[str, float] = field(default_factory=dict)
    layers: dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    #: Correctness checks that failed (empty means every check held).
    violations: list[str] = field(default_factory=list)
    #: Human-readable lines printed ahead of the JSON result.
    notes: list[str] = field(default_factory=list)

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.violations.append(message)

    def note(self, line: str) -> None:
        self.notes.append(line)


def percentile(values, q: float) -> float:
    """Linear-interpolated percentile; 0 for no samples."""
    if len(values) == 0:
        return 0.0
    return float(np.percentile(np.asarray(values, dtype=float), q))


def beyond(n_samples: int, q: float) -> float:
    """How many samples lie above the ``q``-th percentile."""
    return n_samples * (100.0 - q) / 100.0


def histogram_percentile(snapshot: list[dict], name: str, q: float) -> float:
    """Percentile of a registry histogram, summed over its label sets
    and interpolated linearly inside the bucket that holds it."""
    bounds = None
    counts = None
    for entry in snapshot:
        if entry.get("name") != name or entry.get("kind") != "histogram":
            continue
        if counts is None:
            bounds = entry["bounds"]
            counts = list(entry["buckets"])
        else:
            counts = [a + b for a, b in zip(counts, entry["buckets"])]
    if not counts or sum(counts) == 0:
        return 0.0
    target = sum(counts) * q / 100.0
    cumulative = 0
    for index, count in enumerate(counts):
        if count and cumulative + count >= target:
            lower = bounds[index - 1] if index > 0 else 0.0
            upper = bounds[index] if index < len(bounds) else bounds[-1]
            return lower + (upper - lower) * (target - cumulative) / count
        cumulative += count
    return float(bounds[-1])


def histogram_mean(snapshot: list[dict], name: str) -> float:
    total = count = 0.0
    for entry in snapshot:
        if entry.get("name") == name and entry.get("kind") == "histogram":
            total += entry["sum"]
            count += entry["count"]
    return total / count if count else 0.0


def peak_rss_mb() -> float:
    """Peak resident memory of this process plus that of its largest
    reaped child (``getrusage`` reports kilobytes on Linux)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def freeze_harness() -> None:
    """Move every object the harness made so far out of the collector's
    reach, so a full collection during timing scans only objects the
    program makes."""
    gc.collect()
    gc.freeze()


def environment() -> str:
    return (
        f"cpus={os.cpu_count()} python={platform.python_version()} "
        f"numpy={np.__version__} platform={platform.machine()}"
    )


def median(values) -> float:
    return float(np.median(np.asarray(values, dtype=float))) if len(values) else 0.0


def log(message: str) -> None:
    """Progress lines go to stderr; stdout carries the results."""
    print(message, file=sys.stderr, flush=True)
