"""The v1 JSON-line encoder, kept only as a test oracle.

Nothing in the library writes v1 any more; old captures are decoded at
the edge.  The decode, fuzz and differential tests still need v1 input,
so they build it here, exactly as the retired writer did.
"""

from __future__ import annotations

import json
from dataclasses import asdict

from repro.fleet import JobConfig, RecordBatch


def _dumps(payload) -> str:
    return json.dumps(payload, separators=(",", ":"), allow_nan=False)


def v1_batch_line(batch: RecordBatch) -> str:
    """One batch as a v1 JSON line (no trailing newline)."""
    records = [
        [
            record.leaf,
            record.start_ns,
            record.end_ns,
            [[spine, size] for spine, size in sorted(record.port_bytes.items())],
            [[s, src, size] for (s, src), size in sorted(record.sender_bytes.items())],
        ]
        for record in batch.records
    ]
    return _dumps(
        ["fprec", 1, "b", batch.job_id, batch.n_records, batch.iteration,
         batch.collective, records]
    )


def v1_job_line(job: JobConfig) -> str:
    """One job as a v1 JSON line (no trailing newline)."""
    payload = {
        "job_id": job.job_id,
        "base_seed": job.base_seed,
        "trial": job.trial,
        "faulted": job.faulted,
        "fault_link": job.fault_link,
        "experiment": asdict(job.experiment),
    }
    return _dumps(["fprec", 1, "j", payload])
