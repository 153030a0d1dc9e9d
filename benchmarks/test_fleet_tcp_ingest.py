"""TCP ingest front-end vs in-process ingest of the same wire stream.

The serving claim for the network front-end: pushing the binary wire
stream through real sockets — 8 concurrent connections into the asyncio
server, with per-connection framing and backpressure — must stay within
2x of the wall-clock of handing the identical encoded units to the
service in-process.  Both passes run the same 4-shard HA service end to
end (ingest plus full detection drain), so the ratio isolates what the
TCP layer itself costs: syscalls, event-loop scheduling, and framing.

Losslessness is asserted inside the measurement: every submitted record
must be settled (in-flight ledger empty, zero lost) before the clock
stops.  The recorded absolute rates live in
``fleet_tcp_ingest_baseline.json`` (regenerate with
``REPRO_UPDATE_BASELINE=1``) for cross-machine context.
"""

from __future__ import annotations

import asyncio
import json
import os
import pathlib
import time

from repro.analysis.experiments import ExperimentConfig
from repro.fleet import (
    FleetConfig,
    FleetService,
    LoadGenConfig,
    StreamDecoder,
    decode_job,
    encode_batch,
    encode_job,
    generate_workload,
)
from repro.fleet.ha import (
    FleetNetServer,
    HAConfig,
    stream_workload,
)
from repro.units import GIB

N_SHARDS = 4
N_CONNECTIONS = 8
MAX_SLOWDOWN = 2.0  # TCP may cost at most 2x the in-process wall-clock
READ_CHUNK = 64 * 1024

CONFIG = LoadGenConfig(
    n_jobs=12,
    n_iterations=12,
    fault_fraction=0.25,
    base_seed=11,
    experiment=ExperimentConfig(n_leaves=32, n_spines=16, collective_bytes=2 * GIB),
)

BASELINE_PATH = pathlib.Path(__file__).with_name("fleet_tcp_ingest_baseline.json")


def make_service() -> FleetService:
    return FleetService(
        FleetConfig(n_shards=N_SHARDS),
        ha=HAConfig(heartbeat_every=None, auto_failover=False),
    )


def drain(service: FleetService) -> None:
    """Spin until every submitted record is settled by a verdict."""
    while service._inflight:
        if service.poll() == 0:
            time.sleep(0.0005)


def inproc_pass(wire: bytes):
    """The reference: feed the exact wire bytes through a StreamDecoder
    in-process — the same framing work the server does, minus sockets."""
    service = make_service()
    service.start()
    try:
        started = time.perf_counter()
        decoder = StreamDecoder(raw=True)
        for offset in range(0, len(wire), READ_CHUNK):
            for kind, unit in decoder.feed(wire[offset : offset + READ_CHUNK]):
                if kind == "j":
                    service.submit_job(decode_job(unit))
                else:
                    while not service.try_submit_encoded(unit):
                        service.poll()
        for kind, unit in decoder.finish():
            while not service.try_submit_encoded(unit):
                service.poll()
        drain(service)
        elapsed = time.perf_counter() - started
    finally:
        result = service.close()
    assert result.lost_records == 0 and result.accounting_ok
    return elapsed, result.submitted_records


def tcp_pass(jobs, batches):
    """The same workload over 8 real TCP connections into the asyncio
    front-end; the clock covers connect-to-settled."""
    service = make_service()
    service.start()
    try:

        async def _run():
            server = FleetNetServer(service)
            await server.start()
            try:
                await asyncio.to_thread(
                    stream_workload,
                    "127.0.0.1",
                    server.port,
                    jobs,
                    batches,
                    connections=N_CONNECTIONS,
                )
            finally:
                await server.close()
            return server

        started = time.perf_counter()
        server = asyncio.run(_run())
        drain(service)
        elapsed = time.perf_counter() - started
    finally:
        result = service.close()
    assert server.stats.protocol_errors == 0
    assert result.lost_records == 0 and result.accounting_ok
    return elapsed, result.submitted_records


def experiment():
    jobs, batches = generate_workload(CONFIG)
    wire = b"".join(encode_job(job) for job in jobs) + b"".join(
        encode_batch(batch) for batch in batches
    )

    inproc_s, total_records = inproc_pass(wire)
    tcp_s, tcp_records = tcp_pass(jobs, batches)
    assert tcp_records == total_records
    return total_records, len(wire), inproc_s, tcp_s


def test_tcp_ingest_within_2x_of_in_process(run_once):
    total_records, wire_bytes, inproc_s, tcp_s = run_once(experiment)
    inproc_rate = total_records / inproc_s
    tcp_rate = total_records / tcp_s
    slowdown = tcp_s / inproc_s

    print(
        f"\nin-process ingest+drain: {total_records} records in {inproc_s:.3f}s "
        f"({inproc_rate:,.0f} records/sec, {wire_bytes:,} wire bytes)"
    )
    print(
        f"TCP x{N_CONNECTIONS} ingest+drain:  {total_records} records in {tcp_s:.3f}s "
        f"({tcp_rate:,.0f} records/sec)"
    )
    print(f"TCP overhead: {slowdown:.2f}x (ceiling {MAX_SLOWDOWN:.0f}x)")

    if BASELINE_PATH.exists():
        baseline = json.loads(BASELINE_PATH.read_text())
        print(
            f"recorded baseline: {baseline['tcp_slowdown']:.2f}x "
            f"({baseline['tcp_records_per_sec']:,.0f} records/sec TCP, "
            f"{baseline['inproc_records_per_sec']:,.0f} records/sec in-process "
            f"on {baseline['machine']})"
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
                    "n_shards": N_SHARDS,
                    "n_connections": N_CONNECTIONS,
                    "wire_version": 2,
                    "wire_bytes": wire_bytes,
                    "inproc_records_per_sec": round(inproc_rate),
                    "tcp_records_per_sec": round(tcp_rate),
                    "tcp_slowdown": round(slowdown, 2),
                    "machine": f"{platform.machine()}-{os.cpu_count()}cpu",
                },
                indent=2,
            )
            + "\n"
        )
        print(f"baseline updated: {BASELINE_PATH}")

    assert slowdown <= MAX_SLOWDOWN, (
        f"TCP ingest cost {slowdown:.2f}x the in-process path "
        f"(ceiling {MAX_SLOWDOWN}x at {N_CONNECTIONS} connections)"
    )
