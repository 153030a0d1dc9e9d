"""TCP ingest front-end: parity over sockets, backpressure, containment.

The server speaks the same self-delimiting fprec wire format as the
files, one :class:`StreamDecoder` per connection, so anything provable
for file replay must hold over TCP: bit-identical verdicts, conserved
record accounting, and protocol errors contained to one connection.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.fleet import (
    CodecError,
    FleetConfig,
    FleetService,
    encode_batch,
    encode_job,
    reference_verdicts,
)
from repro.fleet.ha import (
    FleetNetServer,
    HAConfig,
    NetServerConfig,
    stream_workload,
)

from .legacy_v1 import v1_batch_line


def ha_service(n_shards: int = 2, **config_overrides) -> FleetService:
    return FleetService(
        FleetConfig(n_shards=n_shards, return_verdicts=True, **config_overrides),
        ha=HAConfig(heartbeat_every=None, auto_failover=False),
    )


def serve_and_stream(service, jobs, batches, *, connections=1, config=None):
    """Run the server in this thread's event loop and the blocking
    client in a worker thread; returns (server, client_stats)."""

    async def _run():
        server = FleetNetServer(service, config or NetServerConfig())
        await server.start()
        try:
            stats = await asyncio.to_thread(
                stream_workload,
                "127.0.0.1",
                server.port,
                jobs,
                batches,
                connections=connections,
            )
        finally:
            await server.close()
        return server, stats

    return asyncio.run(_run())


def assert_parity(result, jobs, batches):
    reference = reference_verdicts(jobs, batches)
    for job in jobs:
        assert result.verdicts_for(job.job_id) == reference[job.job_id]
    assert result.lost_records == 0
    assert result.accounting_ok


def test_tcp_ingest_single_connection_parity(small_workload):
    jobs, batches = small_workload
    service = ha_service()
    with service:
        server, stats = serve_and_stream(service, jobs, batches)
    assert stats.connections == 1
    assert server.stats.jobs == len(jobs)
    assert server.stats.batches == len(batches)
    assert server.stats.records == sum(len(b.records) for b in batches)
    assert server.stats.protocol_errors == 0
    assert_parity(service.result, jobs, batches)


def test_tcp_ingest_many_connections_binary_wire_parity(small_workload):
    """Job-affinity lanes: per-job order survives 4 concurrent
    connections speaking the binary wire format."""
    jobs, batches = small_workload
    service = ha_service()
    with service:
        server, stats = serve_and_stream(service, jobs, batches, connections=4)
    assert stats.connections == 4
    assert server.stats.connections_total == 4
    assert server.stats.connections_open == 0
    assert_parity(service.result, jobs, batches)


def test_tcp_ingest_applies_backpressure_not_loss(small_workload):
    """A tiny shard queue forces the server to pause reads; every
    record still lands exactly once."""
    jobs, batches = small_workload
    service = ha_service(queue_depth=2)
    config = NetServerConfig(read_chunk=512, backpressure_wait_s=0.001)
    with service:
        server, _stats = serve_and_stream(
            service, jobs, batches, connections=2, config=config
        )
    assert server.stats.records == sum(len(b.records) for b in batches)
    assert_parity(service.result, jobs, batches)


def test_protocol_error_contained_to_one_connection(small_workload):
    """Garbage on one connection closes that connection only; the
    stream on a fresh connection is unaffected."""
    jobs, batches = small_workload
    service = ha_service()

    async def _run():
        server = FleetNetServer(service)
        await server.start()
        try:
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port
            )
            writer.write(b"\x80\x81 this is not fprec\n")
            await writer.drain()
            assert await reader.read() == b""  # server hung up on us
            writer.close()
            stats = await asyncio.to_thread(
                stream_workload, "127.0.0.1", server.port, jobs, batches
            )
            return server, stats
        finally:
            await server.close()

    with service:
        server, _stats = asyncio.run(_run())
    assert server.stats.protocol_errors == 1
    assert server.stats.connections_total == 2
    assert_parity(service.result, jobs, batches)


def test_close_waits_for_inflight_connection(small_workload):
    """Graceful close drains a connection that is mid-stream instead of
    dropping its tail."""
    jobs, batches = small_workload
    service = ha_service()

    async def _run():
        server = FleetNetServer(service)
        await server.start()
        client = asyncio.create_task(
            asyncio.to_thread(
                stream_workload, "127.0.0.1", server.port, jobs, batches
            )
        )
        # Close as soon as the connection shows up; drain grace must
        # let the in-flight stream finish.
        while server.stats.connections_total == 0:
            await asyncio.sleep(0.005)
        await client  # client finishes writing
        await server.close()
        return server

    with service:
        server = asyncio.run(_run())
    assert server.stats.records == sum(len(b.records) for b in batches)
    assert_parity(service.result, jobs, batches)


def send_raw(service, payload: bytes) -> FleetNetServer:
    """Write ``payload`` on one connection, hang up, and return the
    server once it has finished with the connection."""

    async def _run():
        server = FleetNetServer(service)
        await server.start()
        try:
            _reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port
            )
            writer.write(payload)
            await writer.drain()
            writer.close()
            await writer.wait_closed()
            for _ in range(200):
                if server.stats.connections_open == 0:
                    break
                await asyncio.sleep(0.01)
        finally:
            await server.close()
        return server

    return asyncio.run(_run())


def test_truncated_stream_counts_as_protocol_error(small_workload):
    """A connection that dies mid-frame is a protocol error, not a
    crash, and what fully arrived is still processed."""
    jobs, batches = small_workload
    service = ha_service()
    payload = b"".join(encode_job(job) for job in jobs)
    payload += encode_batch(batches[0])[:-3]  # cut the final frame short
    with service:
        server = send_raw(service, payload)
    assert server.stats.jobs == len(jobs)
    assert server.stats.batches == 0
    assert server.stats.protocol_errors == 1


@pytest.mark.parametrize("offset, value", [(6, b"\x01"), (28, bytes(4))])
def test_malformed_frame_header_counts_as_protocol_error(small_workload, offset, value):
    """A frame with reserved flags set or zero records is refused at the
    edge: one protocol error, nothing submitted, nothing lost."""
    jobs, batches = small_workload
    service = ha_service()
    frame = bytearray(encode_batch(batches[0]))
    frame[offset : offset + len(value)] = value
    payload = b"".join(encode_job(job) for job in jobs) + bytes(frame)
    with service:
        server = send_raw(service, payload)
    assert server.stats.protocol_errors == 1
    assert server.stats.batches == 0
    result = service.result
    assert result.submitted_batches == 0
    assert result.errors == []
    assert result.lost_records == 0
    assert result.accounting_ok


def test_stream_workload_rejects_v1_lines(small_workload):
    """The client writes v2 frames only; a v1 line is refused before any
    connection is opened."""
    jobs, batches = small_workload
    with pytest.raises(CodecError, match="v1 lines are decoded at the edge"):
        stream_workload("127.0.0.1", 9, jobs, [v1_batch_line(batches[0])])
