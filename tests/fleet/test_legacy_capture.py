"""Old v1 captures stay readable.

``data/legacy-v1.fprec`` was written by the retired v1 writer (``repro
fleet loadgen --jobs 4 --iterations 8 --leaves 8 --spines 4
--fault-fraction 0.5 --wire-version 1``).  Every way a capture enters
the fleet — file replay, the raw edge decoder, TCP ingest — must still
give bit-identical verdicts from it, and past the edge nothing but v2
frames may appear.
"""

from __future__ import annotations

import pathlib

from repro.fleet import (
    FleetConfig,
    StreamDecoder,
    read_fprec,
    reference_verdicts,
    serve_fprec,
)

from .test_netserver import assert_parity, ha_service, send_raw

LEGACY_CAPTURE = pathlib.Path(__file__).with_name("data") / "legacy-v1.fprec"


def test_capture_is_v1_only():
    lines = LEGACY_CAPTURE.read_text().splitlines()
    assert len(lines) == 36
    assert all(line.startswith('["fprec",1,') for line in lines)


def test_serve_fprec_of_legacy_capture_matches_reference():
    content = read_fprec(LEGACY_CAPTURE)
    assert len(content.jobs) == 4 and len(content.batches) == 32
    reference = reference_verdicts(content.jobs, content.batches)
    result = serve_fprec(LEGACY_CAPTURE, FleetConfig(n_shards=2, return_verdicts=True))
    for job in content.jobs:
        assert result.verdicts_for(job.job_id) == reference[job.job_id]
    assert result.validate().ok
    assert result.lost_records == 0
    assert result.accounting_ok


def test_raw_decoder_turns_legacy_capture_into_frames():
    decoder = StreamDecoder(raw=True)
    units = decoder.feed(LEGACY_CAPTURE.read_bytes()) + decoder.finish()
    assert [kind for kind, _unit in units] == ["j"] * 4 + ["b"] * 32
    assert all(isinstance(unit, bytes) for _kind, unit in units)


def test_legacy_capture_over_tcp_keeps_parity():
    content = read_fprec(LEGACY_CAPTURE)
    service = ha_service()
    with service:
        server = send_raw(service, LEGACY_CAPTURE.read_bytes())
    assert server.stats.protocol_errors == 0
    assert server.stats.batches == len(content.batches)
    assert_parity(service.result, content.jobs, content.batches)
