"""StreamDecoder: incremental framing under adversarial chunking.

The contract: for *any* split of a valid wire stream into chunks —
including one byte at a time, mid-header, mid-length-prefix, and
mid-UTF-8-character — ``feed``/``finish`` yield exactly the same unit
sequence as decoding the whole stream at once, in both decoded and raw
modes, with v1 lines and v2 frames interleaved freely.  Raw mode is
the edge where v1 ends: it yields every unit as a v2 frame.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fleet import (
    CodecError,
    RecordBatch,
    StreamDecoder,
    decode_line,
    encode_batch,
    encode_job,
)

from .legacy_v1 import v1_batch_line, v1_job_line
from .test_codec import job_config, make_batch


def mixed_units() -> list[str | bytes]:
    """An interleaved v1/v2 unit sequence: jobs and batches, both wire
    versions, on one stream."""
    units: list[str | bytes] = []
    for index in range(4):
        job = job_config(job_id=10 + index)
        batch = make_batch(n_leaves=3, job_id=10 + index, iteration=index)
        if index % 2:
            units += [encode_job(job), encode_batch(batch)]
        else:
            units += [v1_job_line(job), v1_batch_line(batch)]
    return units


def stream_unit(unit: str | bytes) -> bytes:
    """A unit as it sits on a stream: v1 lines end at a newline, v2
    frames are self-delimiting."""
    return unit.encode() + b"\n" if isinstance(unit, str) else unit


def wire_bytes(units) -> bytes:
    return b"".join(stream_unit(unit) for unit in units)


def drain(decoder: StreamDecoder, stream: bytes, chunk_size: int) -> list:
    out = []
    for start in range(0, len(stream), chunk_size):
        out.extend(decoder.feed(stream[start : start + chunk_size]))
    out.extend(decoder.finish())
    return out


def reference_units(units) -> list:
    return [decode_line(unit) for unit in units]


# ----------------------------------------------------------------------
# Exhaustive split positions
# ----------------------------------------------------------------------
def test_every_single_split_boundary_matches_whole_stream():
    """Split the stream at every byte position into two chunks: the
    decoded unit sequence never changes."""
    units = mixed_units()
    stream = wire_bytes(units)
    want = reference_units(units)
    for cut in range(len(stream) + 1):
        decoder = StreamDecoder()
        got = decoder.feed(stream[:cut])
        got += decoder.feed(stream[cut:])
        got += decoder.finish()
        assert got == want, f"diverged when split at byte {cut}"


@pytest.mark.parametrize("chunk_size", [1, 2, 3, 5, 7, 64, 4096])
def test_fixed_chunk_sizes_match_whole_stream(chunk_size):
    units = mixed_units()
    stream = wire_bytes(units)
    assert drain(StreamDecoder(), stream, chunk_size) == reference_units(units)


def test_byte_at_a_time_raw_mode_round_trips_exact_wire_forms():
    """Raw mode must hand back v2 frames only: v2 units byte-identical,
    v1 lines as the frame encoding their decoded object would give."""
    units = mixed_units()
    stream = wire_bytes(units)
    got = drain(StreamDecoder(raw=True), stream, 1)
    assert [kind for kind, _ in got] == ["j", "b"] * 4
    for (kind, raw), original in zip(got, units):
        assert isinstance(raw, bytes)
        _kind, decoded = decode_line(original)
        assert raw == (encode_batch(decoded) if kind == "b" else encode_job(decoded))
        assert decode_line(raw) == decode_line(original)


@given(
    chunks=st.lists(st.integers(min_value=1, max_value=200), min_size=1, max_size=40)
)
@settings(max_examples=60, deadline=None)
def test_random_chunking_property(chunks):
    """Any chunk-size sequence (cycled over the stream) decodes the
    same units."""
    units = mixed_units()
    stream = wire_bytes(units)
    want = reference_units(units)
    decoder = StreamDecoder()
    got = []
    position = 0
    index = 0
    while position < len(stream):
        size = chunks[index % len(chunks)]
        got.extend(decoder.feed(stream[position : position + size]))
        position += size
        index += 1
    got.extend(decoder.finish())
    assert got == want


# ----------------------------------------------------------------------
# Stream-edge behaviour
# ----------------------------------------------------------------------
def test_final_unterminated_line_is_flushed_by_finish():
    line = v1_batch_line(make_batch(n_leaves=2))
    decoder = StreamDecoder()
    assert decoder.feed(line.encode()) == []  # no newline yet
    (kind, batch), = decoder.finish()
    assert kind == "b"
    assert isinstance(batch, RecordBatch)


def test_truncated_binary_frame_at_end_raises():
    frame = encode_batch(make_batch(n_leaves=3))
    decoder = StreamDecoder()
    assert decoder.feed(frame[:-1]) == []
    with pytest.raises(CodecError):
        decoder.finish()


def test_interleaved_whitespace_and_blank_lines_are_skipped():
    units = mixed_units()
    stream = b"\n\n  \r\n".join(stream_unit(u) for u in units)
    assert drain(StreamDecoder(), stream, 13) == reference_units(units)


def test_lifetime_counters_track_units_and_bytes():
    units = mixed_units()
    stream = wire_bytes(units)
    decoder = StreamDecoder()
    drain(decoder, stream, 17)
    assert decoder.units == len(units)
    assert decoder.consumed == len(stream)
    assert decoder.buffered == 0


# ----------------------------------------------------------------------
# Buffer bounding
# ----------------------------------------------------------------------
def test_oversized_frame_declaration_fails_fast():
    frame = bytearray(encode_batch(make_batch(n_leaves=3)))
    frame[8:12] = (2**31).to_bytes(4, "little")  # lie about the length
    decoder = StreamDecoder(max_buffer=1 << 16)
    with pytest.raises(CodecError, match="buffer cap"):
        decoder.feed(bytes(frame[:32]))  # header alone reveals the lie


def test_unterminated_line_over_cap_fails():
    decoder = StreamDecoder(max_buffer=1 << 10)
    with pytest.raises(CodecError, match="buffer cap"):
        decoder.feed(b"x" * 2048)  # no newline, over cap


def test_tiny_max_buffer_rejected():
    with pytest.raises(CodecError):
        StreamDecoder(max_buffer=4)


# ----------------------------------------------------------------------
# Error containment
# ----------------------------------------------------------------------
def test_undecodable_line_raises_codec_error_not_unicode_error():
    decoder = StreamDecoder()
    with pytest.raises(CodecError):
        decoder.feed(b"\x80\x81garbage\n")


def test_malformed_json_line_raises_codec_error():
    decoder = StreamDecoder()
    with pytest.raises(CodecError):
        decoder.feed(b'["fprec",1,"b",oops\n')


def test_raw_mode_rejects_malformed_v1_line_at_the_edge():
    """Raw mode fully decodes each v1 line to build its frame, so a line
    a worker could not score fails here, as one CodecError."""
    for line in (
        b'["fprec",1,"b",4,2,0,"allreduce",[]]\n',  # declares 2, carries 0
        b'["fprec",1,"b",4,0,0,"allreduce",[]]\n',  # an empty batch
    ):
        with pytest.raises(CodecError):
            StreamDecoder(raw=True).feed(line)
