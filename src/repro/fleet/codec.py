"""The ``fprec`` wire format for :class:`IterationRecord` batches.

The fleet service moves per-leaf iteration measurements between
processes (and onto disk) as self-describing *units*, each declaring
its format version so a stream can be decoded unit-by-unit without a
file header and an old reader confronted with a newer payload fails
with a typed :class:`UnsupportedVersionError` instead of a ``KeyError``.

**Version 2 — binary columnar frames** is the only format anything
writes.  Each frame is a 12-byte struct header (magic
``0xF7 'f' 'p' 'r'``, version, kind, reserved flags, u32 payload
length) followed by a struct-packed payload.  Batch payloads are the
columns of a :class:`~repro.core.blocks.IterationSegment` — leaf ids,
timestamps, CSR-style port/sender key and value columns — so a shard
worker decodes a frame with a handful of ``np.frombuffer`` calls and
scores whole blocks of iterations in one vectorized pass without ever
building a per-record dict.  Job frames carry a JSON document (the
:class:`JobConfig`) inside a binary frame: they are control-plane, one
per job, and gain nothing from struct packing.

**Version 1 — JSON lines** is decode-only, kept so old captures stay
readable.  Each line is a JSON array
``["fprec", 1, "b", job_id, n_records, iteration, collective, [...]]``
(one :class:`RecordBatch`) or ``["fprec", 1, "j", {...}]`` (one
:class:`JobConfig`).  The header's first byte (``0xF7``) is not valid
UTF-8 and can never open a JSON line, so an old ``.fprec`` stream may
mix v1 lines and v2 frames.  v1 is converted exactly once, at the edge:
:func:`iter_fprec` decodes it into the same objects a frame decodes to,
and :class:`StreamDecoder` in raw mode (TCP ingest, journal and file
replay) turns each v1 line into the equivalent v2 frame
(:func:`transcode_line`).  Past the codec, the fleet handles v2 frames
(``bytes``) only; a ``str`` unit is a :class:`CodecError`.

A ``.fprec`` file is just these units concatenated (jobs conventionally
first), which makes the wire format double as a record/replay format:
any simnet or fastsim run can be captured with :func:`batches_from_run`
+ :func:`write_fprec` and replayed through detection offline.

Round-trips are exact: integers stay integers, finite floats stay
floats (v2 via raw IEEE-754 bits, v1 via ``repr`` round-trip), dict keys
and tuple keys are rebuilt with their original types, and record order
inside a batch is preserved — the golden-parity guarantee of the fleet
service rests on this.  Non-finite floats are rejected on both encode
and decode, and malformed input of any shape — truncated frames, wrong
length prefixes, trailing garbage, bad magic — surfaces as
:class:`CodecError`, never ``struct.error``/``IndexError``.
"""

from __future__ import annotations

import io
import json
import math
import pathlib
import struct
from dataclasses import asdict, dataclass, field
from dataclasses import fields as dataclass_fields
from typing import IO, Iterable, Iterator

import numpy as np

from ..analysis.experiments import ExperimentConfig
from ..core.blocks import (
    COUNT_DTYPE,
    FLAG_DTYPE,
    FLOAT_DTYPE,
    KEY_DTYPE,
    RAW_DTYPE,
    VALUE_FLOAT,
    BlockError,
    IterationSegment,
)
from ..simnet.counters import IterationRecord
from ..simnet.packet import FlowTag

#: Magic tag opening every v1 line (cheap file-type identification).
FPREC_MAGIC = "fprec"
#: JSON-line wire version (decode-only: old captures).
FPREC_VERSION = 1
#: Binary columnar wire version (the only version written).
FPREC_VERSION_BINARY = 2
#: Conventional file extension for captured record streams.
FPREC_SUFFIX = ".fprec"

#: Magic opening every v2 binary frame.  The first byte is not valid
#: UTF-8, so a frame can never be confused with a JSON line.
BINARY_MAGIC = b"\xf7fpr"
#: Frame header: magic, version (u8), kind (u8), reserved flags (u16),
#: payload length (u32).
_HEADER = struct.Struct("<4sBBHI")
#: Batch payload prefix: job_id (u64), iteration (u64), n_records
#: (u32), collective length (u16).  ``job_id``/``n_records`` sit at
#: frame offsets 12 and 28 so :func:`peek_batch` reads them without
#: touching the columns.
_BATCH_FIXED = struct.Struct("<QQIH")
_KIND_BATCH = ord("b")
_KIND_JOB = ord("j")
_U64_MAX = 2**64 - 1


class CodecError(RuntimeError):
    """Raised for malformed payloads, lines, frames, or values."""


class UnsupportedVersionError(CodecError):
    """Raised when a payload declares a version this codec cannot read."""


# ----------------------------------------------------------------------
# Payload containers
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class RecordBatch:
    """All leaves' records for one collective iteration of one job."""

    job_id: int
    iteration: int
    collective: str
    records: tuple[IterationRecord, ...]

    @classmethod
    def from_records(cls, records: Iterable[IterationRecord]) -> "RecordBatch":
        """Build a batch from one iteration's records, validating that
        they all carry the same flow tag."""
        records = tuple(records)
        if not records:
            raise CodecError("a record batch cannot be empty")
        tag = records[0].tag
        for record in records[1:]:
            if record.tag != tag:
                raise CodecError(
                    f"mixed tags in batch: {tag} vs {record.tag} "
                    "(one batch = one iteration of one job)"
                )
        return cls(
            job_id=tag.job_id,
            iteration=tag.iteration,
            collective=tag.collective,
            records=records,
        )

    @property
    def n_records(self) -> int:
        return len(self.records)

    @property
    def tag(self) -> FlowTag:
        return FlowTag(self.job_id, self.iteration, self.collective)


@dataclass(frozen=True)
class JobConfig:
    """Picklable, serializable description of one monitored job.

    ``experiment`` carries the fabric shape, demand size, predictor
    choice, and threshold; together with ``(base_seed, trial)`` it lets
    any shard rebuild the job's monitor deterministically (the same
    construction :func:`repro.analysis.experiments.run_trial` uses).
    ``faulted`` records ground truth when the stream came from the load
    generator (``None`` = unknown, excluded from validation).
    """

    job_id: int
    experiment: ExperimentConfig
    base_seed: int = 0
    trial: int = 0
    faulted: bool | None = None
    fault_link: str | None = None

    def __post_init__(self) -> None:
        if self.job_id != self.experiment.job_id:
            raise CodecError(
                f"job_id {self.job_id} does not match "
                f"experiment.job_id {self.experiment.job_id}"
            )


#: Field names a job payload may carry, computed from the dataclasses so
#: unknown keys from a newer writer map to a clear CodecError instead of
#: a bare ``TypeError`` about Python internals.
_JOB_FIELDS = frozenset(f.name for f in dataclass_fields(JobConfig)) - {"experiment"}
_EXPERIMENT_FIELDS = frozenset(f.name for f in dataclass_fields(ExperimentConfig))


# ----------------------------------------------------------------------
# Value validation
# ----------------------------------------------------------------------
def _check_finite(value, where: str):
    """Reject NaN/Infinity; return the value unchanged."""
    if isinstance(value, float) and not math.isfinite(value):
        raise CodecError(f"non-finite value {value!r} in {where}")
    return value


def _reject_constant(name: str):
    """``json.loads`` hook: a payload carrying bare ``NaN``/``Infinity``
    literals is malformed by definition."""
    raise CodecError(f"non-finite JSON constant {name!r} in payload")


def _int_key(value, where: str) -> int:
    if type(value) is not int:
        raise CodecError(f"expected integer in {where}, got {value!r}")
    return value


def require_write_version(version: int) -> None:
    """Writer-side check: v2 is the only version anything encodes.

    The ``version=`` parameters of :func:`encode_batch`/:func:`encode_job`
    and ``FleetConfig.wire_version`` survive with this one legal value
    only because the frozen benchmark harness still passes
    ``version=2``/``wire_version=2``; they go with its next revision.
    """
    if version != FPREC_VERSION_BINARY:
        raise UnsupportedVersionError(
            f"cannot encode wire version {version}: v2 is the only written "
            "format (v1 is decode-only)"
        )


def require_frame(unit) -> bytes:
    """``unit`` as v2 frame ``bytes``; anything else is a
    :class:`CodecError`.  Past the edge decoders the fleet carries
    frames only — a v1 ``str`` line must go through
    :func:`transcode_line` (or :func:`decode_line`) first."""
    if isinstance(unit, (bytes, bytearray)):
        return bytes(unit)
    raise CodecError(
        f"expected a v2 frame (bytes), got {type(unit).__name__}; "
        "v1 lines are decoded at the edge"
    )


# ----------------------------------------------------------------------
# v1 record decoding (JSON lines)
# ----------------------------------------------------------------------
def _decode_record(entry, tag: FlowTag) -> IterationRecord:
    try:
        leaf, start_ns, end_ns, port_pairs, sender_triples = entry
        port_bytes = {
            _int_key(spine, "port_bytes key"): _check_finite(size, "port_bytes")
            for spine, size in port_pairs
        }
        sender_bytes = {
            (
                _int_key(spine, "sender_bytes key"),
                _int_key(src, "sender_bytes key"),
            ): _check_finite(size, "sender_bytes")
            for spine, src, size in sender_triples
        }
    except CodecError:
        raise
    except (TypeError, ValueError) as exc:
        raise CodecError(f"malformed record entry: {exc}") from exc
    return IterationRecord(
        leaf=_int_key(leaf, "leaf"),
        tag=tag,
        port_bytes=port_bytes,
        sender_bytes=sender_bytes,
        # Timestamps are validated like every other field: a stringly
        # "0" or a float must not survive decode and poison the
        # detect-latency bookkeeping downstream.
        start_ns=_int_key(start_ns, "start_ns"),
        end_ns=_int_key(end_ns, "end_ns"),
    )


# ----------------------------------------------------------------------
# Frame encoding
# ----------------------------------------------------------------------
def _check_int_fields(record: IterationRecord) -> None:
    """The integer fields of a record must be ``int``: the int64
    columns would silently truncate a float ``start_ns`` or key."""
    _int_key(record.leaf, "leaf")
    _int_key(record.start_ns, "start_ns")
    _int_key(record.end_ns, "end_ns")
    for spine in record.port_bytes:
        _int_key(spine, "port_bytes key")
    for spine, src in record.sender_bytes:
        _int_key(spine, "sender_bytes key")
        _int_key(src, "sender_bytes key")


def encode_batch(batch: RecordBatch, version: int = FPREC_VERSION_BINARY) -> bytes:
    """One :class:`RecordBatch` as one complete v2 binary frame."""
    require_write_version(version)
    for record in batch.records:
        _check_int_fields(record)
    try:
        segment = IterationSegment.from_records(list(batch.records))
    except BlockError as exc:
        raise CodecError(f"batch not representable as a v2 frame: {exc}") from exc
    return encode_segment(segment)


def _job_payload(job: JobConfig) -> dict:
    return {
        "job_id": job.job_id,
        "base_seed": job.base_seed,
        "trial": job.trial,
        "faulted": job.faulted,
        "fault_link": job.fault_link,
        "experiment": asdict(job.experiment),
    }


def encode_job(job: JobConfig, version: int = FPREC_VERSION_BINARY) -> bytes:
    """One :class:`JobConfig` as one v2 job frame."""
    require_write_version(version)
    body = json.dumps(
        _job_payload(job), separators=(",", ":"), allow_nan=False
    ).encode()
    return _HEADER.pack(BINARY_MAGIC, FPREC_VERSION_BINARY, _KIND_JOB, 0, len(body)) + body


def encode_segment(segment: IterationSegment) -> bytes:
    """One columnar :class:`~repro.core.blocks.IterationSegment` as one
    v2 binary frame (the zero-materialization encode path)."""
    if not 0 <= segment.job_id <= _U64_MAX:
        raise CodecError(f"job_id {segment.job_id} out of u64 range for v2")
    if not 0 <= segment.iteration <= _U64_MAX:
        raise CodecError(f"iteration {segment.iteration} out of u64 range for v2")
    collective = segment.collective.encode()
    if len(collective) > 0xFFFF:
        raise CodecError("collective name too long for a v2 frame")
    for raw, flags, where in (
        (segment.port_raw, segment.port_flags, "port_bytes"),
        (segment.sender_raw, segment.sender_flags, "sender_bytes"),
    ):
        mask = flags == VALUE_FLOAT
        if mask.any() and not np.isfinite(raw.view(FLOAT_DTYPE)[mask]).all():
            raise CodecError(f"non-finite value in {where}")
    port_counts = np.asarray(np.diff(segment.port_offsets), dtype=COUNT_DTYPE)
    sender_counts = np.asarray(np.diff(segment.sender_offsets), dtype=COUNT_DTYPE)
    payload = b"".join(
        (
            _BATCH_FIXED.pack(
                segment.job_id, segment.iteration, segment.n_records, len(collective)
            ),
            collective,
            port_counts.tobytes(),
            sender_counts.tobytes(),
            np.asarray(segment.leaves, dtype=KEY_DTYPE).tobytes(),
            np.asarray(segment.start_ns, dtype=KEY_DTYPE).tobytes(),
            np.asarray(segment.end_ns, dtype=KEY_DTYPE).tobytes(),
            np.asarray(segment.port_keys, dtype=KEY_DTYPE).tobytes(),
            np.asarray(segment.port_raw, dtype=RAW_DTYPE).tobytes(),
            np.asarray(segment.port_flags, dtype=FLAG_DTYPE).tobytes(),
            np.asarray(segment.sender_spines, dtype=KEY_DTYPE).tobytes(),
            np.asarray(segment.sender_srcs, dtype=KEY_DTYPE).tobytes(),
            np.asarray(segment.sender_raw, dtype=RAW_DTYPE).tobytes(),
            np.asarray(segment.sender_flags, dtype=FLAG_DTYPE).tobytes(),
        )
    )
    return _HEADER.pack(
        BINARY_MAGIC, FPREC_VERSION_BINARY, _KIND_BATCH, 0, len(payload)
    ) + payload


# ----------------------------------------------------------------------
# v2 frame decoding
# ----------------------------------------------------------------------
def _split_frame(data: bytes) -> tuple[int, bytes]:
    """Validate a complete binary frame; return ``(kind, payload)``."""
    if len(data) < _HEADER.size:
        raise CodecError("truncated binary frame (short header)")
    magic, version, kind, flags, length = _HEADER.unpack_from(data, 0)
    if magic != BINARY_MAGIC:
        raise CodecError(f"bad binary magic {magic!r} (expected {BINARY_MAGIC!r})")
    if version != FPREC_VERSION_BINARY:
        raise UnsupportedVersionError(
            f"binary frame version {version} not supported (this codec reads "
            f"JSON lines at version {FPREC_VERSION} and binary frames at "
            f"version {FPREC_VERSION_BINARY})"
        )
    if flags != 0:
        raise CodecError(f"reserved frame flags set ({flags:#06x})")
    if kind not in (_KIND_BATCH, _KIND_JOB):
        raise CodecError(f"unknown binary frame kind {kind:#04x}")
    got = len(data) - _HEADER.size
    if got != length:
        raise CodecError(
            f"frame length prefix declares {length} payload bytes, got {got}"
        )
    return kind, data[_HEADER.size :]


def _decode_segment_payload(payload: bytes) -> IterationSegment:
    """A v2 batch payload back into its columnar segment."""
    if len(payload) < _BATCH_FIXED.size:
        raise CodecError("truncated v2 batch frame (short fixed section)")
    job_id, iteration, n_records, collective_len = _BATCH_FIXED.unpack_from(payload, 0)
    if n_records == 0:
        raise CodecError("a record batch cannot be empty")
    offset = _BATCH_FIXED.size
    if len(payload) < offset + collective_len:
        raise CodecError("truncated v2 batch frame (collective name)")
    try:
        collective = payload[offset : offset + collective_len].decode()
    except UnicodeDecodeError as exc:
        raise CodecError(f"undecodable collective name: {exc}") from exc
    offset += collective_len

    def take(dtype: np.dtype, count: int, what: str) -> np.ndarray:
        nonlocal offset
        nbytes = dtype.itemsize * count
        if len(payload) < offset + nbytes:
            raise CodecError(f"truncated v2 batch frame ({what})")
        # Slicing copies into a fresh, aligned buffer; columns are small.
        array = np.frombuffer(payload[offset : offset + nbytes], dtype=dtype)
        offset += nbytes
        return array

    port_counts = take(COUNT_DTYPE, n_records, "port counts")
    sender_counts = take(COUNT_DTYPE, n_records, "sender counts")
    leaves = take(KEY_DTYPE, n_records, "leaves")
    start_ns = take(KEY_DTYPE, n_records, "start_ns")
    end_ns = take(KEY_DTYPE, n_records, "end_ns")
    n_ports = int(port_counts.sum())
    n_senders = int(sender_counts.sum())
    port_keys = take(KEY_DTYPE, n_ports, "port keys")
    port_raw = take(RAW_DTYPE, n_ports, "port values")
    port_flags = take(FLAG_DTYPE, n_ports, "port flags")
    sender_spines = take(KEY_DTYPE, n_senders, "sender spines")
    sender_srcs = take(KEY_DTYPE, n_senders, "sender sources")
    sender_raw = take(RAW_DTYPE, n_senders, "sender values")
    sender_flags = take(FLAG_DTYPE, n_senders, "sender flags")
    if offset != len(payload):
        raise CodecError(
            f"trailing garbage: {len(payload) - offset} bytes after v2 batch payload"
        )
    for flags, raw, where in (
        (port_flags, port_raw, "port_bytes"),
        (sender_flags, sender_raw, "sender_bytes"),
    ):
        if flags.size and int(flags.max(initial=0)) > VALUE_FLOAT:
            raise CodecError(f"unknown value flag in {where}")
        mask = flags == VALUE_FLOAT
        if mask.any() and not np.isfinite(raw.view(FLOAT_DTYPE)[mask]).all():
            raise CodecError(f"non-finite value in {where}")
    zero = np.zeros(1, dtype=KEY_DTYPE)
    return IterationSegment(
        job_id=job_id,
        iteration=iteration,
        collective=collective,
        leaves=leaves,
        start_ns=start_ns,
        end_ns=end_ns,
        port_offsets=np.concatenate((zero, np.cumsum(port_counts))).astype(KEY_DTYPE),
        port_keys=port_keys,
        port_raw=port_raw,
        port_flags=port_flags,
        sender_offsets=np.concatenate((zero, np.cumsum(sender_counts))).astype(
            KEY_DTYPE
        ),
        sender_spines=sender_spines,
        sender_srcs=sender_srcs,
        sender_raw=sender_raw,
        sender_flags=sender_flags,
    )


def _segment_to_batch(segment: IterationSegment) -> RecordBatch:
    return RecordBatch(
        job_id=segment.job_id,
        iteration=segment.iteration,
        collective=segment.collective,
        records=tuple(segment.records()),
    )


def _decode_job_payload(payload: bytes) -> JobConfig:
    try:
        data = json.loads(payload.decode(), parse_constant=_reject_constant)
    except CodecError:
        raise
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise CodecError(f"malformed v2 job frame: {exc}") from exc
    return _job_from_dict(data)


# ----------------------------------------------------------------------
# v1 line decoding
# ----------------------------------------------------------------------
def _parse_line(line: str) -> tuple[str, list]:
    """Validate magic + version; return ``(kind, payload_list)``."""
    try:
        payload = json.loads(line, parse_constant=_reject_constant)
    except CodecError:
        raise
    except (json.JSONDecodeError, RecursionError) as exc:
        raise CodecError(f"not a valid wire line: {exc}") from exc
    if not isinstance(payload, list) or len(payload) < 3:
        raise CodecError("wire line must be a JSON array [magic, version, kind, ...]")
    magic, version, kind = payload[0], payload[1], payload[2]
    if magic != FPREC_MAGIC:
        raise CodecError(f"bad magic {magic!r} (expected {FPREC_MAGIC!r})")
    if not isinstance(version, int):
        raise CodecError(f"version must be an integer, got {version!r}")
    if version != FPREC_VERSION:
        raise UnsupportedVersionError(
            f"JSON line version {version} not supported (JSON lines carry "
            f"version {FPREC_VERSION}; version {FPREC_VERSION_BINARY} payloads "
            "are binary frames)"
        )
    if kind not in ("b", "j"):
        raise CodecError(f"unknown line kind {kind!r}")
    return kind, payload


def _job_from_dict(data) -> JobConfig:
    """A job payload dict back into a :class:`JobConfig`, with unknown
    or missing fields mapped to clear typed errors naming the key."""
    if not isinstance(data, dict):
        raise CodecError("job payload must be a JSON object")
    data = dict(data)
    experiment_data = data.pop("experiment", None)
    if not isinstance(experiment_data, dict):
        raise CodecError("job config missing its 'experiment' object")
    unknown = sorted(set(experiment_data) - _EXPERIMENT_FIELDS)
    if unknown:
        raise CodecError(
            f"unknown experiment field(s) {', '.join(map(repr, unknown))} "
            "(payload from a newer writer?)"
        )
    unknown = sorted(set(data) - _JOB_FIELDS)
    if unknown:
        raise CodecError(
            f"unknown job field(s) {', '.join(map(repr, unknown))} "
            "(payload from a newer writer?)"
        )
    if "job_id" not in data:
        raise CodecError("job config missing required field 'job_id'")
    try:
        experiment = ExperimentConfig(**experiment_data)
        return JobConfig(experiment=experiment, **data)
    except CodecError:
        raise
    except (TypeError, ValueError, RuntimeError) as exc:
        raise CodecError(f"malformed job config: {exc}") from exc


def decode_batch(data: str | bytes) -> RecordBatch:
    """Parse one batch unit (either version) back into an exact
    :class:`RecordBatch`."""
    if isinstance(data, (bytes, bytearray)):
        kind, payload = _split_frame(bytes(data))
        if kind != _KIND_BATCH:
            raise CodecError("expected a batch frame, got a job frame")
        return _segment_to_batch(_decode_segment_payload(payload))
    kind, payload = _parse_line(data)
    if kind != "b":
        raise CodecError(f"expected a batch line, got kind {kind!r}")
    try:
        _magic, _version, _kind, job_id, n_records, iteration, collective, entries = (
            payload
        )
    except ValueError as exc:
        raise CodecError(f"malformed batch line: {exc}") from exc
    tag = FlowTag(
        _int_key(job_id, "job_id"), _int_key(iteration, "iteration"), collective
    )
    if not isinstance(entries, list):
        raise CodecError("batch records must be a JSON array")
    if n_records != len(entries):
        raise CodecError(
            f"batch declares {n_records} records but carries {len(entries)}"
        )
    records = tuple(_decode_record(entry, tag) for entry in entries)
    return RecordBatch(
        job_id=tag.job_id,
        iteration=tag.iteration,
        collective=collective,
        records=records,
    )


def decode_batch_segment(data: bytes) -> IterationSegment:
    """Decode a v2 batch frame straight into its columnar
    :class:`~repro.core.blocks.IterationSegment`.

    This is the shard-worker hot path: the columns come off the wire
    with a handful of buffer views and no per-record dict is ever built.
    """
    kind, payload = _split_frame(require_frame(data))
    if kind != _KIND_BATCH:
        raise CodecError("expected a batch frame, got a job frame")
    return _decode_segment_payload(payload)


def decode_job(data: str | bytes) -> JobConfig:
    """Parse one job unit (either version) back into an exact
    :class:`JobConfig`."""
    if isinstance(data, (bytes, bytearray)):
        kind, payload = _split_frame(bytes(data))
        if kind != _KIND_JOB:
            raise CodecError("expected a job frame, got a batch frame")
        return _decode_job_payload(payload)
    kind, payload = _parse_line(data)
    if kind != "j":
        raise CodecError(f"expected a job line, got kind {kind!r}")
    if len(payload) != 4:
        raise CodecError("malformed job line")
    return _job_from_dict(payload[3])


def decode_line(data: str | bytes):
    """Decode any wire unit; returns ``("b", RecordBatch)`` or
    ``("j", JobConfig)``.  Accepts v1 JSON lines (``str`` or UTF-8
    ``bytes``) and v2 binary frames (``bytes``)."""
    if isinstance(data, (bytes, bytearray)):
        data = bytes(data)
        if data[:1] == BINARY_MAGIC[:1]:
            kind, payload = _split_frame(data)
            if kind == _KIND_BATCH:
                return "b", _segment_to_batch(_decode_segment_payload(payload))
            return "j", _decode_job_payload(payload)
        try:
            data = data.decode()
        except UnicodeDecodeError as exc:
            raise CodecError(f"undecodable wire line: {exc}") from exc
    kind, _payload = _parse_line(data)
    if kind == "b":
        return kind, decode_batch(data)
    return kind, decode_job(data)


def peek_batch_tag(data: str | bytes) -> tuple[int, int, int]:
    """``(job_id, n_records, iteration)`` of a batch unit without a
    full parse.

    A v2 frame yields them from fixed-offset reads — this is what keeps
    the ingest frontend's per-unit cost independent of batch size.  The
    iteration rides along because the service keys its in-flight record
    accounting by ``(job_id, iteration)``.  The fast path validates
    every header field a worker's decode would (magic, version, kind,
    reserved flags, length) plus a non-empty record count, so a
    malformed header raises here, at ingest, instead of deep inside a
    shard worker after the unit was counted.  Anything the fast path
    cannot vouch for — including a v1 line — falls back to a full
    decode (and its typed errors).
    """
    if isinstance(data, (bytes, bytearray)):
        data = bytes(data)
        if (
            len(data) >= _HEADER.size + _BATCH_FIXED.size
            and data[:4] == BINARY_MAGIC
            and data[4] == FPREC_VERSION_BINARY
            and data[5] == _KIND_BATCH
            and data[6:8] == b"\x00\x00"
            and len(data) == _HEADER.size + int.from_bytes(data[8:12], "little")
            and data[28:32] != b"\x00\x00\x00\x00"
        ):
            job_id = int.from_bytes(data[12:20], "little")
            iteration = int.from_bytes(data[20:28], "little")
            n_records = int.from_bytes(data[28:32], "little")
            return job_id, n_records, iteration
    batch = decode_batch(data)  # raises a typed error or handles edge forms
    return batch.job_id, batch.n_records, batch.iteration


def transcode_line(line: str) -> tuple[str, bytes]:
    """One v1 JSON line as ``(kind, v2 frame)`` — the edge conversion.

    The frame is byte-identical to encoding the decoded object directly,
    so everything past the edge sees one unit type whatever the capture
    version; a line that does not decode, or whose batch a frame cannot
    carry, raises :class:`CodecError` here.
    """
    kind, unit = decode_line(line)
    return kind, encode_batch(unit) if kind == "b" else encode_job(unit)


def peek_batch(data: str | bytes) -> tuple[int, int]:
    """``(job_id, n_records)`` of a batch unit without a full parse:
    the routing prefix of :func:`peek_batch_tag`."""
    return peek_batch_tag(data)[:2]


# ----------------------------------------------------------------------
# Incremental stream decoding
# ----------------------------------------------------------------------
#: Whitespace bytes allowed between units on a stream.
_STREAM_WHITESPACE = b"\n\r \t"
#: Default cap on bytes buffered while waiting for a unit to complete.
DEFAULT_MAX_BUFFER = 64 * 1024 * 1024


class StreamDecoder:
    """Incremental ``.fprec`` stream decoder: feed bytes, get units.

    The wire stream is self-delimiting — v1 JSON lines end at ``\\n``,
    v2 binary frames carry a length prefix — so a reader never needs to
    see a whole file (or a whole TCP segment) at once.  ``feed`` accepts
    arbitrary byte chunks, split anywhere (mid-header, mid-line, even
    mid-UTF-8-character), buffers the incomplete tail, and returns every
    unit that completed.  v1 and v2 units may interleave freely on one
    stream, exactly as in a ``.fprec`` file.

    Two output modes:

    - decoded (default): units are ``("b", RecordBatch)`` /
      ``("j", JobConfig)`` pairs, as :func:`iter_fprec` yields.
    - ``raw=True``: units are ``("b" | "j", frame)`` where the frame is
      the v2 wire form — the exact bytes of a v2 unit, or the
      :func:`transcode_line` frame of a v1 line.  This is the edge the
      TCP frontend and journal replay read through: what it yields goes
      straight into ``submit_encoded`` without materializing records.

    ``max_buffer`` bounds memory per stream: a unit that fails to
    complete within that many buffered bytes (or a frame whose length
    prefix alone exceeds it) raises :class:`CodecError` instead of
    growing without bound — one misbehaving connection cannot take the
    ingest frontend down with it.

    Call :meth:`finish` at end of stream: it decodes a final unterminated
    JSON line if one is buffered and raises :class:`CodecError` on a
    truncated frame.
    """

    def __init__(
        self, raw: bool = False, max_buffer: int = DEFAULT_MAX_BUFFER
    ) -> None:
        if max_buffer < _HEADER.size + _BATCH_FIXED.size:
            raise CodecError(f"max_buffer {max_buffer} too small to hold a frame")
        self.raw = raw
        self.max_buffer = max_buffer
        self._buffer = bytearray()
        #: Units and bytes consumed over the decoder's lifetime.
        self.units = 0
        self.consumed = 0

    @property
    def buffered(self) -> int:
        """Bytes held waiting for the current unit to complete."""
        return len(self._buffer)

    def _emit_line(self, line_bytes: bytes):
        try:
            line = line_bytes.decode()
        except UnicodeDecodeError as exc:
            raise CodecError(f"undecodable wire line: {exc}") from exc
        line = line.strip()
        if not line:
            return None
        return transcode_line(line) if self.raw else decode_line(line)

    def _emit_frame(self, frame: bytes):
        kind, _payload = _split_frame(frame)
        label = "b" if kind == _KIND_BATCH else "j"
        if self.raw:
            return label, frame
        return decode_line(frame)

    def feed(self, data: bytes) -> list:
        """Consume one chunk; return the units it completed (often
        empty, sometimes several)."""
        self._buffer += data
        self.consumed += len(data)
        units = []
        buffer = self._buffer
        start = 0
        size = len(buffer)
        while start < size:
            first = buffer[start]
            if first in _STREAM_WHITESPACE:
                start += 1
                continue
            if first == BINARY_MAGIC[0]:
                if size - start < _HEADER.size:
                    break  # wait for the rest of the header
                length = int.from_bytes(
                    buffer[start + 8 : start + 12], "little"
                )
                if _HEADER.size + length > self.max_buffer:
                    raise CodecError(
                        f"binary frame declares {length} payload bytes, "
                        f"over the {self.max_buffer}-byte stream buffer cap"
                    )
                end = start + _HEADER.size + length
                if size < end:
                    break  # wait for the rest of the payload
                unit = self._emit_frame(bytes(buffer[start:end]))
                units.append(unit)
                self.units += 1
                start = end
                continue
            newline = buffer.find(b"\n", start)
            if newline < 0:
                break  # wait for the line terminator
            unit = self._emit_line(bytes(buffer[start:newline]))
            if unit is not None:
                units.append(unit)
                self.units += 1
            start = newline + 1
        del buffer[:start]
        if len(buffer) > self.max_buffer:
            raise CodecError(
                f"unit did not complete within the {self.max_buffer}-byte "
                "stream buffer cap"
            )
        return units

    def finish(self) -> list:
        """End of stream: flush a final unterminated line, or raise on a
        truncated frame."""
        remainder = bytes(self._buffer).strip(_STREAM_WHITESPACE)
        self._buffer.clear()
        if not remainder:
            return []
        if remainder[0] == BINARY_MAGIC[0]:
            raise CodecError("truncated binary frame at end of stream")
        unit = self._emit_line(remainder)
        if unit is None:
            return []
        self.units += 1
        return [unit]


# ----------------------------------------------------------------------
# Files (.fprec): record / replay
# ----------------------------------------------------------------------
def batches_from_run(
    run_records: Iterable[Iterable[IterationRecord]],
) -> list[RecordBatch]:
    """Capture a run (per-iteration record lists, as
    :func:`repro.fastsim.model.run_iterations` or the simnet collectors
    produce) as a batch sequence."""
    return [RecordBatch.from_records(records) for records in run_records]


def _require_binary_stream(stream) -> None:
    if isinstance(stream, io.TextIOBase):
        raise CodecError(
            "fprec streams are binary: pass a path or a binary stream, "
            "not a text stream"
        )


def write_fprec(
    target: str | pathlib.Path | IO,
    jobs: Iterable[JobConfig] = (),
    batches: Iterable[RecordBatch] = (),
) -> int:
    """Write jobs then batches as a ``.fprec`` stream of v2 frames to a
    path or a binary stream; returns the unit count."""
    if isinstance(target, (str, pathlib.Path)):
        with open(target, "wb") as handle:
            return write_fprec(handle, jobs, batches)
    _require_binary_stream(target)
    count = 0
    for job in jobs:
        target.write(encode_job(job))
        count += 1
    for batch in batches:
        target.write(encode_batch(batch))
        count += 1
    return count


#: Read size for chunked .fprec file replay.
_REPLAY_CHUNK = 1 << 20


def _iter_fprec_binary(stream, raw: bool = False) -> Iterator[tuple[str, object]]:
    """Stream mixed v1 lines / v2 frames from a binary stream.

    Built on the same :class:`StreamDecoder` the TCP ingest frontend
    uses, so file replay, journal replay (``raw=True``) and socket
    ingest share one framing implementation (and one set of truncation
    errors).
    """
    decoder = StreamDecoder(raw=raw)
    while True:
        chunk = stream.read(_REPLAY_CHUNK)
        if not chunk:
            break
        yield from decoder.feed(chunk)
    yield from decoder.finish()


def iter_fprec(source: str | pathlib.Path | IO) -> Iterator[tuple[str, object]]:
    """Stream a ``.fprec`` file (a path or a binary stream) as
    ``("j", JobConfig)`` / ``("b", RecordBatch)`` events.

    Every unit's version is auto-detected, so v2 frames and the v1 JSON
    lines of old captures (blank lines skipped) mix freely in one
    stream.
    """
    if isinstance(source, (str, pathlib.Path)):
        with open(source, "rb") as handle:
            yield from _iter_fprec_binary(handle)
        return
    _require_binary_stream(source)
    yield from _iter_fprec_binary(source)


@dataclass
class FprecContent:
    """A fully-loaded ``.fprec`` file."""

    jobs: list[JobConfig] = field(default_factory=list)
    batches: list[RecordBatch] = field(default_factory=list)

    @property
    def n_records(self) -> int:
        return sum(batch.n_records for batch in self.batches)

    def job_ids(self) -> list[int]:
        return [job.job_id for job in self.jobs]


def read_fprec(source: str | pathlib.Path | IO) -> FprecContent:
    """Load a ``.fprec`` file eagerly."""
    content = FprecContent()
    for kind, payload in iter_fprec(source):
        if kind == "j":
            content.jobs.append(payload)
        else:
            content.batches.append(payload)
    return content
