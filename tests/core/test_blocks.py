"""Columnar segments and vectorized block scoring.

The load-bearing property is golden parity: for any chunking of
segments and any predictor, ``process_block`` must produce verdicts
bit-identical to feeding the same iterations one at a time through
``process_iteration``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.experiments import ExperimentConfig, build_trial, demand_for, make_predictor
from repro.core.blocks import BlockError, IterationSegment, segments_from_run
from repro.core.detection import DetectionConfig
from repro.core.monitor import FlowPulseMonitor
from repro.fastsim.model import run_iterations
from repro.simnet.counters import IterationRecord
from repro.simnet.packet import FlowTag


def make_record(leaf=0, iteration=0, port_bytes=None, sender_bytes=None):
    return IterationRecord(
        leaf=leaf,
        tag=FlowTag(job_id=7, iteration=iteration),
        port_bytes=port_bytes if port_bytes is not None else {0: 1000, 1: 2000},
        sender_bytes=sender_bytes if sender_bytes is not None else {(0, 1): 400},
        start_ns=10,
        end_ns=50,
    )


def experiment(**overrides) -> ExperimentConfig:
    defaults = dict(
        n_leaves=6,
        n_spines=3,
        collective_bytes=1 << 30,
        n_iterations=10,
        fault_start_iteration=5,
    )
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


def run_records(config: ExperimentConfig, faulted=True, trial=0):
    setup = build_trial(config, base_seed=3, trial=trial)

    def schedule(iteration):
        if faulted and iteration >= config.fault_start_iteration:
            return {setup.fault_link: config.drop_rate}
        return {}

    iterations = run_iterations(
        setup.model,
        demand_for(config),
        config.n_iterations,
        seed=11,
        job_id=config.job_id,
        fault_schedule=schedule,
    )
    return setup, iterations


def fresh_monitor(config: ExperimentConfig, setup) -> FlowPulseMonitor:
    return FlowPulseMonitor(
        make_predictor(config, setup), DetectionConfig(threshold=config.threshold)
    )


# ----------------------------------------------------------------------
# Segment construction and materialization
# ----------------------------------------------------------------------
def test_segment_round_trips_records():
    records = [make_record(leaf=leaf) for leaf in (2, 0, 1)]
    segment = IterationSegment.from_records(records)
    assert segment.n_records == 3
    assert segment.records() == records  # order preserved
    assert [int(leaf) for leaf in segment.leaves] == [2, 0, 1]


def test_segment_lazy_record_materialization():
    records = [
        make_record(leaf=0, port_bytes={3: 10, 1: 20.5}, sender_bytes={(1, 2): 7})
    ]
    segment = IterationSegment.from_records(records)
    segment._records = None  # force rebuild from columns (the wire path)
    rebuilt = segment.record(0)
    assert rebuilt == records[0]
    # exact value types survive the raw/flag columns
    assert type(rebuilt.port_bytes[3]) is int
    assert type(rebuilt.port_bytes[1]) is float


def test_segment_rejects_empty_and_mixed_tags():
    with pytest.raises(BlockError, match="empty"):
        IterationSegment.from_records([])
    with pytest.raises(BlockError, match="mixed tags"):
        IterationSegment.from_records(
            [make_record(iteration=0), make_record(leaf=1, iteration=1)]
        )


def test_segment_rejects_out_of_range_ints():
    with pytest.raises(BlockError, match="64-bit"):
        IterationSegment.from_records([make_record(port_bytes={0: 2**70})])


def test_port_pattern_uniform():
    records = [make_record(leaf=leaf, port_bytes={2: 5, 0: 7}) for leaf in range(3)]
    segment = IterationSegment.from_records(records)
    assert list(segment.port_pattern()) == [0, 2]  # sorted within record
    matrix = segment.port_value_matrix()
    assert matrix.shape == (3, 2)
    assert matrix.dtype == np.float64
    assert matrix[0].tolist() == [7.0, 5.0]


def test_port_pattern_irregular_is_none():
    records = [
        make_record(leaf=0, port_bytes={0: 1, 1: 2}),
        make_record(leaf=1, port_bytes={0: 1, 2: 2}),  # different spine set
    ]
    segment = IterationSegment.from_records(records)
    assert segment.port_pattern() is None
    with pytest.raises(BlockError, match="pattern"):
        segment.port_value_matrix()


def test_segments_from_run():
    config = experiment(n_iterations=4)
    _setup, iterations = run_records(config)
    segments = segments_from_run(iterations)
    assert len(segments) == 4
    assert all(s.n_records == config.n_leaves for s in segments)
    assert [s.iteration for s in segments] == [0, 1, 2, 3]


# ----------------------------------------------------------------------
# process_block golden parity
# ----------------------------------------------------------------------
@pytest.mark.parametrize("predictor", ["analytical", "simulation", "learned"])
@pytest.mark.parametrize("chunk", [1, 3, 10])
def test_process_block_parity_segments(predictor, chunk):
    config = experiment(predictor=predictor)
    setup, iterations = run_records(config)
    reference_monitor = fresh_monitor(config, setup)
    reference = [reference_monitor.process_iteration(list(r)) for r in iterations]
    assert any(v.triggered for v in reference)  # the fault is visible

    block_monitor = fresh_monitor(config, setup)
    segments = segments_from_run(iterations)
    for segment in segments:
        segment._records = None  # force the columnar path end to end
    got = []
    for start in range(0, len(segments), chunk):
        got.extend(block_monitor.process_block(segments[start : start + chunk]))
    assert got == reference  # bit-identical IterationVerdicts


def test_process_block_rejects_record_lists():
    """Segments are the only block entry: a record list, alone or mixed
    with segments, is a typed error."""
    config = experiment()
    setup, iterations = run_records(config)
    monitor = fresh_monitor(config, setup)
    segment = IterationSegment.from_records(list(iterations[0]))
    for block in ([list(iterations[0])], [segment, list(iterations[1])]):
        with pytest.raises(BlockError, match="IterationSegment"):
            monitor.process_block(block)


def test_process_block_empty():
    config = experiment()
    setup, _iterations = run_records(config)
    assert fresh_monitor(config, setup).process_block([]) == []


def test_process_block_healthy_quiet_path_is_dense():
    """A healthy run is the vectorized fast path end to end: every
    verdict quiet, none skipped after warmup, and still bit-identical."""
    config = experiment()
    setup, iterations = run_records(config, faulted=False)
    reference_monitor = fresh_monitor(config, setup)
    reference = [reference_monitor.process_iteration(list(r)) for r in iterations]
    assert not any(v.triggered for v in reference)

    block_monitor = fresh_monitor(config, setup)
    segments = segments_from_run(iterations)
    for segment in segments:
        segment._records = None
    got = block_monitor.process_block(segments)
    assert got == reference
    # lazy details (ports/deviations) must match too, not just scores
    for ours, ref in zip(got, reference):
        for a, b in zip(ours.results, ref.results):
            assert a.leaf == b.leaf
            assert a.deviations == b.deviations
