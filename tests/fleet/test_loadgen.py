"""Load-generator tests: determinism, ground truth, record/replay."""

from __future__ import annotations

import io
from dataclasses import replace

import pytest

from repro.analysis.experiments import run_trial_with_verdict
from repro.fleet import (
    FleetError,
    LoadGenConfig,
    generate_jobs,
    generate_workload,
    read_fprec,
    write_workload,
)
from repro.fleet.loadgen import faulted_job_ids, job_records

from .conftest import SMALL_EXPERIMENT, SMALL_LOADGEN


def test_workload_is_deterministic():
    jobs_a, batches_a = generate_workload(SMALL_LOADGEN)
    jobs_b, batches_b = generate_workload(SMALL_LOADGEN)
    assert jobs_a == jobs_b
    assert batches_a == batches_b


def test_fault_fraction_respected():
    config = replace(SMALL_LOADGEN, n_jobs=8, fault_fraction=0.25)
    jobs = generate_jobs(config)
    assert sum(1 for job in jobs if job.faulted) == 2
    assert all(job.fault_link is not None for job in jobs if job.faulted)
    assert all(job.fault_link is None for job in jobs if not job.faulted)


def test_fault_selection_changes_with_seed():
    base = replace(SMALL_LOADGEN, n_jobs=12, fault_fraction=0.5)
    first = faulted_job_ids(base)
    second = faulted_job_ids(replace(base, base_seed=base.base_seed + 1))
    assert first != second


def test_zero_and_full_fault_fractions():
    none = generate_jobs(replace(SMALL_LOADGEN, fault_fraction=0.0))
    assert not any(job.faulted for job in none)
    everyone = generate_jobs(replace(SMALL_LOADGEN, fault_fraction=1.0))
    assert all(job.faulted for job in everyone)


def test_batches_interleaved_round_robin(small_workload):
    jobs, batches = small_workload
    n_jobs = len(jobs)
    first_wave = batches[:n_jobs]
    assert [batch.iteration for batch in first_wave] == [0] * n_jobs
    assert [batch.job_id for batch in first_wave] == [job.job_id for job in jobs]
    second_wave = batches[n_jobs : 2 * n_jobs]
    assert [batch.iteration for batch in second_wave] == [1] * n_jobs


def test_job_records_match_direct_trial():
    """A generated job's stream is the same record stream its direct
    single-job trial would see — fleet results are comparable to trial
    results by construction."""
    config = SMALL_LOADGEN
    job = next(job for job in generate_jobs(config) if job.faulted)
    batches = job_records(config, job)
    _outcome, verdict = run_trial_with_verdict(
        job.experiment, injected=True, base_seed=job.base_seed, trial=job.trial
    )
    assert len(verdict.verdicts) == len(batches)
    # same fault, same stream: the direct trial's verdict on this stream
    # exists; spot-check alignment through the batch tags
    for iteration, batch in enumerate(batches):
        assert batch.iteration == iteration
        assert batch.job_id == job.job_id


def test_invalid_config_rejected():
    with pytest.raises(FleetError):
        LoadGenConfig(n_jobs=0)
    with pytest.raises(FleetError):
        LoadGenConfig(n_iterations=0)
    with pytest.raises(FleetError):
        LoadGenConfig(fault_fraction=1.5)


def test_write_workload_round_trips():
    config = replace(SMALL_LOADGEN, n_jobs=3, n_iterations=2)
    buffer = io.BytesIO()
    jobs, n_lines = write_workload(config, buffer)
    assert n_lines == 3 + 3 * 2
    buffer.seek(0)
    content = read_fprec(buffer)
    assert content.jobs == jobs
    _jobs, batches = generate_workload(config)
    assert content.batches == batches


def test_default_experiment_template():
    config = LoadGenConfig(n_jobs=2, n_iterations=4)
    template = config.template()
    assert template.n_iterations == 4
    jobs = generate_jobs(config)
    assert [job.experiment.job_id for job in jobs] == [1, 2]
    assert all(job.experiment.n_iterations == 4 for job in jobs)


def test_template_overrides_iterations():
    config = LoadGenConfig(
        n_jobs=2, n_iterations=7, experiment=replace(SMALL_EXPERIMENT, n_iterations=99)
    )
    assert config.template().n_iterations == 7
