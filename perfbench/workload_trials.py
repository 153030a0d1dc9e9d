"""The ``roc-trials`` workload: paper-default monitored fastsim trials.

Each trial is ``run_trial`` on a 32x16 fabric with 8 GiB collectives
and 5 iterations, half with an injected fault and half healthy, with no
predictor cache: fastsim, predictor build and scalar
``process_iteration`` scoring all run per trial.  Trials come from a
pool of ``POOL_SIZE`` whose outcomes are pinned in ``pins.json``; the
seed orders the pool and a run cycles through it until time is up.
"""

from __future__ import annotations

import json
import pathlib
import time

import numpy as np

from repro.analysis import experiments
from repro.analysis.experiments import ExperimentConfig, run_trial
from repro.core.localization import Localizer
from repro.core.monitor import FlowPulseMonitor

from common import Outcome, beyond, freeze_harness, median, peak_rss_mb, percentile
from spans import SpanRecorder, write_trace

CONFIG = ExperimentConfig()  # paper defaults: 32x16, 8 GiB, 5 iterations
POOL_BASE_SEED = 2025
POOL_SIZE = 1024
#: One trial in this many runs cold and is timed as set-up.
COLD_EVERY = 128

PINS = pathlib.Path(__file__).with_name("pins.json")


def pool_trial(index: int) -> tuple[bool, int]:
    """Pool entry -> ``(injected, trial)``: even entries are faulted."""
    return index % 2 == 0, index // 2


def summarize(outcome) -> list:
    """What is pinned per trial: score, triggered flag, suspect set."""
    return [outcome.score, outcome.triggered, sorted(outcome.suspected_links)]


def one_trial(index: int) -> list:
    injected, trial = pool_trial(index)
    return summarize(run_trial(CONFIG, injected, base_seed=POOL_BASE_SEED, trial=trial))


def cycle(seed: int, seconds: float, out: Outcome, pins: list, recorder=None):
    """Run pool trials in seed order until ``seconds`` have passed.

    Every ``COLD_EVERY``-th trial, the first included, runs cold: the
    demand-matrix cache later trials reuse is emptied first, and its
    time is a set-up sample rather than a latency sample.  Spread over
    the run, the set-up samples see the same host speeds as the rest.
    Returns ``(latencies_ms, trials_per_s, setup_samples_s)``.
    """
    order = np.random.default_rng(seed).permutation(POOL_SIZE)
    times_ms: list[float] = []
    cold_s: list[float] = []
    started = time.perf_counter()
    position = 0
    while time.perf_counter() - started < seconds:
        index = int(order[position % POOL_SIZE])
        cold = position % COLD_EVERY == 0
        position += 1
        if cold:
            experiments._DEMAND_CACHE.clear()
        if recorder is not None:
            recorder.new_trace()
        t0 = time.perf_counter()
        try:
            if recorder is not None:
                with recorder.span("analysis:run_trial"):
                    got = one_trial(index)
            else:
                got = one_trial(index)
        except Exception as exc:  # a trial that did not finish
            out.failed += 1
            out.attempted += 1
            out.check(False, f"roc-trials: pool entry {index} raised {type(exc).__name__}: {exc}")
            continue
        took = time.perf_counter() - t0
        if cold:
            cold_s.append(took)
        else:
            times_ms.append(1e3 * took)
        out.attempted += 1
        out.check(got == pins[index], f"roc-trials: pool entry {index} gave {got}, pinned {pins[index]}")
    warm_s = time.perf_counter() - started - sum(cold_s)
    return times_ms, len(times_ms) / warm_s, cold_s


def run(seed: int, seconds: float, trace: bool, out: Outcome, out_dir: pathlib.Path) -> None:
    pins = json.loads(PINS.read_text())["roc_trials"]
    out.note(
        f"size: {CONFIG.n_leaves}x{CONFIG.n_spines} fabric, "
        f"{CONFIG.collective_bytes >> 30} GiB, {CONFIG.n_iterations} iterations per "
        f"trial, pool of {POOL_SIZE} (base seed {POOL_BASE_SEED}, half faulted)"
    )
    freeze_harness()
    times_ms, untraced, setups = cycle(seed, seconds, out, pins)
    out.e2e["setup_s"] = median(setups)
    out.e2e["throughput_per_s"] = untraced
    out.layers["latency.p50_ms"] = percentile(times_ms, 50)
    out.e2e["latency_p90_ms"] = percentile(times_ms, 90)
    out.e2e["peak_rss_mb"] = peak_rss_mb()
    out.layers["latency.samples"] = len(times_ms)
    out.note(f"trials_per_s = {untraced:.3f} (throughput_per_s)")
    out.note(
        f"trial time p50 {out.layers['latency.p50_ms']:.3f} ms, p90 "
        f"{out.e2e['latency_p90_ms']:.3f} ms over {len(times_ms)} trials "
        f"({beyond(len(times_ms), 90):.0f} beyond p90)"
    )
    out.note(
        f"setup_s = median of {len(setups)} cold trials (the process's first, then "
        f"one in {COLD_EVERY} with the demand-matrix cache emptied)"
    )
    if not trace:
        return

    recorder = SpanRecorder()
    recorder.patch(experiments, "run_iterations", "fastsim:run_iterations")
    recorder.patch(experiments, "make_predictor", "analysis:make_predictor")
    recorder.patch(experiments, "build_trial", "analysis:build_trial")
    recorder.patch(FlowPulseMonitor, "process_iteration", "core.monitor:process_iteration")
    recorder.patch(Localizer, "localize", "core.localization:localize")
    try:
        traced_ms, traced, _cold = cycle(seed, seconds, out, pins, recorder)
    finally:
        recorder.restore()
    n_trials = len(traced_ms)
    out.layers["trace.overhead_pct"] = 100.0 * (untraced / traced - 1.0)
    out.layers["fastsim.run_iterations_ms"] = 1e3 * recorder.busy("fastsim:run_iterations") / n_trials
    out.layers["analysis.predictor_build_ms"] = 1e3 * recorder.busy("analysis:make_predictor") / n_trials
    calls = recorder.named("core.monitor:process_iteration")
    out.layers["monitor.iteration_ms"] = (
        1e3 * recorder.self_time("core.monitor:process_iteration") / len(calls)
    )
    out.layers["trace.spans"] = len(recorder.spans)
    out.note(
        f"tracing overhead: {out.layers['trace.overhead_pct']:+.1f} % "
        f"(untraced {untraced:.2f} vs traced {traced:.2f} trials/s)"
    )
    write_trace(out, recorder, out_dir, "roc-trials", seed)
