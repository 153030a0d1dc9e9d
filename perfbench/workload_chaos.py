"""The ``chaos-simnet`` workload: packet-level closed-loop scenarios.

A fixed set of seeded chaos scenarios covering every kind in
``ALL_KINDS`` runs serially through ``SimnetClosedLoopDriver`` and then
``check_invariants``.  The fabric is pinned to 4x3 and the collective
to 375 kB so that a pass stays near 20 s: round-robin quantization noise
(about mtu * spines * hosts / bytes = 0.033) then equals that of the
largest fabric the default chaos batch draws (6x4 at 750 kB), under the
0.05 threshold.  Scenario seeds 9 and 11 are left out: they are cotenant
scenarios with two background jobs and cost three times a normal one.
The set always runs whole, so every run does the same work; the seed
only orders it.  13 scenarios x 8 iterations give 104 iteration
samples, so p90 has 10 samples beyond it.
"""

from __future__ import annotations

import json
import pathlib
import random
import time

from repro.core.localization import Localizer
from repro.core.monitor import FlowPulseMonitor
from repro.core.remediation import RemediationEngine
from repro.scenarios.chaos import (
    ALL_KINDS,
    ChaosConfig,
    check_invariants,
    generate_scenario,
    outcome_digest,
)
from repro.scenarios.closed_loop import SimnetClosedLoopDriver

from common import Outcome, beyond, freeze_harness, log, median, peak_rss_mb, percentile
from spans import SpanRecorder, write_trace

CHAOS = ChaosConfig(kinds=ALL_KINDS, fabric=(4, 3), collective_bytes=375_000)
SCENARIO_SEEDS = (0, 1, 2, 3, 4, 5, 6, 7, 8, 10, 12, 13, 14)

PINS = pathlib.Path(__file__).with_name("pins.json")


def run_one(seed: int, recorder: SpanRecorder | None = None) -> dict:
    """Build, run and check one scenario; returns its measurements."""
    scenario = generate_scenario(seed, CHAOS)
    if recorder is not None:
        recorder.new_trace()
    started = time.perf_counter()
    driver = SimnetClosedLoopDriver(
        scenario.config, iteration_faults=scenario.iteration_faults
    )
    setup_s = time.perf_counter() - started
    boundaries: list[float] = []
    on_iteration_done = driver.runner.on_iteration_done

    def stamped(iteration: int, now: int) -> None:
        on_iteration_done(iteration, now)
        boundaries.append(time.perf_counter())

    driver.runner.on_iteration_done = stamped
    run = driver.run
    check = check_invariants
    if recorder is not None:
        run = recorder.wrap("simnet:driver.run", run)
        check = recorder.wrap("scenarios:check_invariants", check)
    run_started = time.perf_counter()
    result = run()
    run_s = time.perf_counter() - run_started
    violations = check(scenario, result, driver, CHAOS)
    edges = [run_started] + boundaries
    return {
        "seed": seed,
        "kind": scenario.kind,
        "setup_s": setup_s,
        "run_s": run_s,
        "iterations": result.iterations_completed,
        "iteration_ms": [1e3 * (b - a) for a, b in zip(edges, edges[1:])],
        "events": driver.network.sim.events_executed,
        "retransmitted": sum(h.transport.retransmitted_packets for h in driver.network.hosts),
        "digest": outcome_digest(result),
        "violations": violations,
        "stalled": result.stalled,
    }


def pinned() -> dict[int, dict]:
    return {entry["seed"]: entry for entry in json.loads(PINS.read_text())["chaos"]}


def run_set(seed: int, seconds: float, out: Outcome, recorder=None) -> list[dict]:
    pins = pinned()
    order = list(SCENARIO_SEEDS)
    random.Random(seed).shuffle(order)
    runs = []
    started = time.perf_counter()
    while not runs or time.perf_counter() - started < seconds:
        for scenario_seed in order:
            log(f"chaos-simnet: scenario {scenario_seed}")
            one = run_one(scenario_seed, recorder)
            pin = pins[scenario_seed]
            out.check(not one["violations"], f"chaos-simnet: seed {scenario_seed} {one['violations']}")
            out.check(
                one["events"] == pin["events"],
                f"chaos-simnet: seed {scenario_seed} ran {one['events']} events, pinned {pin['events']}",
            )
            out.check(
                one["digest"] == pin["digest"],
                f"chaos-simnet: seed {scenario_seed} digest {one['digest'][:12]} != pinned {pin['digest'][:12]}",
            )
            out.attempted += 1
            out.failed += int(bool(one["violations"]) or one["stalled"])
            runs.append(one)
    return runs


def rate(runs: list[dict]) -> float:
    """Monitored iterations per host second of driver.run()."""
    return sum(r["iterations"] for r in runs) / sum(r["run_s"] for r in runs)


def run(seed: int, seconds: float, trace: bool, out: Outcome, out_dir: pathlib.Path) -> None:
    out.note(
        f"size: {len(SCENARIO_SEEDS)} scenarios (seeds {list(SCENARIO_SEEDS)}) over "
        f"{sorted(ALL_KINDS)}; fabric {CHAOS.fabric}, {CHAOS.collective_bytes} B "
        f"collective, {CHAOS.n_iterations} iterations, threshold {CHAOS.threshold}"
    )
    freeze_harness()
    runs = run_set(seed, seconds, out)
    iteration_ms = [ms for r in runs for ms in r["iteration_ms"]]
    untraced = rate(runs)
    out.e2e["setup_s"] = median([r["setup_s"] for r in runs])
    out.e2e["throughput_per_s"] = untraced
    out.layers["latency.p50_ms"] = percentile(iteration_ms, 50)
    out.e2e["latency_p90_ms"] = percentile(iteration_ms, 90)
    out.e2e["peak_rss_mb"] = peak_rss_mb()
    out.layers["latency.samples"] = len(iteration_ms)
    events = sum(r["events"] for r in runs)
    out.note(
        f"sim_iterations_per_s = {untraced:.4f} (throughput_per_s); "
        f"{events / sum(r['run_s'] for r in runs):.0f} events/s"
    )
    out.note(
        f"iteration host time p50 {out.layers['latency.p50_ms']:.1f} ms, p90 "
        f"{out.e2e['latency_p90_ms']:.1f} ms over {len(iteration_ms)} iterations "
        f"({beyond(len(iteration_ms), 90):.1f} beyond p90)"
    )
    out.note(f"setup_s = median driver + network construction over {len(runs)} scenarios")
    if not trace:
        return

    recorder = SpanRecorder()
    recorder.patch(FlowPulseMonitor, "process_iteration", "core.monitor:process_iteration")
    recorder.patch(Localizer, "localize", "core.localization:localize")
    recorder.patch(RemediationEngine, "observe", "core.remediation:observe")
    try:
        traced_runs = run_set(seed, seconds, out, recorder)
    finally:
        recorder.restore()
    traced_events = sum(r["events"] for r in traced_runs)
    run_busy = recorder.busy("simnet:driver.run")
    out.layers["trace.overhead_pct"] = 100.0 * (untraced / rate(traced_runs) - 1.0)
    out.layers["simnet.events"] = traced_events
    out.layers["simnet.events_per_s"] = traced_events / run_busy
    out.layers["simnet.self_s"] = recorder.self_time("simnet:driver.run")
    out.layers["simnet.retransmitted_packets"] = sum(r["retransmitted"] for r in traced_runs)
    out.layers["scenarios.check_s"] = recorder.busy("scenarios:check_invariants")
    out.layers["remediation.observe_s"] = recorder.busy("core.remediation:observe")
    calls = recorder.named("core.monitor:process_iteration")
    out.layers["monitor.iteration_ms"] = (
        1e3 * recorder.self_time("core.monitor:process_iteration") / len(calls)
    )
    out.layers["trace.spans"] = len(recorder.spans)
    out.note(
        f"tracing overhead: {out.layers['trace.overhead_pct']:+.1f} % "
        f"(untraced {untraced:.4f} vs traced {rate(traced_runs):.4f} iterations/s)"
    )
    write_trace(out, recorder, out_dir, "chaos-simnet", seed)
