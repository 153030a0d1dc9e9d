"""End-to-end tests for the packet-level closed loop.

The flagship test is the paper's full operator story on real packets:
a silent drop fault appears mid-run, FlowPulse detects it from tagged
switch counters, localizes it to the faulted cable, the control plane
disables that cable between iterations, and the remaining iterations
run quiet under the detection threshold.
"""

from __future__ import annotations

import pytest

from repro.core.remediation import RemediationAction
from repro.scenarios import (
    FaultEvent,
    FaultScript,
    SimnetClosedLoopConfig,
    SimnetClosedLoopDriver,
    run_simnet_closed_loop,
)
from repro.scenarios.chaos import outcome_digest
from repro.simnet import CongestionConfig, DropFault

#: Small enough to run in seconds, large enough that round-robin packet
#: quantization noise (~mtu * spines * hosts / bytes = 0.8%) stays under
#: the 1% detection threshold.
CONFIG = SimnetClosedLoopConfig(
    n_leaves=5,
    n_spines=3,
    collective_bytes=1_000_000,
    mtu=512,
    n_iterations=8,
    threshold=0.01,
)

FAULT_LINK = "up:L2->S1"
FAULT_ITERATION = 2


def test_detect_localize_disable_recover_end_to_end():
    result = run_simnet_closed_loop(
        CONFIG,
        iteration_faults={
            FAULT_ITERATION: [
                FaultEvent(0, "inject", FAULT_LINK, DropFault(0.5))
            ]
        },
    )
    # The run itself survives the fault: no stall, no failed messages,
    # every iteration completes.
    assert not result.stalled
    assert result.failed_messages == 0
    assert result.iterations_completed == CONFIG.n_iterations

    # Detection fires the iteration the fault appears; localization
    # points at the faulted link.
    assert result.detection_iteration == FAULT_ITERATION
    detection_step = result.steps[FAULT_ITERATION]
    assert FAULT_LINK in detection_step.suspected_links
    assert detection_step.max_score > 0.1

    # Confirmation takes one more faulty iteration, then the cable is
    # disabled in the live control plane.
    assert result.remediation_iteration == FAULT_ITERATION + 1
    assert len(result.actions) == 1
    assert FAULT_LINK in result.actions[0].disabled_links
    assert FAULT_LINK in result.steps[-1].disabled_so_far

    # Temporal symmetry restored: the tail runs quiet, under 1%.
    assert result.recovered
    assert result.post_remediation_max_score < 0.01
    # The fault was injected exactly once, at the scripted boundary.
    assert [e.action for _, e in result.applied_fault_events] == ["inject"]


def test_healthy_run_never_alarms():
    config = SimnetClosedLoopConfig(
        n_leaves=5,
        n_spines=3,
        collective_bytes=1_000_000,
        mtu=512,
        n_iterations=4,
        threshold=0.01,
    )
    result = run_simnet_closed_loop(config)
    assert result.iterations_completed == 4
    assert result.detection_iteration is None
    assert result.actions == []
    assert result.failed_messages == 0
    assert all(s.max_score < 0.01 for s in result.steps)


def test_wall_clock_fault_script_fires_mid_run():
    config = SimnetClosedLoopConfig(
        n_leaves=5,
        n_spines=3,
        collective_bytes=1_000_000,
        mtu=512,
        n_iterations=6,
        threshold=0.01,
    )
    # 100 us is early inside iteration 0 for this config.
    script = FaultScript().inject(100_000, FAULT_LINK, DropFault(0.5))
    result = run_simnet_closed_loop(config, script=script)
    assert len(result.applied_fault_events) == 1
    fired_at, event = result.applied_fault_events[0]
    assert fired_at == 100_000
    assert event.link == FAULT_LINK
    # The fault lands partway through an iteration window; the partial
    # deficit may dilute below threshold, so the alarm is only
    # guaranteed once a full window runs under the fault.
    assert result.detection_iteration is not None
    assert result.detection_iteration <= 2
    assert result.actions
    assert result.recovered


def test_partitioning_remediation_is_vetoed():
    driver = SimnetClosedLoopDriver(CONFIG)
    spec = CONFIG.spec()
    # An action that would take leaf 0 off every spine: the driver must
    # refuse it and leave the control plane untouched.
    all_uplinks = frozenset(
        link
        for spine in range(spec.n_spines)
        for link in (f"up:L0->S{spine}", f"down:S{spine}->L0")
    )
    lethal = RemediationAction(
        iteration=0,
        cables=frozenset((0, s) for s in range(spec.n_spines)),
        disabled_links=all_uplinks,
    )
    assert driver._apply_action(lethal) is False
    assert driver.network.control.known_disabled == frozenset()

    # A single-cable action is benign and goes through.
    benign = RemediationAction(
        iteration=0,
        cables=frozenset({(0, 0)}),
        disabled_links=frozenset({"up:L0->S0", "down:S0->L0"}),
    )
    assert driver._apply_action(benign) is True
    assert "up:L0->S0" in driver.network.control.known_disabled


# ----------------------------------------------------------------------
# Golden parity: the congestion layer is off by default
# ----------------------------------------------------------------------
#: Outcome digests recorded before the ECN/congestion layer existed.
#: A default-config run (no ``ecn_threshold_bytes``, no ``congestion``)
#: must stay bit-identical under every spray policy.
GOLDEN_CONFIG = dict(
    n_leaves=4, n_spines=3, n_iterations=4, collective_bytes=300_000, seed=7
)
GOLDEN_DIGESTS = {
    "round_robin": "29a92de66bfea2307f86748a3d2575c83863dbbcd3d790c53ca1bf1b1b11c292",
    "random": "4d787f023e503341cd3a90ccb84a8a58d0001dcbf31ad3d9b5fca027cb8e4383",
    "adaptive": "c642624747ae68fd4e8ef4f313407f023a470c7df7111981609b074a1399ccb7",
    "ecmp": "3226d76e1ef162ca307d2d5da8b5f0178083d1ad75537c02930e2ed6675aac5e",
}


#: Events the engine executes for every golden run: a healthy fabric
#: gives every packet the same hop count whatever the spray policy, so
#: the pins agree; a change that adds, drops or fuses events moves it.
GOLDEN_EVENTS = 112_916


def _golden_run(**overrides) -> tuple[str, int]:
    driver = SimnetClosedLoopDriver(
        SimnetClosedLoopConfig(**overrides, **GOLDEN_CONFIG)
    )
    result = driver.run()
    return outcome_digest(result), driver.network.sim.events_executed


@pytest.mark.parametrize("spray", sorted(GOLDEN_DIGESTS))
def test_ecn_off_runs_stay_bit_identical(spray):
    assert _golden_run(spray=spray) == (GOLDEN_DIGESTS[spray], GOLDEN_EVENTS)


#: Pins for the simnet paths the digests above leave uncovered: the two
#: remaining spray policies and the ECN + DCQCN congestion loop.
OTHER_GOLDEN_RUNS = {
    "po2": (
        dict(spray="po2"),
        "12f3040f7e478e144772a4c5ed3736b2c5a2ea16033bfaf7d95534e10de1e524",
    ),
    "flowlet": (
        dict(spray="flowlet"),
        "d7c4076e6f7b40c69ffde8f05c19a521e6132cc8d609eee2b6150ba219a2dc13",
    ),
    "ecn_dcqcn": (
        dict(ecn_threshold_bytes=4096, congestion=CongestionConfig()),
        "2280d5f38733af4d049831c8a8a43b3d185c733adbf5289a8d1d7302c475472d",
    ),
}


@pytest.mark.parametrize("name", sorted(OTHER_GOLDEN_RUNS))
def test_other_simnet_paths_stay_bit_identical(name):
    overrides, digest = OTHER_GOLDEN_RUNS[name]
    assert _golden_run(**overrides) == (digest, GOLDEN_EVENTS)


def test_ecn_enabled_marks_and_still_completes():
    config = SimnetClosedLoopConfig(
        ecn_threshold_bytes=4096,
        congestion=CongestionConfig(),
        **GOLDEN_CONFIG,
    )
    driver = SimnetClosedLoopDriver(config)
    result = driver.run()
    assert result.iterations_completed == config.n_iterations
    assert not result.stalled
    assert driver.network.total_ecn_marks() > 0


# ----------------------------------------------------------------------
# Reroute remediation and co-tenancy
# ----------------------------------------------------------------------
def test_reroute_remediation_excludes_without_disabling():
    config = SimnetClosedLoopConfig(
        n_leaves=5,
        n_spines=3,
        collective_bytes=1_000_000,
        mtu=512,
        n_iterations=8,
        threshold=0.01,
        remediation="reroute",
    )
    driver = SimnetClosedLoopDriver(
        config,
        iteration_faults={
            FAULT_ITERATION: [
                FaultEvent(0, "inject", FAULT_LINK, DropFault(0.5))
            ]
        },
    )
    result = driver.run()
    assert result.actions
    # The suspect cable left the spray candidate set but stays up.
    assert FAULT_LINK in driver.network.control.spray_excluded
    assert driver.network.control.known_disabled == frozenset()
    assert result.recovered


def test_background_cotenants_share_the_fabric_quietly():
    config = SimnetClosedLoopConfig(
        n_leaves=4,
        n_spines=3,
        hosts_per_leaf=2,
        background_jobs=1,
        collective_bytes=300_000,
        mtu=512,
        n_iterations=3,
        threshold=0.05,
        seed=3,
    )
    result = run_simnet_closed_loop(config)
    assert result.iterations_completed == 3
    assert not result.stalled
    # Co-tenant load alone is symmetric noise, not an asymmetry alarm.
    assert result.detection_iteration is None


def test_config_validation_rejects_bad_values():
    with pytest.raises(ValueError):
        SimnetClosedLoopConfig(remediation="pray")
    with pytest.raises(ValueError):
        SimnetClosedLoopConfig(predictor="oracle")
    with pytest.raises(ValueError):
        SimnetClosedLoopConfig(background_jobs=-1)
    with pytest.raises(ValueError):
        SimnetClosedLoopConfig(background_jobs=1)  # hosts_per_leaf too small
    with pytest.raises(ValueError):
        SimnetClosedLoopConfig(predictor="learned", warmup_iterations=0)
