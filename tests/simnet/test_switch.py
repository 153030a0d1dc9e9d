"""Tests for leaf/spine switch routing over the network builder."""

from __future__ import annotations

import pytest

from repro.simnet import DisconnectFault, FlowTag, Network, Packet, Tracer
from repro.simnet.spraying import RoundRobinSpray, SprayPolicy
from repro.simnet.switch import RoutingError
from repro.topology import ClosSpec, down_link, up_link
from repro.topology.graph import parse_fabric_link


def make_net(n_leaves=4, n_spines=2, hosts_per_leaf=1, **kwargs):
    spec = ClosSpec(n_leaves=n_leaves, n_spines=n_spines, hosts_per_leaf=hosts_per_leaf)
    return Network(spec, seed=11, **kwargs)


def test_local_delivery_stays_under_leaf():
    tracer = Tracer()
    net = make_net(n_leaves=2, hosts_per_leaf=2, tracer=tracer)
    done = []
    net.host(1).on_message(lambda src, mid, tag, size: done.append(size))
    net.host(0).send(1, 1000)  # hosts 0 and 1 share leaf 0
    net.run()
    assert done == [1000]
    fabric_hops = [
        e for e in tracer.events if e.link.startswith(("up:", "down:")) and e.event == "rx"
    ]
    assert fabric_hops == []  # never crossed the spine layer


def test_remote_delivery_crosses_exactly_one_spine():
    tracer = Tracer()
    net = make_net(tracer=tracer)
    done = []
    net.host(3).on_message(lambda src, mid, tag, size: done.append(size))
    net.host(0).send(3, 1000)
    net.run()
    assert done == [1000]
    data_rx = [
        e
        for e in tracer.events
        if e.kind == "data" and e.event == "rx" and e.link.startswith("up:")
    ]
    assert len(data_rx) == 1  # one packet, one spine crossing


def test_spraying_uses_all_valid_spines():
    tracer = Tracer()
    net = make_net(n_spines=2, mtu=1000, tracer=tracer)
    net.host(3).on_message(lambda *a: None)
    net.host(0).send(3, 100_000)
    net.run()
    spines_used = {
        e.link
        for e in tracer.events
        if e.kind == "data" and e.event == "rx" and e.link.startswith("up:")
    }
    assert spines_used == {up_link(0, 0), up_link(0, 1)}


def test_known_disabled_uplink_never_used():
    dead = up_link(0, 0)
    tracer = Tracer()
    net = make_net(known_disabled=frozenset({dead}), mtu=1000, tracer=tracer)
    net.host(3).on_message(lambda *a: None)
    net.host(0).send(3, 50_000)
    net.run()
    used = {e.link for e in tracer.events if e.event == "tx" and e.link == dead}
    assert used == set()


def test_known_disabled_downlink_excludes_spine_for_that_leaf_only():
    dead = down_link(0, 3)  # spine 0 cannot reach leaf 3
    tracer = Tracer()
    net = make_net(known_disabled=frozenset({dead}), mtu=1000, tracer=tracer)
    for h in (2, 3):
        net.host(h).on_message(lambda *a: None)
    net.host(0).send(3, 30_000)  # must avoid spine 0
    net.host(0).send(2, 30_000)  # may still use spine 0
    net.run()
    to_l3_via_s0 = [
        e for e in tracer.events if e.event == "tx" and e.link == dead
    ]
    assert to_l3_via_s0 == []
    to_l2_via_s0 = [
        e
        for e in tracer.events
        if e.event == "tx" and e.link == down_link(0, 2) and e.kind == "data"
    ]
    assert to_l2_via_s0  # spine 0 still serves leaf 2


def test_leaf_ingress_counters_attribute_spine_and_sender():
    net = make_net()
    collectors = net.install_collectors(job_id=1)
    net.host(3).on_message(lambda *a: None)
    net.host(0).send(3, 10_000, tag=FlowTag(1, 0))
    net.run()
    record = collectors[3].finalize(net.now)
    assert record.total_bytes == 10_000
    assert all(src == 0 for (_spine, src) in record.sender_bytes)


def test_collector_only_on_its_leaf():
    net = make_net()
    collectors = net.install_collectors(job_id=1)
    net.host(3).on_message(lambda *a: None)
    net.host(0).send(3, 10_000, tag=FlowTag(1, 0))
    net.run()
    net.finalize_collectors()
    assert collectors[3].records and collectors[3].records[0].total_bytes == 10_000
    for leaf in (0, 1, 2):
        assert collectors[leaf].records == []


def test_rx_counters_on_spine_track_source_leaf():
    net = make_net()
    net.host(3).on_message(lambda *a: None)
    net.host(0).send(3, 10_000)
    net.run()
    total_spine_rx = sum(
        sum(s.counters.rx_bytes.values()) for s in net.spines
    )
    assert total_spine_rx >= 10_000  # data (plus maybe ACKs of data)


def test_misroute_counter_when_stray_packet_hits_disabled_downlink():
    # Force the condition by disabling the link *after* routing decided:
    # inject a disconnect without telling the control plane, then mark it
    # known on the spine's control only.
    net = make_net(mtu=1000)
    net.host(3).on_message(lambda *a: None)
    net.host(0).send(3, 5_000)
    # Disable on the shared control plane mid-flight is racy by design;
    # here we disable before running so every sprayed packet to S0 is
    # counted as misrouted at the spine.
    net.control.disable(down_link(0, 3))
    net.run()
    # Leaf avoided S0 entirely (control plane is shared), so no misroutes.
    assert net.spine(0).misrouted_packets == 0


def test_unknown_link_fault_injection_rejected():
    net = make_net()
    with pytest.raises(KeyError):
        net.inject_fault("up:L99->S0", DisconnectFault())


class _CheckedSpray(SprayPolicy):
    """Round-robin that checks every candidate list it is handed against
    a fresh control-plane query, and logs the sets it saw."""

    name = "checked"

    def __init__(self, net):
        self.net = net
        self.inner = RoundRobinSpray()
        self.mismatches = []
        self.seen = set()

    def choose(self, candidates, packet, rng):
        _direction, src_leaf, _spine = parse_fabric_link(candidates[0].name)
        dst_leaf = self.net.spec.leaf_of_host(packet.dst_host)
        control = self.net.control
        fresh = [
            self.net.leaf(src_leaf).uplinks[s]
            for s in control.valid_spines(src_leaf, dst_leaf)
        ]
        if candidates != fresh:
            self.mismatches.append((self.net.now, src_leaf, dst_leaf))
        if (src_leaf, dst_leaf) == (0, 3):
            self.seen.add(tuple(link.name for link in candidates))
        return self.inner.choose(candidates, packet, rng)


def test_leaf_candidates_follow_control_plane_changes_mid_run():
    spec = ClosSpec(n_leaves=4, n_spines=3)
    net = Network(spec, seed=11, spray=RoundRobinSpray(), mtu=1000)
    policy = _CheckedSpray(net)
    for leaf in net.leaves:
        leaf.policy = policy
    control = net.control
    # host 0 streams to host 3 (leaf 0 -> leaf 3) for ~4 us; the control
    # plane changes under it every microsecond.
    changes = [
        (1_000, control.disable, up_link(0, 1)),
        (2_000, control.exclude_from_spray, down_link(2, 3)),
        (3_000, control.enable, up_link(0, 1)),
        (4_000, control.readmit_to_spray, down_link(2, 3)),
    ]
    for time_ns, change, link in changes:
        net.sim.schedule_at(time_ns, change, link)
    done = []
    net.host(3).on_message(lambda src, mid, tag, size: done.append(size))
    net.host(0).send(3, 400_000)
    net.run()
    assert done == [400_000]
    assert policy.mismatches == []
    # Every control-plane state was live while packets flowed.
    assert policy.seen == {
        (up_link(0, 0), up_link(0, 1), up_link(0, 2)),
        (up_link(0, 0), up_link(0, 2)),
        (up_link(0, 0),),
        (up_link(0, 0), up_link(0, 1)),
    }


def test_partitioned_pair_raises_on_every_packet():
    net = make_net(n_spines=2)
    leaf = net.leaf(0)
    net.control.disable(up_link(0, 0), up_link(0, 1))
    for _ in range(2):  # not cached: the second packet raises too
        with pytest.raises(RoutingError):
            leaf._forward(Packet(src_host=0, dst_host=3, size=100))
    assert leaf.misrouted_packets == 2
    net.control.enable(up_link(0, 1))
    leaf._forward(Packet(src_host=0, dst_host=3, size=100))
    assert leaf.misrouted_packets == 2
    assert net.link(up_link(0, 1)).busy  # the packet left on the one path
