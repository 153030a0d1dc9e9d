"""Leaf and spine switches.

Leaves spray upstream traffic per-packet across the control plane's
valid spines; spines forward downstream on the unique link toward the
destination leaf (downstream paths are never sprayed, paper §2).
Leaves also host the FlowPulse collectors, counting tagged ingress
volume per spine port and per sending leaf.
"""

from __future__ import annotations

import numpy as np

from ..topology.graph import ClosSpec, ControlPlane, TopologyError
from .counters import CollectiveCollector, PortCounters
from .link import Link, Node
from .packet import Packet
from .spraying import SprayPolicy


class RoutingError(RuntimeError):
    """Raised when a packet cannot be forwarded."""


class HostLeafTable(dict):
    """Host index -> leaf index, precomputed for every host of a spec.

    Switches look up two hosts per packet; a dict hit replaces a call
    to :meth:`ClosSpec.leaf_of_host` with its range check.  A miss falls
    through to that method, so an out-of-range host still raises
    :class:`~repro.topology.graph.TopologyError`.  The network builds
    one table and shares it between all of its switches.
    """

    def __init__(self, spec: ClosSpec) -> None:
        super().__init__((h, spec.leaf_of_host(h)) for h in range(spec.n_hosts))
        self.spec = spec

    def __missing__(self, host: int) -> int:
        return self.spec.leaf_of_host(host)


class LeafSwitch(Node):
    """A leaf (top-of-rack) switch.

    Ports: one downlink per attached host, one uplink per spine.  The
    ingress ports *from* spines are where FlowPulse measures (paper §5:
    they are late in the path and uniquely identify the spine hop).
    """

    def __init__(
        self,
        leaf: int,
        control: ControlPlane,
        policy: SprayPolicy,
        rng: np.random.Generator,
        host_leaf: HostLeafTable,
    ) -> None:
        self.leaf = leaf
        self.name = f"leaf{leaf}"
        self.control = control
        self.policy = policy
        self.rng = rng
        self._host_leaf = host_leaf
        self.uplinks: dict[int, Link] = {}
        self.downlinks: dict[int, Link] = {}
        #: ingress link name -> spine index, for counter attribution
        self._spine_of_link: dict[str, int] = {}
        self.counters = PortCounters()
        self.collectors: list[CollectiveCollector] = []
        self.misrouted_packets = 0
        #: destination leaf -> spray candidates, valid for the control
        #: plane state recorded beside it (see :meth:`_candidates`).
        self._routes: dict[int, list[Link]] = {}
        self._routes_control: ControlPlane | None = None
        self._routes_disabled: frozenset[str] | None = None
        self._routes_excluded: frozenset[str] | None = None

    # ------------------------------------------------------------------
    # Wiring (done by the network builder)
    # ------------------------------------------------------------------
    def attach_uplink(self, spine: int, link: Link) -> None:
        self.uplinks[spine] = link
        self._routes.clear()

    def attach_downlink(self, host: int, link: Link) -> None:
        self.downlinks[host] = link

    def register_spine_ingress(self, spine: int, link_name: str) -> None:
        """Tell the leaf which ingress link comes from which spine."""
        self._spine_of_link[link_name] = spine

    def add_collector(self, collector: CollectiveCollector) -> None:
        """Install a FlowPulse collector on this switch."""
        self.collectors.append(collector)

    # ------------------------------------------------------------------
    # Data path
    # ------------------------------------------------------------------
    def receive(self, packet: Packet, link: Link) -> None:
        spine = self._spine_of_link.get(link.name)
        if spine is not None:
            self.counters.count_rx(spine, packet.size)
            src_leaf = self._host_leaf[packet.src_host]
            now = link.sim.now
            for collector in self.collectors:
                collector.observe(packet, spine, src_leaf, now)
        self._forward(packet)

    def _forward(self, packet: Packet) -> None:
        dst_leaf = self._host_leaf[packet.dst_host]
        if dst_leaf == self.leaf:
            downlink = self.downlinks.get(packet.dst_host)
            if downlink is None:
                self.misrouted_packets += 1
                raise RoutingError(
                    f"{self.name}: no downlink for host {packet.dst_host}"
                )
            downlink.enqueue(packet)
            return
        chosen = self.policy.choose(self._candidates(dst_leaf), packet, self.rng)
        chosen.enqueue(packet)

    def _candidates(self, dst_leaf: int) -> list[Link]:
        """Uplinks to spray toward ``dst_leaf``, cached per destination.

        The control plane replaces (never mutates) its frozensets on
        every disable, enable, exclude and readmit, so the cache stays
        valid exactly while it sees the same control plane holding the
        same two set objects.  A partitioned pair is never cached: every
        packet toward it raises :class:`RoutingError`.
        """
        control = self.control
        if (
            control is not self._routes_control
            or control.known_disabled is not self._routes_disabled
            or control.spray_excluded is not self._routes_excluded
        ):
            self._routes.clear()
            self._routes_control = control
            self._routes_disabled = control.known_disabled
            self._routes_excluded = control.spray_excluded
        candidates = self._routes.get(dst_leaf)
        if candidates is None:
            try:
                spines = control.valid_spines(self.leaf, dst_leaf)
            except TopologyError as exc:
                self.misrouted_packets += 1
                raise RoutingError(str(exc)) from exc
            candidates = [self.uplinks[s] for s in spines]
            self._routes[dst_leaf] = candidates
        return candidates


class SpineSwitch(Node):
    """A spine switch: deterministic downstream forwarding."""

    def __init__(
        self,
        spine: int,
        control: ControlPlane,
        host_leaf: HostLeafTable,
    ) -> None:
        self.spine = spine
        self.name = f"spine{spine}"
        self.control = control
        self._host_leaf = host_leaf
        self.downlinks: dict[int, Link] = {}
        self.counters = PortCounters()
        self.misrouted_packets = 0

    def attach_downlink(self, leaf: int, link: Link) -> None:
        self.downlinks[leaf] = link

    def receive(self, packet: Packet, link: Link) -> None:
        src_leaf = self._host_leaf[packet.src_host]
        self.counters.count_rx(src_leaf, packet.size)
        dst_leaf = self._host_leaf[packet.dst_host]
        downlink = self.downlinks.get(dst_leaf)
        if downlink is None:
            self.misrouted_packets += 1
            raise RoutingError(f"{self.name}: no downlink for leaf {dst_leaf}")
        # A leaf should never spray onto a spine whose downstream link to
        # the destination is known-down; if it happens the packet is
        # black-holed, which the misroute counter makes visible in tests.
        if not self.control.down_ok(self.spine, dst_leaf):
            self.misrouted_packets += 1
            return
        self.counters.count_tx(dst_leaf, packet.size)
        downlink.enqueue(packet)
