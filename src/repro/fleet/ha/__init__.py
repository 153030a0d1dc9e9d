"""repro.fleet.ha: the availability components of the fleet service.

A fleet shard that dies takes its jobs' monitors with it — exactly when
FlowPulse's always-on check matters most.  These components keep the
monitoring plane alive through shard loss, pool resizing, and network
ingest; :class:`~repro.fleet.service.FleetService` is built from them
(the journal and heartbeats only when given an :class:`HAConfig`):

- :mod:`~repro.fleet.ha.coordinator` — a 3-replica single-decree-Paxos
  coordinator (leases, view changes) owning the epoch-numbered
  job→shard assignment map; routing is an (epoch, assignment) read and
  stale workers are fenced by epoch.
- :mod:`~repro.fleet.ha.failover` — the :class:`HAConfig` knobs, the
  per-shard write-ahead ``.fprec`` journal and heartbeat miss tracking
  that let the service replay a dead shard's journal through the
  survivors for bit-identical verdicts and an idempotent incident
  rollup (no duplicates, no gaps).
- :mod:`~repro.fleet.ha.reshard` — grow/shrink the worker pool mid-run
  with journal-checkpointed handoff per moved job; the
  ``processed + shed == submitted`` invariant holds across epochs.
- :mod:`~repro.fleet.ha.netserver` — an asyncio TCP front-end speaking
  the ``.fprec`` wire stream with per-connection incremental decoding
  and backpressure, plus the loadgen-over-TCP client.
"""

from ..service import FleetService
from .coordinator import (
    Acceptor,
    Ballot,
    CoordinatorError,
    LeaseHeldError,
    ProposerCrashed,
    QuorumLostError,
    ReplicatedCoordinator,
    View,
)
from .failover import HAConfig, HeartbeatMonitor
from .netserver import (
    FleetNetServer,
    NetServerConfig,
    NetServerStats,
    StreamStats,
    stream_workload,
)
from .reshard import ReshardReport, grow, shrink

#: The HA service was folded into :class:`FleetService`
#: (``FleetService(config, ha=HAConfig(...))``); the old name stays for
#: callers written against it, all of which pass ``ha=`` by keyword.
HAFleetService = FleetService

__all__ = [
    "Acceptor",
    "Ballot",
    "CoordinatorError",
    "FleetNetServer",
    "HAConfig",
    "HAFleetService",
    "HeartbeatMonitor",
    "LeaseHeldError",
    "NetServerConfig",
    "NetServerStats",
    "ProposerCrashed",
    "QuorumLostError",
    "ReplicatedCoordinator",
    "ReshardReport",
    "StreamStats",
    "View",
    "grow",
    "shrink",
    "stream_workload",
]
