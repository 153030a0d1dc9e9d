"""The availability components of the fleet service.

:class:`~repro.fleet.service.FleetService` is built from these when it
is given an :class:`HAConfig`:

- :class:`ShardJournal` — a write-ahead ``.fprec`` journal per shard.
  Every job registration and record batch is appended to its target
  shard's journal *before* it is dispatched, so the journal is the
  authoritative history of everything a shard was ever asked to do.
- :class:`HeartbeatMonitor` — per-shard beacon bookkeeping that turns
  heartbeat silence into a miss count.

With them the service fails over without losing anything:

1. a dead shard (exited process, or ``miss_limit`` missed heartbeats)
   triggers a coordinator epoch bump removing it from the view — the
   consistent-hash ring over the survivors moves only the dead shard's
   jobs (virtual-replica minimal movement);
2. the dead shard's journal is replayed through the new owners: job
   registrations rebuild monitors via ``build_monitor``, batches are
   re-scored from iteration zero.  Monitors are deterministic, so the
   replayed verdicts are bit-identical to an uninterrupted run;
3. the service deduplicates by ``(job, iteration)`` — whatever the dead
   shard already delivered is kept, the replay fills exactly the gap —
   and fences messages from non-live shards, so the incident rollup
   contains no duplicates and no holes.

Record accounting survives all of it: the service's in-flight ledger
keyed by ``(job, iteration)`` is settled on the first verdict/summary
(or shed event), extending the ``processed + shed == submitted``
invariant across epochs; :attr:`FleetResult.lost_records
<repro.fleet.service.FleetResult.lost_records>` is what is left, and it
must be zero.
"""

from __future__ import annotations

import pathlib
import tempfile
from dataclasses import dataclass

from ..codec import _iter_fprec_binary, require_frame
from ..shard import FleetError


@dataclass(frozen=True)
class HAConfig:
    """Availability knobs layered over :class:`FleetConfig`."""

    #: Where shard journals live; ``None`` uses a self-cleaning temp dir.
    journal_dir: str | pathlib.Path | None = None
    #: Worker liveness beacon interval (seconds); ``None`` disables
    #: heartbeat-based detection (process exits are still caught).
    heartbeat_every: float | None = 0.25
    #: Consecutive missed beacons before a shard is declared dead.
    miss_limit: int = 8
    #: Run failure checks inside ``poll``/``close`` automatically;
    #: disable for tests that drive ``check_health`` by hand.
    auto_failover: bool = True
    #: How long a blocking dispatch waits per attempt before it
    #: re-checks the target shard's health (a dead worker's full inbox
    #: must never wedge ingest forever).
    dispatch_retry_s: float = 0.25

    def __post_init__(self) -> None:
        if self.heartbeat_every is not None and self.heartbeat_every <= 0:
            raise FleetError("heartbeat_every must be positive (or None)")
        if self.miss_limit < 1:
            raise FleetError("miss_limit must be at least 1")
        if self.dispatch_retry_s <= 0:
            raise FleetError("dispatch_retry_s must be positive")


class HeartbeatMonitor:
    """Pure per-shard liveness bookkeeping (clock injected, no I/O).

    ``beat`` records a beacon; ``misses`` is how many whole intervals
    have elapsed since the last one.  A shard is watched from spawn
    time so a worker that never beats at all is also caught.
    """

    def __init__(self, interval: float | None, miss_limit: int) -> None:
        self.interval = interval
        self.miss_limit = miss_limit
        self._last_beat: dict[int, float] = {}

    def watch(self, shard: int, now: float) -> None:
        self._last_beat[shard] = now

    def unwatch(self, shard: int) -> None:
        self._last_beat.pop(shard, None)

    def beat(self, shard: int, seq: int, now: float) -> None:
        """Record beacon ``seq`` sent at ``now``; beacons may arrive out
        of order, so the latest send time wins."""
        if shard not in self._last_beat:
            return  # not watched (already failed over)
        self._last_beat[shard] = max(self._last_beat[shard], now)

    def misses(self, shard: int, now: float) -> int:
        if self.interval is None or shard not in self._last_beat:
            return 0
        return max(0, int((now - self._last_beat[shard]) / self.interval))

    def overdue(self, now: float) -> list[int]:
        """Shards whose miss count has reached the limit."""
        return sorted(
            shard
            for shard in self._last_beat
            if self.misses(shard, now) >= self.miss_limit
        )


class ShardJournal:
    """Append-only ``.fprec`` journals, one file per shard id.

    ``directory=None`` journals into a temporary directory that
    :meth:`close` removes; an explicit directory is kept.
    """

    def __init__(self, directory: str | pathlib.Path | None = None) -> None:
        self._tmpdir: tempfile.TemporaryDirectory | None = None
        if directory is None:
            self._tmpdir = tempfile.TemporaryDirectory(prefix="fleet-ha-")
            directory = self._tmpdir.name
        self.directory = pathlib.Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self._files: dict[int, object] = {}

    def path(self, shard: int) -> pathlib.Path:
        return self.directory / f"shard-{shard}.fprec"

    def append(self, shard: int, unit: bytes) -> None:
        """Append one v2 frame to ``shard``'s journal."""
        unit = require_frame(unit)
        handle = self._files.get(shard)
        if handle is None:
            handle = open(self.path(shard), "ab")
            self._files[shard] = handle
        handle.write(unit)

    def units(self, shard: int):
        """Yield ``(kind, frame)`` from ``shard``'s journal, read the
        way ``.fprec`` files are replayed.  Flushes the shard's pending
        appends first."""
        handle = self._files.pop(shard, None)
        if handle is not None:
            handle.close()
        path = self.path(shard)
        if not path.exists():
            return
        with open(path, "rb") as journal:
            yield from _iter_fprec_binary(journal, raw=True)

    def close(self) -> None:
        """Close every journal file; remove a temporary directory."""
        for handle in self._files.values():
            handle.close()
        self._files = {}
        if self._tmpdir is not None:
            self._tmpdir.cleanup()
            self._tmpdir = None
