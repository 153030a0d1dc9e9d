"""Discrete-event simulation engine.

A small, deterministic event loop: events fire in (time, insertion
order), time is integer nanoseconds, and cancellation is O(1) via lazy
deletion.  Every stochastic component in the simulator draws from
explicitly seeded generators, so a run is a pure function of its seed.
"""

from __future__ import annotations

import time
from heapq import heappop, heappush
from typing import Any, Callable


class SimulationError(RuntimeError):
    """Raised when the simulation reaches an inconsistent state."""


class EventHandle:
    """Opaque handle returned by :meth:`Simulator.schedule`.

    Holds enough state to cancel the event later.  Handles are one-shot:
    cancelling an already-fired event is a harmless no-op.  A handle is
    a thin view over the heap entry ``[time, seq, callback, args]``;
    handles compare and hash by ``(time, seq)``.
    """

    __slots__ = ("_entry",)

    def __init__(self, entry: list) -> None:
        self._entry = entry

    @property
    def time(self) -> int:
        return self._entry[0]

    @property
    def seq(self) -> int:
        return self._entry[1]

    def cancel(self) -> None:
        """Prevent the event from firing (no-op if it already fired)."""
        self._entry[2] = None

    @property
    def cancelled(self) -> bool:
        return self._entry[2] is None

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, EventHandle):
            return NotImplemented
        return self._entry[:2] == other._entry[:2]

    def __hash__(self) -> int:
        return hash((self._entry[0], self._entry[1]))

    def __repr__(self) -> str:
        return f"EventHandle(time={self.time}, seq={self.seq})"


class Simulator:
    """Deterministic discrete-event scheduler.

    Example::

        sim = Simulator()
        sim.schedule(10, lambda: print(sim.now))
        sim.run()
    """

    def __init__(self) -> None:
        self._queue: list[list] = []
        self._seq = 0
        self.now: int = 0
        self.events_executed: int = 0
        self._running = False
        self._stopped = False
        #: Optional telemetry session (duck-typed; see
        #: :mod:`repro.telemetry.session`).  When set, every
        #: :meth:`run` emits one ``engine.run`` event with its
        #: event-loop throughput; the hot loop itself is untouched.
        self.telemetry = None

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(self, delay: int, callback: Callable[..., Any], *args: Any) -> EventHandle:
        """Schedule ``callback(*args)`` to run ``delay`` ns from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        # Same entry as schedule_at(now + delay, ...), without the second
        # call and its re-check: a non-negative delay cannot reach the past.
        entry = [self.now + delay, self._seq, callback, args]
        self._seq += 1
        heappush(self._queue, entry)
        return EventHandle(entry)

    def schedule_at(self, time: int, callback: Callable[..., Any], *args: Any) -> EventHandle:
        """Schedule ``callback(*args)`` at absolute time ``time`` ns."""
        if time < self.now:
            raise SimulationError(
                f"cannot schedule into the past (time={time}, now={self.now})"
            )
        entry = [time, self._seq, callback, args]
        self._seq += 1
        heappush(self._queue, entry)
        return EventHandle(entry)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def step(self) -> bool:
        """Run the next pending event.  Returns False when idle."""
        while self._queue:
            time, _seq, callback, args = heappop(self._queue)
            if callback is None:  # lazily-cancelled event
                continue
            if time < self.now:
                raise SimulationError("event queue went backwards in time")
            self.now = time
            self.events_executed += 1
            callback(*args)
            return True
        return False

    def run(self, until: int | None = None, max_events: int | None = None) -> int:
        """Run events until the queue drains, ``until`` ns, or ``max_events``.

        Returns the number of events executed by this call.
        """
        if self._running:
            raise SimulationError("Simulator.run() is not reentrant")
        self._running = True
        self._stopped = False
        executed = 0
        started_wall = time.perf_counter() if self.telemetry is not None else 0.0
        started_now = self.now
        queue = self._queue
        try:
            # The body of peek_time() + step() inlined: the same checks in
            # the same order, one heap pop per event.
            while not self._stopped and queue:
                entry = queue[0]
                callback = entry[2]
                if callback is None:  # lazily-cancelled event
                    heappop(queue)
                    continue
                event_time = entry[0]
                if until is not None and event_time > until:
                    break
                if max_events is not None and executed >= max_events:
                    break
                heappop(queue)
                if event_time < self.now:
                    raise SimulationError("event queue went backwards in time")
                self.now = event_time
                self.events_executed += 1
                callback(*entry[3])
                executed += 1
            # Fast-forward the clock to `until` only when the queue is
            # actually drained up to it: if the run stopped early (via
            # stop() or max_events) with events still pending at or
            # before `until`, jumping the clock past them would make the
            # next run() raise "event queue went backwards in time".
            if until is not None and self.now < until and not self._stopped:
                next_time = self.peek_time()
                if next_time is None or next_time > until:
                    self.now = until
        finally:
            self._running = False
        if self.telemetry is not None:
            wall_s = time.perf_counter() - started_wall
            self.telemetry.emit(
                "engine.run",
                executed=executed,
                wall_s=wall_s,
                events_per_sec=executed / wall_s if wall_s > 0 else 0.0,
                start_ns=started_now,
                end_ns=self.now,
                pending=self.pending_events,
            )
            self.telemetry.counter("engine.events").inc(executed)
            self.telemetry.histogram("engine.run_wall_s").observe(wall_s)
        return executed

    def stop(self) -> None:
        """Stop :meth:`run` after the current event completes."""
        self._stopped = True

    @property
    def pending_events(self) -> int:
        """Number of scheduled (non-cancelled) events."""
        return sum(1 for entry in self._queue if entry[2] is not None)

    def peek_time(self) -> int | None:
        """Time of the next pending event, or None if the queue is idle."""
        while self._queue and self._queue[0][2] is None:
            heappop(self._queue)  # discard lazily-cancelled events
        return self._queue[0][0] if self._queue else None
