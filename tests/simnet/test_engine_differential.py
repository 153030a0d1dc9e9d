"""Differential test: :class:`Simulator` against a naive reference.

The reference keeps every event in a plain list and, whenever it needs
the next one, sorts the live events by ``(time, seq)`` — the engine's
contract with none of its heap, lazy deletion or inlined run loop.
Hypothesis drives both with the same random program (schedules,
absolute schedules, cancels of live, fired and already-cancelled
events, ``stop()`` from callbacks and from outside, ``step()``, and
``run()`` under every shape of ``until`` and ``max_events``) and the two
must agree on every observable.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simnet import SimulationError, Simulator


class _RefEvent:
    def __init__(self, time: int, seq: int, callback) -> None:
        self.time = time
        self.seq = seq
        self.callback = callback
        self.cancelled = False
        self.fired = False

    def cancel(self) -> None:
        self.cancelled = True


class ReferenceSimulator:
    """The engine's specification, executed as literally as possible."""

    def __init__(self) -> None:
        self.events: list[_RefEvent] = []
        self.now = 0
        self.events_executed = 0
        self._seq = 0
        self._stopped = False

    def schedule(self, delay: int, callback) -> _RefEvent:
        if delay < 0:
            raise SimulationError("negative delay")
        return self.schedule_at(self.now + delay, callback)

    def schedule_at(self, time: int, callback) -> _RefEvent:
        if time < self.now:
            raise SimulationError("into the past")
        event = _RefEvent(time, self._seq, callback)
        self._seq += 1
        self.events.append(event)
        return event

    def _live(self) -> list[_RefEvent]:
        live = [e for e in self.events if not e.cancelled and not e.fired]
        return sorted(live, key=lambda e: (e.time, e.seq))

    def peek_time(self) -> int | None:
        live = self._live()
        return live[0].time if live else None

    @property
    def pending_events(self) -> int:
        return len(self._live())

    def _fire(self, event: _RefEvent) -> None:
        event.fired = True
        self.now = event.time
        self.events_executed += 1
        event.callback()

    def step(self) -> bool:
        live = self._live()
        if not live:
            return False
        self._fire(live[0])
        return True

    def stop(self) -> None:
        self._stopped = True

    def run(self, until: int | None = None, max_events: int | None = None) -> int:
        self._stopped = False
        executed = 0
        while not self._stopped:
            live = self._live()
            if not live:
                break
            if until is not None and live[0].time > until:
                break
            if max_events is not None and executed >= max_events:
                break
            self._fire(live[0])
            executed += 1
        if until is not None and self.now < until and not self._stopped:
            head = self.peek_time()
            if head is None or head > until:
                self.now = until
        return executed


# ----------------------------------------------------------------------
# Random programs
# ----------------------------------------------------------------------
#: Cap on events one program may schedule, so callbacks that schedule
#: more events cannot grow a run without bound.
BUDGET = 120

_action = st.one_of(
    st.tuples(st.just("schedule"), st.integers(-1, 12)),
    st.tuples(st.just("schedule_at"), st.integers(-3, 12)),
    st.tuples(st.just("cancel"), st.integers(0, 60)),
    st.just(("cancel_head",)),
    st.just(("stop",)),
)
_run = st.tuples(
    st.just("run"),
    st.one_of(st.none(), st.integers(0, 80)),
    st.one_of(st.none(), st.integers(-2, 10)),
)
#: What the event with label ``n`` does when it fires:
#: ``behaviours[n % len(behaviours)]``.
_behaviours = st.lists(st.lists(_action, max_size=3), min_size=1, max_size=6)
_program = st.lists(
    st.one_of(_action, _run, st.just(("step",)), st.just(("peek",))),
    max_size=40,
)


class _Driver:
    """Runs one program against one simulator and logs what it sees."""

    def __init__(self, sim, behaviours) -> None:
        self.sim = sim
        self.behaviours = behaviours
        self.handles: list = []  # (handle, label) in scheduling order
        self.fired: set[int] = set()
        self.log: list[tuple] = []

    def _callback(self, label: int):
        def fire() -> None:
            self.fired.add(label)
            self.log.append(("fired", label, self.sim.now))
            for action in self.behaviours[label % len(self.behaviours)]:
                self.act(action, from_callback=True)

        return fire

    def act(self, action: tuple, from_callback: bool = False) -> None:
        sim = self.sim
        kind = action[0]
        if kind in ("schedule", "schedule_at"):
            if len(self.handles) >= BUDGET:
                return
            label = len(self.handles)
            try:
                if kind == "schedule":
                    handle = sim.schedule(action[1], self._callback(label))
                else:
                    handle = sim.schedule_at(sim.now + action[1], self._callback(label))
            except SimulationError:
                self.log.append(("rejected", kind, action[1]))
                return
            self.handles.append((handle, label))
        elif kind == "cancel":
            if self.handles:
                handle, label = self.handles[action[1] % len(self.handles)]
                handle.cancel()
                self.log.append(("cancel", label))
        elif kind == "cancel_head":
            live = [
                (handle.time, label, handle)
                for handle, label in self.handles
                if label not in self.fired and not handle.cancelled
            ]
            if live:
                _time, label, handle = min(live, key=lambda e: e[:2])
                handle.cancel()
                self.log.append(("cancel_head", label))
        elif kind == "stop":
            sim.stop()
        elif kind == "run":
            _kind, until, max_events = action
            self.log.append(("run", sim.run(until=until, max_events=max_events)))
        elif kind == "step":
            self.log.append(("step", sim.step()))
        if not from_callback:
            self.log.append(
                ("state", sim.now, sim.events_executed, sim.peek_time(), sim.pending_events)
            )

    def play(self, program) -> list[tuple]:
        for action in program:
            self.act(action)
        self.act(("run", None, None))  # drain whatever is left
        return self.log


@settings(max_examples=300, deadline=None)
@given(program=_program, behaviours=_behaviours)
def test_simulator_matches_reference_scheduler(program, behaviours):
    real = _Driver(Simulator(), behaviours).play(program)
    reference = _Driver(ReferenceSimulator(), behaviours).play(program)
    assert real == reference


#: Fixed programs touching each edge the property must cover, so the
#: comparison does not hinge on Hypothesis happening to draw them:
#: (program, behaviours, log kinds the program must produce).
HAND_WRITTEN = {
    "every_action": (
        [
            ("schedule", 5),
            ("schedule", 5),
            ("schedule_at", 2),
            ("cancel_head",),
            ("run", None, 0),
            ("run", None, -1),
            ("run", 4, None),
            ("cancel", 0),
            ("cancel", 0),
            ("step",),
            ("schedule", 3),
            ("run", 100, 1),
        ],
        [[("schedule", 1)], [("stop",)], [("cancel", 0), ("schedule_at", 0)]],
        {"fired", "run", "step", "cancel", "cancel_head", "state"},
    ),
    # stop() inside run(until): the clock stays at the stopping event.
    "stop_blocks_fast_forward": (
        [("schedule", 3), ("run", 50, None), ("run", 60, None)],
        [[("stop",)]],
        {"fired", "run"},
    ),
    # max_events leaves due events behind: no fast-forward past them.
    "max_events_blocks_fast_forward": (
        [("schedule", 1), ("schedule", 2), ("schedule", 3), ("run", 10, 2)],
        [[]],
        {"fired", "run"},
    ),
    # A cancelled head before `until` must not let a later event fire.
    "cancelled_head_before_until": (
        [("schedule", 5), ("schedule", 20), ("cancel", 0), ("run", 10, None)],
        [[]],
        {"cancel", "run"},
    ),
    # Scheduling into the past is refused by both.
    "past_rejected": (
        [("schedule", 4), ("run", None, None), ("schedule_at", -2), ("schedule", -1)],
        [[]],
        {"rejected"},
    ),
}


@pytest.mark.parametrize("name", sorted(HAND_WRITTEN))
def test_reference_agrees_on_hand_written_programs(name):
    program, behaviours, kinds = HAND_WRITTEN[name]
    real = _Driver(Simulator(), behaviours).play(program)
    reference = _Driver(ReferenceSimulator(), behaviours).play(program)
    assert real == reference
    assert kinds <= {entry[0] for entry in real}
