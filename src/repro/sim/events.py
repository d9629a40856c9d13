"""Event primitives for the simulation kernel.

Hot-path note: this module (with :mod:`repro.sim.engine` and
:mod:`repro.sim.process`) is the innermost loop of every simulation —
hundreds of thousands of events per macro benchmark (see
``docs/PERFORMANCE.md``).  The implementation therefore trades a little
elegance for speed: ``__slots__`` everywhere, direct underscore-field
access between the three kernel modules instead of property calls, and
hot events built with ``object.__new__`` and inline field stores rather
than through a constructor (``Simulator.event``/``timeout``/``process``
and its bootstrap, ``Resource.acquire``/``hold``, ``Store.put``/``get``;
``tests/test_sim_kernel.py`` audits each against :meth:`Event.__init__`).
Everything the loop queues is an :class:`Event`, except processes and
conditions, which carry behaviour: a timeout is a plain event queued
ahead, and a hold is a plain event whose hold slots are set.  CPython
specialises a slot access on the exact type it sees, so the loop's
attribute sites stay specialised while one class comes through them.
Every queued event is dispatched and counted: nothing is withdrawn from
the queue once it is there.
An event is processed exactly when its ``callbacks`` is ``None``: the
loop sets it so as it takes the list to run it, and no separate flag is
kept.  The first waiter on an event, a process or an
``AllOf``/``AnyOf``, sits in its ``_waiter`` slot rather than in
``callbacks``; the loop resumes it (``_waiter._resume(event)``) before
the callbacks, so a slot waiter always subscribed before every callback
in the list.  Behavioural contracts are pinned by the golden determinism
suite, so any change here must keep event schedules bit-identical.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Any, Callable, List, Optional

_value_of = attrgetter("_value")


class Event:
    """A one-shot occurrence at a point in simulated time.

    An event starts *pending*, becomes *triggered* when ``succeed`` or
    ``fail`` is called (it is then on the simulator's queue), and becomes
    *processed* once the simulator pops it and runs its callbacks; its
    ``callbacks`` list is ``None`` from then on.  Processes wait on
    events by ``yield``-ing them, and conditions by subscribing to their
    children: the first waiter while nothing else has subscribed takes
    the ``_waiter`` slot, any later one appends its resume to
    ``callbacks``.

    A :meth:`~repro.sim.resources.Resource.hold` is an event whose
    ``_hold_resource`` is set: untriggered, it is the hold's grant, and
    its ``_value`` carries the hold's delay until the loop starts it as
    the hold's timer (``value`` raises meanwhile, as on any pending
    event); ``_hold_tracker`` is its utilization tracker or ``None``.
    Both are ``None`` on every other event.
    """

    __slots__ = ("sim", "callbacks", "_value", "_ok", "_triggered",
                 "_waiter", "_hold_tracker", "_hold_resource")

    def __init__(self, sim) -> None:
        self.sim = sim
        self.callbacks: Optional[List[Callable[[Event], None]]] = []
        self._value: Any = None
        self._ok: bool = True
        self._triggered = False
        #: the process or condition resumed first on dispatch, or None
        self._waiter: Any = None
        #: a hold's tracker and resource; None unless this is a hold
        self._hold_tracker: Any = None
        self._hold_resource: Any = None

    @property
    def triggered(self) -> bool:
        """True once ``succeed``/``fail`` was called (event is queued)."""
        return self._triggered

    @property
    def processed(self) -> bool:
        """True once the simulator popped the event and ran callbacks."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """False if the event was triggered via :meth:`fail`."""
        return self._ok

    @property
    def value(self) -> Any:
        """The success value (or exception); raises while still pending."""
        if not self._triggered and self.callbacks is not None:
            raise RuntimeError("event value not yet available")
        return self._value

    def succeed(self, value: Any = None, delay: int = 0) -> "Event":
        """Trigger the event successfully; callbacks run after ``delay`` ns."""
        if self._triggered:
            raise RuntimeError("event already triggered")
        self._triggered = True
        self._value = value
        self._ok = True
        if delay:
            self.sim._enqueue(delay, self)
        else:
            # zero-delay trigger is the overwhelmingly common case:
            # join the events due now without the _enqueue call
            self.sim._ready.append(self)
        return self

    def fail(self, exception: BaseException, delay: int = 0) -> "Event":
        """Trigger the event with an exception to be raised in waiters."""
        if self._triggered:
            raise RuntimeError("event already triggered")
        if not isinstance(exception, BaseException):
            raise TypeError("fail() requires an exception instance")
        self._triggered = True
        self._value = exception
        self._ok = False
        self.sim._enqueue(delay, self)
        return self

    def add_callback(self, callback: Callable[["Event"], None]) -> None:
        """Run ``callback(event)`` on processing (immediately if already done)."""
        callbacks = self.callbacks
        if callbacks is None:
            # Late subscriber: run at the current instant, preserving order.
            immediate = Event(self.sim)
            immediate.callbacks.append(lambda _ev: callback(self))
            immediate.succeed()
        else:
            callbacks.append(callback)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "processed" if self.callbacks is None else (
            "triggered" if self._triggered else "pending")
        return f"<{type(self).__name__} {state} at t={self.sim.now}>"


def entry_name(event: Event) -> str:
    """Name a dispatched queue entry for a flight recorder: a hold's
    grant (still untriggered) or its timer, or else the event's class."""
    if event._hold_resource is not None:
        return "hold timer" if event._triggered else "hold grant"
    return type(event).__name__


class Interrupt(Exception):
    """Raised inside a process that another process interrupted."""

    def __init__(self, cause: Any = None) -> None:
        super().__init__(cause)
        self.cause = cause


class _Condition(Event):
    """Base for AllOf/AnyOf composite events.

    Each subclass decides in its own ``_resume``, which every pending
    child calls when it is processed; the constructor settles a
    condition whose children are already processed (or that has none).
    A condition subscribes to a pending child as a process does: it
    takes the child's ``_waiter`` slot when nothing else has subscribed
    and appends its ``_resume`` to ``callbacks`` otherwise.
    ``_pending`` counts the children not yet processed at construction;
    ``AllOf`` counts it down.
    """

    __slots__ = ("events", "_pending")

    def __init__(self, sim, events) -> None:
        # Inline the Event field setup, as Simulator.event does:
        # conditions are built once per composite wait.
        self.sim = sim
        self.callbacks = []
        self._value = None
        self._ok = True
        self._triggered = False
        self._waiter = None
        self._hold_tracker = None
        self._hold_resource = None
        self.events = events = list(events)
        pending = 0
        for event in events:
            callbacks = event.callbacks
            if callbacks is None:       # processed
                if not event._ok:
                    self._pending = pending
                    self.fail(event._value)
                    return
            else:
                pending += 1
                # subscribe as a process does: the free slot first
                if callbacks or event._waiter is not None:
                    callbacks.append(self._resume)
                else:
                    event._waiter = self
        self._pending = pending
        if pending < len(events) or not events:
            self._settle()

    def _resume(self, event: Event) -> None:
        """A pending child was processed: trigger if that decides it."""
        raise NotImplementedError

    def _settle(self) -> None:
        """Decide at construction: some child was already processed, or
        there are none."""
        raise NotImplementedError


class AllOf(_Condition):
    """Triggers once every child event has been processed."""

    __slots__ = ()

    def _resume(self, event: Event) -> None:
        self._pending -= 1
        if self._triggered:
            return
        if not event._ok:
            self.fail(event._value)
        elif not self._pending:
            # every child is processed, and none failed (a failure
            # would have triggered this condition): inlined succeed()
            self._triggered = True
            self._value = list(map(_value_of, self.events))
            self.sim._ready.append(self)

    def _settle(self) -> None:
        if not self._pending:
            self.succeed(list(map(_value_of, self.events)))


class AnyOf(_Condition):
    """Triggers as soon as any child event has been processed."""

    __slots__ = ()

    def _resume(self, event: Event) -> None:
        if self._triggered:
            return
        if not event._ok:
            self.fail(event._value)
        else:
            # the first child processed: inlined succeed()
            self._triggered = True
            self._value = event._value
            self.sim._ready.append(self)

    def _settle(self) -> None:
        self.succeed(next((event._value for event in self.events
                           if event.callbacks is None), None))
