"""Event primitives for the simulation kernel.

Hot-path note: this module (with :mod:`repro.sim.engine` and
:mod:`repro.sim.process`) is the innermost loop of every simulation —
hundreds of thousands of events per macro benchmark (see
``docs/PERFORMANCE.md``).  The implementation therefore trades a little
elegance for speed: ``__slots__`` everywhere, direct underscore-field
access between the three kernel modules instead of property calls, and
hot events built with ``object.__new__`` and inline field stores rather
than through a constructor (``Simulator.event``/``timeout``,
``Resource.acquire``/``hold``, ``Store.put``/``get``, the process
bootstrap; ``tests/test_sim_kernel.py`` audits each against
:meth:`Event.__init__`).  An event is processed exactly when its
``callbacks`` is ``None``: the loop sets it so as it takes the list to
run it, and no separate flag is kept.  Behavioural contracts are pinned
by the golden determinism suite, so any change here must keep event
schedules bit-identical.
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
    events by ``yield``-ing them.
    """

    __slots__ = ("sim", "callbacks", "_value", "_ok", "_triggered",
                 "_cancelled")

    def __init__(self, sim) -> None:
        self.sim = sim
        self.callbacks: Optional[List[Callable[[Event], None]]] = []
        self._value: Any = None
        self._ok: bool = True
        self._triggered = False
        self._cancelled = False

    @property
    def triggered(self) -> bool:
        """True once ``succeed``/``fail`` was called (event is queued)."""
        return self._triggered

    @property
    def processed(self) -> bool:
        """True once the simulator popped the event and ran callbacks."""
        return self.callbacks is None

    @property
    def cancelled(self) -> bool:
        """True if the event was tombstoned before processing."""
        return self._cancelled

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
        state = "cancelled" if self._cancelled else (
            "processed" if self.callbacks is None else (
                "triggered" if self._triggered else "pending"))
        return f"<{type(self).__name__} {state} at t={self.sim.now}>"


class Timeout(Event):
    """An event that fires a fixed delay after creation.

    :meth:`~repro.sim.engine.Simulator.timeout` is the one way to make
    one: it builds the timeout without a constructor frame, once per
    simulated wait, and queues it.  Calling ``Timeout(...)`` raises.

    A pending timeout may be :meth:`cancel`-led — e.g. an elevator's
    anticipation timer obsoleted by an arriving request.  Cancellation
    tombstones the heap entry: the simulator drops it lazily when it
    reaches the head of the queue, without rebuilding the heap and
    without counting it in ``events_processed``.
    """

    __slots__ = ("delay",)

    def __init__(self, *_args, **_kwargs) -> None:
        raise TypeError("a Timeout is made by sim.timeout(delay, value)")

    def cancel(self) -> None:
        """Tombstone the timeout so it never fires.

        Only meaningful while the timeout is still queued; cancelling a
        processed timeout is an error.  Waiters that registered before
        the cancel will never be resumed by this event, so only cancel
        timeouts you own exclusively (the usual speculative-timer case).
        """
        if self.callbacks is None:
            raise RuntimeError("cannot cancel a processed timeout")
        if self._cancelled:
            # double cancel: two owners think they hold this timer —
            # benign for the schedule (tombstoning is idempotent) but
            # worth surfacing when the sanitizer is watching
            sanitizer = getattr(self.sim, "sanitizer", None)
            if sanitizer is not None:
                sanitizer.on_double_cancel(self)
        self._cancelled = True


class Interrupt(Exception):
    """Raised inside a process that another process interrupted."""

    def __init__(self, cause: Any = None) -> None:
        super().__init__(cause)
        self.cause = cause


class _Condition(Event):
    """Base for AllOf/AnyOf composite events.

    Each subclass decides in its own ``_child_done``, which every
    pending child calls when it is processed; the constructor settles a
    condition whose children are already processed (or that has none).
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
        self._cancelled = False
        self.events = events = list(events)
        pending = 0
        child_done = self._child_done
        for event in events:
            callbacks = event.callbacks
            if callbacks is None:       # processed
                if not event._ok:
                    self._pending = pending
                    self.fail(event._value)
                    return
            else:
                pending += 1
                # append directly (no add_callback dispatch)
                callbacks.append(child_done)
        self._pending = pending
        if pending < len(events) or not events:
            self._settle()

    def _child_done(self, event: Event) -> None:
        """A pending child was processed: trigger if that decides it."""
        raise NotImplementedError

    def _settle(self) -> None:
        """Decide at construction: some child was already processed, or
        there are none."""
        raise NotImplementedError


class AllOf(_Condition):
    """Triggers once every child event has been processed."""

    __slots__ = ()

    def _child_done(self, event: Event) -> None:
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

    def _child_done(self, event: Event) -> None:
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
