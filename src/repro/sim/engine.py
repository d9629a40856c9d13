"""The event loop at the heart of the simulation.

:meth:`Simulator.step`, :meth:`~Simulator.run` and
:meth:`~Simulator.run_process` all drive one dispatch loop,
:meth:`Simulator._dispatch`, which stops at a deadline (``until``),
right after a stop event, or when the queue drains.  The queue has two
levels: a heap of ``(when, seq, event)`` entries for events due later,
and a FIFO of events due now, which a zero-delay schedule appends to
without a sequence number or a heap push.  The loop binds both and the
event count to locals: it runs hundreds of thousands of times per macro
benchmark and attribute lookups dominate otherwise.  The golden
determinism suite (``tests/golden``) pins its observable behaviour.
"""

from __future__ import annotations

from collections import deque
from heapq import heappop, heappush
from itertools import count
from typing import Any, Callable, Dict, Iterator, Optional

from repro.sim.events import AllOf, AnyOf, Event, Timeout
from repro.sim.process import Process
from repro.sim.tracer import NULL_TRACER

_new = object.__new__

#: The instrument factories a new simulator calls with itself, one slot
#: each.  The instruments fill the table from above: each ``enable_*``
#: installs its factory and each ``disable_*`` puts back ``None``, so the
#: kernel imports none of them.  ``tracer`` builds ``sim.tracer``
#: (``NULL_TRACER`` while the slot is empty); the other two build the
#: loop's observers, and the table's order is their fan-out order.
HOOKS: Dict[str, Optional[Callable[[Any], Any]]] = {
    "tracer": None,
    "telemetry": None,
    "sanitizer": None,
}


class EmptySchedule(Exception):
    """Raised by :meth:`Simulator.step` when no events remain."""


class _FanOut:
    """Several armed observers behind the one slot, called in order."""

    __slots__ = ("observers",)

    def __init__(self, observers) -> None:
        self.observers = tuple(observers)

    def on_event(self, when: int, event: Event) -> None:
        """Hand one event to every observer."""
        for observer in self.observers:
            observer.on_event(when, event)

    def on_stop(self, drained: bool) -> None:
        """Tell every observer the loop has stopped."""
        for observer in self.observers:
            observer.on_stop(drained)

    def on_failure(self, error: BaseException) -> None:
        """Hand a run failure to every observer."""
        for observer in self.observers:
            observer.on_failure(error)


class Simulator:
    """Deterministic discrete-event simulator.

    Events scheduled for the same instant are processed in the order they
    were enqueued, which keeps every run bit-for-bit reproducible.  An
    event due later goes on a heap with a monotonically increasing
    sequence number as its tie-break; an event due now is appended to a
    FIFO instead.  When the FIFO runs dry the loop pops the heap head,
    moves the clock to it, and moves that instant's other heap entries
    into the FIFO in heap order before running the head's callbacks.
    Every one of those entries was scheduled before the instant began,
    so this is exactly the (time, sequence) order of a single heap.

    Cancelled events (see :meth:`~repro.sim.events.Timeout.cancel`) stay
    queued as tombstones and are discarded when they reach the front —
    without moving the clock and without counting toward
    ``events_processed``, so a cancel storm does not perturb the
    simulation-speed metric.

    Construction calls every factory installed in :data:`HOOKS`.  Every
    simulator carries a ``tracer`` (see :mod:`repro.sim.tracer`): the
    shared no-op ``NULL_TRACER`` by default, or a live span recorder when
    process-wide tracing or causal capture is on.  Spans record
    simulated time only and never schedule events, so tracing cannot
    perturb results.

    ``telemetry`` and ``sanitizer`` are ``None`` unless their factory
    was installed before construction, which folds the armed ones into
    one observer slot: ``None``, the one hook, or a fan-out in that
    order.  The loop calls ``on_event(when, event)``
    before each live event's callbacks and ``on_stop(drained)`` on every
    exit, a raise included (``drained``: ``run()`` without ``until``
    emptied the queue); ``run_process`` calls ``on_failure(error)``
    before it raises.  Observers schedule nothing, so they leave every
    simulated result bit-identical.
    """

    def __init__(self) -> None:
        self._now: int = 0
        #: events due later: a heap of (when, seq, event)
        self._queue: list = []
        #: events due now, in dispatch order
        self._ready: deque = deque()
        self._sequence: Iterator[int] = count()
        self._event_count: int = 0
        self._orphan_failures: list = []
        hooks = {slot: factory(self) for slot, factory in HOOKS.items()
                 if factory is not None}
        self.tracer = hooks.pop("tracer", NULL_TRACER)
        self.telemetry = hooks.get("telemetry")
        self.sanitizer = hooks.get("sanitizer")
        armed = list(hooks.values())
        self._observer = (None if not armed else armed[0] if len(armed) == 1
                          else _FanOut(armed))

    def _notify_failure(self, error: BaseException) -> None:
        """Hand a run failure to the observers' post-mortems."""
        if self._observer is not None:
            self._observer.on_failure(error)

    def check_orphan_failures(self) -> None:
        """Raise the first failure of a process nobody waited on."""
        if self._orphan_failures:
            error = self._orphan_failures[0].value
            self._notify_failure(error)
            raise error

    @property
    def now(self) -> int:
        """Current simulated time in nanoseconds."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Total events processed so far (simulation-speed metric).

        Exact outside the loop and inside the observers' calls; a
        callback reading it mid-loop sees the count as of the last
        observer call or loop exit.
        """
        return self._event_count

    @property
    def queue_length(self) -> int:
        """Events queued and not yet dispatched: those due later plus
        those due now.  A cancelled timeout counts until the loop (or
        :meth:`peek`) discards it at the front of the queue."""
        return len(self._queue) + len(self._ready)

    # -- factory helpers -------------------------------------------------

    def event(self) -> Event:
        """A fresh pending :class:`Event` bound to this simulator."""
        # Event.__init__'s fields, stored inline: no constructor frame
        event = _new(Event)
        event.sim = self
        event.callbacks = []
        event._value = None
        event._ok = True
        event._triggered = False
        event._cancelled = False
        return event

    def timeout(self, delay: int, value: Any = None) -> Timeout:
        """An event firing ``delay`` ns from now with ``value``.

        The one way to make a :class:`Timeout`: built inline, triggered
        and queued here, once per simulated wait.
        """
        if delay < 0:
            raise ValueError(f"negative timeout delay: {delay}")
        timeout = _new(Timeout)
        timeout.sim = self
        timeout.callbacks = []
        timeout._value = value
        timeout._ok = True
        timeout._triggered = True
        timeout._cancelled = False
        timeout.delay = delay = int(delay)
        if delay:
            heappush(self._queue,
                     (self._now + delay, next(self._sequence), timeout))
        else:
            self._ready.append(timeout)
        return timeout

    def process(self, generator) -> Process:
        """Register ``generator`` as a process starting at this instant."""
        return Process(self, generator)

    def all_of(self, events) -> AllOf:
        """An event firing once every event in ``events`` has fired."""
        return AllOf(self, events)

    def any_of(self, events) -> AnyOf:
        """An event firing as soon as any event in ``events`` fires."""
        return AnyOf(self, events)

    # -- scheduling ------------------------------------------------------

    def _enqueue(self, delay: int, event: Event) -> None:
        if delay < 0:
            raise ValueError(f"cannot schedule into the past (delay={delay})")
        delay = int(delay)
        if delay:
            heappush(self._queue,
                     (self._now + delay, next(self._sequence), event))
        else:
            self._ready.append(event)

    def schedule(self, delay: int, callback, *args) -> Event:
        """Run ``callback(*args)`` after ``delay`` ns; returns the event."""
        event = Event(self)
        event.callbacks.append(lambda _ev: callback(*args))
        event.succeed(delay=delay)
        return event

    # -- execution -------------------------------------------------------

    def peek(self) -> Optional[int]:
        """Time of the next live event, or ``None`` if the queue is empty.

        Tombstoned (cancelled) heads are purged on the way, so the
        answer always refers to an event that will actually fire.
        """
        ready = self._ready
        while ready:
            if ready[0]._cancelled:
                ready.popleft()
            else:
                return self._now
        queue = self._queue
        while queue:
            if queue[0][2]._cancelled:
                heappop(queue)
            else:
                return queue[0][0]
        return None

    def _dispatch(self, until: Optional[int], stop: Optional[Event]) -> None:
        """The event loop: pop live events in time order and run them.

        Stops when the queue drains, before the first event later than
        ``until``, or right after ``stop`` has been dispatched.  Events
        due now come from the FIFO; when it is empty the heap head is
        popped (a tombstone is dropped without moving the clock), the
        clock moves to it, and that instant's other heap entries join
        the FIFO before the head's callbacks run.  A failed event nobody
        waits on is kept for :meth:`check_orphan_failures`.  The event
        count lives in a local and is written back before each observer
        call and on every exit.
        """
        queue = self._queue
        ready = self._ready
        pop = heappop
        popleft = ready.popleft
        append = ready.append
        orphans = self._orphan_failures
        observer = self._observer
        processed = self._event_count
        drained = False
        try:
            if until is not None and until < self._now:
                return  # a deadline behind the clock admits no event
            while True:
                if ready:
                    event = popleft()
                    if event._cancelled:
                        continue
                elif queue:
                    if until is not None and queue[0][0] > until:
                        break
                    when, _seq, event = pop(queue)
                    if event._cancelled:
                        continue
                    self._now = when
                    while queue and queue[0][0] == when:
                        append(pop(queue)[2])
                else:
                    break
                processed += 1
                if observer is not None:
                    self._event_count = processed
                    observer.on_event(self._now, event)
                # callbacks None marks the event processed
                callbacks, event.callbacks = event.callbacks, None
                if not callbacks and not event._ok:
                    orphans.append(event)
                for callback in callbacks:
                    callback(event)
                if event is stop:
                    break
            # with neither a deadline nor a stop event, only an empty
            # queue ends the loop
            drained = until is None and stop is None
        finally:
            self._event_count = processed
            if observer is not None:
                observer.on_stop(drained)

    def step(self) -> None:
        """Process exactly one live event (skipping tombstones)."""
        if self.peek() is None:
            raise EmptySchedule()
        ready = self._ready
        self._dispatch(None, ready[0] if ready else self._queue[0][2])

    def run(self, until: Optional[int] = None) -> None:
        """Run until the queue drains or simulated time reaches ``until``."""
        if until is not None and until < self._now:
            raise ValueError("until lies in the past")
        self._dispatch(until, None)
        if until is not None:
            self._now = until

    def run_process(self, generator, until: Optional[int] = None) -> Any:
        """Convenience: drive ``generator`` as a process to completion.

        Steps the simulation only until the process finishes (other
        queued work — background daemons, periodic samplers — stays
        queued), returning the process return value.  Raises if the
        process fails, or if the queue drains / ``until`` passes first.

        Clock contract: on success ``now`` is the instant the process
        completed (pending events may remain queued).  On the failure
        paths with a deadline — the next event lies beyond ``until``,
        or the queue drains early — the clock is advanced to ``until``
        before raising, matching :meth:`run`'s drain behaviour, so
        ``now`` never sits behind a deadline that has already passed.
        """
        proc = self.process(generator)
        self._dispatch(until, proc)
        if proc.callbacks is not None:      # not processed
            if until is not None and self._now < until:
                self._now = until
            self.check_orphan_failures()
            error = RuntimeError("process did not complete"
                                 + ("" if until is None
                                    else " before the deadline"))
            self._notify_failure(error)
            raise error
        if not proc._ok:
            self._notify_failure(proc._value)
            raise proc._value
        return proc._value
