"""The event loop at the heart of the simulation.

:meth:`Simulator.step`, :meth:`~Simulator.run` and
:meth:`~Simulator.run_process` all drive one dispatch loop,
:meth:`Simulator._dispatch`, which stops at a deadline (``until``),
right after a stop event, or when the queue drains.  The queue has two
levels.  Events due later queue by *instant*, one distinct simulated
time: a heap holds each pending instant once, and a dict maps it to its
events in scheduling order, the event itself while it is alone and a
list once a second one joins.  Events due now sit in a FIFO, which a
zero-delay schedule appends to.  No entry carries a sequence number.
Every queued event is dispatched and counted.  Everything queued is an
:class:`~repro.sim.events.Event`, except processes and conditions; a
hold (:meth:`~repro.sim.resources.Resource.hold`) is an event whose
``_hold_resource`` is set.  An untriggered FIFO entry is exactly a
hold's grant: the loop counts it as one event and starts the hold's
timer itself, and when that timer fires the loop returns the hold's
unit before anyone waiting on it resumes.  The loop binds both levels
and the event count to locals: it runs hundreds of thousands of times
per macro benchmark and attribute lookups dominate otherwise.  The
golden determinism suite (``tests/golden``) pins its observable
behaviour.
"""

from __future__ import annotations

from collections import deque
from heapq import heappop, heappush
from typing import Any, Callable, Dict, Optional

from repro.sim.events import Event
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
    event due later joins its instant's entry in ``_timed``: it becomes
    the entry when the instant is new, and the instant goes on the heap;
    a second event turns the entry into a list, and later ones append to
    it.  An event due now is appended to a FIFO instead.  When the FIFO
    runs dry the loop pops the earliest instant, moves the clock to it,
    and dispatches a lone event directly or moves the list into the FIFO
    before running the head's callbacks.  Every event of an instant was
    scheduled before the instant began, and in entry order, so this is
    exactly the (time, sequence) order of a single heap of
    ``(when, seq, event)`` with a global sequence counter.

    Every queued event is dispatched and counts toward
    ``events_processed``: nothing leaves the queue any other way.

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
        #: the instants with events due later: a heap, each instant once
        self._queue: list = []
        #: each instant on the heap -> its event, or its list of events
        #: once a second one joins, in scheduling order
        self._timed: Dict[int, Any] = {}
        #: events due now, in dispatch order
        self._ready: deque = deque()
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
        """Events queued and not yet dispatched: those due later, summed
        over their instants, plus those due now."""
        return len(self._ready) + sum(
            len(entry) if type(entry) is list else 1
            for entry in self._timed.values())

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
        event._waiter = None
        event._hold_tracker = None
        event._hold_resource = None
        return event

    def timeout(self, delay: int, value: Any = None) -> Event:
        """An event firing ``delay`` ns from now with ``value``.

        A timeout is a plain :class:`Event`, built inline, triggered and
        queued here, once per simulated wait.
        """
        if delay < 0:
            raise ValueError(f"negative timeout delay: {delay}")
        timeout = _new(Event)
        timeout.sim = self
        timeout.callbacks = []
        timeout._value = value
        timeout._ok = True
        timeout._triggered = True
        timeout._waiter = None
        timeout._hold_tracker = None
        timeout._hold_resource = None
        delay = int(delay)
        if delay:
            # join the instant's entry (see _enqueue)
            when = self._now + delay
            timed = self._timed
            entry = timed.get(when)
            if entry is None:
                timed[when] = timeout
                heappush(self._queue, when)
            elif type(entry) is list:
                entry.append(timeout)
            else:
                timed[when] = [entry, timeout]
        else:
            self._ready.append(timeout)
        return timeout

    def process(self, generator) -> Process:
        """Register ``generator`` as a process starting at this instant.

        The one way to make a :class:`Process`: the process and its
        bootstrap are built inline, once per spawn.  The bootstrap is
        queued triggered, after the events already due now, with the
        process in its waiter slot.
        """
        if not hasattr(generator, "send"):
            raise TypeError(
                f"process requires a generator, got {type(generator)!r}")
        process = _new(Process)
        process.sim = self
        process.callbacks = []
        process._value = None
        process._ok = True
        process._triggered = False
        process._waiter = None
        process._hold_tracker = None
        process._hold_resource = None
        process._generator = generator
        process._waiting_on = None
        bootstrap = _new(Event)
        bootstrap.sim = self
        bootstrap.callbacks = []
        bootstrap._value = None
        bootstrap._ok = True
        bootstrap._triggered = True
        bootstrap._waiter = process
        bootstrap._hold_tracker = None
        bootstrap._hold_resource = None
        self._ready.append(bootstrap)
        if self.sanitizer is not None:
            self.sanitizer.watch_process(process)
        return process

    # -- scheduling ------------------------------------------------------

    def _enqueue(self, delay: int, event: Event) -> None:
        """Queue ``event`` ``delay`` ns from now.

        An event due later joins its instant's entry: it is the entry of
        a new instant, which goes on the heap; a second event makes the
        entry a list of both, and a later one appends to that list.
        """
        if delay < 0:
            raise ValueError(f"cannot schedule into the past (delay={delay})")
        delay = int(delay)
        if delay:
            when = self._now + delay
            timed = self._timed
            entry = timed.get(when)
            if entry is None:
                timed[when] = event
                heappush(self._queue, when)
            elif type(entry) is list:
                entry.append(event)
            else:
                timed[when] = [entry, event]
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
        """Time of the next event, or ``None`` if the queue is empty."""
        if self._ready:
            return self._now
        queue = self._queue
        return queue[0] if queue else None

    def _dispatch(self, until: Optional[int], stop: Optional[Event]) -> None:
        """The event loop: pop events in time order and run them.

        Stops when the queue drains, before the first event later than
        ``until``, or right after ``stop`` has been dispatched.  Events
        due now come from the FIFO; when it is empty the earliest instant
        is popped and the clock moves to it: a lone event is dispatched
        directly, and a list joins the FIFO before its head's callbacks
        run.  An event
        resumes the process in its waiter slot first, then runs its
        callbacks; a failed event nobody waits on is kept for
        :meth:`check_orphan_failures`.  An untriggered FIFO entry is a
        hold's grant: it counts as one event and starts the hold's
        timer, taking the delay that ``_value`` carried until then.  A
        fired event with ``_hold_resource`` set is a hold's timer: it
        ends its tracker and returns its unit, which may grant the next
        waiter, before anything waiting on it runs.  The event count
        lives in a local and is written back before each observer call
        and on every exit.
        """
        queue = self._queue
        timed = self._timed
        ready = self._ready
        push = heappush
        pop = heappop
        popleft = ready.popleft
        append = ready.append
        extend = ready.extend
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
                    if not event._triggered:
                        # a hold's grant: one event, which starts the
                        # hold's timer
                        processed += 1
                        if observer is not None:
                            self._event_count = processed
                            observer.on_event(self._now, event)
                        event._triggered = True
                        # the grant carried the delay: the timer fires
                        # with None
                        delay = event._value
                        event._value = None
                        if delay:   # it joins its instant's entry now
                            when = self._now + delay
                            entry = timed.get(when)
                            if entry is None:
                                timed[when] = event
                                push(queue, when)
                            elif type(entry) is list:
                                entry.append(event)
                            else:
                                timed[when] = [entry, event]
                        else:
                            append(event)
                        tracker = event._hold_tracker
                        if tracker is not None:
                            tracker.begin()
                        if event is stop:
                            break
                        continue
                elif queue:
                    if until is not None and queue[0] > until:
                        break
                    self._now = when = pop(queue)
                    event = timed.pop(when)
                    if type(event) is list:
                        # the FIFO is empty: the instant's events join
                        # it in order, and the head comes straight back
                        extend(event)
                        event = popleft()
                else:
                    break
                processed += 1
                if observer is not None:
                    self._event_count = processed
                    observer.on_event(self._now, event)
                resource = event._hold_resource
                if resource is not None:
                    # a hold's timer: the unit returns before anything
                    # waiting on the timer runs
                    tracker = event._hold_tracker
                    if tracker is not None:
                        tracker.end()
                    resource.release()
                waiter = event._waiter
                # callbacks None marks the event processed
                callbacks, event.callbacks = event.callbacks, None
                if waiter is not None:
                    # the slot waiter subscribed first; clearing the slot
                    # leaves no process-event cycle behind
                    event._waiter = None
                    waiter._resume(event)
                elif not callbacks and not event._ok:
                    orphans.append(event)
                if callbacks:   # most events have only their slot waiter
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
        """Process exactly one event."""
        if self.peek() is None:
            raise EmptySchedule()
        ready = self._ready
        if ready:
            head = ready[0]
        else:
            head = self._timed[self._queue[0]]
            if type(head) is list:
                head = head[0]
        self._dispatch(None, head)

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
