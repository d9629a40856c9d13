"""Shared-resource primitives: semaphores and FIFO stores."""

from __future__ import annotations

from collections import deque
from heapq import heappush
from typing import Any, Deque, Optional, Tuple

from repro.sim.events import Event

_new = object.__new__


class _HoldTimer(Event):
    """The timer of one :meth:`Resource.hold`.

    It stays pending until the hold's grant is dispatched; the grant's
    one callback, :meth:`_start`, then queues it ``delay`` ns ahead.
    The sequence number is drawn at that moment, which is exactly when
    a holder woken by the grant would have drawn it for its timeout.
    """

    __slots__ = ("delay", "grant", "tracker")

    def _start(self, _grant: Event) -> None:
        """The grant's callback: queue the timer, busy the tracker."""
        if self._cancelled:
            return  # withdrawn: the holder left before this grant ran
        sim = self.sim
        self._triggered = True
        delay = self.delay
        if delay:
            heappush(sim._queue,
                     (sim._now + delay, next(sim._sequence), self))
        else:
            sim._ready.append(self)
        tracker = self.tracker
        if tracker is not None:
            tracker.begin()


class Resource:
    """A capacity-limited resource with FIFO granting.

    Usage inside a process::

        grant = resource.acquire()
        yield grant
        ...  # hold the resource
        resource.release()

    A holder whose work is a fixed delay decided at the call uses
    :meth:`hold` instead, which wakes it once, when the delay is over::

        timer = resource.hold(delay)
        try:
            yield timer
        finally:
            resource.release(timer)
    """

    def __init__(self, sim, capacity: int = 1, name: str = "") -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.sim = sim
        self.capacity = capacity
        self.name = name
        self._in_use = 0
        self._waiters: Deque[Event] = deque()
        # busy-time accounting for utilization reports
        self._busy_since: Optional[int] = None
        self._busy_time: int = 0
        sanitizer = getattr(sim, "sanitizer", None)
        if sanitizer is not None:
            sanitizer.watch_resource(self)

    @property
    def in_use(self) -> int:
        """Number of units currently held."""
        return self._in_use

    @property
    def queued(self) -> int:
        """Number of acquire requests waiting for a free unit."""
        return len(self._waiters)

    def acquire(self) -> Event:
        """Request one unit; the returned event fires when granted."""
        sim = self.sim
        # Event.__init__'s fields, stored inline: no constructor frame
        event = _new(Event)
        event.sim = sim
        event.callbacks = []
        event._ok = True
        event._cancelled = False
        if self._in_use < self.capacity:
            # inline _grant + succeed: the uncontended fast path
            if self._in_use == 0 and self._busy_since is None:
                self._busy_since = sim._now
            self._in_use += 1
            event._triggered = True
            event._value = self
            sim._ready.append(event)
        else:
            event._triggered = False
            event._value = None
            self._waiters.append(event)
        return event

    def hold(self, delay: int, tracker=None) -> Event:
        """Request one unit and hold it for ``delay`` ns from the grant.

        Returns the hold's timer, which fires ``delay`` ns after the
        grant; the holder yields it and passes it to :meth:`release` in a
        ``finally``.  The grant is an event of its own, dispatched where
        :meth:`acquire`'s would be, and its callback starts the timer, so
        the schedule is that of ``yield acquire()`` followed by ``yield
        sim.timeout(delay)``, without waking the holder at the grant.  A
        :class:`~repro.sim.stats.UtilizationTracker` given as ``tracker``
        is busy from the grant to the release.
        """
        if delay < 0:
            raise ValueError(f"negative hold delay: {delay}")
        sim = self.sim
        # Inline the Event field setup, as acquire does: this runs once
        # per modelled operation.
        timer = _new(_HoldTimer)
        timer.sim = sim
        timer.callbacks = []
        timer._value = None
        timer._ok = True
        timer._triggered = False
        timer._cancelled = False
        timer.delay = int(delay)
        timer.tracker = tracker
        timer.grant = grant = _new(Event)
        grant.sim = sim
        grant.callbacks = [timer._start]
        grant._value = self
        grant._ok = True
        grant._cancelled = False
        if self._in_use < self.capacity:
            # inline _grant + succeed: the uncontended fast path
            if self._in_use == 0 and self._busy_since is None:
                self._busy_since = sim._now
            self._in_use += 1
            grant._triggered = True
            sim._ready.append(grant)
        else:
            grant._triggered = False
            self._waiters.append(grant)
        return timer

    def release(self, hold: Optional[Event] = None) -> None:
        """Return one unit, granting the oldest waiter if any.

        A holder passes the timer :meth:`hold` gave it.  If the timer has
        not started, the holder is leaving before its grant ran (an
        exception thrown into it while it waited): a request still
        queued is withdrawn and no unit is returned; a unit already
        granted is returned, and the timer never starts.
        """
        if hold is not None:
            if not hold._triggered:
                hold._cancelled = True
                grant = hold.grant
                if not grant._triggered:
                    self._waiters.remove(grant)
                    return
            elif hold.tracker is not None:
                hold.tracker.end()
        if self._in_use <= 0:
            raise RuntimeError(f"release() on idle resource {self.name!r}")
        self._in_use -= 1
        if self._waiters:
            self._grant(self._waiters.popleft())
        elif self._in_use == 0 and self._busy_since is not None:
            self._busy_time += self.sim._now - self._busy_since
            self._busy_since = None

    def _grant(self, event: Event) -> None:
        if self._in_use == 0 and self._busy_since is None:
            self._busy_since = self.sim._now
        self._in_use += 1
        event.succeed(self)

    def busy_time(self) -> int:
        """Total ns during which at least one unit was held."""
        total = self._busy_time
        if self._busy_since is not None:
            total += self.sim._now - self._busy_since
        return total

    def utilization(self, elapsed: Optional[int] = None) -> float:
        """Busy fraction over ``elapsed`` ns (default: since t=0)."""
        elapsed = elapsed if elapsed is not None else self.sim._now
        return self.busy_time() / elapsed if elapsed > 0 else 0.0


class Store:
    """Unbounded-or-bounded FIFO channel between processes."""

    def __init__(self, sim, capacity: Optional[int] = None, name: str = "") -> None:
        if capacity is not None and capacity < 1:
            raise ValueError("capacity must be >= 1 or None")
        self.sim = sim
        self.capacity = capacity
        self.name = name
        self._items: Deque[Any] = deque()
        self._getters: Deque[Event] = deque()
        self._putters: Deque[Tuple[Event, Any]] = deque()

    def __len__(self) -> int:
        return len(self._items)

    def put(self, item: Any) -> Event:
        """Append ``item``; the event fires once the store accepts it."""
        sim = self.sim
        # Event.__init__'s fields, stored inline, as in Resource.acquire
        event = _new(Event)
        event.sim = sim
        event.callbacks = []
        event._value = None
        event._ok = True
        event._cancelled = False
        if self._getters:
            # Hand the item straight to the oldest waiting getter.
            self._getters.popleft().succeed(item)
            event._triggered = True
            sim._ready.append(event)
        elif self.capacity is None or len(self._items) < self.capacity:
            self._items.append(item)
            event._triggered = True
            sim._ready.append(event)
        else:
            event._triggered = False
            self._putters.append((event, item))
        return event

    def get(self) -> Event:
        """Take the oldest item; the event fires with it as value."""
        sim = self.sim
        event = _new(Event)
        event.sim = sim
        event.callbacks = []
        event._ok = True
        event._cancelled = False
        if self._items:
            event._triggered = True
            event._value = self._items.popleft()
            sim._ready.append(event)
            self._admit_putter()
        else:
            event._triggered = False
            event._value = None
            self._getters.append(event)
        return event

    def _admit_putter(self) -> None:
        if self._putters:
            event, item = self._putters.popleft()
            self._items.append(item)
            event.succeed()
