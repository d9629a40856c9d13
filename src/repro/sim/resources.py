"""Shared-resource primitives: semaphores and FIFO stores."""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Optional

from repro.sim.events import Event

_new = object.__new__


class Resource:
    """A capacity-limited resource with FIFO granting.

    Usage inside a process::

        grant = resource.acquire()
        yield grant
        ...  # hold the resource
        resource.release()

    A holder whose work is a fixed delay decided at the call uses
    :meth:`hold` instead, which wakes it once, when the delay is over
    and the unit is already returned::

        yield resource.hold(delay)
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
        event._waiter = None
        event._hold_tracker = None
        event._hold_resource = None
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

        Returns the hold's timer, an :class:`Event` with its hold slots
        set, which fires ``delay`` ns after the grant; the holder yields
        it.  The timer is its own grant: still untriggered, it carries
        ``delay`` in ``_value`` and goes where :meth:`acquire`'s grant
        would, into the simulator's FIFO when a unit is free or into
        this resource's queue until a release grants it.  The loop
        dispatches it there as one event and then starts it, and when
        it fires the loop returns the unit before the holder resumes.
        So the schedule is that of ``yield acquire()``, ``yield
        sim.timeout(delay)`` and ``release()``, without waking the
        holder at the grant.  A hold runs its course: a holder that
        leaves early (an exception thrown into it) keeps the unit busy
        until the timer fires.  A
        :class:`~repro.sim.stats.UtilizationTracker` given as ``tracker``
        is busy from the grant to the timer.
        """
        if delay < 0:
            raise ValueError(f"negative hold delay: {delay}")
        sim = self.sim
        # Inline the Event field setup, as acquire does: this runs once
        # per modelled operation.
        timer = _new(Event)
        timer.sim = sim
        timer.callbacks = []
        timer._value = int(delay)   # until the loop starts the timer
        timer._ok = True
        timer._triggered = False
        timer._waiter = None
        timer._hold_tracker = tracker
        timer._hold_resource = self
        if self._in_use < self.capacity:
            # the uncontended fast path: granted now
            if self._in_use == 0 and self._busy_since is None:
                self._busy_since = sim._now
            self._in_use += 1
            sim._ready.append(timer)
        else:
            self._waiters.append(timer)
        return timer

    def release(self) -> None:
        """Return one unit, granting the oldest waiter if any."""
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
        if event._hold_resource is not None:
            self.sim._ready.append(event)   # a hold: the loop starts it
        else:
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
    """Unbounded FIFO channel between processes."""

    def __init__(self, sim, name: str = "") -> None:
        self.sim = sim
        self.name = name
        self._items: Deque[Any] = deque()
        self._getters: Deque[Event] = deque()

    def __len__(self) -> int:
        return len(self._items)

    def put(self, item: Any) -> Event:
        """Append ``item``; the event fires at this instant."""
        sim = self.sim
        # Event.__init__'s fields, stored inline, as in Resource.acquire
        event = _new(Event)
        event.sim = sim
        event.callbacks = []
        event._value = None
        event._ok = True
        event._triggered = True
        event._waiter = None
        event._hold_tracker = None
        event._hold_resource = None
        if self._getters:
            # Hand the item straight to the oldest waiting getter.
            self._getters.popleft().succeed(item)
        else:
            self._items.append(item)
        sim._ready.append(event)
        return event

    def get(self) -> Event:
        """Take the oldest item; the event fires with it as value."""
        sim = self.sim
        event = _new(Event)
        event.sim = sim
        event.callbacks = []
        event._ok = True
        event._waiter = None
        event._hold_tracker = None
        event._hold_resource = None
        if self._items:
            event._triggered = True
            event._value = self._items.popleft()
            sim._ready.append(event)
        else:
            event._triggered = False
            event._value = None
            self._getters.append(event)
        return event

