"""Generator-driven simulation processes.

Hot-path note: ``_resume`` runs once per generator step — by far the
most frequent call in any simulation — so it reads the waited event's
underscore fields directly and attempts the common wait case (a live
event on the same simulator) inline, deferring to :meth:`_wait_on` only
for error diagnostics and already-processed targets.  A process waits
in the event's ``_waiter`` slot when nothing else has subscribed yet,
and appends its ``_resume`` to ``callbacks`` otherwise, so dispatch
order stays subscription order.  ``_waiting_on`` is overwritten by each
new wait and cleared only when the generator ends; an event the process
is no longer waiting on is processed, so :meth:`Process._throw` skips
it.
"""

from __future__ import annotations

from typing import Any

from repro.sim.events import Event, Interrupt


class Process(Event):
    """A process wraps a generator that yields events to wait on.

    The process itself is an event: it triggers (with the generator's
    return value) when the generator finishes, so processes can wait on
    one another simply by yielding them.

    :meth:`~repro.sim.engine.Simulator.process` is the one way to make
    one: it builds the process and its bootstrap without a constructor
    frame, once per spawn.  Calling ``Process(...)`` raises.
    """

    __slots__ = ("_generator", "_waiting_on")

    def __init__(self, *_args, **_kwargs) -> None:
        raise TypeError("a Process is made by sim.process(generator)")

    @property
    def is_alive(self) -> bool:
        """True while the generator has not finished or failed."""
        return not self._triggered

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current instant."""
        if self._triggered:
            raise RuntimeError("cannot interrupt a finished process")
        poke = Event(self.sim)
        poke.callbacks.append(lambda _ev: self._throw(Interrupt(cause)))
        poke.succeed()

    def _throw(self, exc: BaseException) -> None:
        if self._triggered:
            return
        waited = self._waiting_on
        self._waiting_on = None
        if waited is not None and waited.callbacks is not None:
            if waited._waiter is self:
                waited._waiter = None
            else:
                try:
                    waited.callbacks.remove(self._resume)
                except ValueError:
                    pass
        try:
            target = self._generator.throw(exc)
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        except Interrupt:
            raise RuntimeError("uncaught Interrupt in process") from exc
        self._wait_on(target)

    def _resume(self, event: Event) -> None:
        try:
            if event._ok:
                target = self._generator.send(event._value)
            else:
                target = self._generator.throw(event._value)
        except StopIteration as stop:
            self._waiting_on = None
            # inlined succeed(): _ok is still True unless fail() ran,
            # and fail() triggers, so the guard covers both
            if self._triggered:
                raise RuntimeError("event already triggered")
            self._triggered = True
            self._value = stop.value
            self.sim._ready.append(self)
            return
        except BaseException as exc:
            self._waiting_on = None
            if isinstance(exc, (KeyboardInterrupt, SystemExit)):
                raise
            self.fail(exc)
            return
        # Fast path: target is a live event on our simulator — subscribe
        # directly.  Anything else (non-event, foreign simulator,
        # already-processed) falls through to the checked slow path.
        try:
            callbacks = target.callbacks
            target_sim = target.sim
        except AttributeError:
            self._wait_on(target)  # raises the diagnostic TypeError
            return
        if callbacks is not None and target_sim is self.sim \
                and isinstance(target, Event):
            self._waiting_on = target
            if callbacks or target._waiter is not None:
                callbacks.append(self._resume)
            else:
                target._waiter = self
        else:
            self._wait_on(target)

    def _wait_on(self, target) -> None:
        if not isinstance(target, Event):
            raise TypeError(
                f"process yielded a non-event: {target!r} "
                "(yield sim.timeout(...), a Store get/put, or another process)")
        if target.sim is not self.sim:
            raise ValueError("yielded event belongs to a different simulator")
        self._waiting_on = target
        callbacks = target.callbacks
        if callbacks is None:
            # already processed: a late subscriber, resumed at this
            # instant unless something moves the process on first
            target.add_callback(self._resume_late)
        elif callbacks or target._waiter is not None:
            callbacks.append(self._resume)
        else:
            target._waiter = self

    def _resume_late(self, target: Event) -> None:
        """Resume from an already-processed ``target`` if the process
        still waits on it: an interrupt that reached the process first
        has moved it on, and that wait must not be resumed twice."""
        if self._waiting_on is target:
            self._resume(target)
