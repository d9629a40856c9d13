"""The two-level event queue against the single-heap loop it replaced.

``Simulator`` keeps events due now in a FIFO beside its heap and fires
``AllOf``/``AnyOf`` from their own ``_child_done``.  The kernel before
that pushed every event, zero-delay ones included, onto one heap of
``(when, seq, event)`` and let conditions decide through
``_check``/``_results``.  That kernel lives on here as the reference:
``ReferenceSimulator`` routes every zero-delay schedule onto the heap at
the current instant and runs the old ``_dispatch``, ``peek`` and
``step`` verbatim, and ``all_of``/``any_of`` build the old conditions.
Hypothesis programs of a few processes drive both kernels through
``run()``, stepped ``run(until=...)``, ``step()`` and ``run_process``;
after every driver call the dispatch traces, ``events_processed``,
``now``, ``queue_length``, ``peek()``, every resource's ``busy_time()``
and every store's items and waiters must agree.  One store is
unbounded; the other holds one item and starts full with a put blocked
behind it, so puts block and gets admit them.

The same programs also check ``Resource.hold`` against the idiom it
replaces: a program's ``hold`` ops run once as ``hold(delay)`` and once
as ``yield acquire()`` then ``yield sim.timeout(delay)``, on the one
kernel, and the two runs must agree in the same way.  The hold's grant
runs a kernel callback where the idiom resumes the holder, so the trace
names the grant's owners as the processes waiting on its timer, and the
timer as a ``Timeout``.
"""

import heapq
import os
from itertools import count

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.sim import (
    Event,
    Interrupt,
    Process,
    Resource,
    Simulator,
    Store,
    UtilizationTracker,
)
from repro.sim.engine import EmptySchedule
from repro.sim.events import AllOf, AnyOf
from repro.sim.resources import _HoldTimer


class _HeapReady:
    """Stands in for the FIFO: an event due now goes on the heap at the
    current instant with the next sequence number."""

    __slots__ = ("sim",)

    def __init__(self, sim) -> None:
        self.sim = sim

    def append(self, event) -> None:
        sim = self.sim
        heapq.heappush(sim._queue, (sim._now, next(sim._sequence), event))

    def __len__(self) -> int:
        return 0


class _Parent:
    """The conditions before the inline fast path, kept verbatim."""

    class _Condition(Event):
        __slots__ = ("events", "_pending")

        def __init__(self, sim, events) -> None:
            super().__init__(sim)
            self.events = list(events)
            self._pending = 0
            child_done = self._child_done
            for event in self.events:
                if event.callbacks is None:
                    if not event._ok:
                        self.fail(event._value)
                        return
                else:
                    self._pending += 1
                    event.callbacks.append(child_done)
            self._check()

        def _child_done(self, event: Event) -> None:
            self._pending -= 1
            if self._triggered:
                return
            if not event._ok:
                self.fail(event._value)
                return
            self._check()

        def _results(self):
            return [event._value for event in self.events
                    if event.callbacks is None and event._ok]

    class AllOf(_Condition):
        __slots__ = ()

        def _check(self) -> None:
            if self._pending == 0 and not self._triggered:
                self.succeed(self._results())

    class AnyOf(_Condition):
        __slots__ = ()

        def _check(self) -> None:
            if self._triggered:
                return
            if self._pending < len(self.events) or not self.events:
                done = [event for event in self.events
                        if event.callbacks is None]
                self.succeed(done[0]._value if done else None)


class ReferenceSimulator(Simulator):
    """The single-heap kernel: one heap, every event through it."""

    def __init__(self) -> None:
        super().__init__()
        self._ready = _HeapReady(self)

    def all_of(self, events):
        return _Parent.AllOf(self, events)

    def any_of(self, events):
        return _Parent.AnyOf(self, events)

    def peek(self):
        queue = self._queue
        while queue:
            if queue[0][2]._cancelled:
                heapq.heappop(queue)
            else:
                return queue[0][0]
        return None

    def _dispatch(self, until, stop):
        queue = self._queue
        pop = heapq.heappop
        orphans = self._orphan_failures
        observer = self._observer
        drained = False
        try:
            while queue:
                if until is not None and queue[0][0] > until:
                    break
                when, _seq, event = pop(queue)
                if event._cancelled:
                    continue
                self._now = when
                self._event_count += 1
                if observer is not None:
                    observer.on_event(when, event)
                # callbacks None marks the event processed
                callbacks, event.callbacks = event.callbacks, None
                if not event._ok and not callbacks:
                    orphans.append(event)
                for callback in callbacks:
                    callback(event)
                if event is stop:
                    break
            # with neither a deadline nor a stop event, only an empty
            # queue ends the loop
            drained = until is None and stop is None
        finally:
            if observer is not None:
                observer.on_stop(drained)

    def step(self):
        if self.peek() is None:
            raise EmptySchedule()
        self._dispatch(None, self._queue[0][2])


# -- the programs ---------------------------------------------------------------

class Boom(Exception):
    """The failure a program injects."""


_CONDITIONS = (AllOf, AnyOf, _Parent.AllOf, _Parent.AnyOf)


def _value_label(value):
    if isinstance(value, Resource):
        return "grant:" + value.name
    if isinstance(value, BaseException):
        return f"{type(value).__name__}{value.args}"
    if isinstance(value, list):
        return tuple(_value_label(item) for item in value)
    return value


class World:
    """One kernel's copy of a program's shared state and its trace.

    It is the kernel's observer: every dispatch is recorded as its
    instant, the event's kind, value and ok flag, and the owners of its
    callbacks (named processes, or the condition kind).  ``holds``
    picks how the program's ``hold`` ops take their resource:
    ``Resource.hold`` or the acquire-then-timeout idiom.
    """

    def __init__(self, kernel, holds=False) -> None:
        self.sim = sim = kernel()
        sim._observer = self
        self.holds = holds
        self.names = {}
        self.trace = []
        self.resources = (Resource(sim, 1, "r0"), Resource(sim, 2, "r1"))
        # an unbounded store, and a one-slot store that starts full with
        # a put blocked behind it: a put there blocks until a get admits
        # it (``_admit_putter``)
        unbounded, one_slot = self.stores = (Store(sim, name="s0"),
                                             Store(sim, 1, "s1"))
        for store, item in ((unbounded, "seed0"), (unbounded, "seed1"),
                            (one_slot, "seed2"), (one_slot, "seed3")):
            store.put(item)

    def _owners(self, callbacks):
        owners = []
        for callback in callbacks:
            target = getattr(callback, "__self__", None)
            if isinstance(target, Process):
                owners.append(self.names.get(target, "main"))
            elif isinstance(target, _CONDITIONS):
                owners.append(type(target).__name__)
            elif isinstance(target, _HoldTimer):
                # a hold's grant: the idiom would resume the processes
                # now waiting on the timer
                owners.extend(self._owners(target.callbacks))
            else:
                owners.append(getattr(callback, "__qualname__", "?"))
        return owners

    # the observer protocol
    def on_event(self, when, event):
        kind = ("Timeout" if isinstance(event, _HoldTimer)
                else type(event).__name__)
        self.trace.append((when, kind, _value_label(event._value),
                           event._ok, tuple(self._owners(event.callbacks))))

    def on_stop(self, drained):
        self.trace.append(("stop", drained))

    def on_failure(self, error):
        self.trace.append(("failure", type(error).__name__))

    def spawn(self, generator, name):
        process = self.sim.process(generator)
        self.names[process] = name
        return process

    def snapshot(self):
        sim = self.sim
        length = sim.queue_length     # before peek() purges tombstones
        return (list(self.trace), sim.events_processed, sim.now, length,
                sim.peek(), len(sim._orphan_failures),
                [(r.busy_time(), r.in_use, r.queued)
                 for r in self.resources],
                [(len(s), len(s._getters), len(s._putters))
                 for s in self.stores])


def _sleeper(sim, delay, value):
    try:
        yield sim.timeout(delay, value)
    except Interrupt as interrupt:
        return ("interrupted", interrupt.cause)
    return "slept"


def _script(world, name, ops):
    """Run ``ops`` as process ``name``; an injected failure is caught."""
    sim = world.sim
    serial = count()
    last = None

    def tag():
        return f"{name}.{next(serial)}"

    def child(spec):
        if spec[0] == "t":
            return sim.timeout(spec[1], tag())
        if spec[0] == "done" and last is not None and last.processed:
            return last
        if spec[0] == "done":
            return sim.timeout(0, tag())
        failing = sim.event()
        failing.fail(Boom(tag()), delay=spec[1])
        return failing

    for op in ops:
        kind, event = op[0], None
        try:
            if kind == "timeout":
                event = sim.timeout(op[1], tag())
                yield event
            elif kind == "acquire":
                resource = world.resources[op[1]]
                event = resource.acquire()
                yield event
                try:
                    yield sim.timeout(op[2], tag())
                finally:
                    resource.release()
            elif kind == "hold":
                resource = world.resources[op[1]]
                if world.holds:
                    timer = resource.hold(op[2])
                    try:
                        yield timer
                    finally:
                        resource.release(timer)
                else:
                    yield resource.acquire()
                    try:
                        yield sim.timeout(op[2])
                    finally:
                        resource.release()
            elif kind == "put":
                event = world.stores[op[1]].put(tag())
                yield event
            elif kind == "get":
                event = world.stores[op[1]].get()
                yield event
            elif kind in ("allof", "anyof"):
                children = [child(spec) for spec in op[1]]
                build = sim.all_of if kind == "allof" else sim.any_of
                event = build(children)
                yield event
            elif kind == "spawn":
                label = tag()
                event = world.spawn(_script(world, label, op[1]), label)
                if op[2]:
                    yield event
            elif kind == "cancel":
                doomed = sim.timeout(op[1], tag())
                if op[2] is not None:
                    event = sim.timeout(op[2], tag())
                    yield event
                doomed.cancel()
            elif kind == "trigger":
                event = sim.event()
                if op[1]:
                    event.succeed(tag(), delay=op[2])
                else:
                    event.fail(Boom(tag()), delay=op[2])
                if op[3]:
                    yield event
            elif kind == "interrupt":
                label = tag()
                sleeper = world.spawn(_sleeper(sim, op[1], label), label)
                event = sim.timeout(op[2], tag())
                yield event
                if sleeper.is_alive:
                    sleeper.interrupt(tag())
        except Boom:
            continue
        if event is not None and event.processed:
            last = event
    return name


def _main(world, program):
    for index, ops in enumerate(program[1:], 1):
        world.spawn(_script(world, f"p{index}", ops), f"p{index}")
    return (yield from _script(world, "p0", program[0]))


_DELAY = st.sampled_from([0, 1, 3])
_CHILD = st.one_of(st.tuples(st.just("t"), _DELAY), st.just(("done",)),
                   st.tuples(st.just("fail"), _DELAY))
#: take resource 0 (one slot) or 1 (two slots) for 0, 1 or 3 ns
_HOLD = st.tuples(st.just("hold"), st.sampled_from([0, 1]), _DELAY)
_ACQUIRE = st.tuples(st.just("acquire"), st.sampled_from([0, 1]), _DELAY)
# cancel a timeout of delay d at once, or after waiting less than d
_CANCEL = st.sampled_from([("cancel", 0, None), ("cancel", 1, None),
                           ("cancel", 1, 0), ("cancel", 3, None),
                           ("cancel", 3, 0), ("cancel", 3, 1)])
_LEAF = st.one_of(
    st.tuples(st.just("timeout"), _DELAY),
    _HOLD,
    _ACQUIRE,
    st.tuples(st.sampled_from(["put", "get"]), st.sampled_from([0, 1])),
    st.tuples(st.sampled_from(["allof", "anyof"]),
              st.lists(_CHILD, max_size=3)),
    _CANCEL,
    st.tuples(st.just("trigger"), st.booleans(), _DELAY, st.booleans()),
    st.tuples(st.just("interrupt"), _DELAY, _DELAY),
)


def _programs(leaf):
    op = st.one_of(leaf, st.tuples(st.just("spawn"),
                                   st.lists(leaf, max_size=3), st.booleans()))
    return st.lists(st.lists(op, max_size=6), min_size=1, max_size=4)


PROGRAMS = _programs(_LEAF)
#: resource-heavy programs: holds mixed with plain acquires, timeouts
#: and cancels, spawned so that they contend
HOLD_PROGRAMS = _programs(st.one_of(
    _HOLD, _HOLD, _ACQUIRE, st.tuples(st.just("timeout"), _DELAY), _CANCEL))


def _outcome(call, world):
    try:
        return ("returned", _value_label(call(world)))
    except EmptySchedule:
        return ("empty",)
    except Exception as error:
        return ("raised", type(error).__name__, str(error))


def _kernels():
    return [World(ReferenceSimulator), World(Simulator)]


def _hold_idioms():
    return [World(Simulator), World(Simulator, holds=True)]


def _lockstep(program, calls, started=True, worlds=_kernels):
    """Build both worlds, then apply each of ``calls`` to both and
    compare; ``started`` spawns the program before the first call."""
    worlds = worlds()
    if started:
        for world in worlds:
            world.spawn(_main(world, program), "main")
    for call in calls:
        reference, change = [(_outcome(call, world),) + world.snapshot()
                             for world in worlds]
        assert change == reference
        if reference[0] == ("empty",):
            break
    return worlds


#: The hypothesis profiles, picked by ``REPRO_DIFFERENTIAL_PROFILE``:
#: ``tier1`` (the default) runs 60 derandomized examples per test;
#: ``deep`` (CI's analysis job) runs 500 from a fresh seed, and a
#: failure prints the ``@reproduce_failure`` decorator that replays it.
_PROFILES = {
    "tier1": settings(max_examples=60, deadline=None, derandomize=True,
                      suppress_health_check=[HealthCheck.too_slow]),
    "deep": settings(max_examples=500, deadline=None, database=None,
                     print_blob=True,
                     suppress_health_check=[HealthCheck.too_slow]),
}
_PROFILE = _PROFILES[os.environ.get("REPRO_DIFFERENTIAL_PROFILE", "tier1")]


def _run(world):
    return world.sim.run()


@_PROFILE
@given(PROGRAMS)
def test_run_matches_single_heap(program):
    _lockstep(program, [_run])


@_PROFILE
@given(PROGRAMS, st.lists(st.integers(0, 3), max_size=12))
def test_stepped_run_until_matches_single_heap(program, strides):
    calls = [lambda world, stride=stride: world.sim.run(
        until=world.sim.now + stride) for stride in strides]
    _lockstep(program, calls + [_run])


@_PROFILE
@given(PROGRAMS)
def test_step_matches_single_heap(program):
    def steps():
        while True:
            yield lambda world: world.sim.step()

    worlds = _lockstep(program, steps())
    assert worlds[1].sim.peek() is None


@_PROFILE
@given(PROGRAMS, st.sampled_from([0, 3]), st.sampled_from([None, 0, 2, 5]))
def test_run_process_matches_single_heap(program, start, until):
    """``start`` moves the clock first, so a deadline can lie behind it."""
    def main(world):
        return world.sim.run_process(_main(world, program), until=until)

    _lockstep(program, [lambda world: world.sim.run(until=start), main,
                        _run], started=False)


# -- Resource.hold against acquire + timeout ------------------------------------

@_PROFILE
@given(st.one_of(HOLD_PROGRAMS, PROGRAMS))
def test_hold_run_matches_acquire_then_timeout(program):
    _lockstep(program, [_run], worlds=_hold_idioms)


@_PROFILE
@given(HOLD_PROGRAMS, st.lists(st.integers(0, 3), max_size=12))
def test_hold_stepped_run_matches_acquire_then_timeout(program, strides):
    calls = [lambda world, stride=stride: world.sim.run(
        until=world.sim.now + stride) for stride in strides]
    _lockstep(program, calls + [_run], worlds=_hold_idioms)


@_PROFILE
@given(HOLD_PROGRAMS)
def test_hold_step_matches_acquire_then_timeout(program):
    def steps():
        while True:
            yield lambda world: world.sim.step()

    _lockstep(program, steps(), worlds=_hold_idioms)


class TestHoldLeavingEarly:
    """An exception thrown into a holder before its timer started
    withdraws the request: no unit is returned that the holder never
    got, and the timer never fires."""

    @staticmethod
    def _holder(sim, resource, delay, log, tracker=None):
        timer = resource.hold(delay, tracker)
        try:
            yield timer
            log.append(("done", sim.now))
        except Interrupt as interrupt:
            log.append((interrupt.cause, sim.now))
        finally:
            resource.release(timer)

    def test_interrupt_while_queued_withdraws_the_request(self):
        sim = Simulator()
        resource = Resource(sim, 1, "r")
        tracker = UtilizationTracker(sim)
        log = []
        sim.process(self._holder(sim, resource, 10, log))
        waiter = sim.process(self._holder(sim, resource, 5, log, tracker))

        def interrupter():
            yield sim.timeout(2)
            waiter.interrupt("queued")

        sim.process(interrupter())
        sim.run()
        sim.check_orphan_failures()
        assert log == [("queued", 2), ("done", 10)]
        assert (resource.in_use, resource.queued) == (0, 0)
        assert resource.busy_time() == 10 == sim.now
        assert tracker.busy_ns() == 0

    def test_throw_between_grant_and_its_dispatch_returns_the_unit(self):
        """The first holder's release grants the waiter at t=10; an
        event due at t=10 and queued ahead of that grant throws into the
        waiter, so its timer has not started yet."""
        sim = Simulator()
        resource = Resource(sim, 1, "r")
        tracker = UtilizationTracker(sim)
        log = []
        sim.process(self._holder(sim, resource, 10, log))
        waiter = sim.process(self._holder(sim, resource, 5, log, tracker))

        def thrower():
            yield sim.timeout(0)   # after the first hold's timer started
            yield sim.timeout(10)  # due at t=10, queued behind that timer
            assert resource.in_use == 1 and not resource.queued  # granted
            waiter._throw(Interrupt("granted"))

        sim.process(thrower())
        sim.run()
        sim.check_orphan_failures()
        assert log == [("done", 10), ("granted", 10)]
        assert (resource.in_use, resource.queued) == (0, 0)
        assert resource.busy_time() == 10 == sim.now
        assert tracker.busy_ns() == 0

    def test_interrupt_while_holding_matches_the_idiom(self):
        """After the grant ran, ``hold`` behaves as the idiom does: the
        unit is returned at the interrupt, and the timer still fires."""
        def run(use_hold):
            sim = Simulator()
            resource = Resource(sim, 1, "r")
            tracker = UtilizationTracker(sim)
            log = []

            def idiom():
                yield resource.acquire()
                tracker.begin()
                try:
                    yield sim.timeout(10)
                except Interrupt as interrupt:
                    log.append((interrupt.cause, sim.now))
                finally:
                    tracker.end()
                    resource.release()

            holder = sim.process(
                self._holder(sim, resource, 10, log, tracker) if use_hold
                else idiom())

            def interrupter():
                yield sim.timeout(4)
                holder.interrupt("holding")

            sim.process(interrupter())
            sim.run()
            return (log, sim.now, sim.events_processed,
                    resource.busy_time(), tracker.busy_ns(),
                    resource.in_use)

        held, idiom = run(True), run(False)
        assert held == idiom
        assert held[:2] == ([("holding", 4)], 10)
        assert held[3:] == (4, 4, 0)

    def test_tracker_is_busy_from_the_grant(self):
        sim = Simulator()
        resource = Resource(sim, 1, "r")
        tracker = UtilizationTracker(sim)
        log = []
        sim.process(self._holder(sim, resource, 6, log))
        sim.process(self._holder(sim, resource, 3, log, tracker))
        sim.run(until=7)
        assert tracker.busy_ns() == 1      # granted at t=6
        sim.run()
        assert tracker.busy_ns() == 3
        assert log == [("done", 6), ("done", 9)]
