"""The two-level event queue against the single-heap loop it replaced.

``Simulator`` keeps events due now in a FIFO, queues events due later by
instant (a heap of distinct instants and a dict from each to its
events), and lets ``AllOf``/``AnyOf`` wait in their children's
``_waiter`` slots and decide in their own ``_resume``.  The kernel
before that pushed every event, zero-delay ones included, onto one heap
of ``(when, seq, event)`` and let conditions append to their children's
callbacks and decide through ``_check``/``_results``.  That kernel
lives on here as the reference: ``ReferenceSimulator`` keeps its own
heap and sequence counter, with its own ``timeout``, ``_enqueue``,
``queue_length``, ``peek``, ``step`` and ``_dispatch``, and shares no
queue code with the kernel; every zero-delay schedule goes onto that
heap at the current instant, and its programs build the old conditions.
Its loop reads the current event layout as the live one does: it
dispatches and counts every queued entry, an event resumes the waiter in
its slot before its callbacks, an untriggered entry is a hold's grant,
which starts the hold's timer, and a hold's timer returns its unit
before anything waiting on it runs.  Hypothesis programs of a few
processes drive both kernels through ``run()``, stepped
``run(until=...)``, ``step()`` and ``run_process``; after every such
call the dispatch traces, ``events_processed``, ``now``,
``queue_length``, ``peek()``, every resource's ``busy_time()`` and
every store's items and waiting getters must agree.  One store starts
with two items, the other empty, so gets both take an item at once and
wait for a put.  Some programs land the timed events of several
processes on one instant in interleaved order, and some subscribe a
condition to a child that already has a waiter.

The same programs also check ``Resource.hold`` against the idiom it
replaces: a program's ``hold`` ops run once as ``hold(delay)`` and once
as ``yield acquire()`` then ``yield sim.timeout(delay)``, on the one
kernel, and the two runs must agree in the same way.  A hold is a plain
event that is its own grant, so the trace labels an untriggered hold as
the idiom's grant event, whose owner is the holder waiting on it, and a
started one by its class, as the idiom's timeout is labelled.
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


class _HeapReady:
    """Stands in for the FIFO: an event due now goes on the reference's
    heap at the current instant with the next sequence number."""

    __slots__ = ("sim",)

    def __init__(self, sim) -> None:
        self.sim = sim

    def append(self, event) -> None:
        sim = self.sim
        heapq.heappush(sim._heap, (sim._now, next(sim._sequence), event))

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
    """The single-heap kernel: one heap of ``(when, seq, event)``, every
    event through it.  It reads and writes none of the kernel's queue
    (``_queue``, ``_timed``): its own ``timeout``, ``_enqueue``,
    ``queue_length``, ``peek``, ``step`` and ``_dispatch`` use ``_heap``
    and ``_sequence`` alone."""

    def __init__(self) -> None:
        super().__init__()
        self._heap = []
        self._sequence = count()
        self._ready = _HeapReady(self)

    @property
    def queue_length(self):
        return len(self._heap)

    def timeout(self, delay, value=None):
        if delay < 0:
            raise ValueError(f"negative timeout delay: {delay}")
        timeout = Event(self)
        timeout._value = value
        timeout._triggered = True
        self._enqueue(delay, timeout)
        return timeout

    def _enqueue(self, delay, event):
        if delay < 0:
            raise ValueError(f"cannot schedule into the past (delay={delay})")
        heapq.heappush(self._heap, (self._now + int(delay),
                                    next(self._sequence), event))

    def peek(self):
        queue = self._heap
        return queue[0][0] if queue else None

    def _dispatch(self, until, stop):
        queue = self._heap
        pop = heapq.heappop
        orphans = self._orphan_failures
        observer = self._observer
        drained = False
        try:
            while queue:
                if until is not None and queue[0][0] > until:
                    break
                when, _seq, event = pop(queue)
                self._now = when
                self._event_count += 1
                if observer is not None:
                    observer.on_event(when, event)
                if not event._triggered:
                    # a hold's grant, carrying its delay: start the timer
                    event._triggered = True
                    delay, event._value = event._value, None
                    self._enqueue(delay, event)
                    if event._hold_tracker is not None:
                        event._hold_tracker.begin()
                    if event is stop:
                        break
                    continue
                if event._hold_resource is not None:
                    # a hold's timer: return the unit first
                    if event._hold_tracker is not None:
                        event._hold_tracker.end()
                    event._hold_resource.release()
                waiter = event._waiter
                # callbacks None marks the event processed
                callbacks, event.callbacks = event.callbacks, None
                if waiter is not None:
                    event._waiter = None
                    waiter._resume(event)
                elif not event._ok and not callbacks:
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
        self._dispatch(None, self._heap[0][2])


# -- the programs ---------------------------------------------------------------

class Boom(Exception):
    """The failure a program injects."""


_CONDITIONS = (AllOf, AnyOf, _Parent.AllOf, _Parent.AnyOf)

#: the conditions a program's ``allof``/``anyof`` ops build on each
#: kernel: the reference builds the old ones
_BUILDS = {
    ReferenceSimulator: {"allof": _Parent.AllOf, "anyof": _Parent.AnyOf},
    Simulator: {"allof": AllOf, "anyof": AnyOf},
}


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
    subscribers in dispatch order (named processes, or the condition
    kind).  ``holds`` picks how the program's ``hold`` ops take their
    resource: ``Resource.hold`` or the acquire-then-timeout idiom.
    """

    def __init__(self, kernel, holds=False) -> None:
        self.sim = sim = kernel()
        sim._observer = self
        self.builds = _BUILDS[kernel]
        self.holds = holds
        self.names = {}
        #: each hold's timer -> its resource, to label the grant
        self.held = {}
        self.trace = []
        self.resources = (Resource(sim, 1, "r0"), Resource(sim, 2, "r1"))
        # a store holding two items, and an empty one whose gets wait
        stocked, _empty = self.stores = (Store(sim, "s0"), Store(sim, "s1"))
        for item in ("seed0", "seed1"):
            stocked.put(item)

    def _owner(self, target):
        """A process by its name, a condition by its kind."""
        if isinstance(target, _CONDITIONS):
            return type(target).__name__
        return self.names.get(target, "main")

    def _owners(self, event):
        """The waiter in the slot first, then the callbacks'."""
        owners = []
        if event._waiter is not None:
            owners.append(self._owner(event._waiter))
        for callback in event.callbacks:
            target = getattr(callback, "__self__", None)
            if isinstance(target, (Process,) + _CONDITIONS):
                owners.append(self._owner(target))
            else:
                owners.append(getattr(callback, "__qualname__", "?"))
        return owners

    # the observer protocol
    def on_event(self, when, event):
        if event._hold_resource is not None and not event._triggered:
            # a hold's grant: the idiom's grant event, which resumes
            # the holder waiting on it
            kind, value = "Event", self.held[event]
        else:
            # a started hold is a plain event, as the idiom's timeout is
            kind, value = type(event).__name__, event._value
        self.trace.append((when, kind, _value_label(value), event._ok,
                           tuple(self._owners(event))))

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
        return (list(self.trace), sim.events_processed, sim.now,
                sim.queue_length, sim.peek(), len(sim._orphan_failures),
                [(r.busy_time(), r.in_use, r.queued)
                 for r in self.resources],
                [(len(s), len(s._getters)) for s in self.stores])


def _sleeper(sim, delay, value):
    try:
        yield sim.timeout(delay, value)
    except Interrupt as interrupt:
        return ("interrupted", interrupt.cause)
    return "slept"


def _waiting(event):
    """Wait on ``event``, which another process waits on too."""
    try:
        return (yield event)
    except Interrupt as interrupt:
        return ("interrupted", interrupt.cause)


def _meeting(sim, offset, at, value):
    """Wait ``offset`` ns, then wait for the instant ``at`` ns after the
    start: meetings spawned together land on one instant, scheduled in
    the order of their offsets."""
    if offset:
        yield sim.timeout(offset)
    return (yield sim.timeout(at - offset, value))


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
                    world.held[timer] = resource
                    yield timer
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
                event = world.builds[kind](sim, children)
                yield event
            elif kind == "spawn":
                label = tag()
                event = world.spawn(_script(world, label, op[1]), label)
                if op[2]:
                    yield event
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
            elif kind == "share":
                # a second process waits on this one's event: the first
                # waiter sits in the slot, the next appends to the list
                event = sim.timeout(op[1], tag())
                world.spawn(_waiting(event), tag())
                if op[2]:
                    yield sim.timeout(0, tag())  # the other waits first
                yield event
            elif kind == "meet":
                # several processes, and this one, each schedule a
                # timeout due on one instant 3 ns ahead; the offsets
                # interleave their scheduling order with their spawn order
                for offset in op[1]:
                    label = tag()
                    world.spawn(_meeting(sim, offset, 3, label), label)
                event = sim.timeout(3, tag())
                yield event
            elif kind == "condshare":
                # a condition subscribes to an event that already has a
                # waiter (a process, or another condition), or takes the
                # slot first and a process waits behind it
                shared = sim.timeout(op[2], tag())
                first, build = op[3], world.builds[op[1]]
                if first == "process":
                    world.spawn(_waiting(shared), tag())
                    yield sim.timeout(0, tag())   # the process waits first
                elif first == "condition":
                    build(sim, [shared, sim.timeout(op[2] + 1, tag())])
                event = build(sim, [sim.timeout(1, tag()), shared])
                if first == "condition":
                    world.spawn(_waiting(shared), tag())
                yield event
            elif kind == "unslot":
                # interrupt the slot waiter of an event with a second
                # waiter behind it, then wait on that event too
                shared = sim.timeout(op[1], tag())
                first = world.spawn(_waiting(shared), tag())
                world.spawn(_waiting(shared), tag())
                yield sim.timeout(op[2], tag())
                if first.is_alive:
                    first.interrupt(tag())
                event = shared
                yield event
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
#: the slot waiter of an event due in d ns interrupted after w < d ns,
#: with a second waiter behind it; or the event fired first
_UNSLOT = st.sampled_from([("unslot", 1, 0), ("unslot", 3, 0),
                           ("unslot", 3, 1), ("unslot", 0, 0)])
#: three or four processes meeting this one's timeout on one instant
_MEET = st.tuples(st.just("meet"),
                  st.lists(st.sampled_from([0, 1, 2]), min_size=2,
                           max_size=3))
#: a condition on an event with a waiter before or behind it
_CONDSHARE = st.tuples(st.just("condshare"),
                       st.sampled_from(["allof", "anyof"]), _DELAY,
                       st.sampled_from(["process", "condition", "none"]))
_LEAF = st.one_of(
    st.tuples(st.just("timeout"), _DELAY),
    _MEET,
    _CONDSHARE,
    _HOLD,
    _ACQUIRE,
    st.tuples(st.sampled_from(["put", "get"]), st.sampled_from([0, 1])),
    st.tuples(st.sampled_from(["allof", "anyof"]),
              st.lists(_CHILD, max_size=3)),
    st.tuples(st.just("trigger"), st.booleans(), _DELAY, st.booleans()),
    st.tuples(st.just("interrupt"), _DELAY, _DELAY),
    st.tuples(st.just("share"), _DELAY, st.booleans()),
    _UNSLOT,
)


def _programs(leaf):
    op = st.one_of(leaf, st.tuples(st.just("spawn"),
                                   st.lists(leaf, max_size=3), st.booleans()))
    return st.lists(st.lists(op, max_size=6), min_size=1, max_size=4)


PROGRAMS = _programs(_LEAF)
#: instant-sharing programs: meetings, conditions on shared events and
#: timeouts, so that stepping stops on the heads of shared instants often
SHARED_PROGRAMS = _programs(st.one_of(
    _MEET, _MEET, _CONDSHARE, st.tuples(st.just("timeout"), _DELAY)))
#: resource-heavy programs: holds mixed with plain acquires and
#: timeouts, spawned so that they contend
HOLD_PROGRAMS = _programs(st.one_of(
    _HOLD, _HOLD, _ACQUIRE, st.tuples(st.just("timeout"), _DELAY)))


def _outcome(call, world):
    try:
        return ("returned", _value_label(call(world)))
    except EmptySchedule:
        return ("empty",)
    except Exception as error:
        return ("raised", type(error).__name__, str(error))


def _kernels():
    return [World(ReferenceSimulator, holds=True),
            World(Simulator, holds=True)]


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
@given(st.one_of(PROGRAMS, SHARED_PROGRAMS),
       st.lists(st.integers(0, 3), max_size=12))
def test_stepped_run_until_matches_single_heap(program, strides):
    calls = [lambda world, stride=stride: world.sim.run(
        until=world.sim.now + stride) for stride in strides]
    _lockstep(program, calls + [_run])


@_PROFILE
@given(st.one_of(PROGRAMS, SHARED_PROGRAMS))
def test_step_matches_single_heap(program):
    """``step()`` stops on every event, shared instants' heads included."""
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
    """A hold runs its course: an exception thrown into its holder,
    queued, granted or holding, takes the holder off the timer but
    leaves the unit busy until the timer fires."""

    @staticmethod
    def _holder(sim, resource, delay, log, tracker=None):
        try:
            yield resource.hold(delay, tracker)
            log.append(("done", sim.now))
        except Interrupt as interrupt:
            log.append((interrupt.cause, sim.now))

    def test_interrupt_while_queued_leaves_the_hold_to_run(self):
        sim = Simulator()
        resource = Resource(sim, 1, "r")
        tracker = UtilizationTracker(sim)
        log = []
        sim.process(self._holder(sim, resource, 10, log))
        waiter = sim.process(self._holder(sim, resource, 5, log, tracker))

        def interrupter():
            yield sim.timeout(2)
            waiter.interrupt("queued")
            yield sim.timeout(0)
            log.append(("queue", resource.in_use, resource.queued))

        sim.process(interrupter())
        sim.run()
        sim.check_orphan_failures()
        assert log == [("queued", 2), ("queue", 1, 1), ("done", 10)]
        assert (resource.in_use, resource.queued) == (0, 0)
        assert resource.busy_time() == 15 == sim.now
        assert tracker.busy_ns() == 5

    def test_throw_between_grant_and_its_dispatch_keeps_the_unit_busy(self):
        """The first hold's timer grants the waiter at t=10; an event due
        at t=10 and queued ahead of that grant throws into the waiter,
        whose timer has not started: it starts anyway, and the unit
        returns when it fires."""
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
        assert resource.busy_time() == 15 == sim.now
        assert tracker.busy_ns() == 5

    def test_grant_left_in_the_fifo_still_starts_the_timer(self):
        """A holder that leaves before its grant ran leaves the grant in
        the FIFO: it is dispatched as one event and starts the timer,
        whose firing returns the unit."""
        sim = Simulator()
        resource = Resource(sim, 1, "r")
        tracker = UtilizationTracker(sim)
        log = []
        holder = sim.process(self._holder(sim, resource, 5, log, tracker))
        holder.interrupt("left")    # queued behind the holder's start-up
        sim.step()                  # the start-up: hold() queues the grant
        timer = holder._waiting_on
        assert not timer.triggered and timer._waiter is holder
        sim.step()                  # the interrupt: the holder leaves
        assert log == [("left", 0)] and timer._waiter is None
        assert (resource.in_use, resource.queued) == (1, 0)
        assert sim.peek() == 0 and sim._ready[0] is timer
        sim.step()                  # the grant starts the timer
        assert sim.events_processed == 3 and timer.triggered
        assert sim._ready[0] is holder
        sim.run()
        assert sim.events_processed == 5 and sim.now == 5
        assert timer.processed and resource.in_use == 0
        assert tracker.busy_ns() == 5 == resource.busy_time()

    def test_interrupt_while_holding_leaves_the_unit_busy(self):
        """The unit returns when the timer fires, not at the interrupt,
        and only then is the next holder in line granted."""
        sim = Simulator()
        resource = Resource(sim, 1, "r")
        tracker = UtilizationTracker(sim)
        log = []
        holder = sim.process(self._holder(sim, resource, 10, log, tracker))
        sim.process(self._holder(sim, resource, 3, log))

        def interrupter():
            yield sim.timeout(4)
            holder.interrupt("holding")
            yield sim.timeout(0)
            log.append(("queue", resource.in_use, resource.queued))

        sim.process(interrupter())
        sim.run()
        sim.check_orphan_failures()
        assert log == [("holding", 4), ("queue", 1, 1), ("done", 13)]
        assert (resource.in_use, resource.queued) == (0, 0)
        assert resource.busy_time() == 13 == sim.now
        assert tracker.busy_ns() == 10

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
