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
``now``, ``queue_length`` and ``peek()`` must agree.
"""

import heapq
from itertools import count

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.sim import Event, Interrupt, Process, Resource, Simulator, Store
from repro.sim.engine import EmptySchedule
from repro.sim.events import AllOf, AnyOf


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
                if event._processed:
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
                    if event._processed and event._ok]

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
                done = [event for event in self.events if event._processed]
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
                event._processed = True
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
    callbacks (named processes, or the condition kind).
    """

    def __init__(self, kernel) -> None:
        self.sim = sim = kernel()
        sim._observer = self
        self.names = {}
        self.trace = []
        self.resources = (Resource(sim, 1, "r0"), Resource(sim, 2, "r1"))
        self.store = Store(sim)
        for item in ("seed0", "seed1"):
            self.store.put(item)

    # the observer protocol
    def on_event(self, when, event):
        kind = type(event).__name__
        owners = []
        for callback in event.callbacks:
            target = getattr(callback, "__self__", None)
            if isinstance(target, Process):
                owners.append(self.names.get(target, "main"))
            elif isinstance(target, _CONDITIONS):
                owners.append(type(target).__name__)
            else:
                owners.append(getattr(callback, "__qualname__", "?"))
        self.trace.append((when, kind, _value_label(event._value),
                           event._ok, tuple(owners)))

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
                sim.peek(), len(sim._orphan_failures))


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
            elif kind == "hold":
                resource = world.resources[op[1]]
                event = resource.acquire()
                yield event
                try:
                    yield sim.timeout(op[2], tag())
                finally:
                    resource.release()
            elif kind == "put":
                event = world.store.put(tag())
                yield event
            elif kind == "get":
                event = world.store.get()
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
_LEAF = st.one_of(
    st.tuples(st.just("timeout"), _DELAY),
    st.tuples(st.just("hold"), st.sampled_from([0, 1]), _DELAY),
    st.just(("put",)),
    st.just(("get",)),
    st.tuples(st.sampled_from(["allof", "anyof"]),
              st.lists(_CHILD, max_size=3)),
    # cancel a timeout of delay d at once, or after waiting less than d
    st.sampled_from([("cancel", 0, None), ("cancel", 1, None),
                     ("cancel", 1, 0), ("cancel", 3, None),
                     ("cancel", 3, 0), ("cancel", 3, 1)]),
    st.tuples(st.just("trigger"), st.booleans(), _DELAY, st.booleans()),
    st.tuples(st.just("interrupt"), _DELAY, _DELAY),
)
_OP = st.one_of(_LEAF, st.tuples(st.just("spawn"),
                                 st.lists(_LEAF, max_size=3), st.booleans()))
PROGRAMS = st.lists(st.lists(_OP, max_size=6), min_size=1, max_size=4)


def _outcome(call, world):
    try:
        return ("returned", _value_label(call(world)))
    except EmptySchedule:
        return ("empty",)
    except Exception as error:
        return ("raised", type(error).__name__, str(error))


def _lockstep(program, calls, started=True):
    """Build both kernels, then apply each driver call to both and
    compare; ``started`` spawns the program before the first call."""
    worlds = [World(ReferenceSimulator), World(Simulator)]
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


_EXAMPLES = settings(max_examples=60, deadline=None, derandomize=True,
                     suppress_health_check=[HealthCheck.too_slow])


def _run(world):
    return world.sim.run()


@_EXAMPLES
@given(PROGRAMS)
def test_run_matches_single_heap(program):
    _lockstep(program, [_run])


@_EXAMPLES
@given(PROGRAMS, st.lists(st.integers(0, 3), max_size=12))
def test_stepped_run_until_matches_single_heap(program, strides):
    calls = [lambda world, stride=stride: world.sim.run(
        until=world.sim.now + stride) for stride in strides]
    _lockstep(program, calls + [_run])


@_EXAMPLES
@given(PROGRAMS)
def test_step_matches_single_heap(program):
    def steps():
        while True:
            yield lambda world: world.sim.step()

    worlds = _lockstep(program, steps())
    assert worlds[1].sim.peek() is None


@_EXAMPLES
@given(PROGRAMS, st.sampled_from([0, 3]), st.sampled_from([None, 0, 2, 5]))
def test_run_process_matches_single_heap(program, start, until):
    """``start`` moves the clock first, so a deadline can lie behind it."""
    def main(world):
        return world.sim.run_process(_main(world, program), until=until)

    _lockstep(program, [lambda world: world.sim.run(until=start), main,
                        _run], started=False)
