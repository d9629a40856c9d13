"""Unit tests for the discrete-event simulation kernel."""

import pytest

from repro.sim import (
    AllOf,
    AnyOf,
    Event,
    Interrupt,
    Process,
    Resource,
    Simulator,
    Store,
)
from repro.sim.engine import EmptySchedule
from repro.sim.stats import UtilizationTracker


@pytest.fixture
def sim():
    return Simulator()


class TestEventLoop:
    def test_time_starts_at_zero(self, sim):
        assert sim.now == 0

    def test_schedule_runs_callback_at_delay(self, sim):
        seen = []
        sim.schedule(100, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [100]

    def test_events_fire_in_time_order(self, sim):
        order = []
        sim.schedule(50, lambda: order.append("b"))
        sim.schedule(10, lambda: order.append("a"))
        sim.schedule(99, lambda: order.append("c"))
        sim.run()
        assert order == ["a", "b", "c"]

    def test_same_time_events_fifo(self, sim):
        order = []
        for tag in range(10):
            sim.schedule(5, order.append, tag)
        sim.run()
        assert order == list(range(10))

    def test_run_until_stops_clock(self, sim):
        sim.schedule(1000, lambda: None)
        sim.run(until=500)
        assert sim.now == 500
        sim.run()
        assert sim.now == 1000

    def test_step_on_empty_raises(self, sim):
        with pytest.raises(EmptySchedule):
            sim.step()

    def test_negative_delay_rejected(self, sim):
        with pytest.raises(ValueError):
            sim.schedule(-1, lambda: None)

    def test_run_until_past_rejected(self, sim):
        sim.schedule(10, lambda: None)
        sim.run()
        with pytest.raises(ValueError):
            sim.run(until=5)

    def test_events_processed_counter(self, sim):
        for _ in range(7):
            sim.schedule(1, lambda: None)
        sim.run()
        assert sim.events_processed == 7


class TestEvents:
    def test_succeed_delivers_value(self, sim):
        ev = sim.event()
        got = []
        ev.add_callback(lambda e: got.append(e.value))
        ev.succeed(42)
        sim.run()
        assert got == [42]

    def test_double_trigger_raises(self, sim):
        ev = sim.event()
        ev.succeed()
        with pytest.raises(RuntimeError):
            ev.succeed()

    def test_fail_requires_exception(self, sim):
        ev = sim.event()
        with pytest.raises(TypeError):
            ev.fail("not an exception")

    def test_callback_after_processed_still_runs(self, sim):
        ev = sim.event()
        ev.succeed(7)
        sim.run()
        got = []
        ev.add_callback(lambda e: got.append(e.value))
        sim.run()
        assert got == [7]

    def test_timeout_value(self, sim):
        def proc():
            value = yield sim.timeout(10, value="done")
            return value

        assert sim.run_process(proc()) == "done"
        assert sim.now == 10

    def test_negative_timeout_rejected(self, sim):
        with pytest.raises(ValueError):
            sim.timeout(-5)  # simlint: disable=SIM104 -- kernel test: a negative delay must raise before anything is queued


class TestProcess:
    def test_sequential_timeouts_accumulate(self, sim):
        marks = []

        def proc():
            yield sim.timeout(10)
            marks.append(sim.now)
            yield sim.timeout(25)
            marks.append(sim.now)

        sim.process(proc())
        sim.run()
        assert marks == [10, 35]

    def test_process_return_value(self, sim):
        def child():
            yield sim.timeout(5)
            return "payload"

        def parent():
            result = yield sim.process(child())
            return result

        assert sim.run_process(parent()) == "payload"

    def test_exception_propagates_to_run_process(self, sim):
        def bad():
            yield sim.timeout(1)
            raise ValueError("boom")

        with pytest.raises(ValueError, match="boom"):
            sim.run_process(bad())

    def test_failed_event_raises_inside_process(self, sim):
        ev = sim.event()

        def proc():
            try:
                yield ev
            except RuntimeError as exc:
                return f"caught {exc}"

        p = sim.process(proc())
        ev.fail(RuntimeError("dead"))
        sim.run()
        assert p.value == "caught dead"

    def test_yield_non_event_raises(self, sim):
        def proc():
            yield 123

        with pytest.raises(TypeError):
            sim.run_process(proc())

    def test_interrupt_wakes_waiter(self, sim):
        def sleeper():
            try:
                yield sim.timeout(10_000)
                return "slept"
            except Interrupt as intr:
                return f"interrupted:{intr.cause}"

        p = sim.process(sleeper())
        sim.schedule(50, p.interrupt, "wakeup")
        sim.run()
        assert p.value == "interrupted:wakeup"
        assert sim.now < 10_000 or p.processed

    def test_interrupt_finished_process_raises(self, sim):
        def quick():
            yield sim.timeout(1)

        p = sim.process(quick())
        sim.run()
        with pytest.raises(RuntimeError):
            p.interrupt()

    def test_two_processes_interleave(self, sim):
        trace = []

        def ticker(name, period):
            for _ in range(3):
                yield sim.timeout(period)
                trace.append((name, sim.now))

        sim.process(ticker("a", 10))
        sim.process(ticker("b", 15))
        sim.run()
        # At t=30 both fire; b's timeout was enqueued earlier (t=15 vs t=20)
        # so FIFO tie-breaking runs b first.
        assert trace == [("a", 10), ("b", 15), ("a", 20), ("b", 30),
                         ("a", 30), ("b", 45)]


class TestConditions:
    def test_all_of_waits_for_every_event(self, sim):
        def proc():
            results = yield AllOf(sim, [sim.timeout(10, "x"), sim.timeout(30, "y")])
            return (sim.now, sorted(results))

        assert sim.run_process(proc()) == (30, ["x", "y"])

    def test_any_of_fires_on_first(self, sim):
        def proc():
            result = yield AnyOf(sim, [sim.timeout(10, "fast"), sim.timeout(30, "slow")])
            return (sim.now, result)

        assert sim.run_process(proc()) == (10, "fast")

    def test_all_of_empty_fires_immediately(self, sim):
        def proc():
            yield AllOf(sim, [])
            return sim.now

        assert sim.run_process(proc()) == 0

    def test_all_of_propagates_failure(self, sim):
        ev = sim.event()

        def proc():
            yield AllOf(sim, [sim.timeout(5), ev])

        p = sim.process(proc())
        ev.fail(KeyError("gone"))
        sim.run()
        assert not p.ok
        assert isinstance(p.value, KeyError)


class TestResource:
    def test_serializes_access(self, sim):
        res = Resource(sim, capacity=1)
        spans = []

        def worker(hold):
            yield res.acquire()  # simlint: disable=SIM106 -- resource semantics tests model well-behaved workers without exception paths
            start = sim.now
            yield sim.timeout(hold)
            res.release()
            spans.append((start, sim.now))

        sim.process(worker(10))
        sim.process(worker(10))
        sim.run()
        assert spans == [(0, 10), (10, 20)]

    def test_capacity_two_overlaps(self, sim):
        res = Resource(sim, capacity=2)
        done = []

        def worker():
            yield res.acquire()  # simlint: disable=SIM106 -- resource semantics tests model well-behaved workers without exception paths
            yield sim.timeout(10)
            res.release()
            done.append(sim.now)

        for _ in range(3):
            sim.process(worker())
        sim.run()
        assert done == [10, 10, 20]

    def test_release_idle_raises(self, sim):
        res = Resource(sim)
        with pytest.raises(RuntimeError):
            res.release()

    def test_utilization_tracks_busy_time(self, sim):
        res = Resource(sim, capacity=1)

        def worker():
            yield res.acquire()  # simlint: disable=SIM106 -- resource semantics tests model well-behaved workers without exception paths
            yield sim.timeout(40)
            res.release()
            yield sim.timeout(60)

        sim.process(worker())
        sim.run()
        assert res.busy_time() == 40
        assert res.utilization() == pytest.approx(0.4)

    def test_fifo_granting(self, sim):
        res = Resource(sim, capacity=1)
        order = []

        def worker(tag):
            yield res.acquire()  # simlint: disable=SIM106 -- resource semantics tests model well-behaved workers without exception paths
            order.append(tag)
            yield sim.timeout(1)
            res.release()

        for tag in range(5):
            sim.process(worker(tag))
        sim.run()
        assert order == [0, 1, 2, 3, 4]


class TestStore:
    def test_put_then_get(self, sim):
        store = Store(sim)

        def proc():
            yield store.put("item")
            value = yield store.get()
            return value

        assert sim.run_process(proc()) == "item"

    def test_get_blocks_until_put(self, sim):
        store = Store(sim)
        got = []

        def consumer():
            value = yield store.get()
            got.append((sim.now, value))

        def producer():
            yield sim.timeout(100)
            yield store.put("late")

        sim.process(consumer())
        sim.process(producer())
        sim.run()
        assert got == [(100, "late")]

    def test_fifo_ordering(self, sim):
        store = Store(sim)
        for i in range(5):
            store.put(i)
        out = []

        def consumer():
            for _ in range(5):
                out.append((yield store.get()))

        sim.process(consumer())
        sim.run()
        assert out == [0, 1, 2, 3, 4]


# -- construction audit ---------------------------------------------------------
#
# The hot events are built with ``object.__new__`` and inline field
# stores, not through ``Event.__init__``.  Each path that builds an event
# is audited here: it builds a plain ``Event`` unless it makes a process
# or a condition, every ``__slots__`` field is set, the public reads
# equal those of ``Event.__init__`` plus the path's own trigger, and the
# waiter and hold slots hold the path's own or ``None``.

_PENDING = object()


def _like_init(value=_PENDING):
    """``Event.__init__``'s event, then ``succeed(value)`` unless it is
    to stay pending: what an inline construction must read like."""
    event = Event(Simulator())
    if value is not _PENDING:
        event.succeed(value)
    return event


def _reads(event):
    """The public reads; a pending event's ``value`` raises."""
    try:
        value = event.value
    except RuntimeError as error:
        value = f"raises {error}"
    return (event.triggered, event.processed, event.ok, value)


def _idle(sim):
    yield sim.timeout(1)


def _store(sim, *items):
    store = Store(sim)
    for item in items:
        store.put(item)
    return store


def _patient(sim):
    try:
        yield sim.timeout(5)
    except Interrupt:
        pass


#: name -> build(sim) returning (event, the value its trigger gives or
#: _PENDING, its callbacks, its own fields; ``_waiter``,
#: ``_hold_tracker`` and ``_hold_resource`` are ``None`` unless the
#: fields name them)
CONSTRUCTIONS = {}

#: the paths that build a subclass, each with its class; every other
#: path builds a plain Event
SUBCLASSES = {}


def _construction(name, cls=Event):
    def register(build):
        CONSTRUCTIONS[name] = build
        if cls is not Event:
            SUBCLASSES[name] = cls
        return build
    return register


@_construction("event")
def _event(sim):
    return sim.event(), _PENDING, [], {}


@_construction("timeout(0)")
def _timeout_now(sim):
    return sim.timeout(0), None, [], {}


@_construction("timeout(d, value)")
def _timeout_later(sim):
    return sim.timeout(7.0, "v"), "v", [], {}


@_construction("schedule")
def _scheduled(sim):
    event = sim.schedule(3, lambda: None)
    return event, None, list(event.callbacks), {}


@_construction("interrupt's poke")
def _poke(sim):
    process = sim.process(_patient(sim))
    sim.run(until=0)                    # the process waits on its timeout
    process.interrupt("why")
    poke = sim._ready[-1]
    return poke, None, list(poke.callbacks), {}


@_construction("late subscriber's event")
def _late(sim):
    done = sim.timeout(0)
    sim.run()
    done.add_callback(lambda _ev: None)
    late = sim._ready[-1]
    return late, None, list(late.callbacks), {}


@_construction("acquire, free")
def _acquire_free(sim):
    resource = Resource(sim, 1, "r")
    return resource.acquire(), resource, [], {}  # simlint: disable=SIM106 -- construction audit reads the granted acquire; nothing runs to release it


@_construction("acquire, contended")
def _acquire_contended(sim):
    resource = Resource(sim, 1, "r")
    resource.acquire()  # simlint: disable=SIM104, SIM106 -- construction audit takes the only unit so the next acquire queues
    return resource.acquire(), _PENDING, [], {}  # simlint: disable=SIM106 -- construction audit reads the queued acquire; nothing runs to grant it


@_construction("acquire, granted by a release")
def _acquire_granted(sim):
    resource = Resource(sim, 1, "r")
    resource.acquire()  # simlint: disable=SIM104 -- construction audit takes the unit that the release hands to the waiter
    waiter = resource.acquire()
    resource.release()
    return waiter, resource, [], {}


# a hold is one plain event with its hold slots set: untriggered it is
# the grant, carrying its delay in ``_value``, in the FIFO when a unit
# is free and in the resource's queue when not; the loop starts it as
# the timer when it dispatches the grant

@_construction("hold grant, free")
def _hold_grant_free(sim):
    resource = Resource(sim, 1, "r")
    timer = resource.hold(4.0)
    return timer, _PENDING, [], {"_value": 4, "_hold_resource": resource}


@_construction("hold grant, contended")
def _hold_grant_contended(sim):
    resource = Resource(sim, 1, "r")
    resource.acquire()  # simlint: disable=SIM104, SIM106 -- construction audit takes the only unit so the hold queues
    tracker = UtilizationTracker(sim)
    timer = resource.hold(4, tracker)
    return timer, _PENDING, [], {"_value": 4, "_hold_tracker": tracker,
                                 "_hold_resource": resource}


@_construction("hold timer, started by its grant")
def _hold_timer_started(sim):
    resource = Resource(sim, 1, "r")
    tracker = UtilizationTracker(sim)
    timer = resource.hold(4, tracker)
    sim.step()
    return timer, None, [], {"_hold_tracker": tracker,
                             "_hold_resource": resource}


@_construction("put, immediate")
def _put_now(sim):
    return _store(sim).put("x"), None, [], {}


@_construction("put, to a waiting getter")
def _put_to_getter(sim):
    store = _store(sim)
    store.get()  # simlint: disable=SIM104 -- construction audit leaves a getter waiting for the put under test
    return store.put("x"), None, [], {}


@_construction("get, handed the put's item")
def _getter_handed(sim):
    store = _store(sim)
    getter = store.get()
    store.put("x")
    return getter, "x", [], {}


@_construction("get, immediate")
def _get_now(sim):
    return _store(sim, "x").get(), "x", [], {}


@_construction("get, waiting")
def _get_waiting(sim):
    return _store(sim).get(), _PENDING, [], {}


@_construction("process bootstrap")
def _bootstrap(sim):
    process = sim.process(_idle(sim))
    return sim._ready[-1], None, [], {"_waiter": process}


@_construction("process", Process)
def _process(sim):
    generator = _idle(sim)
    return (sim.process(generator), _PENDING, [],
            {"_generator": generator, "_waiting_on": None})


@_construction("AllOf, pending", AllOf)
def _all_of_pending(sim):
    children = [sim.timeout(1, "a"), sim.timeout(2, "b")]
    condition = AllOf(sim, children)
    return (condition, _PENDING, [],
            {"events": children, "_pending": 2})


@_construction("AllOf, children processed", AllOf)
def _all_of_settled(sim):
    children = [sim.timeout(0, "a"), sim.timeout(0, "b")]
    sim.run()
    return (AllOf(sim, children), ["a", "b"], [],
            {"events": children, "_pending": 0})


@_construction("AnyOf, pending", AnyOf)
def _any_of_pending(sim):
    children = [sim.timeout(1, "a"), sim.timeout(2, "b")]
    return (AnyOf(sim, children), _PENDING, [],
            {"events": children, "_pending": 2})


@_construction("AnyOf, a child processed", AnyOf)
def _any_of_settled(sim):
    done = sim.timeout(0, "a")
    sim.run()
    children = [sim.timeout(2, "b"), done]
    return (AnyOf(sim, children), "a", [],
            {"events": children, "_pending": 1})


class TestConstructionAudit:
    @pytest.mark.parametrize("name", sorted(CONSTRUCTIONS))
    def test_fields_and_reads_match_init_plus_trigger(self, name):
        sim = Simulator()
        event, value, callbacks, fields = CONSTRUCTIONS[name](sim)
        assert type(event) is SUBCLASSES.get(name, Event)
        slots = [slot for cls in type(event).__mro__
                 for slot in getattr(cls, "__slots__", ())]
        assert {"sim", "callbacks", "_value", "_ok", "_triggered",
                "_waiter", "_hold_tracker", "_hold_resource"} <= set(slots)
        for slot in slots:
            getattr(event, slot)    # an unset slot raises AttributeError
        assert event.sim is sim
        assert _reads(event) == _reads(_like_init(value))
        assert event.callbacks == callbacks
        for slot in ("_waiter", "_hold_tracker", "_hold_resource"):
            assert getattr(event, slot) is fields.get(slot), slot
        for field, expected in fields.items():
            assert getattr(event, field) == expected, field
            assert type(getattr(event, field)) is type(expected), field
        # an event triggered at construction is dispatched as it stands
        sim.run()
        if value is not _PENDING:
            assert _reads(event) == (True, True, True, value)
            assert event.callbacks is None
        assert event._waiter is None

    def test_timeout_is_a_plain_event_queued_alone(self, sim):
        """``sim.timeout`` returns a plain Event and queues it, and
        nothing else: one queue entry per timeout.  A float delay is
        made an int, so its instant and the clock stay ints."""
        now, later = sim.timeout(0, "a"), sim.timeout(5.0, "b")
        assert type(now) is Event and type(later) is Event
        assert list(sim._ready) == [now] and sim._timed == {5: later}
        assert sim._queue == [5] and sim.queue_length == 2
        assert type(sim._queue[0]) is int
        assert [type(when) for when in sim._timed] == [int]
        sim.run()
        assert sim.events_processed == 2 and sim.now == 5
        assert type(sim.now) is int

    def test_process_is_made_by_the_simulator_only(self, sim):
        with pytest.raises(TypeError, match="sim.process"):
            Process(sim, _idle(sim))
        assert sim.queue_length == 0
        with pytest.raises(TypeError, match="requires a generator"):
            sim.process(lambda: None)
        assert sim.queue_length == 0

    def test_process_waits_in_its_bootstrap_slot(self, sim):
        """The bootstrap is queued triggered after the events already
        due now; its dispatch resumes the process from the slot and
        clears it, and the first wait takes the next event's slot."""
        first = sim.timeout(0)
        process = sim.process(_idle(sim))
        bootstrap = sim._ready[-1]
        assert list(sim._ready) == [first, bootstrap]
        sim.step()
        sim.step()
        assert bootstrap.processed and bootstrap._waiter is None
        waited = process._waiting_on
        assert waited._waiter is process and waited.callbacks == []
        sim.run()
        assert waited._waiter is None and process.value is None

    def test_hold_is_its_own_grant_free(self, sim):
        """An uncontended hold queues its untriggered timer in the FIFO;
        dispatching it is the grant, one event, which starts the timer
        as the lone event of its instant; the timer then fires and
        returns the unit."""
        resource = Resource(sim, 1, "r")
        tracker = UtilizationTracker(sim)
        timer = resource.hold(4, tracker)
        assert list(sim._ready) == [timer] and sim.queue_length == 1
        assert resource.in_use == 1 and sim.peek() == 0
        sim.step()                      # the grant
        assert sim.events_processed == 1
        assert timer.triggered and not timer.processed
        assert not sim._ready and sim._queue == [4]
        assert sim._timed == {4: timer} and sim.queue_length == 1
        assert tracker._busy_since == 0    # begun at the grant
        sim.step()                      # the timer
        assert sim.events_processed == 2 and sim.now == 4
        assert _reads(timer) == (True, True, True, None)
        assert resource.in_use == 0 and tracker.busy_ns() == 4

    def test_hold_is_its_own_grant_contended(self, sim):
        """A contended hold waits in the resource's queue as its
        untriggered timer; the release appends it to the FIFO as is."""
        resource = Resource(sim, 1, "r")
        grant = resource.acquire()
        timer = resource.hold(0)
        assert list(resource._waiters) == [timer]
        assert list(sim._ready) == [grant]
        sim.run()
        assert not timer.triggered and resource.queued == 1
        resource.release()
        assert resource.queued == 0 and resource.in_use == 1
        assert list(sim._ready) == [timer] and not timer.triggered
        sim.step()                      # the grant; a zero delay re-queues
        assert timer.triggered and list(sim._ready) == [timer]
        sim.step()                      # the timer
        assert timer.processed and sim.events_processed == 3
        assert resource.in_use == 0

    def test_a_fired_hold_returns_its_unit_before_its_waiters_run(self, sim):
        """The timer's dispatch ends its tracker and returns its unit,
        granting the next waiter, before the holder in its slot and the
        callbacks behind it run."""
        resource = Resource(sim, 1, "r")
        tracker = UtilizationTracker(sim)
        seen = []

        def state(who):
            seen.append((who, sim.now, resource.in_use, resource.queued,
                         waiter.triggered, waiter.processed,
                         tracker.busy_ns()))

        def holder():
            yield resource.hold(4, tracker)
            state("holder")

        sim.process(holder())
        sim.run(until=0)                # the grant started the timer
        [when] = sim._queue
        timer = sim._timed[when]        # the instant's lone event
        assert when == 4 and timer.triggered
        waiter = resource.acquire()  # simlint: disable=SIM106 -- queued behind the hold; the test ends at the timer's dispatch
        timer.add_callback(lambda _ev: state("callback"))
        assert resource.queued == 1 and timer._waiter is not None
        sim.step()
        assert seen == [("holder", 4, 1, 0, True, False, 4),
                        ("callback", 4, 1, 0, True, False, 4)]
        sim.run()
        assert waiter.processed and resource.in_use == 1

    def test_processed_is_callbacks_none(self, sim):
        event = sim.event()
        event.succeed("v")
        assert not event.processed and event.callbacks == []
        sim.run()
        assert event.processed and event.callbacks is None


class TestKernelInvariants:
    def test_an_instant_holds_its_lone_event_then_a_list(self, sim):
        """A new instant's entry is its event; a second event makes it a
        list in scheduling order.  ``step()`` stops on the list's head,
        and the rest dispatch before the head's zero-delay follow-up."""
        order = []
        first = sim.timeout(5, "a")
        assert sim._queue == [5] and sim._timed == {5: first}
        rest = [sim.timeout(5, "b"), sim.timeout(5, "c")]
        later = sim.timeout(7, "later")
        assert sim._queue == [5, 7] and sim.queue_length == 4
        assert sim._timed[5] == [first] + rest
        def log(event):
            order.append(event.value)

        def head(event):
            log(event)
            sim.timeout(0, "now").add_callback(log)

        first.add_callback(head)
        for event in rest:
            event.add_callback(log)
        sim.step()
        assert order == ["a"] and sim.now == 5 and sim.peek() == 5
        assert list(sim._ready)[:2] == rest and 5 not in sim._timed
        sim.run(until=5)
        assert order == ["a", "b", "c", "now"]
        assert sim._queue == [7] and sim._timed == {7: later}
        assert sim.queue_length == 1

    def test_events_processed_exact_in_observers_and_after_a_raise(self, sim):
        """The loop keeps its count in a local; it writes it back before
        each observer call and on every exit, a raise included."""
        seen = []

        class Observer:
            def on_event(self, when, event):
                seen.append(sim.events_processed)

            def on_stop(self, drained):
                seen.append(("stop", sim.events_processed))

        sim._observer = Observer()
        for delay in (1, 2, 2):
            sim.schedule(delay, lambda: None)

        def boom():
            raise KeyError("boom")

        sim.schedule(3, boom)
        sim.schedule(4, lambda: None)
        with pytest.raises(KeyError):
            sim.run()
        assert seen == [1, 2, 3, 4, ("stop", 4)]
        assert sim.events_processed == 4
        sim.run()
        assert sim.events_processed == 5

    def test_waiting_on_is_the_current_wait_until_the_end(self, sim):
        log = []

        def body():
            first = sim.timeout(1)
            yield first
            log.append(process._waiting_on is first)    # not cleared
            second = sim.timeout(1)
            yield second
            return "done"

        process = sim.process(body())
        sim.run(until=0)
        assert process._waiting_on is not None
        sim.run()
        assert log == [True]
        assert process._waiting_on is None
        assert process.value == "done"

    def test_finishing_after_an_outside_trigger_raises(self, sim):
        """A process finishes without ``succeed`` but keeps its guard."""
        def body():
            yield sim.timeout(1)

        process = sim.process(body())
        process.succeed("early")
        with pytest.raises(RuntimeError, match="already triggered"):
            sim.run()

    def test_slot_waiter_resumes_before_the_callbacks(self, sim):
        """The first process to wait takes the slot; a process waiting
        behind another subscriber appends its resume, so dispatch order
        is subscription order."""
        order = []
        event = sim.event()

        def waiter(name):
            value = yield event
            order.append((name, value))

        first = sim.process(waiter("first"))
        sim.run()
        assert event._waiter is first and event.callbacks == []
        event.add_callback(lambda _ev: order.append(("callback", None)))
        second = sim.process(waiter("second"))
        sim.run()
        assert event._waiter is first
        assert event.callbacks[-1] == second._resume
        event.succeed("v")
        sim.run()
        assert order == [("first", "v"), ("callback", None),
                         ("second", "v")]
        assert event._waiter is None

    def test_a_waiter_behind_a_condition_appends(self, sim):
        """A condition takes a free slot as a process does, and a
        process waiting behind it appends its resume."""
        event = sim.event()
        condition = AnyOf(sim, [event])

        def waiter():
            yield event

        process = sim.process(waiter())
        sim.run()
        assert event._waiter is condition
        assert event.callbacks == [process._resume]

    def test_interrupt_clears_the_slot(self, sim):
        """An interrupt takes a slot waiter out of the slot; the event,
        when it fires later, resumes nobody and fails nobody."""
        event = sim.event()
        log = []

        def waiter():
            try:
                yield event
            except Interrupt as interrupt:
                log.append((interrupt.cause, sim.now))
            log.append((yield sim.timeout(5, "after")))

        process = sim.process(waiter())
        sim.run()
        assert event._waiter is process
        process.interrupt("poke")
        sim.run(until=1)
        assert event._waiter is None and log == [("poke", 0)]
        event.succeed("late")
        sim.run()
        assert log == [("poke", 0), "after"] and not process.is_alive
        sim.check_orphan_failures()

    def test_interrupt_before_a_late_subscriber_resumes_once(self, sim):
        """A process that waits on an already-processed event is resumed
        by a late-subscriber event at the same instant.  An interrupt
        that reaches it first moves it on, and that late resume must
        not resume its next wait as well."""
        log = []

        def victim():
            old = sim.timeout(0, "old")
            yield sim.timeout(0)
            try:
                log.append(("waited", (yield old), sim.now))
            except Interrupt as interrupt:
                log.append(("interrupted", interrupt.cause, sim.now))
            log.append(("next", (yield sim.timeout(10, "new")), sim.now))

        process = sim.process(victim())

        def interrupter():
            process.interrupt("x")
            yield sim.timeout(0)

        sim.process(interrupter())
        sim.run()
        assert log == [("interrupted", "x", 0), ("next", "new", 10)]
        assert process.value is None and sim.now == 10
