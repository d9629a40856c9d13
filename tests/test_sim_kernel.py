"""Unit tests for the discrete-event simulation kernel."""

import pytest

from repro.sim import (
    AllOf,
    AnyOf,
    Event,
    Interrupt,
    Resource,
    Simulator,
    Store,
    Timeout,
)
from repro.sim.engine import EmptySchedule


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
            sim.timeout(-5)


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
            yield res.acquire()
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
            yield res.acquire()
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
            yield res.acquire()
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
            yield res.acquire()
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

    def test_bounded_put_blocks(self, sim):
        store = Store(sim, capacity=1)
        timeline = []

        def producer():
            yield store.put("a")
            timeline.append(("put-a", sim.now))
            yield store.put("b")
            timeline.append(("put-b", sim.now))

        def consumer():
            yield sim.timeout(50)
            item = yield store.get()
            timeline.append((f"got-{item}", sim.now))

        sim.process(producer())
        sim.process(consumer())
        sim.run()
        assert ("put-a", 0) in timeline
        assert ("put-b", 50) in timeline


# -- construction audit ---------------------------------------------------------
#
# The hot events are built with ``object.__new__`` and inline field
# stores, not through ``Event.__init__``.  Each path that builds an event
# is audited here: every ``__slots__`` field is set, and the public reads
# equal those of ``Event.__init__`` plus the path's own trigger.

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
    return (event.triggered, event.processed, event.ok, event.cancelled,
            value)


def _idle(sim):
    yield sim.timeout(1)


def _store(sim, *items, capacity=None):
    store = Store(sim, capacity)
    for item in items:
        store.put(item)
    return store


#: name -> build(sim) returning (event, the value its trigger gives or
#: _PENDING, its callbacks, its own fields)
CONSTRUCTIONS = {}


def _construction(name):
    def register(build):
        CONSTRUCTIONS[name] = build
        return build
    return register


@_construction("event")
def _event(sim):
    return sim.event(), _PENDING, [], {}


@_construction("timeout(0)")
def _timeout_now(sim):
    return sim.timeout(0), None, [], {"delay": 0}


@_construction("timeout(d, value)")
def _timeout_later(sim):
    return sim.timeout(7.0, "v"), "v", [], {"delay": 7}


@_construction("acquire, free")
def _acquire_free(sim):
    resource = Resource(sim, 1, "r")
    return resource.acquire(), resource, [], {}


@_construction("acquire, contended")
def _acquire_contended(sim):
    resource = Resource(sim, 1, "r")
    resource.acquire()
    return resource.acquire(), _PENDING, [], {}


@_construction("acquire, granted by a release")
def _acquire_granted(sim):
    resource = Resource(sim, 1, "r")
    resource.acquire()
    waiter = resource.acquire()
    resource.release()
    return waiter, resource, [], {}


@_construction("hold timer")
def _hold_timer(sim):
    resource = Resource(sim, 1, "r")
    timer = resource.hold(4.0)
    return timer, _PENDING, [], {"delay": 4, "tracker": None}


@_construction("hold grant, free")
def _hold_grant_free(sim):
    resource = Resource(sim, 1, "r")
    timer = resource.hold(4)
    return timer.grant, resource, [timer._start], {}


@_construction("hold grant, contended")
def _hold_grant_contended(sim):
    resource = Resource(sim, 1, "r")
    resource.acquire()
    timer = resource.hold(4)
    return timer.grant, _PENDING, [timer._start], {}


@_construction("put, immediate")
def _put_now(sim):
    return _store(sim).put("x"), None, [], {}


@_construction("put, to a waiting getter")
def _put_to_getter(sim):
    store = _store(sim)
    store.get()
    return store.put("x"), None, [], {}


@_construction("get, handed the put's item")
def _getter_handed(sim):
    store = _store(sim)
    getter = store.get()
    store.put("x")
    return getter, "x", [], {}


@_construction("put, blocked on a full store")
def _put_blocked(sim):
    return _store(sim, "a", capacity=1).put("b"), _PENDING, [], {}


@_construction("get, immediate")
def _get_now(sim):
    return _store(sim, "x").get(), "x", [], {}


@_construction("get, waiting")
def _get_waiting(sim):
    return _store(sim).get(), _PENDING, [], {}


@_construction("process bootstrap")
def _bootstrap(sim):
    process = sim.process(_idle(sim))
    return sim._ready[-1], None, [process._resume], {}


@_construction("process")
def _process(sim):
    generator = _idle(sim)
    return (sim.process(generator), _PENDING, [],
            {"_generator": generator, "_waiting_on": None})


@_construction("AllOf, pending")
def _all_of_pending(sim):
    children = [sim.timeout(1, "a"), sim.timeout(2, "b")]
    condition = AllOf(sim, children)
    return (condition, _PENDING, [],
            {"events": children, "_pending": 2})


@_construction("AllOf, children processed")
def _all_of_settled(sim):
    children = [sim.timeout(0, "a"), sim.timeout(0, "b")]
    sim.run()
    return (AllOf(sim, children), ["a", "b"], [],
            {"events": children, "_pending": 0})


@_construction("AnyOf, pending")
def _any_of_pending(sim):
    children = [sim.timeout(1, "a"), sim.timeout(2, "b")]
    return (AnyOf(sim, children), _PENDING, [],
            {"events": children, "_pending": 2})


@_construction("AnyOf, a child processed")
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
        slots = [slot for cls in type(event).__mro__
                 for slot in getattr(cls, "__slots__", ())]
        assert {"sim", "callbacks", "_value", "_ok", "_triggered",
                "_cancelled"} <= set(slots)
        for slot in slots:
            getattr(event, slot)    # an unset slot raises AttributeError
        assert event.sim is sim
        assert _reads(event) == _reads(_like_init(value))
        assert event.callbacks == callbacks
        for field, expected in fields.items():
            assert getattr(event, field) == expected, field
            assert type(getattr(event, field)) is type(expected), field
        # an event triggered at construction is dispatched as it stands
        sim.run()
        if value is not _PENDING:
            assert _reads(event) == (True, True, True, False, value)
            assert event.callbacks is None

    def test_timeout_is_made_by_the_simulator_only(self, sim):
        with pytest.raises(TypeError, match="sim.timeout"):
            Timeout(sim, 5)
        assert sim.queue_length == 0

    def test_processed_is_callbacks_none(self, sim):
        event = sim.event()
        event.succeed("v")
        assert not event.processed and event.callbacks == []
        sim.run()
        assert event.processed and event.callbacks is None
        timeout = sim.timeout(1)
        sim.run()
        with pytest.raises(RuntimeError, match="processed timeout"):
            timeout.cancel()


class TestKernelInvariants:
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
