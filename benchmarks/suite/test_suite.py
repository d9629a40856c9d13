"""Checks of the benchmark suite's own instruments, at tiny sizes.

Run with ``PYTHONPATH=src python -m pytest benchmarks/suite -q``.
"""

import json
import time

import pytest

from benchmarks.suite.__main__ import BENCHMARK, workload_report
from benchmarks.suite.layers import LayerTracer, TimedGen
from benchmarks.suite.worker import run_repeat

TINY = {"randread_qd16": 200, "randwrite_gc": 400, "mixed_buffered": 300,
        "kernel_mix": 10}
SEED = 7


def _busy(seconds: float) -> None:
    end = time.perf_counter() + seconds  # simlint: disable=SIM101, SIM110 -- the test plants host-time work for the layer timer to find
    while time.perf_counter() < end:  # simlint: disable=SIM101, SIM110 -- the test plants host-time work for the layer timer to find
        pass


@pytest.mark.parametrize("name", sorted(TINY))
def test_traced_and_counted_runs_keep_the_digest(name):
    plain = run_repeat(name, SEED, "plain", size=TINY[name])
    traced = run_repeat(name, SEED, "trace", size=TINY[name])
    counted = run_repeat(name, SEED, "count", size=TINY[name])
    assert traced["digest"] == plain["digest"] == counted["digest"]
    self_s = [v for k, v in traced["layers"].items() if k.endswith(".self_s")]
    assert sum(self_s) <= traced["run_wall_s"]
    if name == "kernel_mix":
        assert [k for k, v in traced["layers"].items()
                if k.endswith(".self_s") and v] == ["sim.self_s"]
    # the report carries every per-layer metric BENCHMARK.json names
    spec = json.loads(BENCHMARK.read_text())
    plain["violations"] = traced["violations"] = counted["violations"] = []
    report = workload_report([plain, traced, counted], None, spec)
    assert report["failed"] == 0
    assert {m["name"] for m in spec["per_layer"]} <= set(report["per_layer"])
    assert {m["name"] for m in spec["end_to_end"]} <= set(report["end_to_end"])


def test_interrupt_and_close_pass_through_timed_generators():
    from repro.sim import Interrupt, Simulator

    sim = Simulator()
    tracer = LayerTracer()
    log = []

    def child():
        try:
            yield sim.timeout(100)
        except Interrupt as interrupt:
            log.append(("child caught", interrupt.cause))
            return "recovered"

    def sleeper():
        try:
            yield sim.timeout(1_000)
        finally:
            log.append("sleeper closed")

    def parent():
        result = yield from TimedGen(child(), tracer.stats["ssd.ftl"], tracer,
                                     "child")
        log.append(("parent got", result))
        try:
            yield from TimedGen(sleeper(), tracer.stats["ssd.fil"], tracer,
                                "sleeper")
        finally:
            log.append("parent closed")

    outer = TimedGen(parent(), tracer.stats["core"], tracer, "parent")
    proc = sim.process(outer)
    sim.run(until=10)
    proc.interrupt("stop")
    sim.run(until=20)
    assert log == [("child caught", "stop"), ("parent got", "recovered")]
    assert proc.is_alive
    outer.close()
    assert log[2:] == ["sleeper closed", "parent closed"]
    assert tracer._stack == []
    assert tracer.stats["ssd.ftl"].self_s > 0
    assert tracer.stats["ssd.fil"].self_s > 0


def test_busy_loop_in_nested_ftl_helper_is_charged_to_ftl(monkeypatch):
    from repro.ssd.firmware.ftl.ftl import FlashTranslationLayer

    original = FlashTranslationLayer.service_line_write
    calls = [0]
    # 5 ms a call plants ~1.2 s, well above the ~0.3 s a slow host phase
    # can add to the ICL's own ~0.35 s
    busy_s = 0.005

    def slow_service_line_write(self, *args, **kwargs):
        calls[0] += 1
        _busy(busy_s)
        yield from original(self, *args, **kwargs)

    def traced():
        return run_repeat("randwrite_gc", SEED, "trace",
                          size=TINY["randwrite_gc"])

    # interleaved, twice each, so that a slow host phase hits both sides
    base, slow = [], []
    for _ in range(2):
        base.append(traced())
        with monkeypatch.context() as patched:
            patched.setattr(FlashTranslationLayer, "service_line_write",
                            slow_service_line_write)
            slow.append(traced())
    planted = calls[0] / 2 * busy_s
    assert calls[0] >= 40
    assert {r["digest"] for r in base + slow} == {base[0]["digest"]}
    assert min(r["layers"]["ssd.ftl.self_s"] for r in slow) >= 0.9 * planted
    icl_gain = min(r["layers"]["ssd.icl.self_s"] for r in slow) \
        - min(r["layers"]["ssd.icl.self_s"] for r in base)
    assert icl_gain < 0.5 * planted


def test_reference_clock_rescales_by_the_probe(monkeypatch):
    import signal

    from benchmarks.suite import worker

    before = signal.getsignal(signal.SIGALRM)
    with worker.ReferenceClock() as quick:
        _busy(0.1)
    monkeypatch.setattr(worker, "_probe",
                        lambda: 2 * worker.PROBE_REFERENCE_S)
    with worker.ReferenceClock() as slowed:
        _busy(0.1)
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    # a probe every PROBE_EVERY_S, whose own time the busy loop's 0.1 s
    # includes and the clock leaves out
    assert len(quick.probes) >= 0.5 * 0.1 / worker.PROBE_EVERY_S
    assert 0.1 - sum(quick.probes) - 0.005 < quick.seconds < 0.1 + 0.005
    # a host on which the probe takes twice its reference time runs at
    # half the reference speed
    assert slowed.reference_seconds() == pytest.approx(slowed.seconds / 2)


def test_call_count_repeats_exactly():
    first = run_repeat("randwrite_gc", SEED, "count", size=100)
    second = run_repeat("randwrite_gc", SEED, "count", size=100)
    assert first["py_calls"] == second["py_calls"]
    assert first["py_calls"]["ssd.icl.py_calls"] > 0
