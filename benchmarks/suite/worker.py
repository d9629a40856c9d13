"""One repeat of one workload, in the process that runs it.

``python -m benchmarks.suite.worker WORKLOAD SEED MODE [CHROME_TRACE]``
prints one JSON object: set-up and run host seconds, peak RSS, the
simulated digest, broken invariants and the model counters.  MODE is

* ``plain``: the end-to-end measurement, timed with a
  :class:`ReferenceClock` and nothing else attached;
* ``trace``: :class:`~benchmarks.suite.layers.LayerTracer` installed
  before the system is built, per-layer self time (host seconds) and
  calls added;
* ``count``: Python calls per layer during the measured phase.

The orchestrator (``python -m benchmarks.suite``) starts a fresh
interpreter per repeat, so no repeat inherits another's heap or caches.
"""

from __future__ import annotations

import gc
import json
import resource
import signal
import statistics
import sys
from array import array
from contextlib import nullcontext
from heapq import heappop, heappush
from pathlib import Path
from time import perf_counter as clock
from typing import Dict, Optional

from benchmarks.suite.layers import CallCounter, LayerTracer
from benchmarks.suite.workloads import WORKLOADS

MODES = ("plain", "trace", "count")

#: host seconds between two probes while a :class:`ReferenceClock` runs
PROBE_EVERY_S = 0.004
#: the probe's median time on a quiet 2-vCPU Intel Xeon host under
#: CPython 3.11; it fixes the host speed that times are rescaled to
PROBE_REFERENCE_S = 45e-6
#: consecutive probe intervals rescaled together, by their median probe
GROUP = 8


def _probe() -> float:
    """Host seconds of a fixed bit of interpreter work of the kind the
    simulator does (heap, dict, calls), timed where it runs."""
    start = clock()  # simlint: disable=SIM101, SIM110 -- benchmark harness times its probe in host seconds; never enters simulated state
    heap, table = [], {}
    for i in range(120):
        heappush(heap, (i * 37) % 101)
        table[i % 17] = i
    while heap:
        table.get(heappop(heap) % 17)
    return clock() - start  # simlint: disable=SIM101, SIM110 -- benchmark harness times its probe in host seconds; never enters simulated state


class ReferenceClock:
    """Times a stretch of work in host seconds at a reference host speed.

    On a shared host, neighbours slow this one down by up to 2x, for
    tens of milliseconds to minutes at a time.  While the clock runs, a
    ``SIGALRM`` interval timer runs :func:`_probe` every
    :data:`PROBE_EVERY_S`, and the clock runs it once more at start and
    stop.  The probe slows down with the host as the simulator does.
    :attr:`seconds` is the host time without the probes' own;
    :meth:`reference_seconds` scales each run of :data:`GROUP` intervals
    by ``PROBE_REFERENCE_S`` over their median probe time, so a stretch
    run on a slowed host reads about what it would on a quiet one.  The
    handler touches no simulated state, so the schedule is unchanged.
    """

    def __init__(self) -> None:
        self.times = array("d")    # arrays hold no objects for gc to count
        self.probes = array("d")
        self._start = 0.0
        self._probing = 0.0

    def _sample(self, _signum=None, _frame=None) -> None:
        now = clock()  # simlint: disable=SIM101, SIM110 -- benchmark harness reads host seconds; never enters simulated state
        self.times.append(now - self._start - self._probing)
        self.probes.append(_probe())
        self._probing += clock() - now  # simlint: disable=SIM101, SIM110 -- benchmark harness reads host seconds; never enters simulated state

    def __enter__(self) -> "ReferenceClock":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._start = clock()  # simlint: disable=SIM101, SIM110 -- benchmark harness reads host seconds; never enters simulated state
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        return self

    def __exit__(self, *_exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        self._sample()
        signal.signal(signal.SIGALRM, self._previous)

    @property
    def seconds(self) -> float:
        """Host seconds between start and stop, without the probes."""
        return self.times[-1] - self.times[0]

    def reference_seconds(self) -> float:
        """:attr:`seconds` rescaled to the reference host speed."""
        times, probes = self.times, self.probes
        total = 0.0
        for first in range(0, len(times) - 1, GROUP):
            last = min(first + GROUP, len(times) - 1)
            total += (times[last] - times[first]) * PROBE_REFERENCE_S \
                / statistics.median(probes[first:last + 1])
        return total


def _preimport() -> None:
    """Import what ``FullSystem()`` imports lazily, so set-up excludes it."""
    import repro.core.system  # noqa: F401
    import repro.interfaces.nvme.controller  # noqa: F401
    import repro.interfaces.nvme.host  # noqa: F401
    import repro.interfaces.nvme.structures  # noqa: F401
    import repro.baselines.reference  # noqa: F401
    import repro.bench.scenarios  # noqa: F401


def _set_up(workload, seed: int, size: int):
    """Build and prepare ``workload.setups`` times; returns the last
    state and each set-up's total and preconditioning reference
    seconds, and its total host seconds."""
    state, setup, precondition, wall = None, [], [], []
    for _ in range(workload.setups):
        state = None   # free the previous build before collecting
        gc.collect()
        with ReferenceClock() as build:
            state = workload.build(seed, size)
        with ReferenceClock() as prepare:
            workload.prepare(state)
        precondition.append(prepare.reference_seconds())
        setup.append(build.reference_seconds() + precondition[-1])
        wall.append(build.seconds + prepare.seconds)
    return state, setup, precondition, wall


def run_repeat(name: str, seed: int, mode: str = "plain",
               size: Optional[int] = None,
               chrome_trace: Optional[Path] = None) -> Dict:
    """Set up and drive one workload once; returns the repeat's record."""
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}; choose from {MODES}")
    workload = WORKLOADS[name]
    size = workload.size if size is None else size
    _preimport()
    for _ in range(100):   # let the interpreter specialise the probe
        _probe()
    tracer = LayerTracer() if mode == "trace" else None
    counter = CallCounter() if mode == "count" else None
    if tracer is not None:
        tracer.calibrate()
    with tracer.installed() if tracer is not None else nullcontext():
        state, setup, precondition, setup_wall = _set_up(workload, seed,
                                                         size)
        gc.collect()
        if tracer is not None:
            tracer.active = True
        # the call counter would count the probes, so it runs alone; the
        # layer timers charge them to the layer they interrupt (~1 %)
        timer = ReferenceClock() if counter is None else None
        with timer or counter.counting():
            start = clock()  # simlint: disable=SIM101, SIM110 -- benchmark harness times the measured phase in host seconds; never enters simulated state
            outcome = workload.drive(state, seed, size)
            run_wall_s = clock() - start  # simlint: disable=SIM101, SIM110 -- benchmark harness times the measured phase in host seconds; never enters simulated state
    run_s = run_wall_s if timer is None else timer.reference_seconds()
    record = {
        "workload": name, "seed": seed, "mode": mode, "size": size,
        "setup_s": statistics.median(setup),
        "setup_samples": setup,
        "setup_wall_s": statistics.median(setup_wall),
        "precondition_s": statistics.median(precondition),
        "run_s": run_s,
        "run_wall_s": run_wall_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "digest": outcome.digest,
        "events": outcome.simulated["events"],
        "sim_ns": outcome.simulated["sim_ns"],
        "completed": outcome.completed,
        "violations": workload.invariants(outcome),
        "counters": outcome.counters,
        "model_err": outcome.model_err,
    }
    if tracer is not None:
        record["layers"] = tracer.layer_metrics(run_wall_s)
        record["calibration"] = {"interval_s": tracer.interval_cost,
                                 "gencall_s": tracer.gencall_cost}
        if chrome_trace is not None:
            record["spans"] = tracer.write_chrome_trace(chrome_trace, start)
    if counter is not None:
        record["py_calls"] = counter.per_layer()
    return record


def main(argv=None) -> int:
    args = list(sys.argv[1:] if argv is None else argv)
    if len(args) not in (3, 4) or args[0] not in WORKLOADS \
            or args[2] not in MODES:
        print(__doc__, file=sys.stderr)
        return 2
    chrome = Path(args[3]) if len(args) == 4 else None
    record = run_repeat(args[0], int(args[1]), args[2],
                        chrome_trace=chrome)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
