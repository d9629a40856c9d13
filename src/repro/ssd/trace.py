"""Standalone trace-driven mode for the SSD model.

Prior simulators only support block-trace replay; Amber supports it too
(Table IV's standalone column), for driving the device with recorded
workloads without a host model.  Fig 16's standalone row does not
replay a trace: it runs closed-loop random reads straight at the device
(:func:`repro.experiments.common.standalone_random_reads`).

Trace format: an iterable of ``TraceRecord`` or text lines
``<time_ns> <R|W|T|F> <slba> <nsectors>`` (comments with '#').
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, List, Union

from repro.common.iorequest import IOKind
from repro.common.recorders import BandwidthRecorder, LatencyRecorder
from repro.ssd.device import SSD
from repro.ssd.firmware.requests import DeviceCommand

_KIND_CODES = {"R": IOKind.READ, "W": IOKind.WRITE,
               "T": IOKind.TRIM, "F": IOKind.FLUSH}


@dataclass(frozen=True)
class TraceRecord:
    time_ns: int
    kind: IOKind
    slba: int
    nsectors: int


def parse_trace(lines: Iterable[str]) -> Iterator[TraceRecord]:
    """Parse text trace lines; raises ValueError with the line number."""
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 4:
            raise ValueError(f"trace line {lineno}: expected 4 fields, "
                             f"got {len(parts)}")
        time_str, code, slba_str, count_str = parts
        if code.upper() not in _KIND_CODES:
            raise ValueError(f"trace line {lineno}: unknown op {code!r}")
        yield TraceRecord(int(time_str), _KIND_CODES[code.upper()],
                          int(slba_str), int(count_str))


@dataclass
class TraceReplayResult:
    completed: int
    bandwidth_mbps: float
    mean_latency_us: float
    elapsed_ns: int
    events_processed: int


class SsdTraceReplayer:
    """Replays a block trace against a standalone SSD.

    ``open_loop=True`` honours each record's timestamp (requests are
    issued at their recorded times, backlogging if the device is slow);
    ``open_loop=False`` replays closed-loop at the given depth, like the
    Fig 3/4 methodology.
    """

    def __init__(self, ssd: SSD) -> None:
        self.ssd = ssd
        self.sim = ssd.sim

    def replay(self, trace: Union[Iterable[str], List[TraceRecord]],
               open_loop: bool = True,
               iodepth: int = 16) -> TraceReplayResult:
        records = list(trace)
        if records and isinstance(records[0], str):
            records = list(parse_trace(records))
        latency = LatencyRecorder()
        bandwidth = BandwidthRecorder()
        state = {"done": 0}

        def issue(record: TraceRecord):
            cmd = DeviceCommand(record.kind, record.slba, record.nsectors)
            start = self.sim.now
            yield self.ssd.submit(cmd)
            state["done"] += 1
            latency.record(self.sim.now - start)
            if record.kind in (IOKind.READ, IOKind.WRITE):
                bandwidth.record(record.nsectors * 512, self.sim.now)

        if open_loop:
            def driver():
                started = self.sim.now
                issued = []
                for record in records:
                    target = started + record.time_ns
                    if target > self.sim.now:
                        yield self.sim.timeout(target - self.sim.now)
                    issued.append(self.sim.process(issue(record)))
                for proc in issued:
                    yield proc

            self.sim.run_process(driver())
        else:
            queue = list(records)

            def worker():
                while queue:
                    record = queue.pop(0)
                    yield from issue(record)

            workers = [self.sim.process(worker())
                       for _ in range(min(iodepth, max(1, len(records))))]

            def waiter():
                for proc in workers:
                    yield proc

            self.sim.run_process(waiter())

        return TraceReplayResult(
            completed=state["done"],
            bandwidth_mbps=bandwidth.mbps(),
            mean_latency_us=latency.mean_us(),
            elapsed_ns=self.sim.now,
            events_processed=self.sim.events_processed,
        )


def synthetic_trace(n: int, kind: str = "randread", bs: int = 4096,
                    region_sectors: int = 1 << 20, interarrival_ns: int = 0,
                    seed: int = 13) -> List[TraceRecord]:
    """Generate a simple synthetic trace (handy for tests)."""
    import random
    rng = random.Random(seed)
    sectors = bs // 512
    out = []
    cursor = 0
    for i in range(n):
        if kind.startswith("rand"):
            slba = rng.randrange(max(1, region_sectors // sectors)) * sectors
        else:
            slba = cursor % (region_sectors - sectors)
            cursor += sectors
        io_kind = IOKind.READ if kind.endswith("read") else IOKind.WRITE
        out.append(TraceRecord(i * interarrival_ns, io_kind, slba, sectors))
    return out
