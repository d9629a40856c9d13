"""Block-layer I/O schedulers (elevators).

* **NoopScheduler** — FIFO pass-through (what blk-mq effectively gives
  NVMe when no elevator is configured).
* **CfqScheduler** — Completely Fair Queuing as shipped in 4.4: strictly
  per-process service rounds with a shallow dispatch quantum; sorts each
  process's queue by sector to mimic the elevator sweep.
* **BfqScheduler** — the refined Budget Fair Queueing of 4.14: per-process
  queues with sector-count budgets, so large sequential streams keep the
  device busy while interactive queues still get turns.

Schedulers order *already-created* block requests; their CPU cost is
charged by the block layer from the kernel profile.
"""

from __future__ import annotations

from collections import OrderedDict, deque
from typing import Deque, Optional

from repro.common.iorequest import IORequest


class NoopScheduler:
    name = "noop"

    def __init__(self) -> None:
        self._queue: Deque[IORequest] = deque()

    def add(self, req: IORequest, stream_id: int = 0) -> None:
        del stream_id
        self._queue.append(req)

    def next(self, now: int = 0) -> Optional[IORequest]:
        del now
        return self._queue.popleft() if self._queue else None

    def __len__(self) -> int:
        return len(self._queue)


class _PerStreamScheduler:
    """Shared machinery: one sorted queue per submitting stream."""

    def __init__(self) -> None:
        self._streams: "OrderedDict[int, Deque[IORequest]]" = OrderedDict()
        self._count = 0
        self._active: Optional[int] = None

    def add(self, req: IORequest, stream_id: int = 0) -> None:
        queue = self._streams.get(stream_id)
        if queue is None:
            queue = deque()
            self._streams[stream_id] = queue
        self._insert_sorted(queue, req)
        self._count += 1

    @staticmethod
    def _insert_sorted(queue: Deque[IORequest], req: IORequest) -> None:
        # elevator-style: keep each stream's queue sorted by start sector;
        # queues are short, so linear insertion is fine
        if not queue or queue[-1].slba <= req.slba:
            queue.append(req)
            return
        for i, other in enumerate(queue):
            if other.slba > req.slba:
                queue.insert(i, req)
                return

    def __len__(self) -> int:
        return self._count

    def _pop_from(self, stream_id: int) -> IORequest:
        queue = self._streams[stream_id]
        req = queue.popleft()
        if not queue:
            del self._streams[stream_id]
            if self._active == stream_id:
                self._active = None
        self._count -= 1
        return req

    def _rotate(self) -> Optional[int]:
        if not self._streams:
            return None
        stream_id, queue = next(iter(self._streams.items()))
        self._streams.move_to_end(stream_id)
        return stream_id


class CfqScheduler(_PerStreamScheduler):
    """CFQ: per-process service slices with sync idling.

    The behaviour that hurts SSDs (and drives Fig 12): when the active
    process's queue drains, CFQ *idles* for ``slice_idle`` anticipating
    another nearby request from the same process, instead of dispatching
    from other queues — a policy tuned for spinning-disk seek avoidance
    that strangles a parallel device.
    """

    name = "cfq"

    def __init__(self, quantum: int = 4,
                 slice_idle_ns: int = 50_000) -> None:
        super().__init__()
        self.quantum = quantum
        self.slice_idle_ns = slice_idle_ns
        self._served_in_slice = 0
        self.idle_until = 0

    def _serve_active(self, stream: int, now: int) -> IORequest:
        req = self._pop_from(stream)
        self._served_in_slice += 1
        if stream not in self._streams:
            # queue drained: anticipate the process's next request
            self.idle_until = now + self.slice_idle_ns
            self._active = stream   # keep ownership through the idle window
        return req

    def next(self, now: int = 0) -> Optional[IORequest]:
        if self._count == 0:
            return None
        active = self._active
        if active is not None and active in self._streams \
                and self._served_in_slice < self.quantum:
            return self._serve_active(active, now)
        if active is not None and active not in self._streams \
                and now < self.idle_until:
            return None    # idling on the drained sync queue
        self._active = self._rotate()
        self._served_in_slice = 0
        if self._active is None:
            return None
        return self._serve_active(self._active, now)


class BfqScheduler(_PerStreamScheduler):
    """Refined BFQ: budgets measured in sectors, not request counts."""

    name = "bfq"

    def __init__(self, budget_sectors: int = 2048) -> None:
        super().__init__()
        self.budget_sectors = budget_sectors
        self._budget_left = 0

    def next(self, now: int = 0) -> Optional[IORequest]:
        del now
        if self._count == 0:
            return None
        if (self._active is None or self._active not in self._streams
                or self._budget_left <= 0):
            self._active = self._rotate()
            self._budget_left = self.budget_sectors
        if self._active is None:
            return None
        req = self._pop_from(self._active)
        self._budget_left -= req.nsectors
        return req


def make_scheduler(name: str):
    table = {"noop": NoopScheduler, "cfq": CfqScheduler, "bfq": BfqScheduler}
    try:
        return table[name]()
    except KeyError:
        raise ValueError(f"unknown scheduler {name!r}") from None
