"""The four prior-simulator behavioural models.

Each model exposes ``reset(sim)`` and ``service(req)`` (a process
generator that completes when the simulator would report the request
done).  All are configured from the same Table I device parameters; the
differences are purely in modeling scope:

================  =========== ========== ========= ==========
                  FlashSim    SSD-Ext.   SSDSim    MQSim
----------------  ----------- ---------- --------- ----------
FTL               page/assoc  page       page      page
parallelism       none        fixed cap  full      full
channel model     no          no         yes       yes
queue/protocol    no          no         no        simple
computation cplx  no          no         no        no
data movement     no          no         no        no
================  =========== ========== ========= ==========
"""

from __future__ import annotations

from typing import Dict, List

from repro.common.iorequest import IORequest
from repro.common.units import US, transfer_ns
from repro.sim import Resource
from repro.ssd.config import SSDConfig


class _BaselineModel:
    """Shared plumbing: Table I geometry/timing, page-level mapping."""

    name = "baseline"

    def __init__(self, config: SSDConfig) -> None:
        self.config = config
        self.sim = None
        self.mapping: Dict[int, int] = {}   # functional page map
        self._next_ppn = 0

    def reset(self, sim) -> None:
        self.sim = sim
        self.mapping.clear()
        self._next_ppn = 0
        self._build(sim)

    def _build(self, sim) -> None:
        raise NotImplementedError

    def _map_pages(self, req: IORequest) -> List[int]:
        """Functional page-level FTL shared by every baseline."""
        page_size = self.config.geometry.page_size
        first = req.offset // page_size
        last = (req.offset + req.nbytes - 1) // page_size
        ppns = []
        for lpn in range(first, last + 1):
            if req.kind.is_write or lpn not in self.mapping:
                self.mapping[lpn] = self._next_ppn
                self._next_ppn += 1
            ppns.append(self.mapping[lpn])
        return ppns

    def _flash_ns(self, req: IORequest) -> int:
        timing = self.config.timing
        return int(timing.t_read_avg if req.kind.is_read
                   else timing.t_prog_avg)


class FlashSimModel(_BaselineModel):
    """FlashSim [34]: mapping-algorithm simulator, no flash/queue model.

    One request at a time against a single flash latency: bandwidth is a
    depth-independent constant and latency climbs linearly with depth —
    the 'linear trend curved by unrealistic gradients' of Fig 4.
    """

    name = "flashsim"

    def _build(self, sim) -> None:
        self._server = Resource(sim, 1, name="flashsim")

    def service(self, req: IORequest):
        pages = self._map_pages(req)
        yield self._server.acquire()
        try:
            yield self.sim.timeout(len(pages) * self._flash_ns(req))
        finally:
            self._server.release()


class SSDExtensionModel(_BaselineModel):
    """SSD Extension for DiskSim [13]: page FTL over a simplified flash.

    Fixed per-element service with a small, fixed parallelism and no
    queueing model: both bandwidth and latency go flat almost
    immediately — the constant trend of Figs 3 and 4.
    """

    name = "ssd-extension"
    ELEMENTS = 4    # DiskSim SSD's default flash-element count

    def _build(self, sim) -> None:
        self._elements = Resource(sim, self.ELEMENTS, name="ssdext")

    def service(self, req: IORequest):
        pages = self._map_pages(req)
        yield self._elements.acquire()
        try:
            # DiskSim charges a fixed per-request service, uninfluenced
            # by queue depth (no host-side or interface queueing at all)
            yield self.sim.timeout(len(pages) * self._flash_ns(req) // 2
                                   + 20_000)
        finally:
            self._elements.release()


class SSDSimModel(_BaselineModel):
    """SSDSim [33]: detailed internal parallelism, no interface model.

    Every die/plane is modeled, so requests spread over the full
    parallelism of the array and bandwidth keeps climbing linearly with
    depth through QD 32 — nothing in the model ever saturates.
    """

    name = "ssdsim"

    def _build(self, sim) -> None:
        geom = self.config.geometry
        self._units = [Resource(sim, 1, name=f"unit{i}")
                       for i in range(geom.parallel_units)]
        self._channels = [Resource(sim, 1, name=f"ch{i}")
                          for i in range(geom.channels)]
        self._cursor = 0

    def service(self, req: IORequest):
        geom = self.config.geometry
        pages = self._map_pages(req)
        for ppn in pages:
            unit_index = ppn % geom.parallel_units
            channel = unit_index // (geom.ways_per_channel
                                     * geom.planes_per_die)
            unit = self._units[unit_index]
            yield unit.acquire()
            try:
                yield self.sim.timeout(self._flash_ns(req))
                bus = self._channels[channel]
                yield bus.acquire()
                try:
                    yield self.sim.timeout(transfer_ns(
                        geom.page_size, self.config.timing.channel_bandwidth))
                finally:
                    bus.release()
            finally:
                unit.release()


class MQSimModel(_BaselineModel):
    """MQSim [16]: storage complex + simple protocol/DRAM latency models.

    Adds a per-request protocol cost and a small write cache on top of
    SSDSim-class parallelism, but has no computation complex and no data
    movement: closer to real, yet bandwidth still does not saturate.
    """

    name = "mqsim"
    PROTOCOL_US = 14          # fixed protocol management latency
    CACHE_PORT_NS = 2_200     # single DRAM cache port, per page

    def _build(self, sim) -> None:
        geom = self.config.geometry
        self._units = [Resource(sim, 1, name=f"unit{i}")
                       for i in range(geom.parallel_units)]
        self._cache_port = Resource(sim, 1, name="mqsim-cache")

    def service(self, req: IORequest):
        geom = self.config.geometry
        pages = self._map_pages(req)
        yield self.sim.timeout(self.PROTOCOL_US * US)
        if req.kind.is_write:
            # every write lands in the DRAM cache through one port; the
            # model never charges a drain, so bandwidth keeps climbing
            # with depth — MQSim's signature unsaturating write curve
            yield self._cache_port.acquire()
            try:
                yield self.sim.timeout(self.CACHE_PORT_NS * len(pages))
            finally:
                self._cache_port.release()
            return
        for ppn in pages:
            unit = self._units[ppn % geom.parallel_units]
            yield unit.acquire()
            try:
                yield self.sim.timeout(
                    self._flash_ns(req)
                    + transfer_ns(geom.page_size,
                                  self.config.timing.channel_bandwidth))
            finally:
                unit.release()
