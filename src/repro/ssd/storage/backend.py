"""Flash transaction execution: dies, channels, ONFi timing.

The backend turns FTL-level page operations into timed resource usage:

* each **die** executes one flash operation at a time (multi-plane
  operations occupy the die once for all planes);
* each **channel** is a shared ONFi bus; command/address cycles and data
  transfers serialize on it;
* reads hold the die through the data-out transfer (the page register is
  busy until drained), writes release the channel before the long program
  phase so other dies can stream data meanwhile — this coupling produces
  the realistic channel/way conflict behaviour of Figure 2's architecture.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Sequence

from repro.common.units import transfer_ns
from repro.sim import Resource
from repro.ssd.config import SSDConfig
from repro.ssd.storage.address import AddressMapper
from repro.ssd.storage.power import NandPowerMeter


class FlashBackend:
    """Timed access to the flash array's dies and channels."""

    def __init__(self, sim, config: SSDConfig, power: NandPowerMeter = None,
                 erase_counts=None) -> None:
        self.sim = sim
        self.config = config
        geom = config.geometry
        self.mapper = AddressMapper(geom)
        self.power = power or NandPowerMeter(sim, config.nand_power, geom)
        self._dies: List[Resource] = [
            Resource(sim, 1, name=f"die{i}") for i in range(geom.total_dies)]
        self._channels: List[Resource] = [
            Resource(sim, 1, name=f"ch{i}") for i in range(geom.channels)]
        self._rng = random.Random(config.reliability.seed)
        self._erase_count_of = erase_counts or (lambda unit, block: 0)
        # Last grantee of each die/channel, for causal blame edges.
        # Maintained only while tracing is on (docs/OBSERVABILITY.md,
        # "Causal forensics"): never read on the untraced hot path.
        self._die_owner: Dict[int, str] = {}
        self._channel_owner: Dict[int, str] = {}
        # Timing memo tables: FlashTiming is frozen, so per-parity read/
        # program latencies and per-size transfer times never change.
        timing = config.timing
        self._t_read_parity = (timing.t_read(0), timing.t_read(1))
        self._t_prog_parity = (timing.t_prog(0), timing.t_prog(1))
        self._xfer_cache: dict = {}
        # observability
        self.reads_issued = 0
        self.programs_issued = 0
        self.erases_issued = 0
        self.read_retries = 0
        self.erase_failures = 0

    # -- media error injection ----------------------------------------------

    def _wear_factor(self, unit: int, block: int) -> float:
        rel = self.config.reliability
        return 1.0 + rel.wear_acceleration \
            * self._erase_count_of(unit, block) / 1000.0

    def _read_needs_retry(self, unit: int, block: int) -> bool:
        p = self.config.reliability.read_retry_probability
        return p > 0 and self._rng.random() < min(
            1.0, p * self._wear_factor(unit, block))

    def _erase_fails(self, unit: int, block: int) -> bool:
        p = self.config.reliability.erase_fail_probability
        return p > 0 and self._rng.random() < min(
            1.0, p * self._wear_factor(unit, block))

    # -- resource lookup --------------------------------------------------

    def die_resource(self, unit: int) -> Resource:
        return self._dies[self.mapper.die_of_unit(unit)]

    def channel_resource(self, unit: int) -> Resource:
        return self._channels[self.mapper.channel_of_unit(unit)]

    def register_metrics(self, registry, prefix: str = "ssd") -> None:
        """Expose per-channel/die utilization and flash op counters.

        Names follow the hierarchical convention of
        ``docs/OBSERVABILITY.md``, e.g. ``ssd.channel0.util``.
        """
        scope = registry.scoped(prefix)
        for i, channel in enumerate(self._channels):
            scope.register(f"channel{i}.util", channel.utilization)
            scope.register(f"channel{i}.busy_ns",
                           channel.busy_time)
        for i, die in enumerate(self._dies):
            scope.register(f"die{i}.util", die.utilization)
        scope.register("flash.reads", lambda: float(self.reads_issued))
        scope.register("flash.programs", lambda: float(self.programs_issued))
        scope.register("flash.erases", lambda: float(self.erases_issued))
        scope.register("flash.read_retries", lambda: float(self.read_retries))

    # -- timing helpers ----------------------------------------------------

    def _xfer_ns(self, nbytes: int) -> int:
        try:
            return self._xfer_cache[nbytes]
        except KeyError:
            ns = self.config.timing.t_cmd + transfer_ns(
                nbytes, self.config.timing.channel_bandwidth)
            self._xfer_cache[nbytes] = ns
            return ns

    def _payload_bytes(self, nbytes: int) -> int:
        if nbytes <= 0:
            return self.config.geometry.page_size
        return min(nbytes, self.config.geometry.page_size)

    # -- traced acquisition (causal forensics) ------------------------------

    def _traced_acquire(self, resource: Resource, kind: str,
                        owners: Dict[int, str], key: int,
                        track: int, ctx: Optional[str]):
        """Acquire ``resource``, recording contention for causal blame.

        Only reached when tracing is on (call sites guard on
        ``tracer.enabled``, keeping the untraced hot path byte-identical
        to the pre-forensics code).  A ``flash.die_wait`` /
        ``flash.channel_wait`` span opens *only when the resource is
        already held*, carrying ``holder=`` — the blame label of the
        most recent grantee — so tail causal chains name the specific
        GC run or contending tenant.  After the grant, the owner
        registry records this caller: ``ctx`` for background work
        (``gc:<run>``, ``flush``), else the track's own label
        (``ns:<nsid>`` / ``req:<id>`` / ``bg``).
        """
        tracer = self.sim.tracer
        if resource.in_use >= resource.capacity:
            span = tracer.begin(kind, track, holder=owners.get(key, "?"))
            yield resource.acquire()  # simlint: disable=SIM106 -- acquire-only helper; the calling operation releases in its try/finally
            tracer.end(span)
        else:
            yield resource.acquire()  # simlint: disable=SIM106 -- acquire-only helper; the calling operation releases in its try/finally
        owners[key] = ctx if ctx is not None else tracer.owner_label(track)

    # -- operations (generators to be driven as processes) -----------------

    def read_page(self, ppn: int, nbytes: int = 0, track: int = 0,
                  ctx: Optional[str] = None):
        """Sense a page and drain it over the channel.

        ``nbytes`` limits the data-out transfer (partial-page read); 0
        means the whole page.
        """
        unit = self.mapper.unit_of_ppn(ppn)
        page = self.mapper.page_of_ppn(ppn)
        t_read = self._t_read_parity[page & 1]
        payload = self._payload_bytes(nbytes)
        die = self.die_resource(unit)
        channel = self.channel_resource(unit)

        block = self.mapper.block_of_ppn(ppn)
        traced = self.sim.tracer.enabled
        if traced:
            yield from self._traced_acquire(
                die, "flash.die_wait", self._die_owner,
                self.mapper.die_of_unit(unit), track, ctx)
        else:
            yield die.acquire()
        try:
            yield self.sim.timeout(t_read)
            # ECC read-retry: re-sense with tuned thresholds until clean
            retries = 0
            while (self._read_needs_retry(unit, block)
                   and retries < self.config.reliability.max_read_retries):
                retries += 1
                self.read_retries += 1
                self.power.record_read()
                yield self.sim.timeout(t_read)
            if traced:
                yield from self._traced_acquire(
                    channel, "flash.channel_wait", self._channel_owner,
                    self.mapper.channel_of_unit(unit), track, ctx)
            else:
                yield channel.acquire()
            try:
                yield self.sim.timeout(self._xfer_ns(payload))
            finally:
                channel.release()
        finally:
            die.release()
        self.reads_issued += 1
        self.power.record_read()
        self.power.record_transfer(payload)

    def program_page(self, ppn: int, nbytes: int = 0, track: int = 0,
                     ctx: Optional[str] = None):
        """Stream data in over the channel, then program the cell array."""
        unit = self.mapper.unit_of_ppn(ppn)
        page = self.mapper.page_of_ppn(ppn)
        payload = self.config.geometry.page_size  # programs write whole pages
        die = self.die_resource(unit)
        channel = self.channel_resource(unit)

        traced = self.sim.tracer.enabled
        if traced:
            yield from self._traced_acquire(
                die, "flash.die_wait", self._die_owner,
                self.mapper.die_of_unit(unit), track, ctx)
        else:
            yield die.acquire()
        try:
            if traced:
                yield from self._traced_acquire(
                    channel, "flash.channel_wait", self._channel_owner,
                    self.mapper.channel_of_unit(unit), track, ctx)
            else:
                yield channel.acquire()
            try:
                yield self.sim.timeout(self._xfer_ns(payload))
            finally:
                channel.release()
            yield self.sim.timeout(self._t_prog_parity[page & 1])
        finally:
            die.release()
        self.programs_issued += 1
        self.power.record_program()
        self.power.record_transfer(payload)

    def program_multiplane(self, ppns: Sequence[int], track: int = 0,
                           ctx: Optional[str] = None):
        """Multi-plane program: one die busy period covers sibling planes.

        All PPNs must live on the same die at the same page offset; data
        for each plane streams over the channel sequentially, then one
        program pulse covers them all (slowest page wins).
        """
        if not ppns:
            return
        units = {self.mapper.die_of_unit(self.mapper.unit_of_ppn(p)) for p in ppns}
        if len(units) != 1:
            raise ValueError("multi-plane program must target a single die")
        unit0 = self.mapper.unit_of_ppn(ppns[0])
        payload = self.config.geometry.page_size
        die = self.die_resource(unit0)
        channel = self.channel_resource(unit0)

        traced = self.sim.tracer.enabled
        if traced:
            yield from self._traced_acquire(
                die, "flash.die_wait", self._die_owner,
                self.mapper.die_of_unit(unit0), track, ctx)
        else:
            yield die.acquire()
        try:
            if traced:
                yield from self._traced_acquire(
                    channel, "flash.channel_wait", self._channel_owner,
                    self.mapper.channel_of_unit(unit0), track, ctx)
            else:
                yield channel.acquire()
            try:
                yield self.sim.timeout(len(ppns) * self._xfer_ns(payload))
            finally:
                channel.release()
            t_prog = max(self._t_prog_parity[self.mapper.page_of_ppn(p) & 1]
                         for p in ppns)
            yield self.sim.timeout(t_prog)
        finally:
            die.release()
        self.programs_issued += len(ppns)
        for _ in ppns:
            self.power.record_program()
        self.power.record_transfer(payload * len(ppns))

    def erase_block(self, unit: int, block: int, track: int = 0,
                    ctx: Optional[str] = None):
        """Erase one block; the die is busy for tERASE.

        Returns True on success, False when the erase failed permanently
        (the caller must retire the block — bad-block management).
        """
        die = self.die_resource(unit)
        if self.sim.tracer.enabled:
            yield from self._traced_acquire(
                die, "flash.die_wait", self._die_owner,
                self.mapper.die_of_unit(unit), track, ctx)
        else:
            yield die.acquire()
        try:
            yield self.sim.timeout(self.config.timing.t_erase)
        finally:
            die.release()
        self.erases_issued += 1
        self.power.record_erase()
        if self._erase_fails(unit, block):
            self.erase_failures += 1
            return False
        return True
