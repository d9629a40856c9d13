"""Configuration tree for the SSD model.

Every reconfigurable aspect the paper lists — flash geometry and timing,
internal DRAM, embedded cores, cache associativity/replacement, FTL
mapping and GC policy, HIL arbitration, FIL parallelism order — has a
field here.  Presets for the four validated devices live in
``repro.core.presets``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Tuple

from repro.common.units import GB, KB, MHZ, MS


@dataclass(frozen=True)
class FlashGeometry:
    """Physical organisation of the storage complex (Figure 2)."""

    channels: int = 12
    packages_per_channel: int = 5
    dies_per_package: int = 1
    planes_per_die: int = 2
    blocks_per_plane: int = 64          # scaled-down from 512 (see DESIGN.md)
    pages_per_block: int = 256
    page_size: int = 4 * KB

    @property
    def ways_per_channel(self) -> int:
        return self.packages_per_channel * self.dies_per_package

    @property
    def total_dies(self) -> int:
        return self.channels * self.ways_per_channel

    @property
    def parallel_units(self) -> int:
        """Independent program/read units: every (die, plane)."""
        return self.total_dies * self.planes_per_die

    @property
    def pages_per_plane(self) -> int:
        return self.blocks_per_plane * self.pages_per_block

    @property
    def total_physical_pages(self) -> int:
        return self.parallel_units * self.pages_per_plane

    @property
    def physical_capacity(self) -> int:
        return self.total_physical_pages * self.page_size


@dataclass(frozen=True)
class FlashTiming:
    """NAND timing; fast/slow pairs model ISPP page-to-page variation.

    Defaults follow Table I (MLC: tPROG 820.62/2250 us, tR 59.975/104.956
    us, tERASE 3 ms) with the eval section's wider variation applied per
    preset.
    """

    t_read_fast: int = 59_975            # ns
    t_read_slow: int = 104_956
    t_prog_fast: int = 820_620
    t_prog_slow: int = 2_250_000
    t_erase: int = 3 * MS
    bits_per_cell: int = 2               # 1=SLC-like (Z-SSD), 2=MLC, 3=TLC
    channel_bus_mhz: int = 333           # ONFi 3
    channel_bus_width: int = 8           # bits, DDR
    t_cmd: int = 300                     # command/address cycle overhead (ns)

    @property
    def channel_bandwidth(self) -> float:
        """Bytes/s on one channel (DDR: two transfers per clock)."""
        return self.channel_bus_mhz * MHZ * 2 * (self.channel_bus_width / 8)

    def t_read(self, page_index: int) -> int:
        """Read latency for a page, fast/slow interleaved per ISPP pairing."""
        if self.bits_per_cell == 1:
            return self.t_read_fast
        return self.t_read_fast if page_index % 2 == 0 else self.t_read_slow

    def t_prog(self, page_index: int) -> int:
        if self.bits_per_cell == 1:
            return self.t_prog_fast
        return self.t_prog_fast if page_index % 2 == 0 else self.t_prog_slow

    @property
    def t_prog_avg(self) -> float:
        if self.bits_per_cell == 1:
            return float(self.t_prog_fast)
        return (self.t_prog_fast + self.t_prog_slow) / 2

    @property
    def t_read_avg(self) -> float:
        if self.bits_per_cell == 1:
            return float(self.t_read_fast)
        return (self.t_read_fast + self.t_read_slow) / 2


@dataclass(frozen=True)
class NandReliability:
    """Media error injection (disabled by default).

    ``read_retry_probability`` — chance a page read needs an ECC-driven
    retry (transient; costs an extra sense);
    ``erase_fail_probability`` — chance an erase fails permanently, at
    which point the firmware retires the block (bad-block management).
    Wear multiplies both: a block at its rated cycle count fails more.
    """

    read_retry_probability: float = 0.0
    erase_fail_probability: float = 0.0
    max_read_retries: int = 3
    wear_acceleration: float = 0.0    # extra probability per 1000 erases
    seed: int = 1009


@dataclass(frozen=True)
class NandPower:
    """Per-operation NAND energy (NANDFlashSim-style), joules."""

    e_read_page: float = 6e-6
    e_prog_page: float = 30e-6
    e_erase_block: float = 200e-6
    e_transfer_per_byte: float = 2e-12   # channel I/O energy
    p_standby_per_die: float = 2e-3      # watts


@dataclass(frozen=True)
class DramConfig:
    """Internal DRAM (DDR3L by default) and its controller."""

    size: int = 1 * GB
    channels: int = 1
    ranks: int = 1
    banks: int = 8
    bus_mhz: int = 800                   # DDR3L-1600
    bus_width: int = 64                  # bits
    t_rp: int = 14                       # ns, row precharge
    t_rcd: int = 14                      # ns, RAS-to-CAS
    t_cl: int = 14                       # ns, CAS latency
    burst_bytes: int = 64
    page_policy: str = "open"            # "open" | "close"
    row_size: int = 8 * KB
    # DRAMPower-style energy parameters
    e_activate: float = 3.0e-9           # J per ACT+PRE pair
    e_read_burst: float = 1.6e-9
    e_write_burst: float = 1.8e-9
    p_background: float = 0.12           # W per rank, active standby
    p_self_refresh: float = 0.015

    @property
    def bandwidth(self) -> float:
        """Peak bytes/s (DDR)."""
        return self.bus_mhz * MHZ * 2 * (self.bus_width / 8) * self.channels


@dataclass(frozen=True)
class CoreConfig:
    """Embedded computation complex: ARMv8 cores running the firmware."""

    n_cores: int = 3
    frequency: int = 500 * MHZ           # Hz
    # McPAT-style power parameters
    energy_per_instruction: float = 120e-12   # J, average dynamic
    leakage_per_core: float = 0.08            # W
    # per-class CPI overrides (falls back to common.instructions defaults)
    cpi: Dict[str, float] = field(default_factory=dict)


@dataclass(frozen=True)
class CacheConfig:
    """ICL data cache in internal DRAM."""

    enabled: bool = True
    fraction_of_dram: float = 0.75       # share of DRAM used for data cache
    associativity: str = "full"          # "full" | "set" | "direct"
    n_sets: int = 64                     # for set/direct
    ways: int = 8                        # for set-associative
    replacement: str = "lru"             # "lru" | "fifo" | "random"
    # parallelism-aware readahead (Section IV-C)
    readahead: bool = True
    readahead_threshold: int = 2         # sequential hits before triggering
    readahead_superpages: int = 4        # depth of the prefetch
    # write-back watermarks (fractions of cache lines dirty)
    flush_high_watermark: float = 0.7
    flush_low_watermark: float = 0.5


@dataclass(frozen=True)
class FTLConfig:
    mapping: str = "page"                # "page" | "block" | "hybrid"
    gc_policy: str = "greedy"            # "greedy" | "costbenefit"
    overprovision: float = 0.20          # fraction of physical space reserved
    gc_threshold_free_blocks: int = 2    # per parallel unit
    wear_leveling: bool = True
    wear_delta_threshold: int = 16       # erase-count spread triggering WL
    # super-page hashmap partial-update optimisation (Section IV-C)
    partial_update_hashmap: bool = True
    # hybrid mapping: number of log blocks per unit
    hybrid_log_blocks: int = 8


@dataclass(frozen=True)
class HILConfig:
    arbitration: str = "rr"              # "fifo" | "rr" | "wrr" | "wfq"
    wrr_weights: Tuple[int, ...] = (4, 2, 1)   # high/medium/low priorities
    # per-queue WFQ weights, indexed by queue_id - 1 (missing entries -> 1)
    qos_weights: Tuple[int, ...] = ()
    # max commands in service at once; 0 = unbounded (legacy behaviour).
    # A finite limit backs commands up in the submission queues, which is
    # what makes arbitration policy actually shape tail latency.
    inflight_limit: int = 0


@dataclass(frozen=True)
class FILConfig:
    # Order in which striped pages spread over resources (Sprinkler-style).
    parallelism_order: str = "channel_first"   # or "way_first"
    # Superpage line placement: "rotate" interleaves consecutive lines over
    # all channel/way groups (max parallelism); "banded" maps contiguous LBA
    # bands to disjoint groups, confining each namespace's traffic — and its
    # GC — to its own dies (die-level tenant isolation).
    placement: str = "rotate"


@dataclass(frozen=True)
class FirmwareCosts:
    """Instruction budgets per firmware operation (ARMv8 counts).

    These set the computation-complex service rates — the mechanism behind
    Amber's saturating bandwidth curves.  Values are per host command
    (hil_*), per cache line op (icl_*), per translation (ftl_*) and per
    flash transaction (fil_*).
    """

    hil_fetch: int = 450          # queue entry fetch + protocol parse
    hil_complete: int = 350       # completion + interrupt posting
    icl_lookup: int = 500         # cache tag walk
    icl_fill: int = 250           # line allocation / bookkeeping
    ftl_translate: int = 420      # mapping lookup + update
    ftl_gc_per_page: int = 350    # migration bookkeeping
    fil_issue: int = 180          # transaction scheduling
    doorbell_service: int = 150   # NVMe doorbell ISR on the device


@dataclass(frozen=True)
class SSDConfig:
    """Everything that defines one simulated SSD."""

    name: str = "generic-ssd"
    geometry: FlashGeometry = field(default_factory=FlashGeometry)
    timing: FlashTiming = field(default_factory=FlashTiming)
    nand_power: NandPower = field(default_factory=NandPower)
    reliability: NandReliability = field(default_factory=NandReliability)
    dram: DramConfig = field(default_factory=DramConfig)
    cores: CoreConfig = field(default_factory=CoreConfig)
    cache: CacheConfig = field(default_factory=CacheConfig)
    ftl: FTLConfig = field(default_factory=FTLConfig)
    hil: HILConfig = field(default_factory=HILConfig)
    fil: FILConfig = field(default_factory=FILConfig)
    costs: FirmwareCosts = field(default_factory=FirmwareCosts)
    # superpage span: how many channels/ways a superpage stripes across
    superpage_channels: int = 0          # 0 = all channels
    superpage_ways: int = 1

    def with_overrides(self, **kwargs) -> "SSDConfig":
        """Functional update, e.g. ``cfg.with_overrides(ftl=new_ftl)``."""
        return replace(self, **kwargs)

    @property
    def superpage_pages(self) -> int:
        """Flash pages per superpage (the ICL cache-line unit)."""
        channels = self.superpage_channels or self.geometry.channels
        return channels * self.superpage_ways * self.geometry.planes_per_die

    @property
    def superpage_size(self) -> int:
        return self.superpage_pages * self.geometry.page_size

    @property
    def logical_capacity(self) -> int:
        """User-visible bytes after over-provisioning."""
        usable = self.geometry.physical_capacity * (1.0 - self.ftl.overprovision)
        # round down to a whole number of superpages
        n_super = int(usable) // self.superpage_size
        return n_super * self.superpage_size

    @property
    def logical_pages(self) -> int:
        return self.logical_capacity // self.geometry.page_size

    @property
    def logical_sectors(self) -> int:
        return self.logical_capacity // 512

    def validate(self) -> None:
        geom = self.geometry
        if geom.channels < 1 or geom.packages_per_channel < 1:
            raise ValueError("geometry must have at least one channel/package")
        if self.superpage_channels > geom.channels:
            raise ValueError("superpage cannot span more channels than exist")
        if self.superpage_ways > geom.ways_per_channel:
            raise ValueError("superpage cannot span more ways than exist")
        if not 0.0 <= self.ftl.overprovision < 0.9:
            raise ValueError("overprovision must be in [0, 0.9)")
        if self.cache.associativity not in ("full", "set", "direct"):
            raise ValueError(f"unknown associativity {self.cache.associativity!r}")
        if self.ftl.mapping not in ("page", "block", "hybrid"):
            raise ValueError(f"unknown mapping {self.ftl.mapping!r}")
        if self.ftl.gc_policy not in ("greedy", "costbenefit"):
            raise ValueError(f"unknown GC policy {self.ftl.gc_policy!r}")
        if self.hil.arbitration not in ("fifo", "rr", "wrr", "wfq"):
            raise ValueError(f"unknown arbitration {self.hil.arbitration!r}")
        if self.hil.inflight_limit < 0:
            raise ValueError("inflight_limit must be >= 0 (0 = unbounded)")
        if any(weight < 1 for weight in self.hil.qos_weights):
            raise ValueError("qos_weights must be positive integers")
        if self.fil.placement not in ("rotate", "banded"):
            raise ValueError(f"unknown placement {self.fil.placement!r}")
        if self.logical_pages < 1:
            raise ValueError("device too small for its overprovision ratio")
