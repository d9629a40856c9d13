"""Multi-tenant workload engine: N tenants sharing one simulated SSD.

Each tenant gets its own NVMe namespace (a contiguous slice of the
device, see :meth:`NvmeDriver.provision_namespaces`) and its own
submission queue, so the device-side arbiter
(:mod:`repro.ssd.firmware.arbiter`) is what decides whose commands are
served under contention.  Each tenant runs the user-level issue loop a
FIO job runs (:class:`repro.core.fio.IssueStream`), either
*closed-loop* (a fixed ``iodepth``) or *open-loop* (requests injected
at times drawn from an arrival process in
:mod:`repro.workloads.synthetic`, regardless of completions — the
regime where queueing delay and QoS policy dominate tail latency).

Accounting is per tenant: a :class:`LatencyRecorder` each, live
``tenantN.*`` gauges in the system :class:`MetricsRegistry` (sampled by
telemetry epochs like every other layer), and a device-wide rollup that
is the *exact* histogram merge of the per-tenant recorders.

The engine forces ``O_DIRECT`` submission: the shared page cache is
indexed by namespace-relative LBAs, which would alias across tenants.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.common.recorders import LatencyRecorder
from repro.common.stats import jain_fairness
from repro.common.units import MB, SEC
from repro.core.fio import IssueStream, Traffic
from repro.core.metrics import MultiTenantResult, TenantResult
from repro.workloads.synthetic import ZipfianHotspot, arrival_from_spec


@dataclass(frozen=True)
class TenantSpec(Traffic):
    """One tenant: its traffic shape, QoS class and capacity share."""

    name: str = ""
    rw: str = "randread"            # read|write|randread|randwrite|randrw
    bs: int = 4096                  # request size, bytes
    iodepth: int = 8                # closed-loop depth (when arrival is None)
    total_ios: int = 0              # 0 = bounded by the job's runtime_ns
    #: open-loop arrival spec for ``arrival_from_spec`` (None = closed loop)
    arrival: Optional[Dict] = None
    zipf_theta: float = 0.0         # 0 = uniform addressing
    weight: int = 1                 # WFQ share (device hil.qos_weights)
    priority: int = 1               # WRR class: 0 high, 1 medium, 2 low
    size_fraction: float = 0.0      # capacity share; 0 = equal split
    rwmixread: int = 70             # % reads for randrw
    seed: int = 0                   # extra per-tenant seed salt

    def __post_init__(self) -> None:
        self.check_traffic()
        if self.weight < 1:
            raise ValueError("weight must be >= 1")
        if not 0.0 <= self.size_fraction <= 1.0:
            raise ValueError("size_fraction must be in [0, 1]")


@dataclass
class MultiTenantJob:
    """A co-located tenant mix plus the run's global bounds."""

    tenants: Tuple[TenantSpec, ...] = ()
    runtime_ns: Optional[int] = None
    seed: int = 1234
    warmup_fraction: float = 0.15   # excluded from steady-state stats

    def __post_init__(self) -> None:
        self.tenants = tuple(self.tenants)
        if not self.tenants:
            raise ValueError("need at least one tenant")
        if not self.runtime_ns and any(not t.total_ios
                                       for t in self.tenants):
            raise ValueError("tenants without total_ios need a job runtime_ns")
        if not 0.0 <= self.warmup_fraction < 1.0:
            raise ValueError("warmup_fraction must be in [0, 1)")


class _TenantState:
    """One tenant's namespace, issue stream and completion accounting;
    the live ``tenantN.*`` gauges read it."""

    __slots__ = ("spec", "index", "nsid", "qid", "completed", "bytes",
                 "latency", "stream", "_sim", "_warmup_ios", "_warmup_end")

    def __init__(self, system, spec: TenantSpec, index: int, ns,
                 job: MultiTenantJob, deadline: Optional[int],
                 warmup_end: Optional[int]) -> None:
        self.spec = spec
        self.index = index
        self.nsid = ns.nsid
        self.qid = 1 + index
        self.completed = 0
        self.bytes = 0
        self.latency = LatencyRecorder()
        self._sim = system.sim
        # count-bounded tenants warm up by I/Os, runtime-bounded by time
        self._warmup_ios = int(spec.total_ios * job.warmup_fraction)
        self._warmup_end = warmup_end
        seed = (job.seed * 0x9E3779B1 + spec.seed
                + 7919 * index) & 0x7FFFFFFFFFFF
        n_blocks = ns.n_sectors // (spec.bs // 512)
        if n_blocks < 1:
            raise ValueError("tenant namespace smaller than one request")
        self.stream = IssueStream(
            system, spec, index, n_blocks, random.Random(seed),
            self.account, data_seed=seed, deadline=deadline, nsid=ns.nsid,
            zipf=ZipfianHotspot(n_blocks, spec.zipf_theta)
            if spec.zipf_theta else None,
            arrival=arrival_from_spec(spec.arrival) if spec.arrival
            else None)

    def account(self, _req, t_submit: int, nbytes: int) -> None:
        """Count one completion; time it once past the warm-up."""
        self.completed += 1
        self.bytes += nbytes
        if self.spec.total_ios:
            past_warmup = self.completed > self._warmup_ios
        else:
            past_warmup = t_submit >= self._warmup_end
        if past_warmup:
            self.latency.record(self._sim.now - t_submit)


def _tenant_gauge(system, index: int,
                  read: Callable[[_TenantState], float]) -> Callable[[], float]:
    """A gauge of tenant ``index`` in the system's latest run: 0 when
    that run had no such tenant."""
    def gauge() -> float:
        state = system.tenant_states.get(index)
        return float(read(state)) if state is not None else 0.0
    return gauge


def tenant_sizes(total_sectors: int, tenants: Sequence[TenantSpec],
                 align_sectors: int) -> List[int]:
    """Partition a device's sectors across tenants, alignment-floored.

    Tenants with ``size_fraction == 0`` share whatever fraction the
    explicit ones leave over, equally.
    """
    explicit = sum(t.size_fraction for t in tenants)
    if explicit > 1.0 + 1e-9:
        raise ValueError("tenant size fractions exceed the device")
    implicit = [t for t in tenants if not t.size_fraction]
    rest = max(0.0, 1.0 - explicit) / len(implicit) if implicit else 0.0
    sizes = []
    for t in tenants:
        fraction = t.size_fraction or rest
        sectors = int(total_sectors * fraction)
        sectors = (sectors // align_sectors) * align_sectors
        if sectors < align_sectors:
            raise ValueError(f"tenant {t.name or len(sizes)} share too small")
        sizes.append(sectors)
    return sizes


class MultiTenantEngine:
    """Runs a :class:`MultiTenantJob` against a wired-up ``FullSystem``."""

    def __init__(self, system) -> None:
        if system.interface != "nvme":
            raise ValueError("multi-tenant runs need NVMe namespaces")
        self.system = system

    # -- setup ---------------------------------------------------------------

    def _provision(self, job: MultiTenantJob, deadline: Optional[int],
                   warmup_end: Optional[int]) -> List[_TenantState]:
        """Partition namespaces, queues, priorities; build tenant states."""
        system = self.system
        adapter = system.adapter
        align = max(1, system.ssd.config.superpage_size // 512)
        sizes = tenant_sizes(system.device_sectors, job.tenants, align)
        namespaces = adapter.provision_namespaces(sizes)
        # one submission queue per tenant: tenant i -> qid i + 1
        while adapter.n_io_queues < len(job.tenants):
            adapter.create_io_queue_pair(adapter.n_io_queues + 1)
        states = []
        for index, (spec, ns) in enumerate(zip(job.tenants, namespaces)):
            state = _TenantState(system, spec, index, ns, job, deadline,
                                 warmup_end)
            system.controller.queue_priorities[state.qid] = spec.priority
            states.append(state)
        self._register_tenant_metrics(states)
        return states

    def _register_tenant_metrics(self, states: List[_TenantState]) -> None:
        """Point the live ``tenantN.*`` gauges at this run's tenants.

        Telemetry epochs sample these like any other layer's metrics, so
        fairness is observable over time, not just post-run.  A gauge
        reads tenant N of ``system.tenant_states``, which every run
        replaces, so the gauges describe the system's latest run; a
        tenant index that run lacks reads 0.  Each name is registered
        once per system.
        """
        system = self.system
        system.tenant_states = {state.index: state for state in states}
        reg = system.metrics
        arbiter = system.ssd.hil.arbiter
        for state in states:
            prefix = f"tenant{state.index}"
            if f"{prefix}.issued" in reg:
                continue
            scope = reg.scoped(prefix)
            for name, read in (
                    ("issued", lambda s: s.stream.issued),
                    ("completed", lambda s: s.completed),
                    ("bytes", lambda s: s.bytes),
                    ("outstanding", lambda s: s.stream.outstanding),
                    ("p99_latency_us",
                     lambda s: s.latency.percentile(99) / 1000.0),
                    ("grants", lambda s: arbiter.grants.get(s.qid, 0))):
                scope.register(name, _tenant_gauge(system, state.index, read))

    # -- the run -------------------------------------------------------------

    def run(self, job: MultiTenantJob) -> MultiTenantResult:
        """Execute every tenant concurrently; report per-tenant + rollup."""
        system = self.system
        sim = system.sim
        start_ns = sim.now
        deadline = (start_ns + job.runtime_ns) if job.runtime_ns else None
        warmup_end = (start_ns
                      + int(job.runtime_ns * job.warmup_fraction)) \
            if job.runtime_ns else None
        states = self._provision(job, deadline, warmup_end)

        buf_bytes = sum(max(s.spec.iodepth, 64) * s.spec.bs
                        for s in states) + 16 * MB
        system.memory.allocate("tenants", buf_bytes)
        procs = [sim.process(state.stream.loop()) for state in states]

        def waiter():
            """Join every tenant process."""
            for proc in procs:
                yield proc

        sim.run_process(waiter())
        system.memory.free("tenants")
        elapsed = sim.now - start_ns

        tenants: List[TenantResult] = []
        merged = LatencyRecorder()
        for state in states:
            seconds = elapsed / SEC if elapsed else 0.0
            tenants.append(TenantResult(
                name=state.spec.name or f"tenant{state.index}",
                nsid=state.nsid,
                issued=state.stream.issued,
                completed=state.completed,
                total_bytes=state.bytes,
                bandwidth_mbps=(state.bytes / MB) / seconds
                if seconds else 0.0,
                iops=state.completed / seconds if seconds else 0.0,
                latency=state.latency,
            ))
            merged.merge(state.latency)

        total_bytes = sum(t.total_bytes for t in tenants)
        total_ios = sum(t.completed for t in tenants)
        seconds = elapsed / SEC if elapsed else 0.0
        return MultiTenantResult(
            tenants=tenants,
            elapsed_ns=elapsed,
            total_ios=total_ios,
            total_bytes=total_bytes,
            bandwidth_mbps=(total_bytes / MB) / seconds if seconds else 0.0,
            iops=total_ios / seconds if seconds else 0.0,
            latency=merged,
            fairness=jain_fairness([t.total_bytes for t in tenants]),
            arbitration=system.ssd.config.hil.arbitration,
            grants=dict(system.ssd.hil.arbiter.grants),
            ssd_stats=system.ssd.stats_report(),
        )
