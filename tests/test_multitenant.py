"""Multi-tenant machinery: namespaces, arrivals, the engine, rollups.

Covers the plumbing the noisy-neighbor suite stands on:

* namespace provisioning and per-request translation in the NVMe driver;
* the open-loop arrival processes and the Zipfian hotspot generator
  (deterministic under a seed, correctly shaped);
* the :class:`MultiTenantEngine` end-to-end on a tiny device — per-tenant
  accounting, live ``tenantN.*`` gauges, arbiter grant bookkeeping;
* seeded determinism of full runs for every arrival process;
* the exact-merge contract: per-tenant latency histograms folded with
  :meth:`LogHistogram.merge` reproduce the device-wide histogram
  bucket-for-bucket.
"""

import random

import pytest

from repro.common.histogram import LogHistogram
from repro.common.recorders import LatencyRecorder
from repro.common.stats import jain_fairness
from repro.core.system import FullSystem
from repro.core.tenants import (
    MultiTenantEngine,
    MultiTenantJob,
    TenantSpec,
    tenant_sizes,
)
from repro.experiments.golden import digest
from repro.interfaces.nvme.structures import Namespace
from repro.workloads.synthetic import (
    ARRIVAL_KINDS,
    BurstyArrivals,
    DiurnalArrivals,
    PoissonArrivals,
    ZipfianHotspot,
    arrival_from_spec,
)

from tests.conftest import tiny_ssd_config


def _tiny_system(**hil_overrides):
    from dataclasses import replace
    from repro.ssd.config import HILConfig
    config = tiny_ssd_config()
    if hil_overrides:
        config = config.with_overrides(hil=HILConfig(**hil_overrides))
    return FullSystem(device=config, interface="nvme")


# -- namespaces ---------------------------------------------------------------


class TestNamespaces:

    def test_translate_offsets_into_device_space(self):
        ns = Namespace(nsid=2, start_sector=1000, n_sectors=500)
        assert ns.translate(0, 8) == 1000
        assert ns.translate(492, 8) == 1492

    def test_translate_rejects_out_of_range(self):
        ns = Namespace(nsid=1, start_sector=0, n_sectors=100)
        with pytest.raises(ValueError, match="outside namespace"):
            ns.translate(96, 8)

    def test_provision_partitions_back_to_back(self):
        system = _tiny_system()
        total = system.device_sectors
        sizes = [total // 2, total // 4]
        created = system.adapter.provision_namespaces(sizes)
        assert [ns.nsid for ns in created] == [1, 2]
        assert created[0].start_sector == 0
        assert created[1].start_sector == total // 2
        assert sorted(system.adapter.namespaces) == [1, 2]

    def test_provision_rejects_oversubscription(self):
        system = _tiny_system()
        total = system.device_sectors
        with pytest.raises(ValueError, match="sectors"):
            system.adapter.provision_namespaces([total, 8])

    def test_delete_namespace(self):
        system = _tiny_system()
        system.adapter.provision_namespaces([system.device_sectors // 2])
        system.adapter.delete_namespace(1)
        assert not system.adapter.namespaces
        with pytest.raises(ValueError, match="does not exist"):
            system.adapter.delete_namespace(1)

    def test_tenant_sizes_split_and_align(self):
        tenants = [TenantSpec(name="a", size_fraction=0.5),
                   TenantSpec(name="b"), TenantSpec(name="c")]
        sizes = tenant_sizes(1000, tenants, align_sectors=16)
        assert sizes[0] == 496                 # 500 floored to 16
        assert sizes[1] == sizes[2] == 240     # 250 floored to 16
        with pytest.raises(ValueError, match="too small"):
            tenant_sizes(64, tenants, align_sectors=64)

    def test_tenant_sizes_reject_over_allocation(self):
        tenants = [TenantSpec(size_fraction=0.7),
                   TenantSpec(size_fraction=0.7)]
        with pytest.raises(ValueError, match="exceed"):
            tenant_sizes(1000, tenants, align_sectors=1)


# -- arrival processes and hotspot addressing ---------------------------------


class TestArrivals:

    def test_registry_and_spec_dispatch(self):
        assert set(ARRIVAL_KINDS) == {"poisson", "bursty", "diurnal"}
        arrival = arrival_from_spec({"kind": "poisson", "rate_iops": 5000})
        assert isinstance(arrival, PoissonArrivals)
        with pytest.raises(ValueError, match="unknown arrival"):
            arrival_from_spec({"kind": "warp"})

    def test_poisson_gaps_are_seeded_and_positive(self):
        arrival = PoissonArrivals(rate_iops=10_000)
        gaps_a = [arrival.next_gap_ns(random.Random(7), 0)
                  for _ in range(50)]
        gaps_b = [arrival.next_gap_ns(random.Random(7), 0)
                  for _ in range(50)]
        assert gaps_a == gaps_b
        assert all(gap >= 1 for gap in gaps_a)
        rng = random.Random(7)
        mean = sum(arrival.next_gap_ns(rng, 0)
                   for _ in range(4000)) / 4000
        assert mean == pytest.approx(100_000, rel=0.1)  # 10k IOPS -> 100us

    def test_bursty_defers_arrivals_past_off_windows(self):
        arrival = BurstyArrivals(rate_iops=100_000, period_ns=1_000_000,
                                 duty_cycle=0.2)
        rng = random.Random(3)
        # from inside the OFF region, the next arrival must land in
        # (or after the start of) an ON window, never earlier
        now = 500_000                       # OFF (ON is [0, 200_000))
        for _ in range(50):
            gap = arrival.next_gap_ns(rng, now)
            landing = (now + gap) % arrival.period_ns
            assert landing <= int(arrival.period_ns * arrival.duty_cycle)

    def test_diurnal_rate_swings_between_peak_and_trough(self):
        arrival = DiurnalArrivals(peak_iops=10_000, period_ns=1_000_000_000,
                                  trough_fraction=0.1)
        rng = random.Random(11)
        # near the peak of the cycle, gaps average ~1/peak_iops
        peak_now = 500_000_000
        peak_mean = sum(arrival.next_gap_ns(rng, peak_now)
                        for _ in range(2000)) / 2000
        trough_mean = sum(arrival.next_gap_ns(rng, 0)
                          for _ in range(500)) / 500
        assert peak_mean < trough_mean / 3
        assert peak_mean == pytest.approx(100_000, rel=0.25)

    def test_zipf_is_seeded_and_skewed(self):
        zipf = ZipfianHotspot(1000, theta=0.99)
        draws_a = [zipf.item(random.Random(5)) for _ in range(20)]
        draws_b = [zipf.item(random.Random(5)) for _ in range(20)]
        assert draws_a == draws_b
        rng = random.Random(5)
        ranks = [zipf.rank(rng) for _ in range(4000)]
        top = sum(1 for r in ranks if r < 10)
        assert top > 1000, "zipf(0.99): top-1% items should dominate"
        assert all(0 <= r < 1000 for r in ranks)

    def test_zipf_scramble_spreads_hot_ranks(self):
        zipf = ZipfianHotspot(1024, theta=0.9)
        rng = random.Random(1)
        items = {zipf.item(rng) for _ in range(200)}
        # scrambling must not leave the hot set clustered at the origin
        assert max(items) > 256


# -- the engine ---------------------------------------------------------------


def _run_closed_loop(seed=99, arbitration="rr", weights=()):
    system = _tiny_system(arbitration=arbitration, qos_weights=weights)
    job = MultiTenantJob(
        tenants=(TenantSpec(name="a", rw="randread", bs=2048, iodepth=4,
                            total_ios=120),
                 TenantSpec(name="b", rw="randwrite", bs=2048, iodepth=2,
                            total_ios=60)),
        seed=seed)
    return system, system.run_multi_tenant(job)


class TestMultiTenantEngine:

    def test_requires_nvme(self):
        config = tiny_ssd_config()
        system = FullSystem(device=config, interface="sata")
        with pytest.raises(ValueError, match="NVMe"):
            MultiTenantEngine(system)

    def test_two_tenants_complete_and_account(self):
        system, result = _run_closed_loop()
        assert [t.completed for t in result.tenants] == [120, 60]
        assert result.total_ios == 180
        assert result.total_bytes == 180 * 2048
        assert result.latency.count == sum(t.latency.count
                                           for t in result.tenants)
        assert 0.0 < result.fairness <= 1.0
        assert result.arbitration == "rr"

    def test_tenant_gauges_live_in_metrics_registry(self):
        system, result = _run_closed_loop()
        for index in (0, 1):
            snap = system.metrics.snapshot(f"tenant{index}")
            assert snap[f"tenant{index}.issued"] == \
                result.tenants[index].issued
            assert snap[f"tenant{index}.completed"] == \
                result.tenants[index].completed
            assert snap[f"tenant{index}.outstanding"] == 0.0
            assert snap[f"tenant{index}.grants"] > 0

    def test_grants_attribute_to_tenant_queues(self):
        system, result = _run_closed_loop()
        # tenant i submits on qid i+1; both queues must have been granted
        assert set(result.grants) == {1, 2}
        assert result.grants[1] > 0 and result.grants[2] > 0
        hil_grants = system.ssd.hil.arbiter.grants
        assert result.grants == hil_grants

    def test_namespaces_isolate_address_spaces(self):
        system, result = _run_closed_loop()
        namespaces = system.adapter.namespaces
        assert sorted(namespaces) == [1, 2]
        spans = sorted((ns.start_sector, ns.start_sector + ns.n_sectors)
                       for ns in namespaces.values())
        assert spans[0][1] <= spans[1][0], "namespaces overlap"

    @pytest.mark.parametrize("arrival", [
        {"kind": "poisson", "rate_iops": 30_000},
        {"kind": "bursty", "rate_iops": 60_000, "period_ns": 2_000_000,
         "duty_cycle": 0.5},
        {"kind": "diurnal", "peak_iops": 60_000, "period_ns": 4_000_000},
    ])
    def test_open_loop_runs_are_seed_deterministic(self, arrival):
        def run():
            system = _tiny_system(arbitration="wfq", qos_weights=(2, 1))
            job = MultiTenantJob(
                tenants=(TenantSpec(name="open", rw="randread", bs=2048,
                                    arrival=dict(arrival), zipf_theta=0.8),
                         TenantSpec(name="bg", rw="randwrite", bs=2048,
                                    iodepth=2)),
                runtime_ns=3_000_000, seed=4321)
            result = system.run_multi_tenant(job)
            return {
                "completed": [t.completed for t in result.tenants],
                "issued": [t.issued for t in result.tenants],
                "hist": result.latency.histogram.to_dict(),
                "grants": sorted(result.grants.items()),
                "fairness": result.fairness,
            }
        first, second = run(), run()
        assert digest(first) == digest(second)
        assert first["completed"][0] > 0

    def test_different_seeds_differ(self):
        _, a = _run_closed_loop(seed=1)
        _, b = _run_closed_loop(seed=2)
        assert a.latency.histogram.to_dict() != b.latency.histogram.to_dict()

    def test_tenant_writes_carry_bytes_under_data_emulation(self):
        """A tenant write replaces the sectors' bytes: a read after the
        job returns the tenant's payload, not what was there before."""
        system = FullSystem(device=tiny_ssd_config(), interface="nvme",
                            data_emulation=True)
        old = FullSystem.pattern_data(0, 16, seed=7)
        system.run_process(system.write(0, 16, old))
        result = system.run_multi_tenant(MultiTenantJob(
            tenants=(TenantSpec(rw="write", bs=2048, total_ios=4),)))
        assert [t.completed for t in result.tenants] == [4]

        def read_back():
            return (yield from system.read(0, 16))

        data = system.run_process(read_back())
        sectors = [data[i:i + 512] for i in range(0, len(data), 512)]
        assert len(sectors) == 16
        for index, sector in enumerate(sectors):
            assert sector != old[index * 512:(index + 1) * 512], index
            assert sector == sector[:8] * 64, "not a pattern sector"
        assert len(set(sectors)) == 16


# -- rollup exactness ---------------------------------------------------------


class TestRollups:

    def test_histogram_merge_is_exact(self):
        direct = LogHistogram()
        parts = [LogHistogram() for _ in range(3)]
        rng = random.Random(13)
        for _ in range(3000):
            part = rng.randrange(3)
            value = rng.randrange(1, 10_000_000)
            parts[part].record(value)
            direct.record(value)
        merged = LogHistogram()
        for part in parts:
            merged.merge(part)
        assert merged.to_dict() == direct.to_dict()

    def test_latency_recorder_merge_delegates(self):
        a, b, direct = LatencyRecorder(), LatencyRecorder(), LatencyRecorder()
        rng = random.Random(17)
        for _ in range(500):
            value = rng.randrange(100, 1_000_000)
            (a if rng.random() < 0.5 else b).record(value)
            direct.record(value)
        a.merge(b)
        assert a.count == direct.count == 500
        assert a.histogram.to_dict() == direct.histogram.to_dict()
        for p in (50, 90, 99):
            assert a.percentile(p) == direct.percentile(p)

    def test_engine_rollup_reproduces_device_wide_histogram(self):
        _, result = _run_closed_loop()
        merged = LogHistogram()
        for tenant in result.tenants:
            merged.merge(tenant.latency.histogram)
        assert merged.to_dict() == result.latency.histogram.to_dict()

    def test_jain_fairness_bounds(self):
        assert jain_fairness([10, 10, 10]) == pytest.approx(1.0)
        assert jain_fairness([1, 0, 0]) == pytest.approx(1 / 3)
        assert jain_fairness([]) == 0.0
        assert jain_fairness([0, 0]) == 0.0
