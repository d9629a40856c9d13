"""Ablations of the design choices DESIGN.md calls out.

Each benchmark toggles one Section IV-C mechanism (or firmware policy)
and checks the performance consequence the paper attributes to it.
"""

import os

from repro.core import presets
from repro.core.fio import FioJob
from repro.core.system import FullSystem
from repro.ssd.config import CacheConfig, FTLConfig, HILConfig

QUICK = os.environ.get("REPRO_BENCH_FULL", "0") != "1"
N_IOS = 500 if QUICK else 2000


def _run(device, job):
    system = FullSystem(device=device, interface="nvme")
    system.precondition()
    return system.run_fio(job), system


def _with_cache(device, **cache_kwargs):
    merged = {"fraction_of_dram": 0.5}
    merged.update(cache_kwargs)
    return device.with_overrides(cache=CacheConfig(**merged))


def test_ablation_readahead(benchmark):
    """Parallelism-aware readahead: sequential reads should benefit."""
    device_on = _with_cache(presets.intel750(), readahead=True)
    device_off = _with_cache(presets.intel750(), readahead=False)

    def both():
        job = FioJob(rw="read", bs=4096, iodepth=4, total_ios=N_IOS)
        res_on, _sys_on = _run(device_on, job)
        res_off, _sys_off = _run(device_off, job)
        return res_on, res_off

    res_on, res_off = benchmark.pedantic(both, rounds=1, iterations=1)
    print(f"\nreadahead on: {res_on.bandwidth_mbps:.0f} MB/s, "
          f"off: {res_off.bandwidth_mbps:.0f} MB/s")
    assert res_on.bandwidth_mbps > res_off.bandwidth_mbps
    assert res_on.ssd_stats["readaheads"] > 0
    assert res_off.ssd_stats["readaheads"] == 0


def test_ablation_partial_update_hashmap(benchmark):
    """Super-page hashmap vs naive read-modify-write on small writes."""
    base = presets.intel750().with_overrides(
        cache=CacheConfig(fraction_of_dram=0.003))  # force flush pressure

    def both():
        job = FioJob(rw="randwrite", bs=4096, iodepth=16, total_ios=N_IOS)
        res_on, sys_on = _run(base.with_overrides(
            ftl=FTLConfig(partial_update_hashmap=True,
                          gc_threshold_free_blocks=1)), job)
        res_off, sys_off = _run(base.with_overrides(
            ftl=FTLConfig(partial_update_hashmap=False,
                          gc_threshold_free_blocks=1)), job)
        return res_on, res_off

    res_on, res_off = benchmark.pedantic(both, rounds=1, iterations=1)
    print(f"\nhashmap on: {res_on.bandwidth_mbps:.0f} MB/s "
          f"(rmw {res_on.ssd_stats['rmw_fetches']}), "
          f"off: {res_off.bandwidth_mbps:.0f} MB/s "
          f"(rmw {res_off.ssd_stats['rmw_fetches']})")
    # without the hashmap, partial-line flushes force whole-superpage RMW
    assert res_off.ssd_stats["rmw_fetches"] > res_on.ssd_stats["rmw_fetches"]
    assert res_on.bandwidth_mbps > res_off.bandwidth_mbps


def test_ablation_gc_policy(benchmark):
    """Greedy vs cost-benefit victim selection under random overwrite."""
    from tests.conftest import tiny_ssd_config
    import random

    def run_policy(policy):
        from repro.sim import Simulator
        from repro.ssd.device import SSD
        sim = Simulator()
        config = tiny_ssd_config(ftl=FTLConfig(
            overprovision=0.25, gc_threshold_free_blocks=1,
            gc_policy=policy))
        ssd = SSD(sim, config)
        rng = random.Random(9)
        pages = config.logical_pages
        spp = config.geometry.page_size // 512

        def scenario():
            for _ in range(3 * pages):
                page = rng.randrange(pages)
                yield from ssd.write(page * spp, spp)
            yield from ssd.flush()

        sim.run_process(scenario())
        return ssd.ftl.write_amplification(), ssd.ftl.gc_runs

    def both():
        return run_policy("greedy"), run_policy("costbenefit")

    (wa_greedy, gc_greedy), (wa_cb, gc_cb) = benchmark.pedantic(
        both, rounds=1, iterations=1)
    print(f"\ngreedy: WA {wa_greedy:.2f} ({gc_greedy} GCs); "
          f"cost-benefit: WA {wa_cb:.2f} ({gc_cb} GCs)")
    assert gc_greedy > 0 and gc_cb > 0
    # both policies must keep WA in a sane range on uniform random
    assert 1.0 <= wa_greedy < 8.0
    assert 1.0 <= wa_cb < 8.0


def test_ablation_hil_arbitration(benchmark):
    """FIFO vs RR vs WRR device-queue arbitration under multi-queue load."""
    def run_policy(policy):
        device = presets.intel750().with_overrides(
            hil=HILConfig(arbitration=policy))
        system = FullSystem(device=device, interface="nvme")
        system.precondition()
        res = system.run_fio(FioJob(rw="randread", bs=4096, iodepth=8,
                                    numjobs=4, total_ios=N_IOS // 4))
        return res

    def all_policies():
        return {policy: run_policy(policy)
                for policy in ("fifo", "rr", "wrr")}

    results = benchmark.pedantic(all_policies, rounds=1, iterations=1)
    print()
    for policy, res in results.items():
        print(f"{policy}: {res.bandwidth_mbps:.0f} MB/s, "
              f"p99 {res.latency.percentile(99) / 1000:.0f} us")
    bws = [res.bandwidth_mbps for res in results.values()]
    # arbitration changes fairness, not aggregate throughput (same work)
    assert max(bws) / min(bws) < 1.3


def test_ablation_atomic_vs_timing_cpu(benchmark):
    """Functional vs timing host CPU: the timing stack costs bandwidth."""
    from repro.host.cpu import CpuModel

    def both():
        out = {}
        for model in (CpuModel.ATOMIC, CpuModel.O3):
            system = FullSystem(device=presets.intel750(), interface="nvme",
                                cpu_model=model)
            system.precondition()
            out[model] = system.run_fio(
                FioJob(rw="randread", bs=4096, iodepth=16, total_ios=N_IOS))
        return out

    results = benchmark.pedantic(both, rounds=1, iterations=1)
    atomic = results[CpuModel.ATOMIC]
    timing = results[CpuModel.O3]
    print(f"\natomic: {atomic.bandwidth_mbps:.0f} MB/s, "
          f"timing: {timing.bandwidth_mbps:.0f} MB/s")
    # a functional CPU hides all kernel cost: never slower than timing
    assert atomic.bandwidth_mbps >= timing.bandwidth_mbps
    assert atomic.host_kernel_utilization == 0.0
    assert timing.host_kernel_utilization > 0.0
