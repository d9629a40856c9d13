"""Costs computed once equal their closed forms and their recounts.

Host memory, the system bus, the PCIe, SATA and UFS links and the SSD
DRAM look each transfer's duration up per size; both CPU models keep one
record per instruction mix (its duration, its energy and a run count)
and derive their instruction counts when read.  These tests hold every
cached duration to its formula, on the first transfer of a size and on
a repeat, and every derived count to a recount made per execute, the
way the counters were kept before.
"""

import pytest

from repro.common.instructions import CLASSES, InstructionMix
from repro.common.units import GB, GHZ, SEC
from repro.host.bus import SystemBus
from repro.host.cpu import CpuModel, HostCpu
from repro.host.memory import HostMemory
from repro.host.pcie import PcieLink, SataLink, UfsLink
from repro.sim import Simulator
from repro.ssd.computation.cores import CpuComplex, EmbeddedCore
from repro.ssd.computation.dram import InternalDram
from repro.ssd.config import CoreConfig, DramConfig

SIZES = (1, 64, 4096, 4097, 131072)


def _stream_ns(nbytes, bandwidth):
    """Closed form of a bandwidth-limited transfer, at least 1 ns."""
    return max(1, round(nbytes * SEC / bandwidth))


def _elapsed(sim, generator):
    start = sim.now
    sim.run_process(generator)
    return sim.now - start


class RecountStats:
    """Per-class counts kept the old way: one ``record`` per execute."""

    def __init__(self):
        self.counts = {name: 0 for name in CLASSES}

    def record(self, mix):
        counts = self.counts
        counts["arith"] += mix.arith
        counts["branch"] += mix.branch
        counts["load"] += mix.load
        counts["store"] += mix.store
        counts["fp"] += mix.fp
        counts["other"] += mix.other

    @property
    def total(self):
        return sum(self.counts.values())


# -- per-size durations --------------------------------------------------------

class TestTransferDurations:
    @pytest.mark.parametrize("nbytes", SIZES)
    def test_host_memory(self, nbytes):
        sim = Simulator()
        memory = HostMemory(sim, 1 * GB, bandwidth=19.2 * GB,
                            access_latency=60)
        expected = 60 + _stream_ns(nbytes, 19.2 * GB)
        assert _elapsed(sim, memory.access(nbytes)) == expected
        assert _elapsed(sim, memory.access(nbytes, write=True)) == expected
        assert memory.bytes_moved == 2 * nbytes

    @pytest.mark.parametrize("nbytes", SIZES)
    def test_system_bus(self, nbytes):
        sim = Simulator()
        bus = SystemBus(sim, bandwidth=12.8 * GB, arbitration_ns=20)
        expected = 20 + _stream_ns(nbytes, 12.8 * GB)
        assert _elapsed(sim, bus.transfer(nbytes)) == expected
        assert _elapsed(sim, bus.transfer(nbytes)) == expected
        assert (bus.bytes_moved, bus.transactions) == (2 * nbytes, 2)

    @pytest.mark.parametrize("make", [
        lambda sim: PcieLink(sim, gen=3, lanes=4),
        lambda sim: PcieLink(sim, gen=2, lanes=1),
        SataLink,
        UfsLink,
    ], ids=["pcie-g3x4", "pcie-g2x1", "sata", "ufs"])
    def test_links(self, make):
        sim = Simulator()
        link = make(sim)
        bandwidth = link.raw_bandwidth * link.efficiency
        sent = received = 0
        for nbytes in SIZES + (0,):
            expected = (_stream_ns(nbytes, bandwidth) + link.latency_ns
                        if nbytes else 0)
            for _repeat in range(2):
                assert _elapsed(sim, link.send(nbytes)) == expected
                assert _elapsed(sim, link.receive(nbytes)) == expected
                sent += nbytes
                received += nbytes
            assert (link.bytes_tx, link.bytes_rx) == (sent, received)

    @pytest.mark.parametrize("nbytes", SIZES)
    def test_ssd_dram(self, nbytes):
        sim = Simulator()
        config = DramConfig()
        dram = InternalDram(sim, config)
        stream = _stream_ns(nbytes, config.bandwidth)
        # an idle bank: activate + CAS; then the open row: CAS only
        assert _elapsed(sim, dram.access(0, nbytes)) == \
            config.t_rcd + config.t_cl + stream
        assert _elapsed(sim, dram.access(0, nbytes, write=True)) == \
            config.t_cl + stream
        bursts = max(1, -(-nbytes // config.burst_bytes))
        assert (dram.read_bursts, dram.write_bursts) == (bursts, bursts)
        assert dram.bytes_moved == 2 * nbytes


# -- per-mix records -------------------------------------------------------------

#: value-equal mixes that are distinct objects each get their own record
_MIXES = (InstructionMix.typical(700), InstructionMix.typical(400),
          InstructionMix(arith=300, fp=50), InstructionMix.typical(700))


class TestHostCpuRecords:
    @pytest.mark.parametrize("model", [CpuModel.TIMING, CpuModel.O3])
    def test_counts_equal_a_recount(self, model):
        sim = Simulator()
        cpu = HostCpu(sim, 3, 2 * GHZ, model=model, cpi_scale=1.5)
        recount = [RecountStats() for _ in range(3)]

        def work():
            for step in range(30):
                mix = _MIXES[step % len(_MIXES)]
                core = step % 3
                # two at once on one core: the second waits for its grant
                procs = [sim.process(cpu.execute(mix, core=core,
                                                 kernel=bool(step % 2))),
                         sim.process(cpu.execute(mix, core=core))]
                for proc in procs:
                    yield proc
                recount[core].record(mix)
                recount[core].record(mix)

        sim.run_process(work())
        for index, core in enumerate(cpu._cores):
            assert core.stats.counts == recount[index].counts
        assert cpu.instruction_total() == sum(r.total for r in recount)
        assert cpu.kernel_utilization() > 0

    def test_duration_is_exec_ns(self):
        sim = Simulator()
        cpu = HostCpu(sim, 1, 2 * GHZ, model=CpuModel.TIMING)
        for mix in _MIXES:
            assert _elapsed(sim, cpu.execute(mix)) == cpu.exec_ns(mix)
            assert _elapsed(sim, cpu.execute(mix)) == cpu.exec_ns(mix)

    def test_atomic_model_counts_nothing(self):
        sim = Simulator()
        cpu = HostCpu(sim, 2, 2 * GHZ, model=CpuModel.ATOMIC)
        sim.run_process(cpu.execute(_MIXES[0]))
        assert (sim.now, cpu.instruction_total()) == (0, 0)


class TestEmbeddedCoreRecords:
    def test_counts_energy_and_cpi_equal_a_recount(self):
        sim = Simulator()
        config = CoreConfig(n_cores=1, frequency=400_000_000,
                            energy_per_instruction=37e-12,
                            leakage_per_core=0.02)
        core = EmbeddedCore(sim, 0, config)
        recount = RecountStats()
        dynamic = 0.0
        order = [_MIXES[i % len(_MIXES)] for i in range(23)]
        # all queued at once: the core grants them first come, first
        # served, so they complete in this order
        procs = [sim.process(core.execute(mix)) for mix in order]
        sim.run()
        assert all(proc.processed for proc in procs)
        for mix in order:
            recount.record(mix)
            dynamic += mix.total * config.energy_per_instruction
        assert core.stats.counts == recount.counts
        assert core.energy() == \
            dynamic + config.leakage_per_core * (sim.now / SEC)
        busy_cycles = core.resource.busy_time() * config.frequency / SEC
        assert core.cpi_achieved() == busy_cycles / recount.total
        assert sim.now == sum(core.exec_ns(mix) for mix in order)

    def test_complex_merges_the_derived_counts(self):
        sim = Simulator()
        complex_ = CpuComplex(sim, CoreConfig(n_cores=3))
        recount = RecountStats()
        for role, mix in zip(("hil", "icl", "ftl", "fil", "hil"), _MIXES):
            sim.run_process(complex_.execute(role, mix))
            recount.record(mix)
        assert complex_.instruction_stats().counts == recount.counts
        assert complex_.total_instructions() == recount.total

    def test_unknown_role_is_rejected(self):
        complex_ = CpuComplex(Simulator(), CoreConfig(n_cores=3))
        with pytest.raises(ValueError, match="unknown firmware role"):
            complex_.execute("gc", _MIXES[0])
