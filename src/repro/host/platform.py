"""Host platform presets (Table II of the paper)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.common.units import GB, GHZ, MHZ
from repro.host.cpu import CpuModel


@dataclass(frozen=True)
class HostPlatform:
    """Static description of a host system (gem5 system configuration)."""

    name: str
    cpu_name: str
    isa: str
    n_cores: int
    frequency: int                     # Hz
    cpu_model: CpuModel = CpuModel.O3
    cpi_scale: float = 1.0             # platform-level CPI adjustment
    l1d: str = ""
    l1i: str = ""
    l2: str = ""
    l3: str = ""
    memory_desc: str = ""
    memory_size: int = 8 * GB
    memory_bandwidth: float = 0.0      # bytes/s
    memory_latency_ns: int = 60
    sysbus_bandwidth: float = 16 * GB

    def table_row(self) -> Dict[str, str]:
        """Render this platform as a Table II row."""
        return {
            "CPU name": self.cpu_name,
            "ISA": self.isa,
            "Core number": str(self.n_cores),
            "Frequency": f"{self.frequency / GHZ:.1f}GHz",
            "L1D cache": self.l1d,
            "L1I cache": self.l1i,
            "L2 cache": self.l2,
            "L3 cache": self.l3,
            "Memory": self.memory_desc,
        }


def pc_platform(frequency: int = int(4.4 * GHZ),
                cpu_model: CpuModel = CpuModel.O3) -> HostPlatform:
    """Table II's PC platform: Intel i7-4790K, DDR4-2400 x2."""
    return HostPlatform(
        name="pc",
        cpu_name="Intel i7-4790K",
        isa="X86",
        n_cores=4,
        frequency=frequency,
        cpu_model=cpu_model,
        cpi_scale=1.0,
        l1d="private, 32KB, 8-way",
        l1i="private, 32KB, 8-way",
        l2="private, 256KB, 8-way",
        l3="shared, 8MB, 16-way",
        memory_desc="DDR4-2400, 2 channel",
        memory_size=16 * GB,
        memory_bandwidth=2 * 2400 * MHZ * 8,   # 2 channels x 19.2 GB/s
        memory_latency_ns=55,
        sysbus_bandwidth=24 * GB,
    )


def mobile_platform(frequency: int = 2 * GHZ,
                    cpu_model: CpuModel = CpuModel.HPI) -> HostPlatform:
    """Table II's mobile platform: NVIDIA Jetson TX2, LPDDR4 x1."""
    return HostPlatform(
        name="mobile",
        cpu_name="NVIDIA Jetson TX2",
        isa="ARM v8",
        n_cores=4,
        frequency=frequency,
        cpu_model=cpu_model,
        cpi_scale=1.5,   # low-power in-order cores retire fewer IPC
        l1d="private, 32KB",
        l1i="private, 48KB",
        l2="shared, 2MB",
        l3="N/A",
        memory_desc="LPDDR4-3733, 1 channel",
        memory_size=8 * GB,
        memory_bandwidth=3733 * MHZ * 8 // 2,  # one 32-bit-ish channel
        memory_latency_ns=80,
        sysbus_bandwidth=12 * GB,
    )
