"""Amber (SimpleSSD 2.0) reproduction.

A full-system SSD simulation framework in Python: detailed models of all
SSD resources (embedded cores, internal DRAM, multi-channel flash, full
firmware stack) co-simulated with a host system (CPUs, memory, buses, OS
storage stack) across SATA, UFS, NVMe and OCSSD interfaces.

Quick start::

    from repro.core import FullSystem, FioJob, presets

    system = FullSystem(device=presets.intel750(), interface="nvme")
    result = system.run_fio(FioJob(rw="randread", bs=4096, iodepth=16,
                                   total_ios=2000))
    print(result.bandwidth_mbps, result.latency.mean_us())

``REPRO_SANITIZE=1`` in the environment arms the runtime sanitizer
(:func:`repro.analysis.sanitizer.enable_sanitizer`) here, before any
simulator can exist.
"""

import os

__version__ = "2.0.0"

if os.environ.get("REPRO_SANITIZE", "") not in ("", "0", "false"):
    from repro.analysis.sanitizer import enable_sanitizer

    enable_sanitizer()
