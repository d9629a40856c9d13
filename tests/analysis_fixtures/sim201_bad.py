"""SIM201 fixture: mixed-unit arithmetic the unit lattice can prove."""

from repro.common.units import NS


def total_latency_ns(lat_ns, nbytes):
    return lat_ns + nbytes              # expect: SIM201 (ns + bytes)


def queue_depth_check(depth_ppn, span_lba):
    # pages compared with sectors
    return depth_ppn < span_lba         # expect: SIM201


def scaled_wait_ns(wait_us, pad_ns):
    return wait_us * pad_ns * NS        # expect: SIM201 (time * time)
