"""SIM201 fixture, raw-literal case: byte->time through the helpers."""

from repro.common.units import ns_per_byte, transfer_ns


def drain(sim, nbytes, bandwidth):
    yield sim.timeout(transfer_ns(nbytes, bandwidth))


def settle(sim, nbytes, bandwidth):
    total_ns = round(nbytes * ns_per_byte(bandwidth))
    yield sim.timeout(total_ns)
