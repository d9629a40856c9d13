"""SIM201 fixture, flow case: scale changes go through the constants."""

from repro.common.units import US, transfer_ns


def relabel_ns(nbytes, bandwidth):
    lat_ns = transfer_ns(nbytes, bandwidth)
    return lat_ns


def wait(sim, delay_ns):
    yield sim.timeout(delay_ns)


def caller(sim, delay_us):
    yield from wait(sim, delay_us * US)
