"""SIM201 fixture, flow case: values changing units as they flow."""


def mislabel(nbytes):
    # bytes stored under an ns name
    lat_ns = nbytes                     # expect: SIM201
    return lat_ns


def wait(sim, delay_ns):
    yield sim.timeout(delay_ns)


def caller(sim, delay_us):
    # us passed for an ns parameter
    yield from wait(sim, delay_us)      # expect: SIM201
