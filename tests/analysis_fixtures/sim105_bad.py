"""SIM104 fixture, leak case: a timeout bound to a name never read."""


def worker(sim):
    watchdog = sim.timeout(50_000)      # expect: SIM104
    yield sim.timeout(1)
