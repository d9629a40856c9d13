"""SIM104 fixture, leak case: bound timeouts are yielded or cancelled."""


def worker(sim):
    watchdog = sim.timeout(50_000)
    yield watchdog


def speculative(sim):
    watchdog = sim.timeout(50_000)
    yield sim.timeout(1)
    watchdog.cancel()
