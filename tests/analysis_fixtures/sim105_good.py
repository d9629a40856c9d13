"""SIM104 fixture, leak case: bound timeouts are yielded or passed on."""


def worker(sim):
    watchdog = sim.timeout(50_000)
    yield watchdog


def raced(sim, reply, first_of):
    watchdog = sim.timeout(50_000)
    yield first_of([reply, watchdog])
