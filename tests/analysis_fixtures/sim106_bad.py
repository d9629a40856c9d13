"""SIM106 fixture: acquire without release, and release outside finally."""


def leaky(sim, gate):
    yield gate.acquire()                # expect: SIM106
    yield sim.timeout(5)


def unprotected(sim, gate):
    yield gate.acquire()                # expect: SIM106
    yield sim.timeout(5)
    gate.release()
