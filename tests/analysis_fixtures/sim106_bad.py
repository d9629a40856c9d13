"""SIM106 fixture: acquire without release, and release outside finally."""


def leaky(sim, gate):
    yield gate.acquire()
    yield sim.timeout(5)


def unprotected(sim, gate):
    yield gate.acquire()
    yield sim.timeout(5)
    gate.release()


def held_without_release(sim, gate):
    timer = gate.hold(5)
    yield timer


def held_unprotected(sim, gate):
    timer = gate.hold(5)
    yield timer
    gate.release(timer)
