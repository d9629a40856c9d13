"""SIM106 fixture: the held token is released on every exit path."""


def tidy(sim, gate):
    yield gate.acquire()
    try:
        yield sim.timeout(5)
    finally:
        gate.release()


def held(sim, gate):
    timer = gate.hold(5)
    try:
        yield timer
    finally:
        gate.release(timer)
