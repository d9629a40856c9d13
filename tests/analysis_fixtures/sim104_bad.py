"""SIM104 fixture: discarded wait primitives and a yield-less process."""


def worker(sim, gate, mailbox):
    sim.timeout(5)                      # expect: SIM104
    gate.acquire()                      # expect: SIM104, SIM106
    mailbox.get()                       # expect: SIM104
    gate.hold(5)                        # expect: SIM104
    yield sim.timeout(1)


def silent_worker(sim):
    sim.counter = 1


def boot(sim):
    sim.process(silent_worker(sim))     # expect: SIM104
