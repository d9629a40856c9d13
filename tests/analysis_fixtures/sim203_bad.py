"""SIM201 fixture, raw-literal case: hand-rolled byte->time math."""


def drain(sim, nbytes):
    # ad-hoc "bandwidth" constant: the flow check and the raw-literal
    # check fire on the same node, and one finding carries both hints
    yield sim.timeout(nbytes * 3)       # expect: SIM201


def settle(sim, nbytes):
    # the raw-literal check reads `*` and `/` only: a floor division
    # trips the flow check alone, here and where the name is used
    total_ns = nbytes // 2              # expect: SIM201
    yield sim.timeout(total_ns)         # expect: SIM201
