"""SIM103 fixture: hash-ordered iteration feeding accumulation."""


def total_latency(samples):
    acc = 0.0
    for value in {1.5, 2.25, 3.125}:    # expect: SIM103
        acc += value
    return acc


def gc_order(dirty):
    victims = set(dirty)
    order = []
    for block in victims:               # expect: SIM103
        order.append(block)
    return order + [b for b in victims | {0}]  # expect: SIM103
