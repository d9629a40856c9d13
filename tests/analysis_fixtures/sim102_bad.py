"""SIM102 fixture: draws from process-global, wall-clock-seeded RNGs."""

import random
from random import randint


def jitter_ns():
    return random.uniform(0, 50)        # expect: SIM102


def pick_victim(blocks):
    return blocks[randint(0, len(blocks) - 1)]  # expect: SIM102


def fresh_rng():
    return random.Random()              # expect: SIM102
