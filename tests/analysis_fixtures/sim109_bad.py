"""SIM109 fixture: fleet workers seeded from everything but the config."""

import os
import random


def run_job_worker(job):
    # same stream for every job
    rng = random.Random(1234)           # expect: SIM109
    return rng.uniform(0, 50)


def sweep_worker(params):
    # varies by scheduling, not config
    rng = random.Random(os.getpid())    # expect: SIM109
    return rng.randrange(100)


def replay_job(entry, counter):
    # depends on completion order
    rng = random.Random(counter * 31)   # expect: SIM109
    rng.seed(counter * 31)              # expect: SIM109
    return rng.random()
