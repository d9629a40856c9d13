"""SIM110 fixture: wall-clock reads outside the designated modules.

This file stands in for ordinary simulation code (it is not under
``repro/bench/``, ``repro/obs/profiler|journal``, ``repro/fleet/runner``
or ``repro/baselines/replay``), so neither simulated logic nor a speed
measurement may read the host clock here — timestamps come from
``sim.now``, and speed measurement belongs in a designated module.
"""

import time
from datetime import datetime


def measure_step(sim):
    started = time.perf_counter()
    sim.step()
    return time.perf_counter() - started


def stamp_request():
    return time.time(), datetime.now()
