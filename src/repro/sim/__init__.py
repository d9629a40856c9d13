"""Discrete-event simulation kernel.

A small, deterministic, generator-driven event simulator in the style of
SimPy.  Everything in the Amber reproduction — host CPUs, buses, DMA
engines, embedded cores, flash dies — is expressed as processes and
resources on top of this kernel.

Time is an integer number of nanoseconds.
"""

from repro.sim.engine import Simulator
from repro.sim.events import AllOf, AnyOf, Event, Interrupt, Timeout
from repro.sim.process import Process
from repro.sim.resources import Resource, Store
from repro.sim.stats import TimeAverage, UtilizationTracker

__all__ = [
    "Simulator",
    "Event",
    "Timeout",
    "AllOf",
    "AnyOf",
    "Interrupt",
    "Process",
    "Resource",
    "Store",
    "TimeAverage",
    "UtilizationTracker",
]
