"""SIM107 fixture: mutable defaults shared across calls and simulators."""

from collections import defaultdict


def run_batch(jobs=[]):                 # expect: SIM107
    jobs.append("warmup")
    return jobs


def build_stats(counters=defaultdict(int), *, labels={}):  # expect: SIM107
    return counters, labels
