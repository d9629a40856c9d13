"""SIM210 fixture: nondeterminism crossing call edges into state.

The individual helpers also trip the per-file source rules (SIM102,
SIM110) at the read site — SIM210 is the *transitive* finding at the
store site, where the per-file rules are blind.
"""

import time


class Gauge:
    def _read_clock(self):
        return time.time()

    def _sample(self):
        return self._read_clock()

    def record(self):
        self.last_sample = self._sample()   # wallclock -> model state

    def _ordered_tags(self):
        return list({"read", "program", "erase"})

    def snapshot(self):
        self.order = self._ordered_tags()   # hash order -> model state
