"""SIM210 fixture: nondeterminism crossing call edges into state.

The clock helper also trips the per-file source rule SIM110 at the read
site — SIM210 is the *transitive* finding at the store site, where the
per-file rules are blind.  The set helper trips no per-file rule:
``list({...})`` materializes hash order without iterating, so SIM103
does not see it.
"""

import time


class Gauge:
    def _read_clock(self):
        return time.time()              # expect: SIM110

    def _sample(self):
        return self._read_clock()

    def record(self):
        # wallclock -> model state
        self.last_sample = self._sample()   # expect: SIM210

    def _ordered_tags(self):
        return list({"read", "program", "erase"})

    def snapshot(self):
        # hash order -> model state
        self.order = self._ordered_tags()   # expect: SIM210
