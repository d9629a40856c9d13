"""simlint over the real codebase: the self-check CI gate and
seeded-mutation proofs that the gate actually catches the regressions
it exists for (docs/ANALYSIS.md).
"""

import time
from pathlib import Path

import repro
from repro.analysis.baseline import Baseline
from repro.analysis.registry import lint_paths, lint_source

PACKAGE_DIR = Path(repro.__file__).parent
ENGINE = PACKAGE_DIR / "sim" / "engine.py"
SCENARIOS = PACKAGE_DIR / "bench" / "scenarios.py"
BACKEND = PACKAGE_DIR / "ssd" / "storage" / "backend.py"
MODELS = PACKAGE_DIR / "baselines" / "models.py"

REPO_ROOT = Path(__file__).resolve().parent.parent
BASELINE = REPO_ROOT / "analysis-baseline.txt"


def _replace_nth(text, old, new, occurrence):
    """Replace only the ``occurrence``-th (1-based) hit of ``old``."""
    parts = text.split(old)
    assert len(parts) > occurrence, \
        f"needle occurs {len(parts) - 1} time(s), wanted #{occurrence}"
    return old.join(parts[:occurrence]) + new + old.join(parts[occurrence:])


# -- the gate itself ----------------------------------------------------------

class TestSelfCheck:
    def test_package_lints_clean(self):
        """`python -m repro.analysis lint src/repro` must exit 0."""
        result = lint_paths([str(PACKAGE_DIR)])
        assert result.unsuppressed == [], "\n".join(
            f.format() for f in result.unsuppressed)

    def test_every_suppression_carries_a_reason(self):
        result = lint_paths([str(PACKAGE_DIR)])
        assert result.suppressed, "expected documented suppressions to exist"
        for finding in result.suppressed:
            assert finding.reason, finding.format()

    def test_extended_gate_is_clean_and_within_budget(self):
        """The CI gate — src/repro + tests + benchmarks under the
        adoption baseline — is clean, and a full-repo lint stays under
        its 10 s runtime budget (docs/ANALYSIS.md)."""
        t0 = time.perf_counter()  # simlint: disable=SIM110 -- measuring the linter's own runtime budget; nothing simulated
        result = lint_paths(
            [str(PACKAGE_DIR), str(REPO_ROOT / "tests"),
             str(REPO_ROOT / "benchmarks")],
            baseline=Baseline.load(str(BASELINE)),
            exclude=("analysis_fixtures",))
        elapsed = time.perf_counter() - t0  # simlint: disable=SIM110 -- measuring the linter's own runtime budget; nothing simulated
        assert result.unsuppressed == [], "\n".join(
            f.format() for f in result.unsuppressed)
        assert elapsed < 10.0, \
            f"full-repo lint took {elapsed:.1f}s; budget is 10s"


# -- seeded mutations: the gate catches what it claims to ---------------------

class TestSeededMutations:
    def test_inserted_wallclock_read_is_caught(self):
        """Splice a `time.time()` into the engine: SIM110 fires."""
        source = ENGINE.read_text().replace(
            "        self._now: int = 0\n",
            "        self._now: int = 0\n"
            "        import time\n"
            "        self._born = time.time()\n")
        findings = lint_source("engine_scratch.py", source)
        assert "SIM110" in {f.rule for f in findings if not f.suppressed}

    def test_unreleased_acquire_is_caught(self):
        """Undo the kernel_churn try/finally fix: SIM106 fires again."""
        source = SCENARIOS.read_text().replace(
            "            yield gate.acquire()\n"
            "            try:\n"
            "                yield sim.timeout(11)\n"
            "            finally:\n"
            "                gate.release()\n",
            "            yield gate.acquire()\n"
            "            yield sim.timeout(11)\n")
        assert "gate.release()" not in source  # the mutation really applied
        findings = lint_source("scenarios_scratch.py", source)
        assert "SIM106" in {f.rule for f in findings if not f.suppressed}

    def test_ns_plus_bytes_addition_is_caught(self):
        """Add a raw byte count to the command+transfer time in
        `_xfer_ns`: the unit lattice proves ns + bytes (SIM201)."""
        source = _replace_nth(
            BACKEND.read_text(),
            "nbytes, self.config.timing.channel_bandwidth)",
            "nbytes, self.config.timing.channel_bandwidth) + nbytes",
            occurrence=1)
        findings = lint_source(str(BACKEND), source)
        hits = [f for f in findings
                if f.rule == "SIM201" and not f.suppressed]
        assert hits, "ns + bytes addition went undetected"
        assert any("bytes" in hop for f in hits for hop in f.witness)

    def test_us_constant_swapped_for_ns_is_caught(self):
        """Swap `PROTOCOL_US * US` to `* NS` in the MQSim model: the
        value silently shrinks 1000x, and the conversion algebra flags
        the us-scale quantity entering ns arithmetic (SIM201)."""
        source = MODELS.read_text().replace(
            "yield self.sim.timeout(self.PROTOCOL_US * US)",
            "yield self.sim.timeout(self.PROTOCOL_US * NS)")
        assert "PROTOCOL_US * NS" in source  # the mutation really applied
        findings = lint_source(str(MODELS), source)
        assert any(f.rule == "SIM201" and not f.suppressed
                   for f in findings), "US-for-NS swap went undetected"

    def test_wallclock_through_two_helpers_is_caught(self):
        """Return `time.time()` through two helper layers into model
        state: the per-file rules see only the read; the taint pass
        reports the *store*, with the full call path (SIM210)."""
        source = BACKEND.read_text().replace(
            "    def _xfer_ns(self, nbytes: int) -> int:",
            "    def _stamp_low(self):\n"
            "        import time\n"
            "        return time.time()\n"
            "\n"
            "    def _stamp_mid(self):\n"
            "        return self._stamp_low()\n"
            "\n"
            "    def touch_stamp(self):\n"
            "        self.last_stamp = self._stamp_mid()\n"
            "\n"
            "    def _xfer_ns(self, nbytes: int) -> int:",
            1)
        findings = [f for f in lint_source(str(BACKEND), source)
                    if f.rule == "SIM210" and not f.suppressed]
        assert findings, "transitive wall-clock flow went undetected"
        witness = "\n".join(findings[0].witness)
        assert "_stamp_low" in witness and "_stamp_mid" in witness
        assert "last_stamp" in witness

    def test_inverted_acquire_order_is_caught(self):
        """Invert die/channel acquisition in `program_page`'s untraced
        path: the acquire-order graph gains a cycle against
        `read_page` (SIM220)."""
        source = BACKEND.read_text()
        # occurrence 2 of each acquire is program_page's untraced path
        source = _replace_nth(source, "yield die.acquire()",
                              "yield channel.acquire()  # mutated",
                              occurrence=2)
        source = _replace_nth(source, "yield channel.acquire()\n",
                              "yield die.acquire()\n", occurrence=2)
        findings = [f for f in lint_source(str(BACKEND), source)
                    if f.rule == "SIM220" and not f.suppressed]
        assert findings, "inverted lock order went undetected"
        assert "die_resource" in findings[0].message
        assert "channel_resource" in findings[0].message
