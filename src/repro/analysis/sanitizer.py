"""SimSanitizer: an opt-in, observe-only runtime checker for the kernel.

Armed the same way as telemetry (:mod:`repro.obs.telemetry`): a
process-wide switch — :func:`enable_sanitizer`, or ``REPRO_SANITIZE=1``
in the environment, which ``import repro`` turns into that call — puts
a factory in the kernel's ``sanitizer`` slot
(:data:`repro.sim.engine.HOOKS`), after which every newly-built
:class:`~repro.sim.Simulator` receives a live :class:`SimSanitizer` for
its observer slot: the event loop calls it once per processed event and
once per stop.  Off (the default, and the tier-1 state) the slot is
empty.

The sanitizer only *observes* — it never schedules events, acquires
resources, advances the clock or raises mid-run — so an enabled run is
bit-identical to a disabled one (pinned by the golden suite).  It
detects:

* **causality violations** — a popped event timestamped before the
  clock's high-water mark, i.e. something was force-scheduled into the
  past (``sim._enqueue`` rejects negative delays, but a raw
  ``heappush`` bypasses it); this is also what a non-monotonic ``now``
  looks like from the loop;
* **leaked tokens** — ``Resource`` units still held when ``run()``
  drains the queue (a deadline or ``run_process`` is no drain): an
  acquire whose release was skipped on some path;
* **stuck processes** — processes that never finished although the
  simulation has no events left to run them with (a deadlock, or a
  wait on an event nobody will trigger);
* **double cancels** — ``Timeout.cancel()`` on an already-cancelled
  timeout, which usually means two owners think they own the timer.

Violations accumulate on the sanitizer (and process-wide via
:func:`all_violations`); :meth:`SimSanitizer.check` raises a
:class:`SanitizerError` summarizing them, and failures dump a
``sanitizer-*.json`` post-mortem through the
:class:`~repro.obs.flightrec.FlightRecorder` machinery.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Optional

from repro.obs.flightrec import FlightRecorder, write_post_mortem
from repro.sim.engine import HOOKS


class SanitizerError(AssertionError):
    """Raised by :meth:`SimSanitizer.check` when violations were found."""


@dataclass(frozen=True)
class Violation:
    """One detected invariant violation."""

    kind: str        # "causality" | "leaked-token" | "stuck-process" | ...
    t_ns: int        # simulated time at detection
    detail: str

    def format(self) -> str:
        return f"[{self.kind}] t={self.t_ns}ns: {self.detail}"


_sanitizers: List["SimSanitizer"] = []


def sanitizer_enabled() -> bool:
    """True while the process-wide sanitizer switch is on."""
    return HOOKS["sanitizer"] is not None


def enable_sanitizer(flight_events: int = 256,
                     dump_dir: Optional[str] = None) -> None:
    """Arm the sanitizer for every subsequently-built simulator.

    A ``flight_events`` below 1 raises here, not at the next
    ``Simulator()``.
    """
    if flight_events < 1:
        raise ValueError("flight_events must be >= 1")

    def sanitizer_factory(sim: Any) -> SimSanitizer:
        """A live sanitizer for a new simulator, collected here."""
        sanitizer = SimSanitizer(sim, flight_events=int(flight_events),
                                 dump_dir=dump_dir,
                                 label=f"sanitized{len(_sanitizers)}")
        _sanitizers.append(sanitizer)
        return sanitizer

    _sanitizers.clear()
    HOOKS["sanitizer"] = sanitizer_factory


def disable_sanitizer() -> None:
    """Turn the sanitizer off and drop every collected instance."""
    HOOKS["sanitizer"] = None
    _sanitizers.clear()


def sanitizers() -> List["SimSanitizer"]:
    """Every sanitizer handed out since the switch was armed."""
    return list(_sanitizers)


def all_violations() -> List[Violation]:
    """Violations across every simulator built since arming."""
    return [v for s in _sanitizers for v in s.violations]


class SimSanitizer:
    """Per-simulator invariant checker, an observer of the event loop.

    ``on_event`` is the hot-loop entry point: one ring append plus one
    integer comparison per processed event.  Everything else runs on
    cold paths (construction, stop, cancel, failure).
    """

    __slots__ = ("sim", "violations", "label", "flight", "_high_water",
                 "_resources", "_processes", "_dump_dir", "dumped_to")

    def __init__(self, sim: Any, flight_events: int = 256,
                 dump_dir: Optional[str] = None,
                 label: str = "sanitized") -> None:
        self.sim = sim
        self.violations: List[Violation] = []
        self.label = label
        self.flight = FlightRecorder(flight_events, label=label)
        self._high_water = 0
        self._resources: List[Any] = []
        self._processes: List[Any] = []
        self._dump_dir = dump_dir
        self.dumped_to: Optional[str] = None

    # -- registration (called from kernel constructors, observe-only) ------

    def watch_resource(self, resource: Any) -> None:
        """Track a Resource for the leaked-token drain check."""
        self._resources.append(resource)

    def watch_process(self, process: Any) -> None:
        """Track a Process for the stuck-process drain check."""
        self._processes.append(process)

    # -- the observer protocol ----------------------------------------------

    def on_event(self, when: int, event: Any) -> None:
        """Record one processed event; flag time running backwards."""
        self.flight.note_event(when, type(event).__name__)
        if when < self._high_water:
            self.violations.append(Violation(
                "causality", when,
                f"{type(event).__name__} processed at t={when} after the "
                f"clock reached t={self._high_water}: an event was "
                "scheduled into the past"))
        else:
            self._high_water = when

    def on_stop(self, drained: bool) -> None:
        """The loop stopped; at a true drain, audit resources and processes."""
        if not drained:
            return
        now = self.sim.now
        for resource in self._resources:
            held = resource.in_use
            if held:
                name = resource.name or "<unnamed>"
                self.violations.append(Violation(
                    "leaked-token", now,
                    f"resource {name!r} still holds {held} unit(s) at "
                    "drain: some acquire was never released"))
            if resource.queued:
                name = resource.name or "<unnamed>"
                self.violations.append(Violation(
                    "stuck-waiter", now,
                    f"resource {name!r} has {resource.queued} acquire(s) "
                    "that can never be granted"))
        for process in self._processes:
            if process.is_alive:
                self.violations.append(Violation(
                    "stuck-process", now,
                    "process never finished although the event queue "
                    f"drained: {process!r}"))

    def on_failure(self, error: BaseException) -> Optional[str]:
        """Dump a post-mortem when the run the sanitizer watched failed."""
        return self._dump(error=error)

    # -- cold-path hooks ----------------------------------------------------

    def on_double_cancel(self, timeout: Any) -> None:
        """A Timeout was cancelled twice — two owners for one timer."""
        self.violations.append(Violation(
            "double-cancel", self.sim.now,
            f"cancel() on an already-cancelled {timeout!r}"))

    # -- reporting ----------------------------------------------------------

    def check(self) -> None:
        """Raise :class:`SanitizerError` if any violation was recorded."""
        if self.violations:
            self._dump()
            lines = "\n  ".join(v.format() for v in self.violations)
            raise SanitizerError(
                f"{len(self.violations)} sanitizer violation(s):\n  {lines}")

    def report(self) -> str:
        """Human-readable summary of this simulator's violations."""
        if not self.violations:
            return f"{self.label}: no violations"
        lines = [f"{self.label}: {len(self.violations)} violation(s)"]
        lines.extend("  " + v.format() for v in self.violations)
        return "\n".join(lines)

    def _dump(self, error: Optional[BaseException] = None) -> Optional[str]:
        """Write ``sanitizer-<label>.json`` next to the run; never raises."""
        try:
            doc = self.flight.snapshot(sim=self.sim, error=error)
            doc["violations"] = [
                {"kind": v.kind, "t_ns": v.t_ns, "detail": v.detail}
                for v in self.violations]
            self.dumped_to = write_post_mortem(doc, self._dump_dir,
                                               "sanitizer", self.label)
            return self.dumped_to
        except Exception:  # pragma: no cover - defensive: never mask the run
            return None
