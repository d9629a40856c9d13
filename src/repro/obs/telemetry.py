"""Telemetry epochs: the process-wide switch and per-simulator probe.

Like span tracing (:mod:`repro.obs.runtime`), telemetry is a
process-wide switch because experiments build a fresh ``Simulator`` per
data point.  :func:`enable_telemetry` installs a probe factory in the
kernel's ``telemetry`` slot (:data:`repro.sim.engine.HOOKS`); afterwards
every new ``Simulator`` receives a live :class:`TelemetryProbe`, which
it puts first in its single observer slot; the event loop calls the
probe once per processed event.  With the switch off — the default and
the tier-1 state — the slot is empty and costs the loop nothing beyond
its one ``is None`` test per event, scheduling nothing, so runs are
bit-identical to a build without this module.

The probe does three things, all in *observation only* — it never
schedules events, acquires resources or advances the clock, so even
**enabled** telemetry leaves ``events_processed``, simulated times and
every figure byte-identical (a pinned test holds this to any
``epoch_ns``):

* **epoch sampling** — when event processing crosses an ``epoch_ns``
  boundary, every metric of the bound
  :class:`~repro.common.metrics.MetricsRegistry` (plus built-in engine
  gauges) is read into a bounded
  :class:`~repro.obs.timeseries.TimeSeries`;
* **flight recording** — each processed event's time and type go into a
  bounded ring (:mod:`repro.obs.flightrec`);
* **failure dumps** — when ``run_process`` raises, the engine calls
  :meth:`TelemetryProbe.on_failure` and the ring, open spans and last
  metric sample land in a ``flightrec-*.json`` post-mortem.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from repro.obs.flightrec import FlightRecorder, write_post_mortem
from repro.obs.timeseries import TimeSeries
from repro.sim.engine import HOOKS
from repro.sim.events import entry_name

_probes: List["TelemetryProbe"] = []
_epoch_listener: Optional[Callable[["TelemetryProbe", int], None]] = None


def telemetry_enabled() -> bool:
    """True while the process-wide telemetry switch is on."""
    return HOOKS["telemetry"] is not None


def enable_telemetry(epoch_ns: int = 100_000, flight_events: int = 256,
                     max_points: int = 512,
                     dump_dir: Optional[str] = None) -> None:
    """Arm telemetry for every subsequently-built simulator.

    ``epoch_ns`` is the sampling period in simulated ns; ``flight_events``
    bounds the flight-recorder ring; ``max_points`` bounds each time
    series; ``dump_dir`` is where failure post-mortems are written
    (default: the current directory).  Bad values raise here, not when
    the first simulator or epoch would use them.
    """
    if epoch_ns < 1:
        raise ValueError("epoch_ns must be >= 1")
    if flight_events < 1:
        raise ValueError("flight_events must be >= 1")
    if max_points < 4:
        raise ValueError("max_points must be >= 4")

    def probe_factory(sim) -> TelemetryProbe:
        """A live probe for a new simulator, collected here."""
        probe = TelemetryProbe(sim, epoch_ns=int(epoch_ns),
                               flight_events=int(flight_events),
                               max_points=int(max_points), dump_dir=dump_dir,
                               label=f"system{len(_probes)}")
        _probes.append(probe)
        return probe

    _probes.clear()
    HOOKS["telemetry"] = probe_factory


def disable_telemetry() -> None:
    """Turn telemetry off and drop every collected probe."""
    HOOKS["telemetry"] = None
    _probes.clear()


def set_epoch_listener(
        listener: Optional[Callable[["TelemetryProbe", int], None]]) -> None:
    """Install (or clear, with None) the process-wide epoch listener.

    The listener is called as ``listener(probe, t_ns)`` each time a
    probe crosses an epoch boundary — *after* the metric sweep, still
    in observation-only territory (it must not schedule events or touch
    simulator state).  The run journal (:mod:`repro.obs.journal`) uses
    this to emit wall-clock heartbeats while a fleet job simulates.
    Costs one global read per crossed epoch when unset; nothing per
    event.
    """
    global _epoch_listener
    _epoch_listener = listener


def probes() -> List["TelemetryProbe"]:
    """Every probe handed out since telemetry was enabled."""
    return list(_probes)


class TelemetryProbe:
    """Per-simulator epoch sampler + flight recorder, a loop observer.

    ``on_event`` is the hot-loop entry point: ring-append plus a single
    integer comparison against ``next_due``; the expensive registry
    sweep happens at most once per crossed epoch boundary.
    """

    __slots__ = ("sim", "epoch_ns", "next_due", "max_points", "series",
                 "flight", "label", "epochs_sampled", "_readers",
                 "_dump_dir", "_registry", "dumped_to")

    def __init__(self, sim, epoch_ns: int, flight_events: int,
                 max_points: int, dump_dir: Optional[str],
                 label: str) -> None:
        self.sim = sim
        self.epoch_ns = epoch_ns
        self.next_due = epoch_ns
        self.max_points = max_points
        self.series: Dict[str, TimeSeries] = {}
        self.flight = FlightRecorder(flight_events, label=label)
        self.label = label
        self.epochs_sampled = 0
        self._dump_dir = dump_dir
        self.dumped_to: Optional[str] = None
        self._registry = None
        # built-in engine gauges, available even for bare simulators
        self._readers: List[Tuple[str, Callable[[], float]]] = [
            ("sim.events_processed", lambda: float(sim.events_processed)),
            ("sim.queue_length", lambda: float(sim.queue_length)),
        ]

    # -- wiring ------------------------------------------------------------

    def bind_registry(self, registry, label: Optional[str] = None) -> None:
        """Adopt a system's metric registry as the epoch sample source.

        Called by ``FullSystem`` after it has registered every layer's
        instruments; sampling reads each source lazily per epoch.
        """
        self._registry = registry
        self._readers = self._readers[:2] + registry.readers()
        if label:
            self.label = label
            self.flight.label = label

    # -- the observer protocol --------------------------------------------

    def on_event(self, when: int, event) -> None:
        """Record one processed event; sample when an epoch boundary passes."""
        self.flight.note_event(when, entry_name(event))
        if when >= self.next_due:
            self._sample(when)

    def on_stop(self, drained: bool) -> None:
        """Nothing to do when the loop stops: sampling is event-driven."""

    def _sample(self, when: int) -> None:
        """Read every bound metric into its time series; advance the epoch."""
        due = self.next_due
        epoch = self.epoch_ns
        while due <= when:
            due += epoch
        self.next_due = due
        t = due - epoch          # the boundary that was just crossed
        self.epochs_sampled += 1
        series = self.series
        for name, reader in self._readers:
            ts = series.get(name)
            if ts is None:
                ts = series[name] = TimeSeries(name, self.max_points)
            ts.append(t, reader())
        listener = _epoch_listener
        if listener is not None:
            listener(self, t)

    # -- failure path ------------------------------------------------------

    def last_sample(self) -> Dict[str, float]:
        """The most recent value of every sampled series."""
        return {name: ts.last_value for name, ts in sorted(self.series.items())}

    def on_failure(self, error: BaseException) -> Optional[str]:
        """Dump the flight-recorder post-mortem; returns the path.

        Never raises: a broken dump must not mask the original failure.
        """
        try:
            doc = self.flight.snapshot(sim=self.sim, error=error,
                                       metrics=self.last_sample() or None)
            self.dumped_to = write_post_mortem(doc, self._dump_dir,
                                               "flightrec", self.label)
            return self.dumped_to
        except Exception:       # pragma: no cover - defensive
            return None
