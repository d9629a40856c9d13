"""A unified, hierarchically-named metric namespace.

Before this module every component kept ad-hoc instruments — a
``TimeAverage`` here, a ``UtilizationTracker`` there, loose integer
counters everywhere — each reachable only by knowing the private
attribute that held it.  The :class:`MetricsRegistry` puts them all
behind one namespace of dot-separated names with hierarchical prefixes
(``ssd.channel0.util``, ``host.cpu.core1.kernel.util``,
``os.block.merged``), so exporters and tests can enumerate everything a
system measures without touching component internals.

The registry does not replace the instruments: components keep their
existing objects and *register* a zero-argument callable that reads one
(a bound method such as ``tracker.utilization``, or a lambda) under a
name.  Reading a metric is lazy — values are pulled at
:meth:`MetricsRegistry.snapshot` time, so registration costs one dict
insert and steady-state simulation pays nothing.
"""

from __future__ import annotations

from typing import Callable, Dict, List

#: What the registry reads a metric from: a zero-argument callable.
MetricSource = Callable[[], float]


class MetricsRegistry:
    """Name -> instrument registry with hierarchical dot-prefixes."""

    def __init__(self) -> None:
        self._sources: Dict[str, MetricSource] = {}

    # -- registration -----------------------------------------------------

    def register(self, name: str, source: MetricSource) -> None:
        """Adopt a zero-argument callable returning a number as ``name``."""
        if name in self._sources:
            raise ValueError(f"metric {name!r} already registered")
        if not callable(source):
            raise TypeError(f"metric {name!r} needs a callable, "
                            f"not {type(source).__name__}")
        self._sources[name] = source

    def scoped(self, prefix: str) -> "ScopedRegistry":
        """A view that prepends ``prefix + '.'`` to every name."""
        return ScopedRegistry(self, prefix)

    # -- reading ----------------------------------------------------------

    def names(self, prefix: str = "") -> List[str]:
        """Sorted metric names, optionally filtered by a dot-prefix."""
        if not prefix:
            return sorted(self._sources)
        dotted = prefix if prefix.endswith(".") else prefix + "."
        return sorted(name for name in self._sources
                      if name == prefix[:-1] or name.startswith(dotted)
                      or name.startswith(prefix))

    def read(self, name: str) -> float:
        """Current value of one metric."""
        return float(self._sources[name]())

    def snapshot(self, prefix: str = "") -> Dict[str, float]:
        """Read every metric (under ``prefix``) into a plain dict."""
        return {name: float(self._sources[name]())
                for name in self.names(prefix)}

    def readers(self) -> List[tuple]:
        """Stable ``(name, read_callable)`` pairs, sorted by name.

        Periodic samplers (the telemetry epoch probe) bind this list
        once instead of re-sorting names on every epoch.
        """
        return [(name, (lambda source=source: float(source())))
                for name, source in sorted(self._sources.items())]

    def to_csv(self, prefix: str = "") -> str:
        """Render a snapshot as ``metric,value`` CSV text."""
        lines = ["metric,value"]
        for name, value in self.snapshot(prefix).items():
            lines.append(f"{name},{value:.10g}")
        return "\n".join(lines) + "\n"

    def __len__(self) -> int:
        return len(self._sources)

    def __contains__(self, name: str) -> bool:
        return name in self._sources


class ScopedRegistry:
    """A prefixing facade over a :class:`MetricsRegistry`.

    Components take a scope so they can name metrics relative to
    themselves (``core0.kernel.util``) while the system decides where
    the subtree mounts (``host.cpu.``).
    """

    __slots__ = ("_base", "_prefix")

    def __init__(self, base: MetricsRegistry, prefix: str) -> None:
        self._base = base
        self._prefix = prefix.rstrip(".")

    def _qualify(self, name: str) -> str:
        return f"{self._prefix}.{name}"

    def register(self, name: str, source: MetricSource) -> None:
        """Register under the scope's prefix."""
        self._base.register(self._qualify(name), source)

    def scoped(self, prefix: str) -> "ScopedRegistry":
        """Nest a further prefix under this scope."""
        return ScopedRegistry(self._base, self._qualify(prefix))
