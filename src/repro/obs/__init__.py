"""``repro.obs`` — end-to-end observability for the simulated stack.

Two substrates, documented in detail in ``docs/OBSERVABILITY.md``:

* **Tracing** (:mod:`repro.obs.runtime`, over the kernel's
  :mod:`repro.sim.tracer`): nested spans in *simulated* time, keyed by
  I/O request id, opened and closed at every layer of the stack
  (``io.submit`` -> ``os.blocklayer`` -> ``nvme.sq`` / ``ahci`` /
  ``ufs.utp`` / ``ocssd.pblk`` -> ``hil`` -> ``icl`` -> ``ftl`` ->
  ``flash``), exportable as a Chrome ``trace_event`` JSON.
* **Metrics** (the model's :mod:`repro.common.metrics` registry, read
  here): one hierarchical namespace (``ssd.channel0.util``) unifying the
  previously ad-hoc counters, ``TimeAverage`` and
  ``UtilizationTracker`` instruments, exportable as CSV.

**Causal forensics** (:mod:`repro.obs.causal`) builds on tracing: a
:class:`~repro.obs.causal.CausalTracer` decomposes every request's end-to-end latency
exactly into resource components (conservation invariant: components
sum to the total), keeps bounded top-K tail captures with blame edges,
and :mod:`repro.obs.diff` explains *why two runs differ* by ranking
components against the p50/p99 delta (``fleet explain``).

A third substrate, **telemetry epochs** (:mod:`repro.obs.telemetry`),
samples every registered metric into bounded
:class:`~repro.obs.timeseries.TimeSeries` at a fixed simulated-time
period, keeps a :class:`~repro.obs.flightrec.FlightRecorder` ring of
recent events (dumped to JSON on failure), and feeds the self-contained
Markdown reports of :mod:`repro.obs.report`
(``python -m repro.experiments <fig> --report out.md``; an ``.html``
path gets the same Markdown converted to one page).  Every table and
report file here is drawn by :mod:`repro.common.render`, and the
streaming latency histograms are
:class:`repro.common.histogram.LogHistogram`.

Tracing and telemetry are off by default and zero-cost when off:
simulators carry the kernel's shared ``NULL_TRACER`` and a ``None``
probe until :func:`repro.obs.runtime.enable_tracing` /
:func:`repro.obs.telemetry.enable_telemetry` install their factories in
the kernel's table (:data:`repro.sim.engine.HOOKS`), e.g. from
``python -m repro.experiments <fig> --trace out.json --report out.html``.
The kernel imports none of this package.

Two host-time substrates complete the picture (both deliberately
outside the simulated-time determinism contract): the **run journal**
(:mod:`repro.obs.journal`) streams NDJSON lifecycle events beside a
fleet result store for ``python -m repro.fleet watch``, and the
**profiler** (:mod:`repro.obs.profiler`) rolls one cProfile pass up
into host self time and exact call counts per layer (``--profile`` on
the CLIs); a profile is a value its caller owns, not a kernel hook.
Both are off by default and zero-cost when off, and neither ever
perturbs simulated results.

This package module imports nothing: import each name from the module
that defines it.
"""
