"""The scenario registry: named, parameter-driven simulation recipes.

A *scenario* is a function ``(params, seed) -> result dict`` registered
under a stable name with :func:`scenario`.  The fleet runner never
constructs simulations itself — it looks the scenario up by the
``"scenario"`` key of each job's parameter dict and calls it with the
job's hash-derived seed, so the whole sweep is data plus this registry.

Two scenarios ship by default:

* ``"fio"`` — the general design-space probe: a device preset with
  firmware/FTL/geometry knob overrides under one FIO job.  Every axis
  of ``examples/design_space_exploration.py`` is expressible here (see
  the built-in specs below and ``docs/FLEET.md``).
* ``"experiment"`` — wraps the per-figure modules of
  :mod:`repro.experiments`, making each paper figure one more config a
  sweep can enumerate instead of a hand-run script.

Scenario results must be JSON-able and deterministic for a given
``(params, seed)`` — no wall-clock fields — because the result store
content-addresses them and golden tests compare merged reports
byte-for-byte.  Include a ``"latency_hist"`` (``LogHistogram.to_dict``)
to take part in fleet-wide percentile merging.
"""

from __future__ import annotations

import importlib
from dataclasses import replace
from typing import Callable, Dict, List

from repro.fleet.spec import SweepSpec

#: registered scenario name -> callable(params, seed) -> result dict
SCENARIOS: Dict[str, Callable[[Dict, int], Dict]] = {}


def scenario(name: str):
    """Decorator: register a scenario runner under ``name``."""
    def wrap(func: Callable[[Dict, int], Dict]):
        """Register ``func`` in :data:`SCENARIOS`, rejecting duplicates."""
        if name in SCENARIOS:
            raise ValueError(f"duplicate scenario {name!r}")
        SCENARIOS[name] = func
        return func
    return wrap


def run_scenario(params: Dict, seed: int) -> Dict:
    """Dispatch one job's parameter dict to its registered scenario."""
    name = params.get("scenario")
    if name not in SCENARIOS:
        raise ValueError(f"unknown scenario {name!r}; "
                         f"choose from {sorted(SCENARIOS)}")
    return SCENARIOS[name](params, seed)


# -- the "fio" scenario -------------------------------------------------------

#: fio-scenario keys that are workload knobs, not device overrides
_WORKLOAD_KEYS = {"scenario", "preset", "interface", "rw", "bs", "iodepth",
                  "total_ios", "numjobs"}


def _apply_device_overrides(config, params: Dict, extra_known=frozenset()):
    """Fold the job's device-knob parameters into an ``SSDConfig``.

    ``extra_known`` names parameters the *calling scenario* consumes
    itself (e.g. the multi-tenant scenario's ``tenants`` list); anything
    outside the union of knob keys is rejected loudly so a typo in a
    sweep spec fails the plan instead of silently running the default.
    """
    geometry = config.geometry
    if "channels" in params:
        geometry = replace(geometry, channels=int(params["channels"]))
    if "packages_per_channel" in params:
        geometry = replace(geometry,
                           packages_per_channel=int(
                               params["packages_per_channel"]))
    if geometry is not config.geometry:
        config = config.with_overrides(geometry=geometry)
    cores = config.cores
    if "core_mhz" in params:
        cores = replace(cores, frequency=int(params["core_mhz"]) * 1_000_000)
    if "n_cores" in params:
        cores = replace(cores, n_cores=int(params["n_cores"]))
    if cores is not config.cores:
        config = config.with_overrides(cores=cores)
    ftl = config.ftl
    if "overprovision" in params:
        ftl = replace(ftl, overprovision=float(params["overprovision"]))
    if "gc_policy" in params:
        ftl = replace(ftl, gc_policy=str(params["gc_policy"]))
    if "mapping" in params:
        ftl = replace(ftl, mapping=str(params["mapping"]))
    if ftl is not config.ftl:
        config = config.with_overrides(ftl=ftl)
    if "cache_fraction" in params:
        config = config.with_overrides(
            cache=replace(config.cache,
                          fraction_of_dram=float(params["cache_fraction"])))
    known = _WORKLOAD_KEYS | {"channels", "packages_per_channel", "core_mhz",
                              "n_cores", "overprovision", "gc_policy",
                              "mapping", "cache_fraction"} | set(extra_known)
    unknown = set(params) - known
    if unknown:
        raise ValueError(f"unknown fio-scenario parameters: {sorted(unknown)}")
    config.validate()
    return config


@scenario("fio")
def run_fio_scenario(params: Dict, seed: int) -> Dict:
    """One preset + knob overrides under one FIO job; summary + histogram."""
    from repro.core import presets
    from repro.core.fio import FioJob
    from repro.core.system import FullSystem
    from repro.experiments.common import DEVICE_INTERFACES

    preset = params.get("preset", "intel750")
    config = _apply_device_overrides(presets.by_name(preset), params)
    interface = params.get("interface") or DEVICE_INTERFACES.get(preset,
                                                                 "nvme")
    system = FullSystem(device=config, interface=interface)
    if interface != "ocssd":        # pblk maps its own pages
        system.precondition()
    job = FioJob(rw=params.get("rw", "randread"),
                 bs=int(params.get("bs", 4096)),
                 iodepth=int(params.get("iodepth", 16)),
                 numjobs=int(params.get("numjobs", 1)),
                 total_ios=int(params.get("total_ios", 1000)),
                 seed=seed & 0x7FFFFFFF)
    result = system.run_fio(job)
    hist = result.latency.histogram
    return {
        "bandwidth_mbps": result.bandwidth_mbps,
        "iops": result.iops,
        "mean_latency_us": result.latency.mean_us(),
        "p50_latency_us": result.latency.percentile(50) / 1000.0,
        "p99_latency_us": result.latency.percentile(99) / 1000.0,
        "total_ios": result.total_ios,
        "elapsed_ns": result.elapsed_ns,
        "events_processed": system.sim.events_processed,
        "sim_time_ns": system.sim.now,
        "write_amplification": result.ssd_stats.get(
            "write_amplification", 1.0),
        "latency_hist": hist.to_dict(),
    }


# -- the "multi_tenant" scenario ----------------------------------------------

#: multi_tenant-scenario keys consumed here, not by the device overrides
_TENANT_KEYS = {"tenants", "arbitration", "inflight_limit", "placement",
                "runtime_ms", "warmup_fraction"}


@scenario("multi_tenant")
def run_multi_tenant_scenario(params: Dict, seed: int) -> Dict:
    """Co-located tenants under a QoS arbiter, as one sweepable job.

    ``params["tenants"]`` is a list of :class:`TenantSpec` field dicts
    (JSON-able, so tenant mixes live in sweep specs).  ``arbitration``,
    ``inflight_limit`` and ``placement`` select the device's QoS
    machinery; per-queue WFQ weights are derived from the tenants'
    ``weight`` fields.  All the ``fio`` scenario's device knobs apply
    too.  The result carries the fleet's standard metric keys plus
    per-tenant summaries/histograms, arbiter grant counts and Jain's
    fairness index, so sweep reports rank fairness alongside tails.
    """
    from repro.core import presets
    from repro.core.system import FullSystem
    from repro.core.tenants import MultiTenantJob, TenantSpec

    preset = params.get("preset", "intel750")
    config = _apply_device_overrides(presets.by_name(preset), params,
                                     extra_known=_TENANT_KEYS)
    tenants = tuple(TenantSpec(**fields)
                    for fields in params.get("tenants", ()))
    if not tenants:
        raise ValueError("multi_tenant scenario needs a 'tenants' list")
    hil = replace(config.hil,
                  arbitration=str(params.get("arbitration",
                                             config.hil.arbitration)),
                  qos_weights=tuple(t.weight for t in tenants),
                  inflight_limit=int(params.get("inflight_limit",
                                                config.hil.inflight_limit)))
    config = config.with_overrides(hil=hil)
    if "placement" in params:
        config = config.with_overrides(
            fil=replace(config.fil, placement=str(params["placement"])))
    config.validate()

    # namespaces require NVMe; the engine enforces this, we just wire it
    system = FullSystem(device=config, interface="nvme")
    system.precondition()
    runtime_ms = params.get("runtime_ms")
    job = MultiTenantJob(
        tenants=tenants,
        runtime_ns=int(runtime_ms) * 1_000_000 if runtime_ms else None,
        seed=seed & 0x7FFFFFFF,
        warmup_fraction=float(params.get("warmup_fraction", 0.15)))
    result = system.run_multi_tenant(job)
    return {
        "bandwidth_mbps": result.bandwidth_mbps,
        "iops": result.iops,
        "mean_latency_us": result.latency.mean_us(),
        "p50_latency_us": result.latency.percentile(50) / 1000.0,
        "p99_latency_us": result.latency.percentile(99) / 1000.0,
        "total_ios": result.total_ios,
        "elapsed_ns": result.elapsed_ns,
        "events_processed": system.sim.events_processed,
        "sim_time_ns": system.sim.now,
        "write_amplification": result.ssd_stats.get(
            "write_amplification", 1.0),
        "latency_hist": result.latency.histogram.to_dict(),
        "arbitration": result.arbitration,
        "fairness": result.fairness,
        "grants": {str(qid): count
                   for qid, count in sorted(result.grants.items())},
        "tenants": [
            dict(tenant.summary(), name=tenant.name,
                 latency_hist=tenant.latency.histogram.to_dict(),
                 metrics=system.metrics.snapshot(f"tenant{index}"))
            for index, tenant in enumerate(result.tenants)],
    }


# -- the "experiment" scenario ------------------------------------------------


@scenario("experiment")
def run_experiment_scenario(params: Dict, seed: int) -> Dict:
    """Run one ``repro.experiments`` module as a fleet job.

    ``params["experiment"]`` names the module (short or module-style
    name, as on the ``python -m repro.experiments`` CLI); every other
    key except ``quick`` is forwarded to the module's ``run()``.  The
    per-figure modules seed themselves deterministically, so ``seed``
    is unused here — the config hash still isolates their result files.
    """
    from repro.experiments.__main__ import EXPERIMENTS, resolve_experiment
    from repro.experiments.golden import canonicalize

    name = resolve_experiment(str(params.get("experiment", "")))
    if name is None:
        raise ValueError(f"unknown experiment {params.get('experiment')!r}; "
                         f"choose from {', '.join(EXPERIMENTS)}")
    module = importlib.import_module(EXPERIMENTS[name])
    kwargs = {key: value for key, value in params.items()
              if key not in ("scenario", "experiment", "quick")}
    result = module.run(quick=bool(params.get("quick", True)), **kwargs)
    return {"experiment": name, "result": canonicalize(result)}


# -- built-in sweep specs -----------------------------------------------------


def builtin_specs() -> Dict[str, SweepSpec]:
    """Named sweeps shipped with the repo (``--builtin`` on the CLI).

    ``design_space_*`` reproduce the three axes of
    ``examples/design_space_exploration.py`` as data; ``smoke4`` is the
    tiny 4-config sweep CI uses for its N-worker determinism gate;
    ``paper_figs`` enumerates every paper figure as one job each;
    ``mt_smoke`` is the 2-tenant arbitration sweep CI replays at
    ``--jobs 1`` and ``--jobs 2`` to pin scheduling-independence;
    ``noisy_neighbor`` sweeps the victim/aggressor mix across the QoS
    mechanisms (see ``repro.experiments.noisy_neighbor``).
    """
    measure = {"preset": "intel750", "rw": "randread", "bs": 4096,
               "iodepth": 32, "total_ios": 1200}
    mt_pair = [
        {"name": "reader", "rw": "randread", "bs": 4096, "iodepth": 4,
         "total_ios": 120, "weight": 4, "priority": 0},
        {"name": "writer", "rw": "randwrite", "bs": 4096, "iodepth": 4,
         "total_ios": 80, "weight": 1, "priority": 2},
    ]
    noisy_pair = [
        {"name": "victim", "rw": "randread", "bs": 4096,
         "arrival": {"kind": "poisson", "rate_iops": 6000},
         "zipf_theta": 0.9, "weight": 8, "priority": 0,
         "size_fraction": 0.5},
        {"name": "aggressor", "rw": "randwrite", "bs": 8192,
         "iodepth": 32, "weight": 1, "priority": 2,
         "size_fraction": 0.5},
    ]
    return {
        "design_space_channels": SweepSpec(
            name="design_space_channels", scenario="fio", base=dict(
                measure, packages_per_channel=5),
            axes={"channels": (2, 4, 8, 12)}),
        "design_space_frequency": SweepSpec(
            name="design_space_frequency", scenario="fio", base=dict(measure),
            axes={"core_mhz": (200, 400, 800, 1600)}),
        "design_space_cores": SweepSpec(
            name="design_space_cores", scenario="fio", base=dict(measure),
            axes={"n_cores": (1, 2, 3)}),
        "smoke4": SweepSpec(
            name="smoke4", scenario="fio",
            base={"preset": "intel750", "rw": "randread",
                  "total_ios": 160, "iodepth": 8},
            axes={"bs": (4096, 65536), "channels": (4, 12)}),
        "paper_figs": SweepSpec(
            name="paper_figs", scenario="experiment",
            axes={"experiment": ("fig10", "fig11", "fig12", "fig13",
                                 "fig14", "fig15", "fig16")}),
        "mt_smoke": SweepSpec(
            name="mt_smoke", scenario="multi_tenant",
            base={"preset": "intel750", "tenants": mt_pair,
                  "inflight_limit": 4},
            axes={"arbitration": ("rr", "wrr", "wfq")}),
        "noisy_neighbor": SweepSpec(
            name="noisy_neighbor", scenario="multi_tenant",
            base={"preset": "intel750", "tenants": noisy_pair,
                  "inflight_limit": 8, "runtime_ms": 20},
            axes={"arbitration": ("rr", "wfq"),
                  "placement": ("rotate", "banded")}),
    }


def spec_names() -> List[str]:
    """Sorted names of the built-in sweeps."""
    return sorted(builtin_specs())
