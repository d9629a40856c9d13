"""Host self time per layer: one cProfile pass, rolled up by layer.

The paper's pitch — modeling all SSD resources is affordable — lives or
dies on simulator speed, and speeding it up needs to know **which models
burn the host time**, not just how long a whole run took.  Tracing
(:mod:`repro.sim.tracer`) answers that in *simulated* time; this module
answers it in *host* time, with one definition of self time:

* a **layer's self time** is the cProfile ``tottime`` of the Python
  functions in its modules.  A profile from :func:`new_profile` is
  ``cProfile.Profile(builtins=False)``, so the C functions a Python
  function calls (``heapq.heappush``, ``dict.get``) count in its own
  ``tottime``;
* a **layer's calls** are cProfile's exact call counts, where every
  generator resume is a call.

A generator's frame is on the stack exactly while it runs, so an FTL
helper reached through ``yield from`` owns its work before its first
yield and after a leaf it delegated to returns, and the kernel's own
functions (``Simulator._dispatch``, ``Process._resume``) are ``sim``.
Every profiled second falls in exactly one layer, ``other`` included,
so the shares sum to 100 %.

:data:`MODULE_LAYERS` maps a module to its layer by the longest dotted
prefix: the 16 layers of the repo benchmark (``benchmarks/suite``) plus
the packages its workloads never reach.  A code object's module is the
path after the last ``/repro/`` of its file name.

A profile is a value the caller owns and there is no process-wide
switch: the kernel has no profiler hook, so a profiled run is
bit-identical to a plain one.  Profiles do not nest: the interpreter
has one profile hook per thread, and a second profile takes it over.
``--profile BASE`` on ``python -m repro.experiments`` profiles the
experiment's ``run()`` and writes ``BASE.md`` and the stdlib's
``BASE.prof`` (:func:`write_profile`); ``python -m repro.fleet run
--profile`` journals each job's per-layer seconds.
"""

from __future__ import annotations

import cProfile
import os
from typing import Dict, List

from repro.common.render import markdown_table

#: dotted module prefix -> layer; the longest matching prefix wins
MODULE_LAYERS: Dict[str, str] = {
    # the repo benchmark's 16 layers (benchmarks/suite/layers.py)
    "repro.core": "core",
    "repro.host.cpu": "host.cpu",
    "repro.host.memory": "host.memory",
    "repro.host.dma": "host.dma",
    "repro.hostos.blocklayer": "hostos.blocklayer",
    "repro.hostos.pagecache": "hostos.pagecache",
    "repro.interfaces.nvme": "interfaces.nvme",
    "repro.ssd.firmware.hil": "ssd.hil",
    "repro.ssd.firmware.arbiter": "ssd.hil",
    "repro.ssd.firmware.icl": "ssd.icl",
    "repro.ssd.firmware.ftl": "ssd.ftl",
    "repro.ssd.firmware.ftl.gc": "ssd.gc",
    "repro.ssd.firmware.fil": "ssd.fil",
    "repro.ssd.storage": "ssd.flash",
    "repro.ssd.computation.cores": "ssd.cores",
    "repro.ssd.computation.dram": "ssd.dram",
    "repro.sim": "sim",
    # the packages the benchmark's workloads never reach
    "repro.host": "host",
    "repro.hostos": "hostos",
    "repro.interfaces.htype": "interfaces.htype",
    "repro.interfaces.sata": "interfaces.htype",
    "repro.interfaces.ufs": "interfaces.htype",
    "repro.interfaces.ocssd": "interfaces.ocssd",
    "repro.ssd": "ssd",
    "repro.baselines": "baselines",
    "repro.workloads": "workloads",
}


def module_of(filename: str) -> str:
    """The dotted ``repro`` module of a source file, or ``""`` outside it."""
    _head, marker, tail = filename.replace(os.sep, "/").rpartition("/repro/")
    if not marker:
        return ""
    module = "repro." + tail.removesuffix(".py").replace("/", ".")
    return module.removesuffix(".__init__")


def layer_of(filename: str) -> str:
    """The layer a source file belongs to; ``other`` outside every layer."""
    module = module_of(filename)
    while module:
        layer = MODULE_LAYERS.get(module)
        if layer is not None:
            return layer
        module = module.rpartition(".")[0]
    return "other"


def new_profile() -> cProfile.Profile:
    """A profile with this module's definition of self time.

    Use it as a context manager or through ``runcall``, then hand it to
    :func:`attribution` or :func:`write_profile`.
    """
    return cProfile.Profile(builtins=False)


def attribution(profile: cProfile.Profile) -> Dict:
    """Roll a profile up by layer.

    ``layers`` and ``sites`` (``module:qualname``) map to ``{"calls",
    "seconds"}``, and each layer also has its ``share`` of
    ``total_s``, the profile's summed self time.
    """
    layers: Dict[str, Dict] = {}
    sites: Dict[str, Dict] = {}
    for entry in profile.getstats():
        code = entry.code
        # a C function is an entry of its own, named by a string, only
        # under builtins=True; co_qualname is new in Python 3.11
        filename = getattr(code, "co_filename", "")
        name = getattr(code, "co_qualname", getattr(code, "co_name", code))
        site = f"{module_of(filename) or os.path.basename(filename)}:{name}"
        for table, key in ((layers, layer_of(filename)), (sites, site)):
            totals = table.setdefault(key, {"calls": 0, "seconds": 0.0})
            totals["calls"] += entry.callcount
            totals["seconds"] += entry.inlinetime
    total = sum(totals["seconds"] for totals in layers.values())
    for totals in layers.values():
        totals["share"] = totals["seconds"] / total if total else 0.0
    return {"total_s": total,
            "calls": sum(totals["calls"] for totals in layers.values()),
            "layers": layers, "sites": sites}


def _by_seconds(table: Dict[str, Dict]) -> List:
    """``table``'s items, most self time first, then by name."""
    return sorted(table.items(), key=lambda item: (-item[1]["seconds"],
                                                   item[0]))


def hottest_layers(doc: Dict, n: int = 3) -> List[str]:
    """The ``n`` layers with the most self time, hottest first."""
    return [name for name, _totals in _by_seconds(doc["layers"])[:n]]


def attribution_markdown(profile: cProfile.Profile,
                         title: str = "Host self time by layer") -> str:
    """Render a profile's attribution as the Markdown CI uploads."""
    doc = attribution(profile)
    out: List[str] = [
        f"# {title}", "",
        f"Profiled {doc['total_s']:.4f}s of host self time in "
        f"{doc['calls']} Python calls (cProfile `tottime`, C calls "
        "charged to their Python caller, generator resumes counted as "
        "calls).",
        "", markdown_table(
            ["layer", "calls", "self ms", "share"], "lrrr",
            [[f"`{name}`", totals["calls"], f"{totals['seconds'] * 1e3:.2f}",
              f"{totals['share'] * 100.0:.1f}%"]
             for name, totals in _by_seconds(doc["layers"])])]
    top = hottest_layers(doc)
    if top:
        out += ["", "Top-{n} hottest layers: {names}.".format(
            n=len(top), names=", ".join(f"`{name}`" for name in top))]
    hot_sites = _by_seconds(doc["sites"])[:10]
    if hot_sites:
        out += ["", markdown_table(
            ["hottest call sites", "calls", "self ms"], "lrr",
            [[f"`{name}`", totals["calls"], f"{totals['seconds'] * 1e3:.2f}"]
             for name, totals in hot_sites])]
    out.append("")
    return "\n".join(out)


def write_profile(base_path, profile: cProfile.Profile,
                  title: str = "Host self time by layer") -> List[str]:
    """Write ``<base>.md`` and the stdlib's ``<base>.prof``; returns the
    paths.  ``pstats.Stats("<base>.prof")`` loads the second.

    The CLI surface (``--profile``) funnels here so every entry point
    emits the same artifact pair.
    """
    base = str(base_path)
    for suffix in (".md", ".prof"):
        if base.endswith(suffix):
            base = base[:-len(suffix)]
            break
    markdown_path = base + ".md"
    stats_path = base + ".prof"
    with open(markdown_path, "w", encoding="utf-8") as handle:
        handle.write(attribution_markdown(profile, title=title))
    profile.dump_stats(stats_path)
    return [markdown_path, stats_path]
