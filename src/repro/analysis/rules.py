"""The simulation-safety lint rules (docs/ANALYSIS.md has the catalog).

Each rule encodes one invariant the simulator's determinism or resource
accounting depends on.  They are deliberately pragmatic AST checks — a
finding means "this pattern has bitten us or trivially could", not a
proof of a bug; genuinely intentional sites carry a
``# simlint: disable=RULE -- reason`` suppression where they live.
"""

from __future__ import annotations

import ast
import os
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.analysis.registry import (
    Site,
    SourceFile,
    dotted_name,
    expand_alias,
    rule,
)

# -- SIM110: wall-clock reads outside the designated modules ------------------

_WALLCLOCK = {
    "time.time", "time.time_ns", "time.monotonic", "time.monotonic_ns",
    "time.perf_counter", "time.perf_counter_ns", "time.process_time",
    "time.process_time_ns", "time.localtime", "time.gmtime",
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.datetime.today", "datetime.date.today",
}

#: path fragments of the modules designated to read the wall clock:
#: benchmarking, the run journal, worker lifecycle stamps and trace
#: replay.  Checked against "/"-normalized paths.
_WALLCLOCK_MODULES = (
    "repro/bench/",
    "repro/obs/journal",
    "repro/fleet/runner",
    "repro/baselines/replay",
)


def _in_wallclock_module(path: str) -> bool:
    """Whether ``path`` is one of the designated wall-clock modules."""
    normalized = path.replace(os.sep, "/")
    return any(marker in normalized for marker in _WALLCLOCK_MODULES)


@rule("SIM110", "wall-clock-containment",
      "Host wall-clock reads are nondeterministic; simulated logic must "
      "derive every timestamp from `sim.now`. Wall-clock reads are only "
      "legal in the designated profiling modules (repro.bench, "
      "repro.obs.journal, repro.fleet.runner, repro.baselines.replay), "
      "whose outputs are declared wall-clock-tainted side artifacts, so "
      "`grep` over four modules audits every clock in the tree (the "
      "host-time profiler reads none: cProfile times itself). "
      "Anywhere else, route the read through "
      "repro.obs.journal.wall_now, move the code into a designated "
      "module, or — for the rare site that measures simulator speed "
      "itself — suppress it with the reason and keep its outputs in "
      "golden VOLATILE_KEYS.")
def check_wallclock_containment(src: SourceFile) -> Iterator[Site]:
    if _in_wallclock_module(src.path):
        return
    aliases = src.aliases
    for node in src.nodes:
        if isinstance(node, ast.Call):
            target = expand_alias(dotted_name(node.func), aliases)
            if target in _WALLCLOCK:
                yield node, node.col_offset, \
                    f"wall-clock read `{target}()` outside the designated " \
                    "profiling modules"


# -- SIM102: unseeded randomness ----------------------------------------------

_GLOBAL_RNG_FNS = {
    "random", "randint", "randrange", "choice", "choices", "shuffle",
    "sample", "uniform", "triangular", "gauss", "normalvariate",
    "expovariate", "betavariate", "paretovariate", "vonmisesvariate",
    "weibullvariate", "lognormvariate", "getrandbits", "randbytes", "seed",
}


@rule("SIM102", "unseeded-random",
      "The module-level `random.*` functions share one process-global, "
      "wall-clock-seeded RNG; any draw from it makes runs irreproducible. "
      "Construct `random.Random(seed)` and thread it explicitly.")
def check_unseeded_random(src: SourceFile) -> Iterator[Site]:
    aliases = src.aliases
    for node in src.nodes:
        if not isinstance(node, ast.Call):
            continue
        target = expand_alias(dotted_name(node.func), aliases)
        if target is None:
            continue
        if target.startswith("random.") and \
                target.split(".", 1)[1] in _GLOBAL_RNG_FNS:
            yield node, node.col_offset, \
                f"`{target}()` draws from the process-global RNG"
        elif target == "random.Random" and not node.args and not node.keywords:
            yield node, node.col_offset, \
                "`random.Random()` without a seed falls back to wall-clock " \
                "entropy"
        elif target.startswith("numpy.random.") or \
                target.startswith("np.random."):
            yield node, node.col_offset, \
                f"`{target}()` uses numpy's global RNG state; pass a " \
                "`numpy.random.Generator` seeded explicitly"


# -- SIM103: unordered iteration ----------------------------------------------


def _is_setish(node: ast.AST, set_names: Set[str]) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        return dotted_name(node.func) in {"set", "frozenset"}
    if isinstance(node, ast.BinOp) and \
            isinstance(node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)):
        return _is_setish(node.left, set_names) or \
            _is_setish(node.right, set_names)
    if isinstance(node, ast.Name):
        return node.id in set_names
    return False


@rule("SIM103", "unordered-iteration",
      "Iterating a set visits elements in hash order, which changes "
      "between interpreter runs under string-hash randomization; anything "
      "it feeds — event scheduling, float accumulation, victim selection — "
      "silently loses bit-reproducibility. Wrap the iterable in sorted().")
def check_unordered_iteration(src: SourceFile) -> Iterator[Site]:
    for scope in [src.tree, *src.functions()]:
        nodes = src.own_nodes(scope)
        assigns: List[Tuple[int, str, bool]] = []
        for node in nodes:
            if isinstance(node, ast.Assign) and len(node.targets) == 1 and \
                    isinstance(node.targets[0], ast.Name):
                assigns.append((node.lineno, node.targets[0].id,
                                _is_setish(node.value, set())))

        def latest_is_set(name: str, before: int) -> bool:
            prior = [is_set for line, n, is_set in assigns
                     if n == name and line <= before]
            return bool(prior) and prior[-1]

        for node in nodes:
            iters: List[ast.AST] = []
            if isinstance(node, ast.For):
                iters.append(node.iter)
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                                   ast.GeneratorExp)):
                iters.extend(gen.iter for gen in node.generators)
            for it in iters:
                set_names = {name for line, name, is_set in assigns if is_set}
                direct = _is_setish(it, set())
                via_name = isinstance(it, ast.Name) and \
                    it.id in set_names and \
                    latest_is_set(it.id, node.lineno)
                if direct or via_name:
                    yield node, node.col_offset, \
                        "iteration over a set is hash-ordered and not " \
                        "reproducible across runs; use sorted(...)"


# -- SIM104: events nobody waits on / processes that never yield --------------

_EVENT_MAKERS = {"timeout", "acquire", "hold"}


@rule("SIM104", "discarded-event",
      "An event nobody waits on is a silent no-op wait: it is still "
      "created (a timeout still *schedules* itself: it sits in the "
      "heap, advances nothing, and perturbs events_processed; a hold "
      "still takes its unit for its delay) but nobody resumes on it. "
      "Flags a wait primitive used as a bare statement and a timeout "
      "bound to a name that is never read again; `yield` it, pass it "
      "on, or don't create it. Also flags generator functions handed "
      "to `sim.process(...)` that contain no yield at all.")
def check_discarded_event(src: SourceFile) -> Iterator[Site]:
    # (a) expression statements that create-and-drop a wait
    for node in src.nodes:
        if not (isinstance(node, ast.Expr) and
                isinstance(node.value, ast.Call)):
            continue
        call = node.value
        func = call.func
        if isinstance(func, ast.Attribute):
            if func.attr in _EVENT_MAKERS:
                yield node, node.col_offset, \
                    f"result of `.{func.attr}(...)` is discarded; the " \
                    "wait never happens"
            elif func.attr == "get" and not call.args and not call.keywords:
                yield node, node.col_offset, \
                    "result of `.get()` is discarded; the item (or the " \
                    "wait for it) is lost"

    # (b) local functions driven as processes but containing no yield
    defs: Dict[str, List[ast.AST]] = {}
    for node in src.nodes:
        if isinstance(node, ast.FunctionDef):
            defs.setdefault(node.name, []).append(node)
    for node in src.nodes:
        if not isinstance(node, ast.Call):
            continue
        name = None
        if isinstance(node.func, ast.Attribute) and \
                node.func.attr in {"process", "run_process"}:
            if node.args and isinstance(node.args[0], ast.Call):
                inner = node.args[0].func
                name = inner.attr if isinstance(inner, ast.Attribute) else \
                    (inner.id if isinstance(inner, ast.Name) else None)
        if name and name in defs and \
                all(not any(isinstance(n, (ast.Yield, ast.YieldFrom))
                            for n in src.own_nodes(d))
                    for d in defs[name]):
            yield node, node.col_offset, \
                f"`{name}` is driven as a process but never yields; " \
                "`process()` requires a generator function"

    # (c) timeouts bound to a name the function never reads
    for func in src.functions():
        nodes = src.own_nodes(func)
        loaded = {node.id for node in nodes
                  if isinstance(node, ast.Name)
                  and isinstance(node.ctx, ast.Load)}
        for node in nodes:
            if not (isinstance(node, ast.Assign) and len(node.targets) == 1
                    and isinstance(node.targets[0], ast.Name)
                    and node.targets[0].id not in loaded
                    and isinstance(node.value, ast.Call)):
                continue
            call_func = node.value.func
            if isinstance(call_func, ast.Attribute) and \
                    call_func.attr == "timeout":
                yield node, node.col_offset, \
                    f"timeout bound to `{node.targets[0].id}` is never " \
                    "yielded or passed on — it still fires"


# -- SIM106: acquire/release pairing ------------------------------------------


def _finally_ranges(nodes: List[ast.AST]) -> List[Tuple[int, int]]:
    ranges = []
    for node in nodes:
        if isinstance(node, ast.Try) and node.finalbody:
            start = node.finalbody[0].lineno
            end = max(getattr(stmt, "end_lineno", stmt.lineno)
                      for stmt in node.finalbody)
            ranges.append((start, end))
    return ranges


@rule("SIM106", "acquire-release",
      "Every `Resource.acquire()` needs a `release()` on *all* exit "
      "paths of the same function: an exception (Interrupt, model "
      "error) thrown into the process between the two leaks the token "
      "and deadlocks every later waiter. Put the release in a "
      "try/finally when any yield sits between them. A "
      "`Resource.hold()` returns its unit when its timer fires and "
      "needs no release.")
def check_acquire_release(src: SourceFile) -> Iterator[Site]:
    for func in src.functions():
        nodes = src.own_nodes(func)
        acquires: List[Tuple[ast.Call, str]] = []
        releases: List[Tuple[ast.Call, str]] = []
        for node in nodes:
            if isinstance(node, ast.Call) and \
                    isinstance(node.func, ast.Attribute):
                if node.func.attr == "acquire":
                    acquires.append((node, ast.unparse(node.func.value)))
                elif node.func.attr == "release":
                    releases.append((node, ast.unparse(node.func.value)))
        if not acquires:
            continue
        protected = _finally_ranges(nodes)
        yield_lines = sorted(n.lineno for n in nodes
                             if isinstance(n, (ast.Yield, ast.YieldFrom)))
        for call, recv in acquires:
            matching = [(n, any(lo <= n.lineno <= hi for lo, hi in protected))
                        for n, r in releases if r == recv]
            if not matching:
                yield call, call.col_offset, \
                    f"`{recv}.{call.func.attr}()` has no matching " \
                    f"`{recv}.release()` in this function"
                continue
            after = [n.lineno for n, _p in matching if n.lineno > call.lineno]
            first_release = min(after) if after else max(
                n.lineno for n, _p in matching)
            crosses_yield = any(call.lineno < line < first_release
                                for line in yield_lines)
            if crosses_yield and not any(p for _n, p in matching):
                yield call, call.col_offset, \
                    f"`{recv}` is held across a yield but released " \
                    "outside try/finally; an exception leaks the token"


# -- SIM107: mutable default arguments ----------------------------------------

_MUTABLE_CALLS = {"list", "dict", "set", "bytearray", "deque",
                  "defaultdict", "OrderedDict", "Counter"}


@rule("SIM107", "mutable-default",
      "A mutable default argument is shared across every call and every "
      "simulator instance — state leaks between supposedly independent "
      "runs, the classic cross-run determinism bug. Default to None.")
def check_mutable_default(src: SourceFile) -> Iterator[Site]:
    for func in src.functions():
        args = func.args
        for default in list(args.defaults) + \
                [d for d in args.kw_defaults if d is not None]:
            bad = isinstance(default, (ast.List, ast.Dict, ast.Set,
                                       ast.ListComp, ast.DictComp,
                                       ast.SetComp))
            if not bad and isinstance(default, ast.Call):
                dotted = dotted_name(default.func)
                bad = dotted is not None and \
                    dotted.split(".")[-1] in _MUTABLE_CALLS
            if bad:
                yield default, default.col_offset, \
                    f"mutable default argument in `{func.name}()` is " \
                    "shared between calls"


# -- SIM109: fleet worker seeding ---------------------------------------------

#: substrings marking a function as a per-job/worker execution entry point
_WORKER_NAME_MARKERS = ("worker", "_job", "job_", "run_job")

#: names that, appearing anywhere in a seed expression, prove derivation
#: from the job's identity (config hash or a seed threaded from one)
_SEED_SOURCE_MARKERS = ("hash", "seed")

#: seed sources that vary with scheduling/host state, never with config
_FORBIDDEN_SEED_CALLS = {"os.getpid", "os.getppid", "os.urandom",
                         "uuid.uuid4", "id"}


def _seed_expr_verdict(expr: ast.AST,
                       aliases: Dict[str, str]) -> Optional[str]:
    """Why a worker seed expression is unacceptable, or None if fine."""
    for node in ast.walk(expr):
        if isinstance(node, ast.Call):
            target = expand_alias(dotted_name(node.func), aliases)
            if target in _FORBIDDEN_SEED_CALLS:
                return f"seeded from `{target}()`, which varies with " \
                       "scheduling, not with the job's configuration"
    mentions: List[str] = []
    for node in ast.walk(expr):
        if isinstance(node, ast.Name):
            mentions.append(node.id.lower())
        elif isinstance(node, ast.Attribute):
            mentions.append(node.attr.lower())
    derived = any(marker in name
                  for name in mentions
                  for marker in _SEED_SOURCE_MARKERS)
    if not derived:
        if not mentions:
            return "seeded from a constant: every job draws the same " \
                   "stream, so a fleet of 'independent' configs is N " \
                   "copies of one"
        return "seed does not derive from the job's config hash (no " \
               "`*hash*`/`*seed*` name in the expression)"
    return None


@rule("SIM109", "fleet-seed",
      "A worker-process RNG must be seeded from the job's config hash "
      "(repro.fleet.spec.derive_seed) — never from a constant, a pid, or "
      "the clock. A constant collapses the fleet onto one stream; "
      "pid/clock seeds make results depend on which worker ran the job, "
      "breaking the 1-worker == N-worker determinism guarantee and "
      "poisoning the content-addressed result cache.")
def check_fleet_seed(src: SourceFile) -> Iterator[Site]:
    aliases = src.aliases
    for func in src.functions():
        name = func.name.lower()
        if not any(marker in name for marker in _WORKER_NAME_MARKERS):
            continue
        for node in src.own_nodes(func):
            if not isinstance(node, ast.Call):
                continue
            target = expand_alias(dotted_name(node.func), aliases)
            seed_args: List[ast.AST] = []
            if target == "random.Random" and node.args:
                seed_args.append(node.args[0])
            elif isinstance(node.func, ast.Attribute) and \
                    node.func.attr == "seed" and node.args:
                seed_args.append(node.args[0])
            for arg in seed_args:
                verdict = _seed_expr_verdict(arg, aliases)
                if verdict is not None:
                    yield node, node.col_offset, \
                        f"worker `{func.name}` {verdict}"
