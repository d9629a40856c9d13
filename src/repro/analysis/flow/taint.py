"""Interprocedural determinism taint — the SIM210 rule.

SIM102/SIM103/SIM110 flag nondeterminism at the *call site*: a
``time.time()`` read, a global-RNG draw, a set iteration.  They cannot
see a wall-clock value that is returned through two helper layers and
only then stored into model state — each individual function looks
innocent.  This pass can: it computes a **return-taint summary** for
every project function (which taint kinds its return value carries,
and which parameters flow through to the return), propagates taint
across resolved call edges, and reports when a tainted value reaches
**sim-visible state** — an attribute store, a ``timeout()`` delay, an
event ``succeed()`` payload.

Taint kinds:

* ``wallclock`` — the :data:`_WALLCLOCK` reads;
* ``rng`` — process-global RNG draws (``random.*``, ``os.urandom``,
  ``uuid.uuid4``) and unseeded ``random.Random()``;
* ``set-order`` — an ordered sequence materialized from a set
  (``list(seen)``) whose element order is hash-dependent.

``sorted()``/``min()``/``max()``/``sum()`` sanitize set-order taint;
``len()`` sanitizes everything (a count is order-free).

SIM210 deliberately reports only **interprocedural** flows — the
witness must contain at least one resolved call edge.  Same-function
flows are already covered (and suppressed, where sanctioned) by the
per-file rules; re-reporting them here would force every documented
SIM110 site to carry a second suppression.

The sanctioned wall-clock modules (SIM110's list) may store wall-clock
values *internally* — that is their job — so wallclock-kind sinks in
those files are skipped.  A wall-clock value **escaping** one of them
into ordinary simulation state is still reported: the boundary is the
module, not the call chain.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.analysis.flow.project import FunctionInfo, Project, ordered_body
from repro.analysis.registry import (
    ProjectSite,
    dotted_name,
    expand_alias,
    project_rule,
)
from repro.analysis.rules import (
    _GLOBAL_RNG_FNS,
    _WALLCLOCK,
    _in_wallclock_module,
)

#: kind -> witness chain (first hop is the source, later hops are call
#: edges); "param:N" pseudo-kinds appear only inside summaries
Taint = Dict[str, Tuple[str, ...]]

#: taint kinds that are reportable at a sink
_REPORTABLE = ("wallclock", "rng", "set-order")

#: longest witness chain kept on a finding
MAX_WITNESS_HOPS = 6

_SET_ORDER_CONVERTERS = {"list", "tuple", "iter", "reversed"}
_SET_ORDER_SANITIZERS = {"sorted", "min", "max", "sum"}
_RNG_EXTRA = {"os.urandom", "uuid.uuid4", "uuid.uuid1", "secrets.token_bytes",
              "secrets.token_hex", "secrets.randbits"}

#: event-visible call sinks: the argument becomes simulated behaviour
_CALL_SINKS = {"timeout", "succeed"}


def _merge(into: Taint, other: Taint) -> Taint:
    for kind, witness in other.items():
        into.setdefault(kind, witness)
    return into


def _with_hop(taint: Taint, hop: str) -> Taint:
    return {kind: (witness + (hop,))[:MAX_WITNESS_HOPS]
            for kind, witness in taint.items()}


def _crossed_call(witness: Tuple[str, ...]) -> bool:
    """Whether the chain includes at least one resolved call edge."""
    return any(hop.startswith("returned by ") for hop in witness)


class _Violation:
    def __init__(self, node: ast.AST, kind: str, message: str,
                 witness: Tuple[str, ...]) -> None:
        self.node = node
        self.kind = kind
        self.message = message
        self.witness = witness


class _FunctionTaint:
    """One pass over a function body: propagate taint, find sinks.

    In ``symbolic`` mode (summary computation) parameters carry
    ``param:N`` pseudo-taint and return taints are collected; in
    concrete mode sinks are checked and violations recorded.
    """

    def __init__(self, analyzer: "TaintAnalyzer", func: FunctionInfo,
                 symbolic: bool) -> None:
        self.analyzer = analyzer
        self.func = func
        self.symbolic = symbolic
        self.env: Dict[str, Taint] = {}
        self.returns: Taint = {}
        self.violations: List[_Violation] = []
        if symbolic:
            params = self._callee_params(func)
            for index, param in enumerate(params):
                self.env[param] = {
                    f"param:{index}":
                        (f"parameter `{param}` of `{func.name}()`",)}

    @staticmethod
    def _callee_params(func: FunctionInfo) -> List[str]:
        params = func.params
        if func.class_name is not None and params and \
                params[0] in ("self", "cls"):
            return params[1:]
        return params

    def _where(self, node: ast.AST) -> str:
        return f"{self.func.module.path}:{getattr(node, 'lineno', 1)}"

    # -- driver ------------------------------------------------------------

    def run(self) -> None:
        for stmt in ordered_body(self.func.node):
            self.visit_stmt(stmt)

    def visit_stmt(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, ast.Assign):
            taint = self.infer(stmt.value)
            for target in stmt.targets:
                self.store(target, stmt, taint)
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            self.store(stmt.target, stmt, self.infer(stmt.value))
        elif isinstance(stmt, ast.AugAssign):
            taint = self.infer(stmt.value)
            existing = self.env.get(stmt.target.id, {}) \
                if isinstance(stmt.target, ast.Name) else {}
            self.store(stmt.target, stmt, _merge(dict(taint), existing))
        elif isinstance(stmt, ast.Return):
            if stmt.value is not None:
                _merge(self.returns, self.infer(stmt.value))
        else:
            for field_name in ("value", "test", "iter"):
                value = getattr(stmt, field_name, None)
                if isinstance(value, ast.expr):
                    self.infer(value)

    def store(self, target: ast.expr, stmt: ast.stmt, taint: Taint) -> None:
        if isinstance(target, ast.Name):
            if taint:
                self.env[target.id] = taint
            else:
                self.env.pop(target.id, None)
            return
        if isinstance(target, ast.Tuple):
            for element in target.elts:
                self.store(element, stmt, taint)
            return
        # attribute / subscript store: sim-visible state
        described = ast.unparse(target)
        self.check_sink(stmt, taint, f"stored into `{described}`")

    # -- sinks -------------------------------------------------------------

    def check_sink(self, node: ast.AST, taint: Taint, what: str) -> None:
        if self.symbolic:
            return
        for kind in _REPORTABLE:
            witness = taint.get(kind)
            if witness is None or not _crossed_call(witness):
                continue
            if kind == "wallclock" and \
                    _in_wallclock_module(self.func.module.path):
                continue    # sanctioned module storing its own clock
            self.violations.append(_Violation(
                node, kind,
                f"{kind} value reaches sim-visible state: {what} in "
                f"`{self.func.name}()`; the witness path shows where the "
                "nondeterminism enters",
                witness=(witness + (f"{what} ({self._where(node)})",)
                         )[:MAX_WITNESS_HOPS]))

    # -- expression inference ----------------------------------------------

    def infer(self, node: ast.expr) -> Taint:
        if isinstance(node, ast.Name):
            return dict(self.env.get(node.id, {}))
        if isinstance(node, ast.Call):
            return self._infer_call(node)
        if isinstance(node, (ast.Set, ast.SetComp)):
            return {"setish": (f"set literal ({self._where(node)})",)}
        if isinstance(node, ast.DictComp):
            self.infer(node.value)
            return {}
        if isinstance(node, ast.BinOp):
            return _merge(self.infer(node.left), self.infer(node.right))
        if isinstance(node, ast.UnaryOp):
            return self.infer(node.operand)
        if isinstance(node, ast.BoolOp):
            taint: Taint = {}
            for value in node.values:
                _merge(taint, self.infer(value))
            return taint
        if isinstance(node, ast.Compare):
            taint = self.infer(node.left)
            for comparator in node.comparators:
                self.infer(comparator)
            return {}       # a comparison result is a bool, order-free
        if isinstance(node, ast.IfExp):
            self.infer(node.test)
            return _merge(self.infer(node.body), self.infer(node.orelse))
        if isinstance(node, (ast.Tuple, ast.List)):
            taint = {}
            for element in node.elts:
                _merge(taint, self.infer(element))
            return taint
        if isinstance(node, ast.Dict):
            taint = {}
            for value in node.values:
                if value is not None:
                    _merge(taint, self.infer(value))
            return taint
        if isinstance(node, ast.Subscript):
            self.infer(node.slice)
            return self.infer(node.value)
        if isinstance(node, ast.Attribute):
            return self.infer(node.value)
        if isinstance(node, ast.JoinedStr):
            taint = {}
            for value in node.values:
                if isinstance(value, ast.FormattedValue):
                    _merge(taint, self.infer(value.value))
            return taint
        if isinstance(node, ast.FormattedValue):
            return self.infer(node.value)
        if isinstance(node, (ast.Await, ast.Yield, ast.YieldFrom)) and \
                node.value is not None:
            return self.infer(node.value)
        if isinstance(node, ast.Starred):
            return self.infer(node.value)
        if isinstance(node, (ast.ListComp, ast.GeneratorExp)):
            for gen in node.generators:
                iter_taint = self.infer(gen.iter)
                if "setish" in iter_taint:
                    return {"set-order":
                            iter_taint["setish"] +
                            (f"materialized in hash order "
                             f"({self._where(node)})",)}
            return {}
        return {}

    def _infer_call(self, node: ast.Call) -> Taint:
        expanded = expand_alias(dotted_name(node.func),
                                self.func.module.aliases)
        leaf = expanded.split(".")[-1] if expanded else None

        source = self._source_taint(node, expanded)
        if source is not None:
            return source

        arg_taint: Taint = {}
        for arg in node.args:
            _merge(arg_taint, self.infer(arg))
        for kw in node.keywords:
            _merge(arg_taint, self.infer(kw.value))

        if leaf == "len":
            return {}
        if leaf in _SET_ORDER_SANITIZERS:
            return {kind: witness for kind, witness in arg_taint.items()
                    if kind not in ("setish", "set-order")}
        if leaf in ("set", "frozenset"):
            return {"setish": (f"`{leaf}()` ({self._where(node)})",)}
        if leaf in _SET_ORDER_CONVERTERS and node.args:
            first = self.infer(node.args[0])
            if "setish" in first:
                return {"set-order":
                        first["setish"] +
                        (f"`{leaf}()` materializes hash order "
                         f"({self._where(node)})",)}

        # call sinks: the argument becomes simulated behaviour
        if leaf in _CALL_SINKS and node.args:
            self.check_sink(node, self.infer(node.args[0]),
                            f"passed to `{leaf}()`")

        targets = self.analyzer.project.resolve_call(self.func, node)
        if len(targets) == 1:
            return self._apply_summary(node, targets[0])

        # unresolved: conservatively pass argument taint through
        if arg_taint and leaf is not None:
            return _with_hop(arg_taint,
                             f"through `{leaf}()` ({self._where(node)})")
        return arg_taint

    def _source_taint(self, node: ast.Call,
                      expanded: Optional[str]) -> Optional[Taint]:
        if expanded is None:
            return None
        where = self._where(node)
        if expanded in _WALLCLOCK:
            return {"wallclock":
                    (f"wall-clock read `{expanded}()` ({where})",)}
        if expanded in _RNG_EXTRA:
            return {"rng": (f"entropy read `{expanded}()` ({where})",)}
        if expanded == "random.Random" and not node.args and \
                not node.keywords:
            return {"rng": (f"unseeded `random.Random()` ({where})",)}
        if expanded.startswith("random.") and \
                expanded.split(".", 1)[1] in _GLOBAL_RNG_FNS:
            return {"rng":
                    (f"global-RNG draw `{expanded}()` ({where})",)}
        return None

    def _apply_summary(self, node: ast.Call,
                       callee: FunctionInfo) -> Taint:
        summary = self.analyzer.summary(callee)
        if not summary:
            return {}
        hop = f"returned by `{callee.name}()` ({self._where(node)})"
        result: Taint = {}
        params = self._callee_params(callee)
        for kind, witness in summary.items():
            if kind.startswith("param:"):
                index = int(kind.split(":", 1)[1])
                arg = self._param_argument(node, params, index)
                if arg is not None:
                    _merge(result, _with_hop(self.infer(arg), hop))
            else:
                result.setdefault(kind, (witness + (hop,))[:MAX_WITNESS_HOPS])
        return result

    @staticmethod
    def _param_argument(node: ast.Call, params: List[str],
                        index: int) -> Optional[ast.expr]:
        if index < len(node.args):
            return node.args[index]
        if index < len(params):
            wanted = params[index]
            for kw in node.keywords:
                if kw.arg == wanted:
                    return kw.value
        return None


class TaintAnalyzer:
    """Project-wide taint with memoized, cycle-safe return summaries."""

    def __init__(self, project: Project) -> None:
        self.project = project
        self._summaries: Dict[str, Taint] = {}
        self._in_flight: Set[str] = set()

    def summary(self, func: FunctionInfo) -> Taint:
        """Return-taint summary: concrete kinds + ``param:N`` flows."""
        if func.qualname in self._summaries:
            return self._summaries[func.qualname]
        if func.qualname in self._in_flight:
            return {}       # recursion: approximate with no taint
        self._in_flight.add(func.qualname)
        try:
            walker = _FunctionTaint(self, func, symbolic=True)
            walker.run()
            self._summaries[func.qualname] = walker.returns
            return walker.returns
        finally:
            self._in_flight.discard(func.qualname)

    def check(self) -> Iterator[Tuple[FunctionInfo, _Violation]]:
        for func in self.project.all_functions():
            walker = _FunctionTaint(self, func, symbolic=False)
            walker.run()
            for violation in walker.violations:
                yield func, violation


@project_rule("SIM210", "determinism-taint",
              "A wall-clock, global-RNG or set-iteration-order value "
              "travelling through helper returns into sim-visible state "
              "(an attribute store, a timeout() delay, a succeed() "
              "payload). The per-file rules see only the call site; this "
              "one follows the value across resolved call edges and "
              "prints the witness path. The sanctioned wall-clock modules "
              "(SIM110's list) may keep their own clock readings, but a "
              "reading that escapes them into ordinary model state is "
              "still a leak.")
def check_determinism_taint(project: Project) -> Iterator[ProjectSite]:
    analyzer = TaintAnalyzer(project)
    for func, violation in analyzer.check():
        node = violation.node
        yield ProjectSite(
            path=func.module.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            message=violation.message,
            witness=violation.witness)
