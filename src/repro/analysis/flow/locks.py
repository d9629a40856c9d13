"""Static lock-order deadlock detection — the SIM220 rule.

The simulator's :class:`repro.sim.resources.Resource` is a counted
lock: a process that acquires die then channel while a peer acquires
channel then die can deadlock, and — because simulated time only moves
when events fire — a simulated deadlock freezes the whole run at a
fixed timestamp, which is miserable to debug from a trace.

This pass builds a static **acquire-order graph**: a directed edge
``A -> B`` whenever some function acquires lock ``B`` while already
holding lock ``A``; ``B.hold(...)`` acquires ``B`` as ``B.acquire()``
does.  Holding is tracked through an ordered walk of each
function body (``try/finally`` release pairing included), and the
analysis is interprocedural: a function's summary lists every lock it
transitively acquires, with locks received as *parameters* resolved at
each call site (so ``self._traced_acquire(self.die_resource(u), ...)``
counts as a ``die_resource`` acquisition in the caller).

Lock **identity** is heuristic but deterministic: ``self.attr`` is
``Class.attr``; an acquire on a call result is named by the callee
(``self.die_resource(unit).acquire()`` -> ``die_resource``); subscripts
name the underlying container; a local variable resolves through its
assignment.  Identities are class-level, so two *different* die indexes
map to one node — that collapses per-instance detail, which is exactly
what lock *ordering* disciplines are about.

A cycle in the graph (ignoring self-edges, which model multi-unit
acquisition of one resource class in a fixed index order) is reported
once, located at its lexicographically smallest acquire site, with the
acquire sites of every edge as the witness path.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.analysis.flow.project import (
    FunctionInfo,
    Project,
    ordered_body,
)
from repro.analysis.registry import ProjectSite, project_rule
from repro.analysis.rules import ACQUIRE_CALLS

#: longest simple cycle searched for (deadlocks beyond this are rare
#: and the search is exponential in this bound)
MAX_CYCLE_LEN = 5


@dataclass(frozen=True)
class _Acquire:
    """One (transitive) acquisition in a function summary."""

    lock: str            # lock identity, or "param:N"
    path: str
    line: int
    describe: str        # human-readable site, e.g. "backend.py:120"


@dataclass(frozen=True)
class _Edge:
    """``src`` held while ``dst`` acquired, with both acquire sites."""

    src: str
    dst: str
    path: str
    line: int
    witness: Tuple[str, ...]


class _FunctionLocks:
    """Ordered walk of one function: held-set tracking + edges."""

    def __init__(self, analyzer: "LockAnalyzer",
                 func: FunctionInfo) -> None:
        self.analyzer = analyzer
        self.func = func
        self.env: Dict[str, str] = {}            # var -> lock identity
        self.held: List[_Acquire] = []
        self.acquired: Dict[str, _Acquire] = {}  # summary (first site wins)
        params = func.params
        if func.class_name is not None and params and \
                params[0] in ("self", "cls"):
            params = params[1:]
        self.params = params

    def _where(self, node: ast.AST) -> str:
        return f"{self.func.module.path}:{getattr(node, 'lineno', 1)}"

    # -- lock identity -----------------------------------------------------

    def lock_id(self, node: ast.expr) -> Optional[str]:
        """The static identity of the lock object ``node`` names."""
        if isinstance(node, ast.Subscript):
            return self.lock_id(node.value)
        if isinstance(node, ast.Attribute):
            base = node.value
            if isinstance(base, ast.Name) and base.id in ("self", "cls"):
                owner = self.func.class_name or self.func.module.name
                return f"{owner}.{node.attr}"
            return node.attr
        if isinstance(node, ast.Call):
            inner = node.func
            if isinstance(inner, ast.Attribute):
                return inner.attr
            if isinstance(inner, ast.Name):
                return inner.id
            return None
        if isinstance(node, ast.Name):
            if node.id in self.env:
                return self.env[node.id]
            if node.id in self.params:
                return f"param:{self.params.index(node.id)}"
            return node.id
        return None

    # -- walk --------------------------------------------------------------

    def run(self) -> None:
        for stmt in ordered_body(self.func.node):
            self.visit_stmt(stmt)

    def visit_stmt(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1 and \
                isinstance(stmt.targets[0], ast.Name):
            identity = self.lock_id(stmt.value) \
                if isinstance(stmt.value, (ast.Attribute, ast.Subscript,
                                           ast.Call)) else None
            if identity is not None:
                self.env[stmt.targets[0].id] = identity
        for expr in self._stmt_exprs(stmt):
            for node in ast.walk(expr):
                if isinstance(node, ast.Call):
                    self.visit_call(node)

    @staticmethod
    def _stmt_exprs(stmt: ast.stmt) -> Iterator[ast.expr]:
        for field_name in ("value", "test", "iter"):
            value = getattr(stmt, field_name, None)
            if isinstance(value, ast.expr):
                yield value

    def visit_call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr in ACQUIRE_CALLS:
            identity = self.lock_id(func.value)
            if identity is not None:
                self.record_acquire(
                    _Acquire(identity, self.func.module.path,
                             getattr(node, "lineno", 1),
                             f"`{identity}.{func.attr}()` at "
                             f"{self._where(node)} in "
                             f"`{self.func.name}()`"))
            return
        if isinstance(func, ast.Attribute) and func.attr == "release":
            identity = self.lock_id(func.value)
            if identity is not None:
                for index in range(len(self.held) - 1, -1, -1):
                    if self.held[index].lock == identity:
                        del self.held[index]
                        break
            return
        targets = self.analyzer.project.resolve_call(self.func, node)
        if len(targets) == 1 and targets[0].qualname != self.func.qualname:
            self.apply_summary(node, targets[0])

    def record_acquire(self, acq: _Acquire) -> None:
        for holder in self.held:
            self.analyzer.add_edge(holder, acq)
        # one held entry per identity: the ordered walk visits *both*
        # arms of a branch (e.g. traced vs untraced acquisition of the
        # same resource), which would otherwise leave a phantom lock
        # held after its single release
        if all(holder.lock != acq.lock for holder in self.held):
            self.held.append(acq)
        self.acquired.setdefault(acq.lock, acq)

    def apply_summary(self, node: ast.Call,
                      callee: FunctionInfo) -> None:
        """Edges + summary contributions from a resolved call."""
        summary = self.analyzer.summary(callee)
        if not summary:
            return
        escaping = set(self.analyzer.escapes(callee))
        for acq in summary.values():
            identity = acq.lock
            if identity.startswith("param:"):
                index = int(identity.split(":", 1)[1])
                if index >= len(node.args):
                    continue
                identity = self.lock_id(node.args[index])
                if identity is None:
                    continue
            describe = acq.describe.replace(f"`{acq.lock}.", f"`{identity}.")
            resolved = _Acquire(
                identity, acq.path, acq.line,
                f"`{callee.name}()` called at {self._where(node)}; "
                f"{describe}")
            for holder in self.held:
                self.analyzer.add_edge(holder, resolved)
            if acq.lock in escaping and all(
                    holder.lock != identity for holder in self.held):
                # the callee returns with this lock held: the caller
                # now holds it (and must release it itself)
                self.held.append(resolved)
            self.acquired.setdefault(resolved.lock, resolved)


class LockAnalyzer:
    """Project-wide acquire-order graph with cycle reporting."""

    def __init__(self, project: Project) -> None:
        self.project = project
        self._summaries: Dict[str, Dict[str, _Acquire]] = {}
        #: locks still held when the function returns (acquire-only
        #: helpers like the backend's ``_traced_acquire``)
        self._escapes: Dict[str, Tuple[str, ...]] = {}
        self._in_flight: Set[str] = set()
        #: src -> dst -> first edge seen
        self.graph: Dict[str, Dict[str, _Edge]] = {}

    def summary(self, func: FunctionInfo) -> Dict[str, _Acquire]:
        """Locks ``func`` transitively acquires (``param:N`` unresolved)."""
        if func.qualname in self._summaries:
            return self._summaries[func.qualname]
        if func.qualname in self._in_flight:
            return {}
        self._in_flight.add(func.qualname)
        try:
            walker = _FunctionLocks(self, func)
            walker.run()
            self._summaries[func.qualname] = walker.acquired
            self._escapes[func.qualname] = tuple(
                acq.lock for acq in walker.held)
            return walker.acquired
        finally:
            self._in_flight.discard(func.qualname)

    def escapes(self, func: FunctionInfo) -> Tuple[str, ...]:
        """Lock identities ``func`` still holds when it returns."""
        self.summary(func)
        return self._escapes.get(func.qualname, ())

    def add_edge(self, holder: _Acquire, acq: _Acquire) -> None:
        src, dst = holder.lock, acq.lock
        if src == dst or src.startswith("param:") or \
                dst.startswith("param:"):
            return
        self.graph.setdefault(src, {}).setdefault(dst, _Edge(
            src=src, dst=dst, path=acq.path, line=acq.line,
            witness=(f"holding `{src}`: {holder.describe}",
                     f"acquiring `{dst}`: {acq.describe}")))

    def run(self) -> None:
        for func in self.project.all_functions():
            self.summary(func)

    def cycles(self) -> List[List[str]]:
        """Simple cycles (len >= 2), each exactly once, rotated so the
        smallest lock name leads."""
        found: List[List[str]] = []
        for start in sorted(self.graph):
            stack: List[Tuple[str, List[str]]] = [(start, [start])]
            while stack:
                node, path = stack.pop()
                for succ in sorted(self.graph.get(node, {}), reverse=True):
                    if succ == start and len(path) > 1:
                        found.append(path[:])
                    elif succ > start and succ not in path and \
                            len(path) < MAX_CYCLE_LEN:
                        stack.append((succ, path + [succ]))
        return found


@project_rule("SIM220", "lock-order-cycle",
              "Two code paths acquire the same pair of Resources in "
              "opposite orders; under the right interleaving both "
              "processes block forever and simulated time freezes. The "
              "acquire-order graph is built per resource class over every "
              "function (interprocedurally — locks passed as parameters "
              "resolve at the call site), and every cycle is reported "
              "with the acquire sites that form it. Break the cycle by "
              "fixing one global acquisition order.")
def check_lock_order(project: Project) -> Iterator[ProjectSite]:
    analyzer = LockAnalyzer(project)
    analyzer.run()
    for cycle in analyzer.cycles():
        edges: List[_Edge] = []
        complete = True
        for index, src in enumerate(cycle):
            dst = cycle[(index + 1) % len(cycle)]
            edge = analyzer.graph.get(src, {}).get(dst)
            if edge is None:
                complete = False
                break
            edges.append(edge)
        if not complete:
            continue
        site = min(edges, key=lambda e: (e.path, e.line))
        order = " -> ".join(cycle + [cycle[0]])
        witness: List[str] = []
        for edge in edges:
            witness.extend(edge.witness)
        yield ProjectSite(
            path=site.path, line=site.line, col=0,
            message=f"lock-order cycle {order}: these resources are "
                    "acquired in opposite orders on different paths; "
                    "pick one global order",
            witness=tuple(witness[:2 * MAX_CYCLE_LEN]))
