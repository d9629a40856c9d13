"""Unit-of-measure inference and the SIM201-SIM203 rule family.

The simulator's contract is "integer nanoseconds and integer bytes
everywhere" (``repro/common/units.py``).  This pass infers a unit fact
for every expression from three sources and checks their composition:

* **name suffixes** — ``lat_ns`` is ns, ``nbytes`` is bytes, ``_lba``
  is sectors, ``_ppn``/``_lpn`` is pages, ``freq_hz`` is hz, and
  ``_us``/``_ms`` declare *sub-scale* time values that must be
  converted before they meet ns arithmetic;
* **``repro.common.units`` constants** — ``US``/``MS``/``SEC`` are
  ns-denominated conversion factors (``3 * US`` *is* 3 us expressed in
  ns), ``KB``/``MB``/``GB`` are byte quantities, ``MHZ``/``GHZ`` hz;
* **call summaries** — a function named ``*_ns`` returns ns; otherwise
  the callee's return expressions are inferred through the call graph
  (bounded depth, cycle-safe).

The algebra is deliberately small.  Quantities carry a base unit
(``ns us ms s bytes sectors pages hz``); conversion factors carry a
ratio (``US`` is ns-per-us).  Multiplying a us quantity by ``US``
yields ns; multiplying it by the *wrong* factor — or by another time
quantity — is a finding.  Adding, subtracting or comparing two
different base units is a finding.  Anything the pass cannot prove is
``unknown`` and stays silent: a finding means two *proven* facts
collided, never that inference gave up.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

from repro.analysis.flow.project import FunctionInfo, Project, ordered_body
from repro.analysis.registry import (
    ProjectSite,
    dotted_name,
    expand_alias,
    project_rule,
)

# -- the unit lattice ---------------------------------------------------------

#: base units a quantity can carry
TIME_UNITS = ("ns", "us", "ms", "s")
BASE_UNITS = TIME_UNITS + ("bytes", "sectors", "pages", "hz")


@dataclass(frozen=True)
class Unit:
    """A unit fact: a base quantity, or a num/den conversion ratio.

    ``Unit("ns")`` is a nanosecond quantity; ``Unit("ns", "us")`` is a
    ns-per-us conversion factor; ``Unit("ns", "byte")`` is what
    :func:`repro.common.units.ns_per_byte` returns.
    """

    num: str
    den: Optional[str] = None

    def __str__(self) -> str:
        return self.num if self.den is None else f"{self.num}/{self.den}"

    @property
    def is_ratio(self) -> bool:
        return self.den is not None


#: units of the repro.common.units constants, by dotted name
_CONSTANT_UNITS: Dict[str, Unit] = {
    "NS": Unit("ns"),
    "US": Unit("ns", "us"),
    "MS": Unit("ns", "ms"),
    "SEC": Unit("ns", "s"),
    "KB": Unit("bytes"),
    "MB": Unit("bytes"),
    "GB": Unit("bytes"),
    "MHZ": Unit("hz"),
    "GHZ": Unit("hz"),
}

#: functions in repro.common.units with known return units
_HELPER_RETURNS: Dict[str, Unit] = {
    "transfer_ns": Unit("ns"),
    "cycles_to_ns": Unit("ns"),
    "ns_per_byte": Unit("ns", "bytes"),
}

#: the sanctioned byte->time conversion helpers (SIM203)
_SANCTIONED_CONVERTERS = ("transfer_ns", "ns_per_byte", "cycles_to_ns")

#: name-suffix table; checked longest-suffix-first on the lowercased name
_SUFFIX_UNITS: Tuple[Tuple[str, str], ...] = (
    ("_ns", "ns"), ("_us", "us"), ("_ms", "ms"),
    ("bytes", "bytes"), ("_lba", "sectors"), ("_slba", "sectors"),
    ("_ppn", "pages"), ("_lpn", "pages"), ("_hz", "hz"),
)

#: exact lowercased names with units (too short for suffix matching)
_EXACT_UNITS: Dict[str, str] = {
    "ns": "ns", "lba": "sectors", "slba": "sectors",
    "ppn": "pages", "lpn": "pages", "hz": "hz", "nbytes": "bytes",
}

#: calls that return a unitless count / preserve nothing
_SCALAR_CALLS = {"len", "range", "enumerate", "id", "hash", "ord"}

#: calls that preserve the unit of their (first) argument
_PRESERVING_CALLS = {"abs", "round", "int", "float", "min", "max"}

#: singular/plural word -> base unit, for `X_per_Y` ratio names
_UNIT_WORDS: Dict[str, str] = {
    "ns": "ns", "us": "us", "ms": "ms", "s": "s", "sec": "s",
    "byte": "bytes", "bytes": "bytes",
    "sector": "sectors", "sectors": "sectors", "lba": "sectors",
    "page": "pages", "pages": "pages", "ppn": "pages", "lpn": "pages",
    "hz": "hz",
}


def unit_of_identifier(name: str) -> Optional[Unit]:
    """The unit a bare identifier declares through its (suffix) name.

    ``X_per_Y`` names declare conversion ratios when both sides name a
    unit: ``sectors_per_page`` is sectors/pages, so dividing a sector
    count by it is understood as a pages result.
    """
    lowered = name.lower()
    if "_per_" in lowered:
        left, _, right = lowered.rpartition("_per_")
        num = _UNIT_WORDS.get(left.rpartition("_")[2])
        den = _UNIT_WORDS.get(right)
        if num is not None and den is not None:
            return Unit(num, den)
        return None
    exact = _EXACT_UNITS.get(lowered)
    if exact is not None:
        return Unit(exact)
    for suffix, base in _SUFFIX_UNITS:
        if lowered.endswith(suffix):
            return Unit(base)
    return None


# -- inference ----------------------------------------------------------------

@dataclass
class _UnitViolation:
    rule: str
    node: ast.AST
    message: str
    witness: Tuple[str, ...]


class _FunctionUnits:
    """One pass over a function: infer units, record violations."""

    def __init__(self, checker: "UnitChecker", func: FunctionInfo) -> None:
        self.checker = checker
        self.func = func
        self.env: Dict[str, Tuple[Unit, str]] = {}   # name -> (unit, origin)
        self.violations: List[_UnitViolation] = []
        self._quiet = 0      # >0: re-examining an expression; no reports
        for param in func.params:
            declared = unit_of_identifier(param)
            if declared is not None:
                self.env[param] = (declared, f"parameter `{param}`")

    def report(self, violation: _UnitViolation) -> None:
        if not self._quiet:
            self.violations.append(violation)

    def infer_quiet(self, node: ast.expr) -> Optional[Tuple[Unit, str]]:
        """Infer without reporting (for re-examined subexpressions)."""
        self._quiet += 1
        try:
            return self.infer(node)
        finally:
            self._quiet -= 1

    # -- entry -------------------------------------------------------------

    def run(self) -> List[_UnitViolation]:
        declared_return = unit_of_identifier(self.func.name)
        for stmt in ordered_body(self.func.node):
            self.visit_stmt(stmt, declared_return)
        return self.violations

    # -- statements --------------------------------------------------------

    def visit_stmt(self, stmt: ast.stmt,
                   declared_return: Optional[Unit]) -> None:
        if isinstance(stmt, ast.Assign):
            fact = self.infer(stmt.value)
            for target in stmt.targets:
                self.check_binding(target, stmt.value, fact)
                if isinstance(target, ast.Name):
                    self.bind(target.id, stmt.value, fact)
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            fact = self.infer(stmt.value)
            self.check_binding(stmt.target, stmt.value, fact)
            if isinstance(stmt.target, ast.Name):
                self.bind(stmt.target.id, stmt.value, fact)
        elif isinstance(stmt, ast.AugAssign):
            if isinstance(stmt.op, (ast.Add, ast.Sub)):
                left = self.fact_of_target(stmt.target)
                right = self.infer(stmt.value)
                self.check_additive(stmt, left, right)
        elif isinstance(stmt, ast.Return) and stmt.value is not None:
            fact = self.infer(stmt.value)
            if declared_return is not None:
                self.check_flow(
                    stmt.value, fact, declared_return,
                    f"return from `{self.func.name}()` "
                    f"(declared {declared_return} by its name)")
        else:
            for expr in self._stmt_exprs(stmt):
                self.infer(expr)

    @staticmethod
    def _stmt_exprs(stmt: ast.stmt) -> Iterator[ast.expr]:
        for field_name in ("value", "test", "iter"):
            value = getattr(stmt, field_name, None)
            if isinstance(value, ast.expr):
                yield value

    def bind(self, name: str, value: ast.expr,
             fact: Optional[Tuple[Unit, str]]) -> None:
        declared = unit_of_identifier(name)
        if fact is not None:
            self.env[name] = fact
        elif declared is not None:
            self.env[name] = (declared, f"name `{name}`")

    def fact_of_target(self, target: ast.expr) -> Optional[Tuple[Unit, str]]:
        if isinstance(target, ast.Name):
            if target.id in self.env:
                return self.env[target.id]
            declared = unit_of_identifier(target.id)
            if declared is not None:
                return declared, f"name `{target.id}`"
        elif isinstance(target, ast.Attribute):
            declared = unit_of_identifier(target.attr)
            if declared is not None:
                return declared, f"attribute `.{target.attr}`"
        return None

    # -- checks ------------------------------------------------------------

    def check_binding(self, target: ast.expr, value: ast.expr,
                      fact: Optional[Tuple[Unit, str]]) -> None:
        declared = self.fact_of_target(target)
        if declared is None:
            return
        name = ast.unparse(target)
        self.check_flow(value, fact, declared[0], f"assignment to `{name}`")
        if declared[0] == Unit("ns"):
            self.check_raw_byte_math(value, f"assignment to `{name}`")

    def check_flow(self, node: ast.expr, fact: Optional[Tuple[Unit, str]],
                   expected: Unit, context: str) -> None:
        """A value flowing into a context that declares ``expected``."""
        if fact is None or fact[0].is_ratio:
            return
        actual = fact[0]
        if actual == expected or actual.num not in BASE_UNITS:
            return
        if expected.num in TIME_UNITS and actual.num in TIME_UNITS:
            self.report(_UnitViolation(
                "SIM202", node,
                f"{context} mixes time scales: value is {actual} "
                f"({fact[1]}) but the target declares {expected}; "
                f"convert with the units constants "
                f"(`x_{actual.num} * {actual.num.upper()}`)",
                witness=(f"value: {actual} via {fact[1]}",
                         f"target: {expected} via {context}")))
        else:
            self.report(_UnitViolation(
                "SIM202", node,
                f"{context} changes units: value is {actual} ({fact[1]}) "
                f"but the target declares {expected}",
                witness=(f"value: {actual} via {fact[1]}",
                         f"target: {expected} via {context}")))

    def check_additive(self, node: ast.AST,
                       left: Optional[Tuple[Unit, str]],
                       right: Optional[Tuple[Unit, str]]) -> None:
        if left is None or right is None:
            return
        lu, ru = left[0], right[0]
        if lu.is_ratio or ru.is_ratio or lu == ru:
            return
        if lu.num in BASE_UNITS and ru.num in BASE_UNITS:
            self.report(_UnitViolation(
                "SIM201", node,
                f"mixed-unit arithmetic: {lu} ({left[1]}) and {ru} "
                f"({right[1]}) cannot be added/compared",
                witness=(f"left: {lu} via {left[1]}",
                         f"right: {ru} via {right[1]}")))

    def check_raw_byte_math(self, expr: ast.expr, context: str) -> None:
        """SIM203: bytes scaled by a raw literal reaching a time target."""
        if any(isinstance(n, ast.Call)
               and self._call_leaf(n) in _SANCTIONED_CONVERTERS
               for n in ast.walk(expr)):
            return
        for node in ast.walk(expr):
            if not (isinstance(node, ast.BinOp)
                    and isinstance(node.op, (ast.Mult, ast.Div))):
                continue
            sides = [(node.left, node.right), (node.right, node.left)]
            for unit_side, literal_side in sides:
                fact = self.infer_quiet(unit_side)
                if fact is None or fact[0] != Unit("bytes"):
                    continue
                if isinstance(literal_side, ast.Constant) and \
                        isinstance(literal_side.value, (int, float)):
                    self.report(_UnitViolation(
                        "SIM203", node,
                        f"raw-literal time math in {context}: bytes "
                        f"({fact[1]}) scaled by the bare literal "
                        f"{literal_side.value!r}; route byte->time "
                        "conversions through transfer_ns()/ns_per_byte()",
                        witness=(f"bytes operand via {fact[1]}",
                                 f"bare literal {literal_side.value!r}")))

    def _call_leaf(self, call: ast.Call) -> Optional[str]:
        dotted = dotted_name(call.func)
        return dotted.split(".")[-1] if dotted else None

    # -- expression inference ----------------------------------------------

    def infer(self, node: ast.expr) -> Optional[Tuple[Unit, str]]:
        """The (unit, origin) fact for an expression, or None."""
        if isinstance(node, ast.Name):
            if node.id in self.env:
                return self.env[node.id]
            const = self._constant_unit(node)
            if const is not None:
                return const
            declared = unit_of_identifier(node.id)
            if declared is not None:
                return declared, f"name `{node.id}`"
            return None
        if isinstance(node, ast.Attribute):
            const = self._constant_unit(node)
            if const is not None:
                return const
            declared = unit_of_identifier(node.attr)
            if declared is not None:
                return declared, f"attribute `.{node.attr}`"
            return None
        if isinstance(node, ast.BinOp):
            return self._infer_binop(node)
        if isinstance(node, ast.UnaryOp):
            return self.infer(node.operand)
        if isinstance(node, ast.Call):
            return self._infer_call(node)
        if isinstance(node, ast.Compare):
            left_fact = self.infer(node.left)
            for comparator in node.comparators:
                self.check_additive(node, left_fact, self.infer(comparator))
            return None
        if isinstance(node, ast.IfExp):
            return self.infer(node.body) or self.infer(node.orelse)
        if isinstance(node, ast.Subscript):
            return self.infer(node.value)
        if isinstance(node, (ast.Yield, ast.YieldFrom, ast.Await)) and \
                node.value is not None:
            self.infer(node.value)
            return None
        return None

    def _constant_unit(self, node: ast.expr) -> Optional[Tuple[Unit, str]]:
        dotted = dotted_name(node)
        if dotted is None:
            return None
        expanded = expand_alias(dotted, self.func.module.aliases)
        leaf = expanded.split(".")[-1]
        if leaf in _CONSTANT_UNITS and (
                expanded == leaf or "units" in expanded
                or "common" in expanded):
            return _CONSTANT_UNITS[leaf], f"constant `{leaf}`"
        return None

    def _infer_binop(self, node: ast.BinOp) -> Optional[Tuple[Unit, str]]:
        left = self.infer(node.left)
        right = self.infer(node.right)
        if isinstance(node.op, (ast.Add, ast.Sub)):
            self.check_additive(node, left, right)
            return left or right
        if isinstance(node.op, ast.Mult):
            return self._infer_mult(node, left, right)
        if isinstance(node.op, (ast.Div, ast.FloorDiv)):
            return self._infer_div(node, left, right)
        if isinstance(node.op, ast.Mod):
            return left
        return None

    def _infer_mult(self, node: ast.BinOp, left, right):
        if left is None and right is None:
            return None
        if left is None or right is None:       # scalar * U -> U
            return left or right
        lu, ru = left[0], right[0]
        for qty, factor in ((left, right), (right, left)):
            if not qty[0].is_ratio and factor[0].is_ratio:
                if qty[0].num == factor[0].den:      # us * ns/us -> ns
                    return (Unit(factor[0].num),
                            f"{qty[1]} converted by {factor[1]}")
                if qty[0].num in TIME_UNITS and \
                        factor[0].den in TIME_UNITS:
                    self.report(_UnitViolation(
                        "SIM202", node,
                        f"wrong conversion constant: {qty[0]} value "
                        f"({qty[1]}) scaled by {factor[0]} ({factor[1]}); "
                        f"a {qty[0]} value converts to ns with "
                        f"`{qty[0].num.upper()}`",
                        witness=(f"value: {qty[0]} via {qty[1]}",
                                 f"factor: {factor[0]} via {factor[1]}")))
                    return None
                if qty[0].num == "bytes" and factor[0].den == "byte":
                    return Unit(factor[0].num), \
                        f"{qty[1]} converted by {factor[1]}"
                return None
        if not lu.is_ratio and not ru.is_ratio and \
                lu.num in TIME_UNITS and ru.num in TIME_UNITS:
            self.report(_UnitViolation(
                "SIM201", node,
                f"time*time multiplication: {lu} ({left[1]}) * {ru} "
                f"({right[1]}) is never a duration; one operand needs "
                "a units conversion constant",
                witness=(f"left: {lu} via {left[1]}",
                         f"right: {ru} via {right[1]}")))
        return None

    def _infer_div(self, node: ast.BinOp, left, right):
        if left is None:
            return None
        if right is None:                        # U / scalar -> U
            return left
        lu, ru = left[0], right[0]
        if lu == ru:
            return None                          # U / U -> scalar
        if ru.is_ratio and not lu.is_ratio and lu.num == ru.num:
            return Unit(ru.den), f"{left[1]} divided by {right[1]}"
        return None

    def _infer_call(self, node: ast.Call) -> Optional[Tuple[Unit, str]]:
        leaf = self._call_leaf(node)
        arg_facts = [self.infer(arg) for arg in node.args]
        for kw in node.keywords:
            self.infer(kw.value)
        if leaf in _SCALAR_CALLS:
            return None
        if leaf in _PRESERVING_CALLS:
            for arg_pair in zip(arg_facts, arg_facts[1:]):
                self.check_additive(node, arg_pair[0], arg_pair[1])
            known = [f for f in arg_facts if f is not None]
            return known[0] if known else None
        if leaf in _HELPER_RETURNS:
            return _HELPER_RETURNS[leaf], f"call `{leaf}()`"
        # timeout(x): the canonical ns context
        if leaf == "timeout" and node.args:
            self.check_flow(node.args[0], arg_facts[0], Unit("ns"),
                            "`timeout()` argument (simulated-time ns)")
            self.check_raw_byte_math(node.args[0], "`timeout()` argument")
        self._check_call_args(node, arg_facts)
        summary = self.checker.return_unit_of_call(self.func, node)
        if summary is not None:
            return summary
        if leaf is not None:
            declared = unit_of_identifier(leaf)
            if declared is not None:
                return declared, f"call `{leaf}()` (name suffix)"
        return None

    def _check_call_args(self, node: ast.Call,
                         arg_facts: List[Optional[Tuple[Unit, str]]]) -> None:
        """Argument units must match suffix-declared parameter units."""
        targets = self.checker.project.resolve_call(self.func, node)
        if len(targets) != 1:
            return
        callee = targets[0]
        params = callee.params
        if params and params[0] in ("self", "cls"):
            params = params[1:]
        for index, arg in enumerate(node.args):
            if index >= len(params):
                break
            declared = unit_of_identifier(params[index])
            if declared is None:
                continue
            fact = arg_facts[index]
            if fact is not None:
                self.check_flow(
                    arg, fact, declared,
                    f"argument `{params[index]}` of "
                    f"`{callee.name}()`")


class UnitChecker:
    """Project-wide unit inference with memoized call summaries."""

    #: recursion depth cap for return-unit inference through calls
    MAX_DEPTH = 3

    def __init__(self, project: Project) -> None:
        self.project = project
        self._return_units: Dict[str, Optional[Tuple[Unit, str]]] = {}
        self._in_flight: set = set()

    def return_unit_of_call(self, caller: FunctionInfo,
                            call: ast.Call) -> Optional[Tuple[Unit, str]]:
        """The (unit, origin) a resolvable call returns, if known."""
        targets = self.project.resolve_call(caller, call)
        if len(targets) != 1:
            return None
        return self.return_unit(targets[0])

    def return_unit(self, func: FunctionInfo,
                    depth: int = 0) -> Optional[Tuple[Unit, str]]:
        """The unit ``func`` returns: name suffix first, else inferred."""
        declared = unit_of_identifier(func.name)
        if declared is not None:
            return declared, f"call `{func.name}()` (name suffix)"
        if func.qualname in self._return_units:
            return self._return_units[func.qualname]
        if depth >= self.MAX_DEPTH or func.qualname in self._in_flight:
            return None
        self._in_flight.add(func.qualname)
        try:
            walker = _FunctionUnits(self, func)
            units: List[Unit] = []
            origin = ""
            for stmt in ordered_body(func.node):
                if isinstance(stmt, ast.Assign) and \
                        len(stmt.targets) == 1 and \
                        isinstance(stmt.targets[0], ast.Name):
                    fact = walker.infer(stmt.value)
                    walker.bind(stmt.targets[0].id, stmt.value, fact)
                elif isinstance(stmt, ast.Return) and stmt.value is not None:
                    fact = walker.infer(stmt.value)
                    if fact is None:
                        self._return_units[func.qualname] = None
                        return None
                    units.append(fact[0])
                    origin = fact[1]
            result = None
            if units and all(u == units[0] for u in units):
                result = (units[0],
                          f"return of `{func.name}()` ({origin})")
            self._return_units[func.qualname] = result
            return result
        finally:
            self._in_flight.discard(func.qualname)


# -- the registered rules -----------------------------------------------------

def _run_units(project: Project,
               rule_id: str) -> Iterator[ProjectSite]:
    # the three SIM20x wrappers share one analysis, cached per project
    cache = getattr(project, "_unit_violations", None)
    if cache is None:
        checker = UnitChecker(project)
        cache = [(func, violation)
                 for func in project.all_functions()
                 for violation in _FunctionUnits(checker, func).run()]
        project._unit_violations = cache  # type: ignore[attr-defined]
    for func, violation in cache:
        if violation.rule != rule_id:
            continue
        node = violation.node
        yield ProjectSite(
            path=func.module.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            message=violation.message,
            witness=violation.witness)


@project_rule("SIM201", "mixed-unit-arithmetic",
              "Adding, subtracting or comparing two different measured "
              "units (ns + bytes, pages < sectors, a time*time product) "
              "is meaningless and almost always a lost conversion. Units "
              "are inferred from name suffixes (`lat_ns`, `nbytes`, "
              "`_lba`, `_ppn`, `_hz`), the repro.common.units constants, "
              "and callee return summaries through the call graph; only "
              "two *proven* facts ever collide, so a finding is evidence, "
              "not a guess.")
def check_mixed_units(project: Project) -> Iterator[ProjectSite]:
    yield from _run_units(project, "SIM201")


@project_rule("SIM202", "unit-changing-assignment",
              "A value with a proven unit flowing into a target that "
              "declares a different one — `lat_ns = nbytes`, a us value "
              "passed for a `_ns` parameter, a `*_us` quantity entering "
              "ns arithmetic unconverted, or a value scaled by the wrong "
              "units constant. The integer-ns contract only holds if "
              "every scale change goes through the units constants.")
def check_unit_assignment(project: Project) -> Iterator[ProjectSite]:
    yield from _run_units(project, "SIM202")


@project_rule("SIM203", "raw-literal-time-math",
              "A bytes quantity scaled by a bare numeric literal on its "
              "way into a time context (a `_ns` target or a `timeout()` "
              "argument) is a hand-rolled bandwidth conversion; it skips "
              "the rounding and minimum-latency rules of transfer_ns()/"
              "ns_per_byte() and silently drifts from every other "
              "transfer in the model.")
def check_raw_literal_time(project: Project) -> Iterator[ProjectSite]:
    yield from _run_units(project, "SIM203")
