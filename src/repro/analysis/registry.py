"""The simlint rule registry and lint driver.

Two kinds of rules register here:

* **per-file rules** (:func:`rule`) — ``(SourceFile) -> iterator of
  (node_or_line, col, message)``; pragmatic single-module AST checks.
  They live in :mod:`repro.analysis.rules`.
* **project rules** (:func:`project_rule`) — ``(Project) -> iterator of
  ProjectSite``; whole-program dataflow checks that see every module at
  once (call graph, unit lattice, taint, lock order).  They live in
  :mod:`repro.analysis.flow`.

The driver (:func:`lint_source` / :func:`lint_paths`) parses each file
once, runs both rule families and applies the per-line suppressions
from :mod:`repro.analysis.findings`, the one way to silence a finding.
"""

from __future__ import annotations

import ast
import os
from dataclasses import dataclass
from functools import cached_property
from typing import (
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.analysis.findings import (
    META_RULE,
    Finding,
    FindingSet,
    Suppression,
    parse_suppressions,
)

#: what a per-file rule yields: (AST node or 1-based line, column, message)
Site = Tuple[Union[ast.AST, int], int, str]


@dataclass(frozen=True)
class ProjectSite:
    """One whole-project finding site: where, what, and how we got there.

    ``witness`` is the human-readable evidence chain — inferred units
    and their origins, the call path a tainted value travelled, the
    acquire sites forming a lock cycle — rendered one hop per entry.
    """

    path: str
    line: int
    col: int
    message: str
    witness: Tuple[str, ...] = ()


@dataclass
class SourceFile:
    """One parsed module: path, text, AST, and parsed suppressions.

    The rules share one walk of the tree: :attr:`nodes`,
    :meth:`functions`, :meth:`own_nodes` and :attr:`aliases` are
    computed on first use and kept.
    """

    path: str
    source: str
    tree: ast.Module
    suppressions: Dict[int, Suppression]

    @classmethod
    def parse(cls, path: str, source: Optional[str] = None) -> "SourceFile":
        if source is None:
            with open(path, encoding="utf-8") as handle:
                source = handle.read()
        tree = ast.parse(source, filename=path)
        return cls(path=path, source=source, tree=tree,
                   suppressions=parse_suppressions(source))

    @cached_property
    def nodes(self) -> List[ast.AST]:
        """Every node of the tree, in ``ast.walk`` order."""
        return list(ast.walk(self.tree))

    @cached_property
    def _functions(self) -> List[ast.AST]:
        return [node for node in self.nodes
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]

    def functions(self) -> Iterator[ast.AST]:
        """Every function/method definition, outermost first."""
        return iter(self._functions)

    @cached_property
    def _own_nodes(self) -> Dict[ast.AST, List[ast.AST]]:
        return {}

    def own_nodes(self, scope: ast.AST) -> List[ast.AST]:
        """The nodes of a function's (or the module's) own body.

        Nested function and lambda definitions are listed but not
        entered.  Each scope is walked once.
        """
        nodes = self._own_nodes.get(scope)
        if nodes is None:
            nodes = self._own_nodes[scope] = []
            stack: List[ast.AST] = list(ast.iter_child_nodes(scope))
            while stack:
                node = stack.pop()
                nodes.append(node)
                if not isinstance(node, (ast.FunctionDef,
                                         ast.AsyncFunctionDef, ast.Lambda)):
                    stack.extend(ast.iter_child_nodes(node))
        return nodes

    @cached_property
    def aliases(self) -> Dict[str, str]:
        """Map local names to the dotted thing they import.

        ``import time as _time`` -> ``{"_time": "time"}``;
        ``from random import randint`` -> ``{"randint": "random.randint"}``.
        The whole-project model (:class:`repro.analysis.flow.Project`)
        reads this same map.
        """
        aliases: Dict[str, str] = {}
        for node in self.nodes:
            if isinstance(node, ast.Import):
                for name in node.names:
                    aliases[name.asname or name.name.split(".")[0]] = \
                        name.name
            elif isinstance(node, ast.ImportFrom) and node.module \
                    and not node.level:
                for name in node.names:
                    if name.name != "*":
                        aliases[name.asname or name.name] = \
                            f"{node.module}.{name.name}"
        return aliases


def dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, else None."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def expand_alias(dotted: Optional[str],
                 aliases: Dict[str, str]) -> Optional[str]:
    """Expand the leading import alias of a dotted name, if any.

    None passes through, so ``expand_alias(dotted_name(node), aliases)``
    is the fully-qualified name of any expression, or None.
    """
    if dotted is None:
        return None
    head, _, rest = dotted.partition(".")
    expansion = aliases.get(head)
    if expansion is None:
        return dotted
    return f"{expansion}.{rest}" if rest else expansion


@dataclass(frozen=True)
class Rule:
    """A registered per-file rule: stable ID, name, rationale, checker."""

    id: str
    name: str
    rationale: str
    check: Callable[[SourceFile], Iterable[Site]]


@dataclass(frozen=True)
class ProjectRule:
    """A registered whole-project rule."""

    id: str
    name: str
    rationale: str
    check: Callable[..., Iterable[ProjectSite]]


_RULES: Dict[str, Rule] = {}
_PROJECT_RULES: Dict[str, ProjectRule] = {}


def rule(rule_id: str, name: str,
         rationale: str) -> Callable[[Callable[[SourceFile], Iterable[Site]]],
                                     Callable[[SourceFile], Iterable[Site]]]:
    """Decorator: register ``func`` as the checker for ``rule_id``."""
    def wrap(func: Callable[[SourceFile], Iterable[Site]]
             ) -> Callable[[SourceFile], Iterable[Site]]:
        if rule_id in _RULES or rule_id in _PROJECT_RULES:
            raise ValueError(f"duplicate rule id {rule_id}")
        _RULES[rule_id] = Rule(rule_id, name, rationale, func)
        return func
    return wrap


def project_rule(rule_id: str, name: str, rationale: str) -> Callable:
    """Decorator: register a whole-project checker for ``rule_id``."""
    def wrap(func: Callable[..., Iterable[ProjectSite]]) -> Callable:
        if rule_id in _RULES or rule_id in _PROJECT_RULES:
            raise ValueError(f"duplicate rule id {rule_id}")
        _PROJECT_RULES[rule_id] = ProjectRule(rule_id, name, rationale, func)
        return func
    return wrap


def all_rules() -> List[Rule]:
    """Every per-file rule, by ID (importing ``rules`` populates them)."""
    import repro.analysis.rules  # noqa: F401  (registration side effect)
    return [_RULES[k] for k in sorted(_RULES)]


def all_project_rules() -> List[ProjectRule]:
    """Every project rule, by ID (importing ``flow`` populates them)."""
    import repro.analysis.flow  # noqa: F401  (registration side effect)
    return [_PROJECT_RULES[k] for k in sorted(_PROJECT_RULES)]


def _site_location(site: Site) -> Tuple[int, int]:
    node, col, _msg = site
    if isinstance(node, int):
        return node, col
    return getattr(node, "lineno", 1), getattr(node, "col_offset", col)


def _apply_suppression(finding: Finding,
                       suppressions: Dict[int, Suppression]) -> Finding:
    """Mark ``finding`` suppressed when a covering directive sits on
    its line."""
    supp = suppressions.get(finding.line)
    if supp is not None and supp.covers(finding.rule):
        return Finding(rule=finding.rule, path=finding.path,
                       line=finding.line, col=finding.col,
                       message=finding.message, suppressed=True,
                       reason=supp.reason, witness=finding.witness)
    return finding


def _file_findings(src: SourceFile, rules: Sequence[Rule]) -> List[Finding]:
    """Per-file rule findings for one module, suppressions applied."""
    findings: List[Finding] = []
    for lint_rule in rules:
        for site in lint_rule.check(src):
            line, col = _site_location(site)
            findings.append(_apply_suppression(
                Finding(rule=lint_rule.id, path=src.path, line=line,
                        col=col, message=site[2]), src.suppressions))
    return findings


def _suppression_meta(src: SourceFile,
                      findings: Sequence[Finding]) -> List[Finding]:
    """SIM100 findings for bare or useless suppressions in one file."""
    meta: List[Finding] = []
    hit_lines = {f.line for f in findings
                 if f.suppressed and f.path == src.path}
    for lineno, supp in sorted(src.suppressions.items()):
        if not supp.reason:
            meta.append(Finding(
                rule=META_RULE, path=src.path, line=lineno, col=0,
                message="suppression must carry a reason "
                        "(`# simlint: disable=RULE -- why`)"))
        elif lineno not in hit_lines:
            meta.append(Finding(
                rule=META_RULE, path=src.path, line=lineno, col=0,
                message=f"useless suppression of {', '.join(supp.rules)}: "
                        "nothing to silence on this line"))
    return meta


def _project_findings(sources: Sequence[SourceFile],
                      project_rules: Sequence[ProjectRule]) -> List[Finding]:
    """Whole-project findings over ``sources``, suppressions applied."""
    if not project_rules:
        return []
    from repro.analysis.flow import Project
    project = Project(sources)
    supp_by_path = {src.path: src.suppressions for src in sources}
    findings: List[Finding] = []
    for prule in project_rules:
        for site in prule.check(project):
            findings.append(_apply_suppression(
                Finding(rule=prule.id, path=site.path, line=site.line,
                        col=site.col, message=site.message,
                        witness=site.witness),
                supp_by_path.get(site.path, {})))
    return findings


def _sort_findings(findings: List[Finding]) -> List[Finding]:
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule, f.message))
    return findings


def lint_source(path: str, source: Optional[str] = None,
                rules: Optional[Iterable[Rule]] = None,
                project_rules: Optional[Iterable[ProjectRule]] = None,
                ) -> List[Finding]:
    """Lint one module; returns every finding (suppressed ones marked).

    Project rules run over a one-module project: interprocedural
    analysis still covers every flow *within* the file.
    """
    selected = list(rules) if rules is not None else all_rules()
    selected_project = list(project_rules) if project_rules is not None \
        else all_project_rules()
    try:
        src = SourceFile.parse(path, source)
    except SyntaxError as exc:
        return [Finding(rule=META_RULE, path=path, line=exc.lineno or 1,
                        col=exc.offset or 0,
                        message=f"file does not parse: {exc.msg}")]
    findings = _file_findings(src, selected)
    findings.extend(_project_findings([src], selected_project))
    findings.extend(_suppression_meta(src, findings))
    return _sort_findings(findings)


def iter_python_files(paths: Iterable[str],
                      exclude: Sequence[str] = ()) -> Iterator[str]:
    """Expand files/directories into a sorted stream of ``*.py`` paths.

    ``exclude`` drops any path containing one of the given fragments
    (matched against the "/"-normalized path).
    """
    def excluded(path: str) -> bool:
        normalized = path.replace(os.sep, "/")
        return any(fragment in normalized for fragment in exclude)

    for path in paths:
        if os.path.isdir(path):
            for dirpath, dirnames, filenames in os.walk(path):
                dirnames.sort()
                for name in sorted(filenames):
                    if name.endswith(".py"):
                        full = os.path.join(dirpath, name)
                        if not excluded(full):
                            yield full
        elif not excluded(path):
            yield path


def lint_paths(paths: Iterable[str],
               rules: Optional[Iterable[Rule]] = None,
               project_rules: Optional[Iterable[ProjectRule]] = None,
               exclude: Sequence[str] = ()) -> FindingSet:
    """Lint every ``*.py`` under ``paths``; returns the full finding set.

    Every file is parsed once; the project rules see all of them
    together, so call graphs and summaries keep their cross-file
    precision.
    """
    selected = list(rules) if rules is not None else all_rules()
    selected_project = list(project_rules) if project_rules is not None \
        else all_project_rules()

    sources: List[SourceFile] = []
    findings: List[Finding] = []
    for filename in iter_python_files(paths, exclude=exclude):
        try:
            src = SourceFile.parse(filename)
        except SyntaxError as exc:
            findings.append(Finding(
                rule=META_RULE, path=filename, line=exc.lineno or 1,
                col=exc.offset or 0,
                message=f"file does not parse: {exc.msg}"))
            continue
        sources.append(src)
        findings.extend(_file_findings(src, selected))

    findings.extend(_project_findings(sources, selected_project))
    for src in sources:
        findings.extend(_suppression_meta(src, findings))
    result = FindingSet()
    result.extend(_sort_findings(findings))
    return result
