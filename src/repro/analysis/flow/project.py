"""Project model for simflow: modules, symbols and the call graph.

A :class:`Project` is built from already-parsed :class:`SourceFile`
objects (the lint driver parses each file exactly once, and the project
reuses each file's import aliases).  It provides:

* a **module resolver** — every file gets a dotted module name derived
  from its path (``src/repro/sim/engine.py`` -> ``repro.sim.engine``),
  and imported names are resolved back to project modules by dotted
  suffix match, so the analysis works on a checkout, an installed
  package, or a bag of fixture files alike;
* a **symbol table** — every function and method with its qualified
  name, defining class and module;
* a **call graph** — best-effort resolution of call expressions to
  project functions: local calls, ``self.method()`` within a class
  (including inherited methods when the base class lives in the
  project), imported functions, and — for plain ``obj.method()``
  attribute calls — a bounded method-name index (a name defined by at
  most :data:`MAX_METHOD_CANDIDATES` project classes resolves to all of
  them; a more common name stays unresolved rather than guessing).

Everything here is deterministic: iteration orders are sorted, and no
state survives between :class:`Project` constructions.
"""

from __future__ import annotations

import ast
import os
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence

from repro.analysis.registry import SourceFile, dotted_name, expand_alias

#: an attribute-call name defined in more places than this is ambiguous
#: enough that resolving it would do more harm (false edges) than good
MAX_METHOD_CANDIDATES = 4

#: names that anchor a dotted module path; everything left of the last
#: occurrence is installation prefix (``src/``, a venv, a tmpdir)
_PACKAGE_ROOTS = ("repro", "tests", "benchmarks", "examples")


def module_name_for(path: str) -> str:
    """Dotted module name for ``path``, rooted at a known package.

    ``src/repro/sim/engine.py`` -> ``repro.sim.engine``;
    ``/tmp/xyz/scratch.py`` -> ``scratch`` (no known root: bare stem).
    ``__init__.py`` names the package itself.
    """
    normalized = path.replace(os.sep, "/")
    stem = normalized[:-3] if normalized.endswith(".py") else normalized
    parts = [p for p in stem.split("/") if p]
    root_at = max((i for i, p in enumerate(parts) if p in _PACKAGE_ROOTS),
                  default=-1)
    parts = parts[root_at:] if root_at >= 0 else parts[-1:]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts) if parts else "module"


def ordered_body(node: ast.AST) -> Iterator[ast.stmt]:
    """The statements of a function/module body in source order,
    descending into compound statements but not nested functions."""
    for stmt in getattr(node, "body", []):
        yield from _ordered_stmt(stmt)
    for attr in ("orelse", "finalbody"):
        for stmt in getattr(node, attr, []):
            yield from _ordered_stmt(stmt)


def _ordered_stmt(stmt: ast.stmt) -> Iterator[ast.stmt]:
    yield stmt
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                         ast.ClassDef)):
        return
    for attr in ("body", "orelse", "finalbody"):
        for child in getattr(stmt, attr, []):
            yield from _ordered_stmt(child)
    for handler in getattr(stmt, "handlers", []):
        for child in handler.body:
            yield from _ordered_stmt(child)


@dataclass
class FunctionInfo:
    """One function or method definition in the project."""

    qualname: str                     # "repro.sim.engine.Simulator.run"
    module: "ModuleInfo"
    node: ast.AST                     # FunctionDef / AsyncFunctionDef
    class_name: Optional[str] = None  # enclosing class, if a method

    @property
    def name(self) -> str:
        """The bare function name."""
        return self.node.name  # type: ignore[attr-defined]

    @property
    def params(self) -> List[str]:
        """Positional+keyword parameter names, ``self``/``cls`` included."""
        args = self.node.args  # type: ignore[attr-defined]
        names = [a.arg for a in args.posonlyargs + args.args]
        names.extend(a.arg for a in args.kwonlyargs)
        return names


@dataclass
class ModuleInfo:
    """One parsed module with its symbols and import aliases."""

    name: str
    path: str
    tree: ast.Module
    aliases: Dict[str, str] = field(default_factory=dict)
    #: module-level functions by bare name
    functions: Dict[str, FunctionInfo] = field(default_factory=dict)
    #: class name -> {method name -> FunctionInfo}
    classes: Dict[str, Dict[str, FunctionInfo]] = field(default_factory=dict)
    #: class name -> base-class dotted names (alias-expanded)
    bases: Dict[str, List[str]] = field(default_factory=dict)


class Project:
    """A set of modules analyzed together, with call resolution."""

    def __init__(self, sources: Sequence[SourceFile]) -> None:
        """Build from parsed source files."""
        self.modules: Dict[str, ModuleInfo] = {}
        self.functions: Dict[str, FunctionInfo] = {}
        self._method_index: Dict[str, List[FunctionInfo]] = {}
        for src in sources:
            self._add_module(src)

    # -- construction ------------------------------------------------------

    def _add_module(self, src: SourceFile) -> None:
        name = module_name_for(src.path)
        if name in self.modules:          # e.g. two scratch files: suffix
            name = f"{name}@{len(self.modules)}"
        mod = ModuleInfo(name=name, path=src.path, tree=src.tree,
                         aliases=src.aliases)
        for stmt in src.tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._add_function(mod, stmt, class_name=None)
            elif isinstance(stmt, ast.ClassDef):
                mod.bases[stmt.name] = [
                    base_name for base in stmt.bases
                    if (base_name := expand_alias(dotted_name(base),
                                                  mod.aliases)) is not None]
                for sub in stmt.body:
                    if isinstance(sub, (ast.FunctionDef,
                                        ast.AsyncFunctionDef)):
                        self._add_function(mod, sub, class_name=stmt.name)
        self.modules[name] = mod

    def _add_function(self, mod: ModuleInfo, node: ast.AST,
                      class_name: Optional[str]) -> None:
        bare = node.name  # type: ignore[attr-defined]
        qual = f"{mod.name}.{class_name}.{bare}" if class_name else \
            f"{mod.name}.{bare}"
        info = FunctionInfo(qualname=qual, module=mod, node=node,
                            class_name=class_name)
        self.functions[qual] = info
        if class_name is None:
            mod.functions[bare] = info
        else:
            mod.classes.setdefault(class_name, {})[bare] = info
            self._method_index.setdefault(bare, []).append(info)

    # -- lookup ------------------------------------------------------------

    def module_by_suffix(self, dotted: str) -> Optional[ModuleInfo]:
        """The project module whose name equals or dot-suffixes ``dotted``."""
        if dotted in self.modules:
            return self.modules[dotted]
        for name in sorted(self.modules):
            if name.endswith("." + dotted):
                return self.modules[name]
        return None

    def all_functions(self) -> List[FunctionInfo]:
        """Every function/method, sorted by qualified name."""
        return [self.functions[k] for k in sorted(self.functions)]

    def class_method(self, mod: ModuleInfo, class_name: str,
                     method: str) -> Optional[FunctionInfo]:
        """Resolve a method on a class, following project-local bases."""
        seen = set()
        todo = [(mod, class_name)]
        while todo:
            cur_mod, cur_cls = todo.pop(0)
            if (cur_mod.name, cur_cls) in seen:
                continue
            seen.add((cur_mod.name, cur_cls))
            info = cur_mod.classes.get(cur_cls, {}).get(method)
            if info is not None:
                return info
            for base in cur_mod.bases.get(cur_cls, []):
                base_mod_name, _, base_cls = base.rpartition(".")
                if not base_mod_name:          # local base class
                    todo.append((cur_mod, base))
                else:
                    base_mod = self.module_by_suffix(base_mod_name)
                    if base_mod is not None:
                        todo.append((base_mod, base_cls))
        return None

    # -- call resolution ---------------------------------------------------

    def resolve_call(self, caller: FunctionInfo,
                     call: ast.Call) -> List[FunctionInfo]:
        """Project functions a call may target (empty when external).

        Resolution order: ``self.method()`` in the caller's class
        hierarchy; a bare name that is a module-level function in the
        caller's module; an alias-expanded dotted path into a project
        module; finally the bounded method-name index for attribute
        calls.
        """
        func = call.func
        mod = caller.module

        dotted = dotted_name(func)
        if dotted is not None:
            head, _, rest = dotted.partition(".")
            if head in ("self", "cls") and rest and caller.class_name:
                parts = rest.split(".")
                if len(parts) == 1:
                    hit = self.class_method(mod, caller.class_name, parts[0])
                    if hit is not None:
                        return [hit]
                    dotted = None  # self.attr.method(): fall to index
            if dotted is not None and "." not in dotted:
                local = mod.functions.get(dotted)
                if local is not None:
                    return [local]
            if dotted is not None:
                expanded = expand_alias(dotted, mod.aliases)
                hit = self._resolve_dotted(expanded)
                if hit is not None:
                    return [hit]

        if isinstance(func, ast.Attribute):
            candidates = self._method_index.get(func.attr, [])
            if 0 < len(candidates) <= MAX_METHOD_CANDIDATES:
                return sorted(candidates, key=lambda f: f.qualname)
        return []

    def _resolve_dotted(self, expanded: str) -> Optional[FunctionInfo]:
        if expanded in self.functions:
            return self.functions[expanded]
        mod_part, _, leaf = expanded.rpartition(".")
        if not mod_part:
            return None
        target_mod = self.module_by_suffix(mod_part)
        if target_mod is not None:
            return target_mod.functions.get(leaf)
        # module.Class.method: split once more
        mod_part2, _, cls = mod_part.rpartition(".")
        target_mod = self.module_by_suffix(mod_part2) if mod_part2 else None
        if target_mod is not None:
            return self.class_method(target_mod, cls, leaf)
        return None
