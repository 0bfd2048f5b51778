"""Project-wide symbol table: the one parse every lint rule reads.

Every rule of :mod:`repro.devtools` -- the ones that look at one module
and the ones that follow calls across the tree -- needs to know which
function or module a name refers to.  This module builds that table:

* :class:`ModuleSymbols` -- one parsed module: its top-level functions,
  classes (with methods), and an import table mapping every local alias
  to the fully-dotted name it denotes (``from .actions import
  evaluate_toggle`` binds ``evaluate_toggle`` to
  ``repro.core.actions.evaluate_toggle``; relative imports are resolved
  against the module's package).  :meth:`ModuleSymbols.dotted` turns a
  call target into that dotted name (``np.random.seed`` ->
  ``numpy.random.seed``).
* :class:`FunctionSymbol` / :class:`ClassSymbol` -- one definition,
  addressed by *qualname* (``repro.core.floc.floc``,
  ``repro.core.floc._State.toggle``).
* :class:`ProjectSymbols` -- the project: every module keyed by dotted
  name, every function/class keyed by qualname, plus
  :meth:`ProjectSymbols.resolve_callable`, which chases an arbitrary
  dotted name (through re-export chains) to the function or class it
  names -- or reports *why* it could not (external module, dynamic
  attribute, ...).  The callgraph builder turns those reasons into the
  unresolved-call statistics ``repro lint`` reports.

Module naming is lexical: the dotted name is the path after the last
``src/`` component (``src/repro/core/floc.py`` -> ``repro.core.floc``);
trees without a ``src/`` layout fall back to walking ``__init__.py``
markers on disk, then to the dotted relative path.  Files that would
share a name (``a/m.py`` and ``b/m.py`` outside any package) are named
by their dotted paths instead, so each keeps its own functions and
call edges.  This keeps the table constructible from in-memory sources
(the fixture self-tests) and byte-deterministic across runs.
"""

from __future__ import annotations

import ast
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    Dict, Iterable, Iterator, List, Mapping, Optional, Tuple, Union,
)

__all__ = [
    "ClassSymbol",
    "FunctionSymbol",
    "ModuleSymbols",
    "ProjectSymbols",
    "Resolution",
    "build_project",
    "module_name_for_path",
]

_FunctionNode = Union[ast.FunctionDef, ast.AsyncFunctionDef]


def _posix(path: str) -> str:
    return path.replace("\\", "/")


def module_name_for_path(path: str) -> str:
    """Derive a dotted module name from a file path.

    Preference order: the path after the last ``src/`` component, then
    the longest chain of on-disk ``__init__.py`` packages containing the
    file, then the full dotted relative path.  ``__init__.py`` maps to
    its package name.
    """
    p = _posix(path)
    parts = list(Path(p).parts)
    if parts and parts[0] == "/":
        parts = parts[1:]
    if parts and parts[-1].endswith(".py"):
        leaf = parts[-1][: -len(".py")]
    else:
        leaf = parts[-1] if parts else ""
    dirs = parts[:-1]
    anchor = 0
    for index in range(len(dirs) - 1, -1, -1):
        if dirs[index] == "src":
            anchor = index + 1
            break
    else:
        # No src/ layout: walk __init__.py markers on disk (if any).
        real = Path(path)
        if real.exists():
            anchor = len(dirs)
            while anchor > 0 and (
                Path(*parts[:anchor]) / "__init__.py"
                if not p.startswith("/")
                else Path("/", *parts[:anchor]) / "__init__.py"
            ).exists():
                anchor -= 1
        else:
            anchor = 0
    package = [part for part in dirs[anchor:] if part]
    if leaf == "__init__":
        return ".".join(package) if package else leaf
    return ".".join(package + [leaf]) if package else leaf


def _module_names(paths: Iterable[str]) -> Dict[str, str]:
    """:func:`module_name_for_path` of each path, except that paths
    sharing a name are each named by their dotted path (``a/m.py`` ->
    ``a.m``), so no module of a project hides another."""
    names = {path: module_name_for_path(path) for path in paths}
    shared = Counter(names.values())
    return {
        path: _dotted_path(path) if shared[name] > 1 else name
        for path, name in names.items()
    }


def _dotted_path(path: str) -> str:
    parts = [part for part in Path(_posix(path)).with_suffix("").parts
             if part not in ("/", ".", "..")]
    if len(parts) > 1 and parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def _dotted_parts(expr: ast.AST) -> Optional[List[str]]:
    """Flatten a pure ``Name``/``Attribute`` chain, or ``None``."""
    parts: List[str] = []
    node = expr
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    parts.reverse()
    return parts


def _parameter_names(node: _FunctionNode) -> Tuple[str, ...]:
    args = node.args
    names = [a.arg for a in (*args.posonlyargs, *args.args, *args.kwonlyargs)]
    return tuple(names)


def _annotation_strings(node: _FunctionNode) -> Dict[str, str]:
    out: Dict[str, str] = {}
    args = node.args
    for arg in (*args.posonlyargs, *args.args, *args.kwonlyargs):
        if arg.annotation is not None:
            try:
                out[arg.arg] = ast.unparse(arg.annotation)
            except ValueError:  # pragma: no cover - unparse is total here
                continue
    return out


def _decorator_names(node: _FunctionNode) -> Tuple[str, ...]:
    names: List[str] = []
    for dec in node.decorator_list:
        expr = dec.func if isinstance(dec, ast.Call) else dec
        try:
            names.append(ast.unparse(expr))
        except ValueError:  # pragma: no cover
            continue
    return tuple(names)


@dataclass(frozen=True)
class FunctionSymbol:
    """One function or method definition, addressed by qualname."""

    qualname: str
    module: str
    name: str  #: local name: ``f`` or ``Cls.m``
    path: str
    lineno: int
    col: int
    params: Tuple[str, ...]
    annotations: Mapping[str, str]
    decorators: Tuple[str, ...]
    returns: Optional[str] = None
    class_name: Optional[str] = None
    node: Optional[ast.AST] = field(default=None, compare=False, repr=False)

    @property
    def is_method(self) -> bool:
        return self.class_name is not None

    @property
    def has_implicit_self(self) -> bool:
        """True for instance/class methods (``self``/``cls`` bound)."""
        return self.is_method and "staticmethod" not in self.decorators

    def rng_parameter(self) -> Optional[Tuple[str, int]]:
        """``(name, index)`` of the RNG-threading parameter, if any.

        The index is the position among *explicit* parameters; callers
        adjust for a bound ``self`` when matching positional arguments.
        """
        for index, param in enumerate(self.params):
            if param in _RNG_PARAM_NAMES:
                return param, index
        return None


#: Parameter names that (by convention, enforced by DCL011) carry the
#: caller-controlled RNG stream.
_RNG_PARAM_NAMES = ("rng", "generator", "random_state")


@dataclass(frozen=True)
class ClassSymbol:
    """One class definition with its directly-defined methods."""

    qualname: str
    module: str
    name: str
    path: str
    lineno: int
    bases: Tuple[str, ...]
    methods: Mapping[str, FunctionSymbol]
    node: Optional[ast.AST] = field(default=None, compare=False, repr=False)


class ModuleSymbols:
    """One parsed module: definitions plus a resolved import table."""

    def __init__(self, name: str, path: str, source: str) -> None:
        self.name = name
        self.path = _posix(path)
        self.source = source
        self.tree: ast.Module = ast.parse(source)
        self.package = name.rsplit(".", 1)[0] if "." in name else ""
        self.is_package = self.path.endswith("__init__.py")
        #: local alias -> fully dotted absolute target.  A target can
        #: denote a module (``numpy``), a module attribute
        #: (``repro.core.actions.evaluate_toggle``) or anything external.
        self.imports: Dict[str, str] = {}
        self.functions: Dict[str, FunctionSymbol] = {}
        self.classes: Dict[str, ClassSymbol] = {}
        self._index()

    # -- construction ----------------------------------------------------
    def _index(self) -> None:
        for node in self.tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                sym = self._function_symbol(node, class_name=None)
                self.functions[sym.name] = sym
            elif isinstance(node, ast.ClassDef):
                self._index_class(node)
        # Imports may appear under top-level guards (TYPE_CHECKING,
        # try/except optional deps), so walk the whole tree for them.
        for node in ast.walk(self.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    target = alias.name if alias.asname else alias.name.split(".")[0]
                    self.imports[bound] = target
            elif isinstance(node, ast.ImportFrom):
                base = self._import_base(node)
                if base is None:
                    continue
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    bound = alias.asname or alias.name
                    target = f"{base}.{alias.name}" if base else alias.name
                    self.imports[bound] = target

    def _import_base(self, node: ast.ImportFrom) -> Optional[str]:
        """Absolute dotted prefix an ``ImportFrom`` resolves against."""
        if node.level == 0:
            return node.module
        # Relative import: climb from this module's package.
        anchor = self.name if self.is_package else self.package
        hops = node.level - 1
        parts = anchor.split(".") if anchor else []
        if hops > len(parts):
            return None  # escapes the project root; unresolvable
        parts = parts[: len(parts) - hops]
        if node.module:
            parts.append(node.module)
        return ".".join(parts) if parts else None

    def _function_symbol(
        self, node: _FunctionNode, class_name: Optional[str]
    ) -> FunctionSymbol:
        local = f"{class_name}.{node.name}" if class_name else node.name
        returns: Optional[str] = None
        if node.returns is not None:
            try:
                returns = ast.unparse(node.returns)
            except ValueError:  # pragma: no cover
                returns = None
        return FunctionSymbol(
            qualname=f"{self.name}.{local}",
            module=self.name,
            name=local,
            path=self.path,
            lineno=node.lineno,
            col=node.col_offset,
            params=_parameter_names(node),
            annotations=_annotation_strings(node),
            decorators=_decorator_names(node),
            returns=returns,
            class_name=class_name,
            node=node,
        )

    def _index_class(self, node: ast.ClassDef) -> None:
        methods: Dict[str, FunctionSymbol] = {}
        for sub in node.body:
            if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
                sym = self._function_symbol(sub, class_name=node.name)
                methods[sub.name] = sym
                self.functions[sym.name] = sym
        bases: List[str] = []
        for base in node.bases:
            try:
                bases.append(ast.unparse(base))
            except ValueError:  # pragma: no cover
                continue
        self.classes[node.name] = ClassSymbol(
            qualname=f"{self.name}.{node.name}",
            module=self.name,
            name=node.name,
            path=self.path,
            lineno=node.lineno,
            bases=tuple(bases),
            methods=methods,
            node=node,
        )

    # -- name resolution -------------------------------------------------
    def dotted(self, expr: ast.AST) -> Optional[str]:
        """Resolve a call target (or any name chain) to an absolute
        dotted name through this module's imports and definitions.

        ``np.random.seed`` -> ``numpy.random.seed`` (given ``import
        numpy as np``); ``from time import time`` + ``time`` ->
        ``time.time``; a top-level ``def f`` -> ``<module>.f``.
        ``None`` for anything else (method calls on objects, locals,
        subscripts, ...).
        """
        parts = _dotted_parts(expr)
        if parts is None:
            return None
        base = parts[0]
        if base in self.functions:
            return f"{self.name}.{base}" if len(parts) == 1 else None
        if base in self.imports:
            return ".".join([self.imports[base], *parts[1:]])
        return None


@dataclass(frozen=True)
class Resolution:
    """Outcome of resolving a dotted name to a callable.

    Exactly one of ``function`` / ``cls`` is set on success; on failure
    both are ``None`` and ``reason`` says why (``external`` for names
    rooted outside the project, ``missing-attribute`` for a project
    module that has no such definition, ``module`` when the name denotes
    a module rather than a callable).
    """

    function: Optional[FunctionSymbol] = None
    cls: Optional[ClassSymbol] = None
    reason: Optional[str] = None

    @property
    def resolved(self) -> bool:
        return self.function is not None or self.cls is not None


class ProjectSymbols:
    """All modules of one analyzed tree, indexed by dotted name."""

    def __init__(self) -> None:
        #: every parsed file by path
        self.files: Dict[str, ModuleSymbols] = {}
        self.modules: Dict[str, ModuleSymbols] = {}
        self.functions: Dict[str, FunctionSymbol] = {}
        self.classes: Dict[str, ClassSymbol] = {}

    def add_module(self, module: ModuleSymbols) -> None:
        self.files[module.path] = module
        self.modules[module.name] = module
        for sym in module.functions.values():
            self.functions[sym.qualname] = sym
        for cls in module.classes.values():
            self.classes[cls.qualname] = cls

    def iter_files(self) -> Iterator[ModuleSymbols]:
        for path in sorted(self.files):
            yield self.files[path]

    def iter_functions(self) -> Iterator[FunctionSymbol]:
        for qualname in sorted(self.functions):
            yield self.functions[qualname]

    # -- name resolution -------------------------------------------------
    def _module_prefix(self, dotted: str) -> Tuple[Optional[str], List[str]]:
        """Longest known module prefix of ``dotted`` plus the remainder."""
        parts = dotted.split(".")
        for cut in range(len(parts), 0, -1):
            prefix = ".".join(parts[:cut])
            if prefix in self.modules:
                return prefix, parts[cut:]
        return None, parts

    def is_project_name(self, dotted: str) -> bool:
        """True when ``dotted`` is rooted in an analyzed module tree."""
        root = dotted.split(".")[0]
        return any(
            name == root or name.startswith(root + ".") for name in self.modules
        )

    def resolve_callable(self, dotted: str, _depth: int = 0) -> Resolution:
        """Chase ``dotted`` (through re-exports) to a function or class."""
        if _depth > 8:  # re-export cycle guard
            return Resolution(reason="import-cycle")
        module_name, rest = self._module_prefix(dotted)
        if module_name is None:
            if self.is_project_name(dotted):
                # Rooted in the project but pointing at a module we did
                # not analyze (partial lint invocation).
                return Resolution(reason="unanalyzed-module")
            return Resolution(reason="external")
        module = self.modules[module_name]
        if not rest:
            return Resolution(reason="module")
        head = rest[0]
        if len(rest) == 1:
            if head in module.functions:
                return Resolution(function=module.functions[head])
            if head in module.classes:
                return Resolution(cls=module.classes[head])
            if head in module.imports:
                return self.resolve_callable(module.imports[head], _depth + 1)
            return Resolution(reason="missing-attribute")
        if len(rest) == 2 and rest[0] in module.classes:
            cls = module.classes[rest[0]]
            method = cls.methods.get(rest[1])
            if method is not None:
                return Resolution(function=method)
            return self.resolve_method(cls, rest[1], _depth + 1)
        if head in module.imports:
            target = ".".join([module.imports[head], *rest[1:]])
            return self.resolve_callable(target, _depth + 1)
        return Resolution(reason="missing-attribute")

    def resolve_class_name(
        self, module: ModuleSymbols, name: str
    ) -> Optional[ClassSymbol]:
        """Resolve a (possibly dotted) class name used inside ``module``."""
        if name in module.classes:
            return module.classes[name]
        root = name.split(".")[0]
        if root in module.imports:
            target = ".".join([module.imports[root], *name.split(".")[1:]])
            resolution = self.resolve_callable(target)
            return resolution.cls
        return None

    def resolve_method(
        self, cls: ClassSymbol, method: str, _depth: int = 0
    ) -> Resolution:
        """Find ``method`` on ``cls`` or (linearly) on its project bases."""
        if _depth > 8:
            return Resolution(reason="import-cycle")
        sym = cls.methods.get(method)
        if sym is not None:
            return Resolution(function=sym)
        module = self.modules.get(cls.module)
        for base_name in cls.bases:
            base = (
                self.resolve_class_name(module, base_name)
                if module is not None
                else None
            )
            if base is None or base.qualname == cls.qualname:
                continue
            found = self.resolve_method(base, method, _depth + 1)
            if found.resolved:
                return found
        return Resolution(reason="missing-method")


def build_project(
    files: Mapping[str, str],
    parse_errors: Optional[List[Tuple[str, str]]] = None,
) -> ProjectSymbols:
    """Build a :class:`ProjectSymbols` from ``{path: source}``.

    Files that fail to parse are skipped, and listed as ``(path,
    message)`` in ``parse_errors`` when it is given.
    """
    project = ProjectSymbols()
    names = _module_names(files)
    for path in sorted(files):
        try:
            module = ModuleSymbols(names[path], path, files[path])
        except SyntaxError as exc:
            if parse_errors is not None:
                parse_errors.append((path, f"syntax error: {exc}"))
            continue
        project.add_module(module)
    return project
