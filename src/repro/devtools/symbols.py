"""Project-wide symbol table: the one parse every lint rule reads.

Every rule of :mod:`repro.devtools` needs to know which function,
class or module a name refers to.  This module builds that table:

* :class:`ModuleSymbols` -- one parsed module: its top-level functions,
  classes (with methods), and an import table mapping every local alias
  to the fully-dotted name it denotes (``from .actions import
  evaluate_toggle`` binds ``evaluate_toggle`` to
  ``repro.core.actions.evaluate_toggle``; relative imports are resolved
  against the module's package).  Imports are read wherever they sit:
  module level, under ``if TYPE_CHECKING:``, or inside a function.
  :meth:`ModuleSymbols.dotted` turns a call target into that dotted
  name (``np.random.seed`` -> ``numpy.random.seed``).
* :class:`FunctionSymbol` / :class:`ClassSymbol` -- one definition,
  addressed by *qualname* (``repro.core.floc.floc``,
  ``repro.core.floc._State.toggle``).
* :class:`ProjectSymbols` -- the project: every module keyed by dotted
  name, every function keyed by qualname, plus
  :meth:`ProjectSymbols.canonical`, which chases a dotted name through
  re-export chains (``repro.core.helper.perf_counter`` re-exported from
  ``time`` -> ``time.perf_counter``), and the lookups built on it: the
  function or class a name denotes, and a method on a class or its
  project bases.

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
import re
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    Dict, Iterable, Iterator, List, Mapping, NamedTuple, Optional, Tuple,
    Union,
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

#: Re-export hops (and base-class hops) followed before giving up: a
#: guard against import cycles.
_MAX_HOPS = 8


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


_ANNOTATION_TOKEN = re.compile(r"[A-Za-z_][A-Za-z0-9_.]*")

#: Parameter names that (by convention, enforced by DCL011) carry the
#: caller-controlled RNG stream.
_RNG_PARAM_NAMES = ("rng", "generator", "random_state")


@dataclass(frozen=True)
class FunctionSymbol:
    """One function or method definition, addressed by qualname.

    Everything but the owner is read off the definition's AST node.
    """

    module: str
    path: str
    node: _FunctionNode = field(compare=False, repr=False)
    class_name: Optional[str] = None

    @property
    def name(self) -> str:
        """Local name: ``f`` or ``Cls.m``."""
        if self.class_name is None:
            return self.node.name
        return f"{self.class_name}.{self.node.name}"

    @property
    def qualname(self) -> str:
        return f"{self.module}.{self.name}"

    @property
    def params(self) -> Tuple[str, ...]:
        args = self.node.args
        return tuple(
            a.arg for a in (*args.posonlyargs, *args.args, *args.kwonlyargs)
        )

    @property
    def annotations(self) -> Dict[str, str]:
        """Parameter name -> its annotation's source text."""
        args = self.node.args
        return {
            a.arg: ast.unparse(a.annotation)
            for a in (*args.posonlyargs, *args.args, *args.kwonlyargs)
            if a.annotation is not None
        }

    @property
    def returns(self) -> Optional[str]:
        """The return annotation's source text, if any."""
        node = self.node.returns
        return ast.unparse(node) if node is not None else None

    @property
    def has_implicit_self(self) -> bool:
        """True for instance/class methods (``self``/``cls`` bound)."""
        return self.class_name is not None and not any(
            ast.unparse(dec) == "staticmethod"
            for dec in self.node.decorator_list
        )

    def rng_parameter(self) -> Optional[Tuple[str, int]]:
        """``(name, index)`` of the RNG-threading parameter, if any.

        The index is the position among *explicit* parameters; callers
        adjust for a bound ``self`` when matching positional arguments.
        """
        for index, param in enumerate(self.params):
            if param in _RNG_PARAM_NAMES:
                return param, index
        return None


@dataclass(frozen=True)
class ClassSymbol:
    """One class definition with its directly-defined methods."""

    qualname: str
    module: str
    name: str
    bases: Tuple[str, ...]
    methods: Mapping[str, FunctionSymbol]


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
        #: every import statement with the full dotted name each of its
        #: aliases imports (``import a.b`` -> ``a.b``, ``from m import
        #: n`` -> ``m.n``), in source order
        self.import_sites: List[Tuple[ast.stmt, str]] = []
        self.functions: Dict[str, FunctionSymbol] = {}
        self.classes: Dict[str, ClassSymbol] = {}
        self._index()

    # -- construction ----------------------------------------------------
    def _index(self) -> None:
        for node in self.tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self.functions[node.name] = FunctionSymbol(
                    self.name, self.path, node
                )
            elif isinstance(node, ast.ClassDef):
                self._index_class(node)
        # Imports may appear under top-level guards (TYPE_CHECKING,
        # try/except optional deps) and inside functions, so walk the
        # whole tree for them.
        for node in ast.walk(self.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    target = alias.name if alias.asname else alias.name.split(".")[0]
                    self.imports[bound] = target
                    self.import_sites.append((node, alias.name))
            elif isinstance(node, ast.ImportFrom):
                base = self._import_base(node)
                if base is None:
                    continue
                for alias in node.names:
                    target = f"{base}.{alias.name}" if base else alias.name
                    self.import_sites.append((node, target))
                    if alias.name != "*":
                        self.imports[alias.asname or alias.name] = target
        self.import_sites.sort(key=lambda site: site[0].lineno)

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

    def _index_class(self, node: ast.ClassDef) -> None:
        methods: Dict[str, FunctionSymbol] = {}
        for sub in node.body:
            if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
                sym = FunctionSymbol(self.name, self.path, sub, node.name)
                methods[sub.name] = sym
                self.functions[sym.name] = sym
        self.classes[node.name] = ClassSymbol(
            qualname=f"{self.name}.{node.name}",
            module=self.name,
            name=node.name,
            bases=tuple(ast.unparse(base) for base in node.bases),
            methods=methods,
        )

    # -- name resolution -------------------------------------------------
    def dotted(self, expr: ast.AST) -> Optional[str]:
        """Resolve a call target (or any name chain) to an absolute
        dotted name through this module's imports and definitions.

        ``np.random.seed`` -> ``numpy.random.seed`` (given ``import
        numpy as np``); ``from time import time`` + ``time`` ->
        ``time.time``; a top-level ``def f`` -> ``<module>.f``; a
        top-level ``class K`` + ``K.m`` -> ``<module>.K.m``.  ``None``
        for anything else (method calls on objects, locals,
        subscripts, ...).
        """
        parts = _dotted_parts(expr)
        if parts is None:
            return None
        base = parts[0]
        if base in self.functions:
            return f"{self.name}.{base}" if len(parts) == 1 else None
        if base in self.classes:
            return ".".join([self.name, *parts])
        if base in self.imports:
            return ".".join([self.imports[base], *parts[1:]])
        return None


class Resolution(NamedTuple):
    """The function or class a dotted name denotes (neither when it
    names a module, something external, or nothing the table holds)."""

    function: Optional[FunctionSymbol] = None
    cls: Optional[ClassSymbol] = None


class ProjectSymbols:
    """All modules of one analyzed tree, indexed by dotted name."""

    def __init__(self) -> None:
        #: every parsed file by path
        self.files: Dict[str, ModuleSymbols] = {}
        self.modules: Dict[str, ModuleSymbols] = {}
        self.functions: Dict[str, FunctionSymbol] = {}

    def add_module(self, module: ModuleSymbols) -> None:
        self.files[module.path] = module
        self.modules[module.name] = module
        for sym in module.functions.values():
            self.functions[sym.qualname] = sym

    def iter_files(self) -> Iterator[ModuleSymbols]:
        for path in sorted(self.files):
            yield self.files[path]

    def iter_functions(self) -> Iterator[FunctionSymbol]:
        for qualname in sorted(self.functions):
            yield self.functions[qualname]

    # -- name resolution -------------------------------------------------
    def module_prefix(self, dotted: str) -> Tuple[Optional[str], List[str]]:
        """Longest known module prefix of ``dotted`` plus the remainder."""
        parts = dotted.split(".")
        for cut in range(len(parts), 0, -1):
            prefix = ".".join(parts[:cut])
            if prefix in self.modules:
                return prefix, parts[cut:]
        return None, parts

    def canonical(self, dotted: str) -> str:
        """Chase ``dotted`` through re-export chains: while it names an
        import of a project module, replace it by that import's target."""
        for _ in range(_MAX_HOPS):
            name, rest = self.module_prefix(dotted)
            if name is None or not rest:
                return dotted
            module = self.modules[name]
            head = rest[0]
            if head in module.functions or head in module.classes:
                return dotted
            if head not in module.imports:
                return dotted
            dotted = ".".join([module.imports[head], *rest[1:]])
        return dotted

    def dotted(self, module: ModuleSymbols, expr: ast.AST) -> Optional[str]:
        """:meth:`ModuleSymbols.dotted`, chased to its canonical name."""
        dotted = module.dotted(expr)
        return self.canonical(dotted) if dotted is not None else None

    def resolve_callable(self, dotted: str) -> Resolution:
        """The function, class or method ``dotted`` denotes."""
        name, rest = self.module_prefix(self.canonical(dotted))
        if name is None:
            return Resolution()
        module = self.modules[name]
        if len(rest) == 1:
            return Resolution(
                module.functions.get(rest[0]), module.classes.get(rest[0])
            )
        if len(rest) == 2 and rest[0] in module.classes:
            return Resolution(self.resolve_method(module.classes[rest[0]], rest[1]))
        return Resolution()

    def resolve_class_name(
        self, module: ModuleSymbols, name: str
    ) -> Optional[ClassSymbol]:
        """Resolve a (possibly dotted) class name used inside ``module``."""
        if name in module.classes:
            return module.classes[name]
        root, _, rest = name.partition(".")
        if root not in module.imports:
            return None
        target = module.imports[root] + ("." + rest if rest else "")
        return self.resolve_callable(target).cls

    def annotation_classes(
        self, module: ModuleSymbols, annotation: str
    ) -> Iterator[ClassSymbol]:
        """The project classes the names in ``annotation`` (source text,
        quoted or not) resolve to, as seen from ``module``."""
        for token in _ANNOTATION_TOKEN.findall(annotation):
            cls = self.resolve_class_name(module, token)
            if cls is not None:
                yield cls

    def resolve_method(
        self, cls: ClassSymbol, method: str, _depth: int = 0
    ) -> Optional[FunctionSymbol]:
        """Find ``method`` on ``cls`` or (linearly) on its project bases."""
        if method in cls.methods:
            return cls.methods[method]
        module = self.modules.get(cls.module)
        if module is None or _depth >= _MAX_HOPS:
            return None
        for base_name in cls.bases:
            base = self.resolve_class_name(module, base_name)
            if base is None or base.qualname == cls.qualname:
                continue
            found = self.resolve_method(base, method, _depth + 1)
            if found is not None:
                return found
        return None


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
        except (SyntaxError, ValueError) as exc:  # ValueError: NUL bytes
            if parse_errors is not None:
                parse_errors.append((path, f"syntax error: {exc}"))
            continue
        project.add_module(module)
    return project
