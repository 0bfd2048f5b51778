"""The DCL rule base and the rules that read one module at a time.

Each rule is a small class with a ``code`` (``DCL003`` ...), a
``summary`` shown by ``--list-rules``, a path predicate (``applies``)
and a ``check`` generator yielding :class:`Violation` records from the
project's symbol table (:class:`repro.devtools.symbols.ProjectSymbols`).
Rules never execute the code under analysis -- everything is derived
from the one parse per file the symbol table holds, so the linter is
safe to run on arbitrary trees.  A :class:`ModuleRule` looks at each
module on its own (reading names through the table); the rules that
read across modules (DCL010-DCL013) live in
:mod:`repro.devtools.dataflow`.

The module rules (see ``docs/DEVELOPMENT.md`` for the full rationale):

DCL003
    No ``np.nanmean``/``np.nansum``-style aggregation in core residue /
    gain code.  Cluster submatrices routinely contain fully-missing rows
    or columns; the ``repro.core.residue`` contract is count-aware
    arithmetic (explicit masks and counts), which never warns and never
    poisons gains with NaN.
DCL005
    ``__all__`` completeness/consistency: every module declares
    ``__all__``, every listed name exists, every public top-level
    function/class is listed, and there are no duplicates.
DCL006
    No writes to module-level mutable state from ``repro.core``
    functions.  ``global`` rebinding, in-place mutation of module-level
    containers (``CACHE[k] = v``, ``REGISTRY.append(...)``) and
    ``os.environ`` writes make results depend on call order and survive
    across runs in long-lived processes -- the same class of hidden
    state DCL011 bans for RNGs.  Core stays pure: state is threaded
    through parameters and return values.
DCL007
    No silent exception swallowing in ``repro.core`` or
    ``repro.runtime``.  A bare ``except:`` (which also traps
    ``KeyboardInterrupt``/``SystemExit`` -- including the runtime's own
    task-cancellation paths) and a broad ``except Exception:`` whose
    body is only ``pass``/``...``/``continue`` turn failures the
    supervisor must *observe* (retry, degrade, report) into silent
    corruption.  Catch the specific exception, or handle-and-record.
"""

from __future__ import annotations

import ast
from dataclasses import asdict, dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from .symbols import ModuleSymbols, ProjectSymbols, _posix

__all__ = [
    "Violation",
    "Rule",
    "ModuleRule",
    "NanAggregationRule",
    "DunderAllRule",
    "MutableGlobalWriteRule",
    "ExceptionSwallowRule",
]


@dataclass(frozen=True)
class Violation:
    """One rule hit: where it is, which rule fired, and why."""

    rule: str
    path: str
    line: int
    col: int
    message: str

    def to_dict(self) -> Dict[str, object]:
        return asdict(self)

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"


def _in_core(path: str) -> bool:
    return "repro/core/" in _posix(path)


def _in_perf(path: str) -> bool:
    return "repro/obs/perf/" in _posix(path)


def _in_tests(path: str) -> bool:
    p = _posix(path)
    return p.startswith("tests/") or "/tests/" in p


def _in_runtime(path: str) -> bool:
    return "repro/runtime/" in _posix(path)


class Rule:
    """Base class: subclasses define ``code``, ``summary``, ``check``.

    ``applies`` tells the suppression check which files a rule can
    fire in, so a directive naming it elsewhere is not judged stale.
    """

    code: str = ""
    summary: str = ""

    def applies(self, path: str) -> bool:
        return True

    def check(self, project: ProjectSymbols) -> Iterator[Violation]:
        raise NotImplementedError

    def _violation(
        self, path: str, line: int, col: int, message: str
    ) -> Violation:
        return Violation(
            rule=self.code, path=path, line=line, col=col, message=message
        )

    def _at(
        self, module: ModuleSymbols, node: ast.AST, message: str
    ) -> Violation:
        return self._violation(
            module.path,
            getattr(node, "lineno", 1),
            getattr(node, "col_offset", 0),
            message,
        )


class ModuleRule(Rule):
    """A rule that checks each module it applies to on its own."""

    def check(self, project: ProjectSymbols) -> Iterator[Violation]:
        for module in project.iter_files():
            if self.applies(module.path):
                yield from self.check_module(project, module)

    def check_module(
        self, project: ProjectSymbols, module: ModuleSymbols
    ) -> Iterator[Violation]:
        raise NotImplementedError


# ----------------------------------------------------------------------
# DCL003 -- no NaN-aggregation in core residue/gain paths
# ----------------------------------------------------------------------
_NAN_AGGREGATES = {
    "nanmean", "nansum", "nanstd", "nanvar", "nanmin", "nanmax",
    "nanmedian", "nanpercentile", "nanquantile", "nanprod",
    "nancumsum", "nancumprod", "nanargmin", "nanargmax",
}


class NanAggregationRule(ModuleRule):
    """DCL003: forbid NaN-aggregation in core residue/gain math."""

    code = "DCL003"
    summary = (
        "no np.nanmean/np.nansum-style aggregation in src/repro/core/: "
        "residue and gain math must be count-aware (explicit masks)"
    )

    def applies(self, path: str) -> bool:
        return _in_core(path)

    def check_module(
        self, project: ProjectSymbols, module: ModuleSymbols
    ) -> Iterator[Violation]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            dotted = project.dotted(module, node.func)
            if dotted is None:
                continue
            parts = dotted.split(".")
            if parts[0] == "numpy" and parts[-1] in _NAN_AGGREGATES:
                yield self._at(
                    module, node,
                    f"np.{parts[-1]}() warns on all-NaN slices and hides "
                    "the occupancy count; use the count-aware mask "
                    "arithmetic of repro.core.residue instead",
                )


# ----------------------------------------------------------------------
# DCL005 -- __all__ completeness/consistency
# ----------------------------------------------------------------------
class DunderAllRule(ModuleRule):
    """DCL005: __all__ must exist, be accurate, and cover public defs."""

    code = "DCL005"
    summary = (
        "__all__ must exist, list only defined names, include every "
        "public top-level def/class, and contain no duplicates"
    )

    #: module basenames that legitimately have no public surface
    _EXEMPT = {"__main__.py", "conftest.py", "setup.py"}

    def applies(self, path: str) -> bool:
        return _posix(path).rsplit("/", 1)[-1] not in self._EXEMPT and not _in_tests(path)

    def check_module(
        self, project: ProjectSymbols, module: ModuleSymbols
    ) -> Iterator[Violation]:
        dunder_all = self._find_dunder_all(module.tree)
        public_defs = self._public_definitions(module.tree)
        if dunder_all is None:
            if public_defs:
                shown = ", ".join(sorted(public_defs)[:5])
                if len(public_defs) > 5:
                    shown += ", ..."
                yield self._violation(
                    module.path, 1, 0,
                    f"module defines public names ({shown}) but no __all__",
                )
            return
        node, names = dunder_all
        if names is None:  # dynamic __all__; nothing checkable
            return
        bound = self._bound_names(module.tree)
        # PEP 562: a module-level __getattr__ can lazily provide any
        # name, so "listed but not bound" cannot be decided statically.
        lazy = "__getattr__" in {
            n.name
            for n in module.tree.body
            if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))
        }
        seen: Set[str] = set()
        for name in names:
            if name in seen:
                yield self._at(
                    module, node, f"duplicate __all__ entry '{name}'"
                )
            seen.add(name)
            if name not in bound and not lazy:
                yield self._at(
                    module, node,
                    f"__all__ lists '{name}' which is not defined or "
                    "imported at module top level",
                )
        for name in sorted(public_defs - seen):
            yield self._at(
                module, node,
                f"public definition '{name}' is missing from __all__ "
                "(export it or prefix it with an underscore)",
            )

    @staticmethod
    def _find_dunder_all(
        tree: ast.Module,
    ) -> Optional[Tuple[ast.stmt, Optional[List[str]]]]:
        for node in tree.body:
            target = None
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                target = node.targets[0]
                value = node.value
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                target = node.target
                value = node.value
            else:
                continue
            if not (isinstance(target, ast.Name) and target.id == "__all__"):
                continue
            if isinstance(value, (ast.List, ast.Tuple)) and all(
                isinstance(el, ast.Constant) and isinstance(el.value, str)
                for el in value.elts
            ):
                return node, [el.value for el in value.elts]
            return node, None  # dynamic/augmented __all__
        return None

    @staticmethod
    def _public_definitions(tree: ast.Module) -> Set[str]:
        """Public functions/classes *defined* (not imported) at top level."""
        out: Set[str] = set()
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not node.name.startswith("_"):
                    out.add(node.name)
        return out

    @staticmethod
    def _bound_names(tree: ast.Module) -> Set[str]:
        """Every name bound at module top level (defs, imports, assigns),
        including under top-level guards (``TYPE_CHECKING``,
        optional-dependency ``try``/``except``)."""
        stmts: List[ast.AST] = list(tree.body)
        for node in tree.body:
            if isinstance(node, (ast.If, ast.Try)):
                stmts.extend(ast.walk(node))
        out: Set[str] = set()
        for node in stmts:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                out.add(node.name)
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    out.add(alias.asname or alias.name.split(".")[0])
            elif isinstance(node, ast.ImportFrom):
                for alias in node.names:
                    if alias.name != "*":
                        out.add(alias.asname or alias.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                targets = (
                    node.targets if isinstance(node, ast.Assign) else [node.target]
                )
                for target in targets:
                    for sub in ast.walk(target):
                        if isinstance(sub, ast.Name):
                            out.add(sub.id)
        return out


# ----------------------------------------------------------------------
# DCL006 -- no writes to module-level mutable state in core/
# ----------------------------------------------------------------------
#: Expression node types that construct a mutable container literal.
_MUTABLE_LITERALS = (
    ast.List, ast.Dict, ast.Set, ast.ListComp, ast.SetComp, ast.DictComp,
)
#: Call targets (last dotted component) that construct mutable containers.
_MUTABLE_FACTORIES = {
    "list", "dict", "set", "bytearray", "deque", "defaultdict",
    "OrderedDict", "Counter", "ChainMap",
}
#: Methods that mutate a container in place.
_MUTATOR_METHODS = {
    "append", "extend", "insert", "remove", "pop", "clear", "add",
    "discard", "update", "setdefault", "popitem", "appendleft",
    "extendleft", "sort", "reverse",
}
#: ``os.environ`` methods that write the process environment.
_ENVIRON_WRITERS = {"update", "pop", "setdefault", "clear", "popitem"}


class MutableGlobalWriteRule(ModuleRule):
    """DCL006: core functions must not write module-level mutable state."""

    code = "DCL006"
    summary = (
        "no writes to module-level mutable state from src/repro/core/ "
        "functions: global rebinding, in-place container mutation and "
        "os.environ writes make results call-order dependent"
    )

    def applies(self, path: str) -> bool:
        return _in_core(path)

    def check_module(
        self, project: ProjectSymbols, module: ModuleSymbols
    ) -> Iterator[Violation]:
        mutables = self._mutable_globals(module.tree)
        for node in ast.walk(module.tree):
            yield from self._check_environ(module, node)
        for func in self._functions(module.tree):
            yield from self._check_function(module, func, mutables)

    # -- discovery ------------------------------------------------------
    @classmethod
    def _mutable_globals(cls, tree: ast.Module) -> Set[str]:
        """Module-level names bound to mutable container values."""
        out: Set[str] = set()
        for node in tree.body:
            if isinstance(node, ast.Assign):
                targets, value = node.targets, node.value
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                targets, value = [node.target], node.value
            else:
                continue
            if not cls._is_mutable_value(value):
                continue
            for target in targets:
                if isinstance(target, ast.Name):
                    out.add(target.id)
        return out

    @staticmethod
    def _is_mutable_value(value: ast.expr) -> bool:
        if isinstance(value, _MUTABLE_LITERALS):
            return True
        if isinstance(value, ast.Call):
            func = value.func
            name = (
                func.id if isinstance(func, ast.Name)
                else func.attr if isinstance(func, ast.Attribute)
                else None
            )
            return name in _MUTABLE_FACTORIES
        return False

    @staticmethod
    def _functions(tree: ast.Module) -> Iterator[ast.AST]:
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield node

    @staticmethod
    def _shallow(func: ast.AST) -> Iterator[ast.AST]:
        """Walk a function body without descending into nested functions
        (those are analyzed as functions in their own right)."""
        stack = list(ast.iter_child_nodes(func))
        while stack:
            node = stack.pop()
            yield node
            if not isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
            ):
                stack.extend(ast.iter_child_nodes(node))

    @classmethod
    def _local_bindings(cls, func: ast.AST) -> Set[str]:
        """Names the function binds locally (params + assignments)."""
        names: Set[str] = set()
        args = func.args  # type: ignore[attr-defined]
        for arg in (*args.posonlyargs, *args.args, *args.kwonlyargs):
            names.add(arg.arg)
        if args.vararg is not None:
            names.add(args.vararg.arg)
        if args.kwarg is not None:
            names.add(args.kwarg.arg)
        for node in cls._shallow(func):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                names.add(node.id)
        return names

    # -- checks ---------------------------------------------------------
    def _check_function(
        self, module: ModuleSymbols, func: ast.AST, mutables: Set[str]
    ) -> Iterator[Violation]:
        declared_global: Set[str] = set()
        for node in self._shallow(func):
            if isinstance(node, ast.Global):
                declared_global.update(node.names)
        shadowed = self._local_bindings(func) - declared_global
        reachable = mutables - shadowed
        name = getattr(func, "name", "<lambda>")
        for node in self._shallow(func):
            if isinstance(node, ast.Global):
                yield self._at(
                    module, node,
                    f"'{name}' declares global {', '.join(node.names)}; "
                    "rebinding module state from a function makes results "
                    "call-order dependent -- thread state through "
                    "parameters/returns",
                )
            elif isinstance(node, ast.Subscript) and isinstance(
                node.ctx, (ast.Store, ast.Del)
            ):
                target = node.value
                if isinstance(target, ast.Name) and target.id in reachable:
                    yield self._at(
                        module, node,
                        f"'{name}' mutates module-level container "
                        f"'{target.id}' in place (item write); module "
                        "state must stay read-only at runtime",
                    )
            elif isinstance(node, ast.Call):
                func_expr = node.func
                if (
                    isinstance(func_expr, ast.Attribute)
                    and isinstance(func_expr.value, ast.Name)
                    and func_expr.value.id in reachable
                    and func_expr.attr in _MUTATOR_METHODS
                ):
                    yield self._at(
                        module, node,
                        f"'{name}' mutates module-level container "
                        f"'{func_expr.value.id}' in place "
                        f"(.{func_expr.attr}()); module state must stay "
                        "read-only at runtime",
                    )

    def _check_environ(
        self, module: ModuleSymbols, node: ast.AST
    ) -> Iterator[Violation]:
        if isinstance(node, ast.Subscript) and isinstance(
            node.ctx, (ast.Store, ast.Del)
        ):
            if module.dotted(node.value) == "os.environ":
                yield self._at(
                    module, node,
                    "writes os.environ inside repro.core; environment "
                    "mutation leaks across runs in a long-lived process",
                )
        elif isinstance(node, ast.Call):
            dotted = module.dotted(node.func)
            if dotted in ("os.putenv", "os.unsetenv"):
                yield self._at(
                    module, node,
                    f"{dotted}() mutates the process environment inside "
                    "repro.core",
                )
            elif dotted is not None and dotted.startswith("os.environ."):
                method = dotted.rsplit(".", 1)[-1]
                if method in _ENVIRON_WRITERS:
                    yield self._at(
                        module, node,
                        f"os.environ.{method}() mutates the process "
                        "environment inside repro.core",
                    )


# ----------------------------------------------------------------------
# DCL007 -- no silent exception swallowing in core/ and runtime/
# ----------------------------------------------------------------------
#: Handler types considered "broad": swallowing one of these silences
#: every failure mode the supervisor is supposed to observe.
_BROAD_EXCEPTIONS = {"Exception", "BaseException"}


class ExceptionSwallowRule(ModuleRule):
    """DCL007: forbid silent exception swallowing in core and runtime."""

    code = "DCL007"
    summary = (
        "no bare 'except:' and no 'except Exception: pass'-style "
        "swallowing in src/repro/core/ or src/repro/runtime/: failures "
        "must surface to the supervisor (retry/degrade/report)"
    )

    def applies(self, path: str) -> bool:
        return _in_core(path) or _in_runtime(path)

    def check_module(
        self, project: ProjectSymbols, module: ModuleSymbols
    ) -> Iterator[Violation]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if node.type is None:
                yield self._at(
                    module, node,
                    "bare 'except:' also traps KeyboardInterrupt/"
                    "SystemExit (including task cancellation); catch the "
                    "specific exception instead",
                )
            elif self._is_broad(node.type) and self._swallows(node.body):
                yield self._at(
                    module, node,
                    f"'except {ast.unparse(node.type)}:' with an empty body silently "
                    "swallows every failure; catch the specific "
                    "exception, or handle and record it",
                )

    @classmethod
    def _is_broad(cls, type_expr: ast.expr) -> bool:
        """True when the handler catches Exception/BaseException,
        directly or anywhere in a tuple of types."""
        candidates: List[ast.expr] = (
            list(type_expr.elts)
            if isinstance(type_expr, ast.Tuple) else [type_expr]
        )
        for expr in candidates:
            if isinstance(expr, ast.Name) and expr.id in _BROAD_EXCEPTIONS:
                return True
            if (
                isinstance(expr, ast.Attribute)
                and expr.attr in _BROAD_EXCEPTIONS
            ):
                return True
        return False

    @staticmethod
    def _swallows(body: Sequence[ast.stmt]) -> bool:
        """True when the handler body cannot surface the failure:
        nothing but ``pass`` / ``...`` / ``continue``."""
        for stmt in body:
            if isinstance(stmt, (ast.Pass, ast.Continue)):
                continue
            if isinstance(stmt, ast.Expr) and isinstance(
                stmt.value, ast.Constant
            ):
                continue  # docstring or Ellipsis literal
            return False
        return True
