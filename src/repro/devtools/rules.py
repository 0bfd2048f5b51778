"""The DCL rule set: AST checks for FLOC's reproducibility invariants.

Each rule is a small class with a ``code`` (``DCL001`` ...), a
``summary`` shown by ``--list-rules``, a path predicate (``applies``)
and a ``check`` generator yielding :class:`Violation` records for one
parsed file.  Rules never execute the code under analysis -- everything
is derived from the AST plus a light import-alias table, so the linter
is safe to run on arbitrary trees.

The invariants (see ``docs/DEVELOPMENT.md`` for the full rationale):

DCL001
    No global RNG state.  The legacy ``np.random.<fn>`` /
    ``random.<fn>`` module-level API and bare
    ``np.random.default_rng()`` (no seed argument) make runs
    irreproducible; every stochastic path must thread an explicit
    :class:`numpy.random.Generator` (see :mod:`repro.core.rng`).
DCL002
    No wall-clock reads inside ``src/repro/core/``.  Core timing goes
    through the tracer clock seam (:attr:`repro.obs.tracer.Tracer.clock`)
    so tests can substitute a fake clock and traced runs stay
    bit-identical to untraced ones.
DCL003
    No ``np.nanmean``/``np.nansum``-style aggregation in core residue /
    gain code.  Cluster submatrices routinely contain fully-missing rows
    or columns; the ``repro.core.residue`` contract is count-aware
    arithmetic (explicit masks and counts), which never warns and never
    poisons gains with NaN.
DCL004
    Public ``repro.core`` functions take their RNG as a parameter
    (conventionally ``rng``) instead of constructing one internally, so
    callers control the stream end to end.
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
    state DCL001 bans for RNGs.  Core stays pure: state is threaded
    through parameters and return values.
DCL007
    No silent exception swallowing in ``repro.core`` or
    ``repro.runtime``.  A bare ``except:`` (which also traps
    ``KeyboardInterrupt``/``SystemExit`` -- including the runtime's own
    task-cancellation paths) and a broad ``except Exception:`` whose
    body is only ``pass``/``...``/``continue`` turn failures the
    supervisor must *observe* (retry, degrade, report) into silent
    corruption.  Catch the specific exception, or handle-and-record.
DCL008
    No wall-clock reads inside ``src/repro/obs/perf/``.  The perf
    package's work counters must stay wall-clock-free so counted runs
    are bit-identical across machines; bench timing goes through the
    injectable clock seam (``repro.obs.perf.bench.DEFAULT_CLOCK``, an
    attribute reference to :attr:`repro.obs.tracer.Tracer.clock`), and
    per-run records are content-addressed rather than timestamped.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple, Type

__all__ = [
    "Violation",
    "Rule",
    "FileContext",
    "RULES",
    "all_rules",
    "GlobalRngRule",
    "WallClockRule",
    "NanAggregationRule",
    "RngParameterRule",
    "DunderAllRule",
    "MutableGlobalWriteRule",
    "ExceptionSwallowRule",
    "PerfWallClockRule",
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
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
        }

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"


def _posix(path: str) -> str:
    return path.replace("\\", "/")


def _in_core(path: str) -> bool:
    return "repro/core/" in _posix(path)


def _in_tests(path: str) -> bool:
    p = _posix(path)
    return p.startswith("tests/") or "/tests/" in p


def _in_runtime(path: str) -> bool:
    return "repro/runtime/" in _posix(path)


class FileContext:
    """A parsed file plus the import-alias tables the rules share.

    ``numpy_names`` are local names bound to the ``numpy`` module
    (``import numpy as np`` -> ``np``); ``numpy_random_names`` to the
    ``numpy.random`` submodule; ``time_names`` / ``random_names`` /
    ``datetime_names`` to the stdlib modules; ``from_imports`` maps a
    local name to its fully-dotted origin for ``from x import y``.
    """

    def __init__(self, path: str, source: str, tree: Optional[ast.Module] = None):
        self.path = _posix(path)
        self.source = source
        self.tree = tree if tree is not None else ast.parse(source)
        self.numpy_names: Set[str] = set()
        self.numpy_random_names: Set[str] = set()
        self.time_names: Set[str] = set()
        self.random_names: Set[str] = set()
        self.datetime_names: Set[str] = set()
        self.from_imports: Dict[str, str] = {}
        self._index_imports()

    def _index_imports(self) -> None:
        for node in ast.walk(self.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    if alias.name == "numpy" or (
                        alias.name.startswith("numpy.") and alias.asname is None
                    ):
                        self.numpy_names.add(bound)
                    elif alias.name == "numpy.random":
                        self.numpy_random_names.add(bound)
                    elif alias.name == "time":
                        self.time_names.add(bound)
                    elif alias.name == "random":
                        self.random_names.add(bound)
                    elif alias.name == "datetime":
                        self.datetime_names.add(bound)
            elif isinstance(node, ast.ImportFrom):
                if node.module is None or node.level:
                    continue
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    bound = alias.asname or alias.name
                    self.from_imports[bound] = f"{node.module}.{alias.name}"

    def dotted_name(self, func: ast.expr) -> Optional[str]:
        """Resolve a call target into a canonical dotted name.

        ``np.random.seed`` -> ``numpy.random.seed`` (given
        ``import numpy as np``); ``from time import time`` + ``time()``
        -> ``time.time``.  Returns ``None`` for anything unresolvable
        (method calls on objects, subscripts, ...).
        """
        parts: List[str] = []
        node = func
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        parts.append(node.id)
        parts.reverse()
        root = parts[0]
        if root in self.numpy_names:
            parts[0] = "numpy"
        elif root in self.numpy_random_names:
            parts[0:1] = ["numpy", "random"]
        elif root in self.time_names:
            parts[0] = "time"
        elif root in self.random_names:
            parts[0] = "random"
        elif root in self.datetime_names:
            parts[0] = "datetime"
        elif root in self.from_imports:
            parts[0:1] = self.from_imports[root].split(".")
        return ".".join(parts)


class Rule:
    """Base class: subclasses define ``code``, ``summary``, ``check``."""

    code: str = ""
    summary: str = ""

    def applies(self, path: str) -> bool:
        return True

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        raise NotImplementedError

    def _violation(
        self, ctx: FileContext, node: ast.AST, message: str
    ) -> Violation:
        return Violation(
            rule=self.code,
            path=ctx.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            message=message,
        )


# ----------------------------------------------------------------------
# DCL001 -- no global RNG state
# ----------------------------------------------------------------------
#: ``numpy.random`` names that construct explicit streams and are
#: therefore allowed (``default_rng`` only with a seed argument).
_RNG_CONSTRUCTORS = {
    "default_rng", "Generator", "SeedSequence", "BitGenerator",
    "PCG64", "PCG64DXSM", "MT19937", "Philox", "SFC64",
}
#: stdlib ``random`` attributes that are not the module-level global API.
_STDLIB_RANDOM_OK = {"Random", "SystemRandom"}


class GlobalRngRule(Rule):
    """DCL001: forbid the legacy global-state RNG APIs outside tests/."""

    code = "DCL001"
    summary = (
        "no global RNG state: legacy np.random.<fn> / random.<fn> calls "
        "and bare np.random.default_rng() are forbidden outside tests/"
    )

    def applies(self, path: str) -> bool:
        return not _in_tests(path)

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            dotted = ctx.dotted_name(node.func)
            if dotted is None:
                continue
            parts = dotted.split(".")
            if parts[:2] == ["numpy", "random"] and len(parts) == 3:
                fn = parts[2]
                if fn == "default_rng":
                    if not node.args and not node.keywords:
                        yield self._violation(
                            ctx, node,
                            "bare np.random.default_rng() seeds from OS "
                            "entropy; pass a seed/SeedSequence or thread "
                            "a Generator (see repro.core.rng.resolve_rng)",
                        )
                elif fn not in _RNG_CONSTRUCTORS:
                    yield self._violation(
                        ctx, node,
                        f"np.random.{fn}() uses the legacy global RNG "
                        "state; thread an explicit np.random.Generator",
                    )
            elif parts[0] == "random" and len(parts) == 2:
                fn = parts[1]
                if fn not in _STDLIB_RANDOM_OK:
                    yield self._violation(
                        ctx, node,
                        f"random.{fn}() mutates the process-wide stdlib "
                        "RNG; thread an explicit np.random.Generator",
                    )


# ----------------------------------------------------------------------
# DCL002 -- no wall-clock reads in core/
# ----------------------------------------------------------------------
_CLOCK_CALLS = {
    "time.time", "time.time_ns", "time.perf_counter",
    "time.perf_counter_ns", "time.monotonic", "time.monotonic_ns",
    "time.process_time", "time.process_time_ns",
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.datetime.today", "datetime.date.today",
}


class WallClockRule(Rule):
    """DCL002: forbid wall-clock reads in core (use the tracer clock)."""

    code = "DCL002"
    summary = (
        "no wall-clock reads in src/repro/core/: timing goes through the "
        "tracer clock seam (Tracer.clock) so tests can fake time"
    )

    def applies(self, path: str) -> bool:
        return _in_core(path)

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            dotted = ctx.dotted_name(node.func)
            if dotted in _CLOCK_CALLS:
                yield self._violation(
                    ctx, node,
                    f"{dotted}() reads the wall clock inside repro.core; "
                    "use tracer.clock() (the tracer clock seam) instead",
                )


# ----------------------------------------------------------------------
# DCL003 -- no NaN-aggregation in core residue/gain paths
# ----------------------------------------------------------------------
_NAN_AGGREGATES = {
    "nanmean", "nansum", "nanstd", "nanvar", "nanmin", "nanmax",
    "nanmedian", "nanpercentile", "nanquantile", "nanprod",
    "nancumsum", "nancumprod", "nanargmin", "nanargmax",
}


class NanAggregationRule(Rule):
    """DCL003: forbid NaN-aggregation in core residue/gain math."""

    code = "DCL003"
    summary = (
        "no np.nanmean/np.nansum-style aggregation in src/repro/core/: "
        "residue and gain math must be count-aware (explicit masks)"
    )

    def applies(self, path: str) -> bool:
        return _in_core(path)

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            dotted = ctx.dotted_name(node.func)
            if dotted is None:
                continue
            parts = dotted.split(".")
            if parts[0] == "numpy" and parts[-1] in _NAN_AGGREGATES:
                yield self._violation(
                    ctx, node,
                    f"np.{parts[-1]}() warns on all-NaN slices and hides "
                    "the occupancy count; use the count-aware mask "
                    "arithmetic of repro.core.residue instead",
                )


# ----------------------------------------------------------------------
# DCL004 -- public core functions accept rng as a parameter
# ----------------------------------------------------------------------
_RNG_FACTORIES = {"numpy.random.default_rng", "repro.core.rng.resolve_rng"}
_RNG_FACTORY_BARE = {"default_rng", "resolve_rng"}
_RNG_PARAM_NAMES = {"rng", "generator", "random_state"}


class RngParameterRule(Rule):
    """DCL004: public core functions must take their RNG as a parameter."""

    code = "DCL004"
    summary = (
        "public repro.core functions must accept their RNG as a "
        "parameter (rng=...) rather than constructing one internally"
    )

    def applies(self, path: str) -> bool:
        return _in_core(path)

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        for func in self._public_functions(ctx.tree):
            if self._has_rng_param(func):
                continue
            culprit = self._find_rng_construction(ctx, func)
            if culprit is not None:
                yield self._violation(
                    ctx, culprit,
                    f"public function '{func.name}' constructs an RNG "
                    "internally; accept it as an 'rng' parameter so "
                    "callers control the stream",
                )

    @staticmethod
    def _public_functions(tree: ast.Module) -> Iterator[ast.FunctionDef]:
        """Top-level public functions and public methods of public classes."""
        for node in tree.body:
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                yield node
            elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                for sub in node.body:
                    if isinstance(sub, ast.FunctionDef) and not sub.name.startswith("_"):
                        yield sub

    @staticmethod
    def _has_rng_param(func: ast.FunctionDef) -> bool:
        args = func.args
        names = {
            a.arg
            for a in (*args.posonlyargs, *args.args, *args.kwonlyargs)
        }
        return bool(names & _RNG_PARAM_NAMES)

    def _find_rng_construction(
        self, ctx: FileContext, func: ast.FunctionDef
    ) -> Optional[ast.Call]:
        for node in ast.walk(func):
            if not isinstance(node, ast.Call):
                continue
            dotted = ctx.dotted_name(node.func)
            if dotted is None:
                continue
            if dotted in _RNG_FACTORIES or dotted.split(".")[-1] in _RNG_FACTORY_BARE:
                return node
        return None


# ----------------------------------------------------------------------
# DCL005 -- __all__ completeness/consistency
# ----------------------------------------------------------------------
class DunderAllRule(Rule):
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

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        dunder_all = self._find_dunder_all(ctx.tree)
        public_defs = self._public_definitions(ctx.tree)
        if dunder_all is None:
            if public_defs:
                shown = ", ".join(sorted(public_defs)[:5])
                if len(public_defs) > 5:
                    shown += ", ..."
                yield Violation(
                    rule=self.code, path=ctx.path, line=1, col=0,
                    message=(
                        f"module defines public names ({shown}) "
                        "but no __all__"
                    ),
                )
            return
        node, names = dunder_all
        if names is None:  # dynamic __all__; nothing checkable
            return
        bound = self._bound_names(ctx.tree)
        # PEP 562: a module-level __getattr__ can lazily provide any
        # name, so "listed but not bound" cannot be decided statically.
        lazy = "__getattr__" in {
            n.name
            for n in ctx.tree.body
            if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))
        }
        seen: Set[str] = set()
        for name in names:
            if name in seen:
                yield self._violation(
                    ctx, node, f"duplicate __all__ entry '{name}'"
                )
            seen.add(name)
            if name not in bound and not lazy:
                yield self._violation(
                    ctx, node,
                    f"__all__ lists '{name}' which is not defined or "
                    "imported at module top level",
                )
        for name in sorted(public_defs - seen):
            yield self._violation(
                ctx, node,
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
        """Every name bound at module top level (defs, imports, assigns)."""
        out: Set[str] = set()
        for node in tree.body:
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
            elif isinstance(node, (ast.If, ast.Try)):
                # names bound inside top-level guards (TYPE_CHECKING,
                # optional-dependency try/except) still count
                for sub in ast.walk(node):
                    if isinstance(sub, (ast.FunctionDef, ast.ClassDef)):
                        out.add(sub.name)
                    elif isinstance(sub, ast.ImportFrom):
                        for alias in sub.names:
                            if alias.name != "*":
                                out.add(alias.asname or alias.name)
                    elif isinstance(sub, ast.Import):
                        for alias in sub.names:
                            out.add(alias.asname or alias.name.split(".")[0])
                    elif isinstance(sub, ast.Assign):
                        for target in sub.targets:
                            for name in ast.walk(target):
                                if isinstance(name, ast.Name):
                                    out.add(name.id)
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


class MutableGlobalWriteRule(Rule):
    """DCL006: core functions must not write module-level mutable state."""

    code = "DCL006"
    summary = (
        "no writes to module-level mutable state from src/repro/core/ "
        "functions: global rebinding, in-place container mutation and "
        "os.environ writes make results call-order dependent"
    )

    def applies(self, path: str) -> bool:
        return _in_core(path)

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        mutables = self._mutable_globals(ctx.tree)
        for node in ast.walk(ctx.tree):
            yield from self._check_environ(ctx, node)
        for func in self._functions(ctx.tree):
            yield from self._check_function(ctx, func, mutables)

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
        self, ctx: FileContext, func: ast.AST, mutables: Set[str]
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
                yield self._violation(
                    ctx, node,
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
                    yield self._violation(
                        ctx, node,
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
                    yield self._violation(
                        ctx, node,
                        f"'{name}' mutates module-level container "
                        f"'{func_expr.value.id}' in place "
                        f"(.{func_expr.attr}()); module state must stay "
                        "read-only at runtime",
                    )

    def _check_environ(
        self, ctx: FileContext, node: ast.AST
    ) -> Iterator[Violation]:
        if isinstance(node, ast.Subscript) and isinstance(
            node.ctx, (ast.Store, ast.Del)
        ):
            if ctx.dotted_name(node.value) == "os.environ":
                yield self._violation(
                    ctx, node,
                    "writes os.environ inside repro.core; environment "
                    "mutation leaks across runs in a long-lived process",
                )
        elif isinstance(node, ast.Call):
            dotted = ctx.dotted_name(node.func)
            if dotted in ("os.putenv", "os.unsetenv"):
                yield self._violation(
                    ctx, node,
                    f"{dotted}() mutates the process environment inside "
                    "repro.core",
                )
            elif dotted is not None and dotted.startswith("os.environ."):
                method = dotted.rsplit(".", 1)[-1]
                if method in _ENVIRON_WRITERS:
                    yield self._violation(
                        ctx, node,
                        f"os.environ.{method}() mutates the process "
                        "environment inside repro.core",
                    )


# ----------------------------------------------------------------------
# DCL007 -- no silent exception swallowing in core/ and runtime/
# ----------------------------------------------------------------------
#: Handler types considered "broad": swallowing one of these silences
#: every failure mode the supervisor is supposed to observe.
_BROAD_EXCEPTIONS = {"Exception", "BaseException"}


class ExceptionSwallowRule(Rule):
    """DCL007: forbid silent exception swallowing in core and runtime."""

    code = "DCL007"
    summary = (
        "no bare 'except:' and no 'except Exception: pass'-style "
        "swallowing in src/repro/core/ or src/repro/runtime/: failures "
        "must surface to the supervisor (retry/degrade/report)"
    )

    def applies(self, path: str) -> bool:
        return _in_core(path) or _in_runtime(path)

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if node.type is None:
                yield self._violation(
                    ctx, node,
                    "bare 'except:' also traps KeyboardInterrupt/"
                    "SystemExit (including task cancellation); catch the "
                    "specific exception instead",
                )
            elif self._is_broad(node.type) and self._swallows(node.body):
                caught = self._render_type(node.type)
                yield self._violation(
                    ctx, node,
                    f"'except {caught}:' with an empty body silently "
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

    @staticmethod
    def _render_type(type_expr: ast.expr) -> str:
        try:
            return ast.unparse(type_expr)
        except Exception:  # pragma: no cover - unparse is total on exprs
            return "Exception"


# ----------------------------------------------------------------------
# DCL008 -- no wall-clock reads in obs/perf/
# ----------------------------------------------------------------------
class PerfWallClockRule(Rule):
    """DCL008: forbid wall-clock reads in the perf package."""

    code = "DCL008"
    summary = (
        "no wall-clock reads in src/repro/obs/perf/: work counters must "
        "stay machine-independent; bench timing is injected via "
        "bench.DEFAULT_CLOCK and records are content-addressed"
    )

    def applies(self, path: str) -> bool:
        return "repro/obs/perf/" in _posix(path)

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            dotted = ctx.dotted_name(node.func)
            if dotted in _CLOCK_CALLS:
                yield self._violation(
                    ctx, node,
                    f"{dotted}() reads the wall clock inside "
                    "repro.obs.perf; inject a clock through "
                    "bench.DEFAULT_CLOCK so counters and records stay "
                    "deterministic",
                )


#: Registry, in code order.  ``lint.py`` instantiates from here; tests
#: can construct individual rules directly.
RULES: Tuple[Type[Rule], ...] = (
    GlobalRngRule,
    WallClockRule,
    NanAggregationRule,
    RngParameterRule,
    DunderAllRule,
    MutableGlobalWriteRule,
    ExceptionSwallowRule,
    PerfWallClockRule,
)


def all_rules(select: Optional[Sequence[str]] = None) -> List[Rule]:
    """Instantiate the registry, optionally filtered to ``select`` codes."""
    rules = [cls() for cls in RULES]
    if select is None:
        return rules
    wanted = {code.strip().upper() for code in select}
    unknown = wanted - {r.code for r in rules}
    if unknown:
        raise ValueError(f"unknown rule code(s): {', '.join(sorted(unknown))}")
    return [r for r in rules if r.code in wanted]
