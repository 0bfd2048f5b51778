"""The DCL rules that read more than one module: DCL010-DCL013.

These rules see the whole symbol table (:mod:`repro.devtools.symbols`):
names are read through re-export chains, and a class named in an
annotation resolves to its definition in whatever module holds it.
Only DCL011 follows calls.  :func:`propagate` is its backward taint
engine over the call edges of :mod:`repro.devtools.callgraph`: given
*seed* functions (each with a human-readable reason) it walks caller
edges to a fixpoint and records, for every reached function, the call
site and callee it inherited the taint from -- so each violation can
print a witness chain (``outer -> middle -> consume``) instead of a
bare "transitively reaches".  Iteration order is sorted everywhere, so
the result -- and therefore ``repro lint --format json`` -- is
byte-deterministic.

DCL010
    Timing goes only through the tracer clock seam.  No wall-clock
    read (``time.*`` / ``datetime.*``) anywhere in ``src/repro/core/``
    or ``src/repro/obs/perf/``, nor in the other modules core may
    import (``repro._lazy``, ``repro.obs.tracer``, ``repro.obs.events``)
    -- module level and class bodies included.  And core keeps to that
    import boundary: every import in ``repro.core`` (function-local and
    ``TYPE_CHECKING`` ones too) names numpy, the standard library,
    ``repro.core``, ``repro._lazy``, ``repro.obs.tracer``,
    ``repro.obs.events`` or ``repro.obs.perf``, and so does every
    runtime import of a module core reaches that way.  The tracer clock
    seam (``Tracer.clock = staticmethod(time.perf_counter)``) is an
    attribute, not a call, and the perf package's bench clock is
    injected (``bench.DEFAULT_CLOCK``), so counted runs stay
    bit-identical.
DCL011
    Every random draw comes from a threaded generator.  No legacy
    global-state ``np.random.<fn>`` / ``random.<fn>`` call and no bare
    ``np.random.default_rng()`` outside ``tests/``; no public core
    function that constructs its RNG (``default_rng``/``resolve_rng``)
    instead of taking it as a parameter; and a core function whose
    callees consume an RNG (take an ``rng``/``generator``/
    ``random_state`` parameter, or call ``numpy.random.default_rng``)
    must receive a generator itself and pass it explicitly.  Taint
    stops at call sites that cover the callee's RNG parameter.
DCL012
    No in-place mutation of ndarray parameters in ``core/``: an
    intraprocedural alias/escape walk over ``+=``, slice assignment and
    mutating method calls (``.sort()``, ``.fill()``, ``np.copyto``,
    ``out=``).  Buffers owned by a ``*State`` class (``self.x[...] =``,
    or a parameter annotated with a project ``*State`` class -- resolved
    cross-module through the symbol table) are exempt; ``.copy()``
    rebinding kills the alias.
DCL013
    No float ``==``/``!=`` in ``core/`` (the batched gain engine
    included): literal floats, ``float(...)``, ``nan``/``inf``, and --
    cross-module via the symbol table -- calls to project functions
    annotated to return ``float``.  Bitwise-parity seams must carry a
    line-level suppression with a justification.
"""

from __future__ import annotations

import ast
import functools
import sys
import sysconfig
from dataclasses import dataclass
from pathlib import Path
from typing import (
    Callable,
    Dict,
    FrozenSet,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from .callgraph import CallGraph, CallSite, build_callgraph
from .rules import Rule, Violation, _in_core, _in_perf, _in_tests, _posix
from .symbols import FunctionSymbol, ModuleSymbols, ProjectSymbols

__all__ = [
    "ClockSeamRule",
    "FloatEqualityRule",
    "NdarrayParamMutationRule",
    "RngThreadingRule",
    "Taint",
    "propagate",
    "witness_chain",
]


@dataclass(frozen=True)
class Taint:
    """How one function became tainted during propagation."""

    qualname: str
    reason: str  #: the seed function's reason, inherited unchanged
    site: Optional[CallSite]  #: call site that spread it (None = seed)
    parent: Optional[str]  #: callee the taint came from (None = seed)


def propagate(
    graph: CallGraph,
    seeds: Mapping[str, str],
    follow: Optional[Callable[[CallSite], bool]] = None,
) -> Dict[str, Taint]:
    """Backward (callee -> caller) taint propagation to a fixpoint.

    ``seeds`` maps qualnames to the reason they are tainted; ``follow``
    filters which call sites conduct taint (DCL011 passes
    ``lambda s: not s.passes_rng``).  BFS in sorted order makes the
    parent choice -- hence every witness chain -- deterministic.
    """
    tainted: Dict[str, Taint] = {}
    for qualname in sorted(seeds):
        if qualname in graph.nodes:
            tainted[qualname] = Taint(qualname, seeds[qualname], None, None)
    frontier = sorted(tainted)
    while frontier:
        discovered: Set[str] = set()
        for qualname in frontier:
            for site in graph.callers_of(qualname):
                if follow is not None and not follow(site):
                    continue
                if site.caller in tainted:
                    continue
                tainted[site.caller] = Taint(
                    site.caller, tainted[qualname].reason, site, qualname
                )
                discovered.add(site.caller)
        frontier = sorted(discovered)
    return tainted


def witness_chain(tainted: Mapping[str, Taint], qualname: str) -> List[str]:
    """``[qualname, ..., seed]`` following the recorded parents."""
    chain = [qualname]
    current = tainted[qualname]
    while current.parent is not None:
        chain.append(current.parent)
        current = tainted[current.parent]
    return chain


def _short_chain(chain: Sequence[str]) -> str:
    """Render a witness chain with module prefixes trimmed."""
    return " -> ".join(name.rsplit(".", 2)[-1] for name in chain)


#: Calls that read the wall clock.
_CLOCK_CALLS = frozenset({
    "time.time", "time.time_ns", "time.perf_counter",
    "time.perf_counter_ns", "time.monotonic", "time.monotonic_ns",
    "time.process_time", "time.process_time_ns",
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.datetime.today", "datetime.date.today",
})
#: The project modules ``repro.core`` may import (each with its
#: submodules), beside numpy and the standard library.
_CORE_IMPORTS = (
    "repro.core", "repro._lazy", "repro.obs.tracer", "repro.obs.events",
    "repro.obs.perf",
)
#: Files of the allow-listed modules outside core/ and obs/perf/: they
#: get the same direct wall-clock check.
_BOUNDARY_FILES = ("repro/_lazy.py", "repro/obs/tracer.py", "repro/obs/events.py")


@functools.lru_cache(maxsize=None)
def _stdlib_modules() -> FrozenSet[str]:
    """Top-level names of the running interpreter's standard library."""
    names = getattr(sys, "stdlib_module_names", None)
    if names is not None:
        return frozenset(names)
    # Python 3.9 has no stdlib_module_names: list the library itself.
    found = set(sys.builtin_module_names)
    root = Path(sysconfig.get_paths()["stdlib"])
    for entry in (*root.iterdir(), *(root / "lib-dynload").glob("*")):
        found.add(entry.name.split(".")[0])
    return frozenset(found)


def _core_may_import(target: str) -> bool:
    root = target.split(".")[0]
    if root == "numpy" or root in _stdlib_modules():
        return True
    return any(
        target == allowed or target.startswith(allowed + ".")
        for allowed in _CORE_IMPORTS
    )


def _type_checking_only(module: ModuleSymbols) -> Set[int]:
    """``id()`` of every import under an ``if TYPE_CHECKING:`` block."""
    out: Set[int] = set()
    for node in ast.walk(module.tree):
        if isinstance(node, ast.If) and ast.unparse(node.test) in (
            "TYPE_CHECKING", "typing.TYPE_CHECKING",
        ):
            for stmt in node.body:
                out.update(id(sub) for sub in ast.walk(stmt))
    return out


class ClockSeamRule(Rule):
    """DCL010: core and perf timing go only through an injected clock."""

    code = "DCL010"
    summary = (
        "no wall-clock reads (time.* / datetime.*) in src/repro/core/, "
        "src/repro/obs/perf/ or the other modules core may import, and "
        "core imports only numpy, the standard library, repro.core, "
        "repro._lazy, repro.obs.tracer, repro.obs.events and "
        "repro.obs.perf: timing goes through the tracer clock seam "
        "(Tracer.clock) or bench.DEFAULT_CLOCK"
    )

    def check(self, project: ProjectSymbols) -> Iterator[Violation]:
        yield from self._direct(project)
        yield from self._boundary(project)

    def _direct(self, project: ProjectSymbols) -> Iterator[Violation]:
        """Every wall-clock call in a scoped module, wherever it sits."""
        for module in project.iter_files():
            if _in_core(module.path):
                advice = (
                    "inside repro.core; use tracer.clock() (the tracer "
                    "clock seam) instead"
                )
            elif _in_perf(module.path):
                advice = (
                    "inside repro.obs.perf; inject a clock through "
                    "bench.DEFAULT_CLOCK so counters and records stay "
                    "deterministic"
                )
            elif _posix(module.path).endswith(_BOUNDARY_FILES):
                advice = (
                    f"inside {module.name}, which repro.core may import; "
                    "time through Tracer.clock instead"
                )
            else:
                continue
            for node in ast.walk(module.tree):
                if not isinstance(node, ast.Call):
                    continue
                dotted = project.dotted(module, node.func)
                if dotted in _CLOCK_CALLS:
                    yield self._at(
                        module, node,
                        f"{dotted}() reads the wall clock {advice}",
                    )

    def _boundary(self, project: ProjectSymbols) -> Iterator[Violation]:
        """Imports that leave the boundary: any import in core, and the
        runtime imports of every project module core reaches through
        allowed imports (breadth first, in sorted order)."""
        queue = [m for m in project.iter_files() if _in_core(m.path)]
        reached = {module.name for module in queue}
        while queue:
            module = queue.pop(0)
            skip: Set[int] = (
                set() if _in_core(module.path) else _type_checking_only(module)
            )
            for node, target in module.import_sites:
                if id(node) in skip:
                    continue
                if not _core_may_import(target):
                    who = "repro.core" if _in_core(module.path) else (
                        f"{module.name}, which repro.core imports,"
                    )
                    yield self._at(
                        module, node,
                        f"{who} imports {target}: core may import only "
                        "numpy, the standard library, repro.core, "
                        "repro._lazy, repro.obs.tracer, repro.obs.events "
                        "and repro.obs.perf, whose clock reads DCL010 "
                        "checks",
                    )
                    continue
                name = project.module_prefix(target)[0]
                if name is not None and name not in reached:
                    reached.add(name)
                    queue.append(project.modules[name])


#: ``numpy.random`` names that construct explicit streams and are
#: therefore allowed (``default_rng`` only with a seed argument).
_RNG_CONSTRUCTORS = frozenset({
    "default_rng", "Generator", "SeedSequence", "BitGenerator",
    "PCG64", "PCG64DXSM", "MT19937", "Philox", "SFC64",
})
#: stdlib ``random`` attributes that are not the module-level global API.
_STDLIB_RANDOM_OK = frozenset({"Random", "SystemRandom"})
#: Calls that mint a generator, by dotted name and by bare name.
_RNG_FACTORIES = frozenset({
    "numpy.random.default_rng", "repro.core.rng.resolve_rng",
})
_RNG_FACTORY_NAMES = frozenset({"default_rng", "resolve_rng"})


class RngThreadingRule(Rule):
    """DCL011: every random draw comes from a threaded generator."""

    code = "DCL011"
    summary = (
        "no global RNG state (legacy np.random.<fn> / random.<fn> calls, "
        "bare np.random.default_rng()) outside tests/; public "
        "repro.core functions take their RNG as a parameter, and core "
        "callers of an RNG consumer pass one at every call site"
    )

    def check(self, project: ProjectSymbols) -> Iterator[Violation]:
        # A bare default_rng() in a public core function is both global
        # state and an internal construction: report the call once.
        seen: Set[Tuple[str, int, int]] = set()
        for found in (
            self._global_state(project),
            self._constructions(project),
            self._threading(build_callgraph(project)),
        ):
            for violation in found:
                key = (violation.path, violation.line, violation.col)
                if key not in seen:
                    seen.add(key)
                    yield violation

    def _global_state(self, project: ProjectSymbols) -> Iterator[Violation]:
        """Legacy global-RNG calls and unseeded generators, outside tests."""
        for module in project.iter_files():
            if _in_tests(module.path):
                continue
            for node in ast.walk(module.tree):
                if not isinstance(node, ast.Call):
                    continue
                dotted = project.dotted(module, node.func)
                if dotted is None:
                    continue
                parts = dotted.split(".")
                if parts[:2] == ["numpy", "random"] and len(parts) == 3:
                    fn = parts[2]
                    if fn == "default_rng":
                        if not node.args and not node.keywords:
                            yield self._at(
                                module, node,
                                "bare np.random.default_rng() seeds from OS "
                                "entropy; pass a seed/SeedSequence or thread "
                                "a Generator (see repro.core.rng.resolve_rng)",
                            )
                    elif fn not in _RNG_CONSTRUCTORS:
                        yield self._at(
                            module, node,
                            f"np.random.{fn}() uses the legacy global RNG "
                            "state; thread an explicit np.random.Generator",
                        )
                elif parts[0] == "random" and len(parts) == 2:
                    if parts[1] not in _STDLIB_RANDOM_OK:
                        yield self._at(
                            module, node,
                            f"random.{parts[1]}() mutates the process-wide "
                            "stdlib RNG; thread an explicit "
                            "np.random.Generator",
                        )

    def _constructions(self, project: ProjectSymbols) -> Iterator[Violation]:
        """Public core functions (and public methods of public classes)
        that mint a generator instead of taking an ``rng`` parameter."""
        for module in project.iter_files():
            if not _in_core(module.path):
                continue
            for name in sorted(module.functions):
                sym = module.functions[name]
                if (
                    any(part.startswith("_") for part in name.split("."))
                    or sym.rng_parameter() is not None
                ):
                    continue
                for node in ast.walk(sym.node):
                    if isinstance(node, ast.Call) and self._mints(
                        project.dotted(module, node.func), node.func
                    ):
                        yield self._at(
                            module, node,
                            f"public function '{sym.name.split('.')[-1]}' "
                            "constructs an RNG internally; accept it as an "
                            "'rng' parameter so callers control the stream",
                        )
                        break

    @staticmethod
    def _mints(dotted: Optional[str], func: ast.AST) -> bool:
        if dotted in _RNG_FACTORIES:
            return True
        name = dotted.rsplit(".", 1)[-1] if dotted else _name_tail(func)
        return name in _RNG_FACTORY_NAMES

    def _threading(self, graph: CallGraph) -> Iterator[Violation]:
        """Core callers that reach an RNG consumer without passing one."""
        seeds: Dict[str, str] = {}
        for qualname in sorted(graph.nodes):
            node = graph.nodes[qualname]
            spec = node.sym.rng_parameter()
            if spec is not None:
                seeds[qualname] = f"'{node.sym.name}' (rng parameter '{spec[0]}')"
                continue
            if "numpy.random.default_rng" in node.external_calls:
                seeds[qualname] = (
                    f"'{node.sym.name}' (calls numpy.random.default_rng)"
                )
        tainted = propagate(
            graph, seeds, follow=lambda site: not site.passes_rng
        )
        for qualname in sorted(tainted):
            taint = tainted[qualname]
            sym = graph.nodes[qualname].sym
            if not _in_core(sym.path) or taint.site is None:
                continue
            chain = witness_chain(tainted, qualname)
            yield self._violation(
                sym.path,
                taint.site.lineno,
                taint.site.col,
                (
                    f"'{sym.name}' reaches RNG consumer {taint.reason} via "
                    f"{_short_chain(chain)} without threading a generator: "
                    "add an rng parameter and pass it explicitly"
                ),
            )

# -- DCL012 ----------------------------------------------------------------

#: attribute views that keep aliasing the base array
_VIEW_ATTRS = frozenset({"T", "mT", "flat", "real", "imag"})
#: numpy module-level functions returning (possible) views of arg 0
_VIEW_FUNCS = frozenset(
    {
        "asarray",
        "ascontiguousarray",
        "asfortranarray",
        "atleast_1d",
        "atleast_2d",
        "atleast_3d",
        "broadcast_to",
        "ravel",
        "reshape",
        "squeeze",
        "swapaxes",
        "transpose",
    }
)
#: methods returning (possible) views of the receiver
_VIEW_METHODS = frozenset(
    {"reshape", "view", "transpose", "squeeze", "ravel", "swapaxes"}
)
#: ndarray methods that mutate the receiver in place
_MUTATOR_METHODS = frozenset(
    {"fill", "sort", "partition", "put", "itemset", "setfield", "resize"}
)
#: numpy module-level functions that mutate their first argument
_MUTATOR_FUNCS = frozenset({"copyto", "place", "put", "putmask"})


class _MutationWalker:
    """Source-order alias walk over one function body.

    ``env`` maps local names to the tracked parameter they alias;
    rebinding to anything that is not a view (``x = x.copy()``) kills
    the alias.  Branches are walked in source order without joins --
    a deliberate approximation (documented in DEVELOPMENT.md): the
    ``.copy()``-then-mutate idiom the core uses is flow-ordered, and
    a missed kill only costs a suppressible false positive, never a
    silent false negative on straight-line code.
    """

    def __init__(
        self, rule: "NdarrayParamMutationRule", sym: FunctionSymbol
    ) -> None:
        self.rule = rule
        self.sym = sym
        self.env: Dict[str, str] = {}
        self.found: List[Violation] = []

    def run(self, tracked: Sequence[str]) -> List[Violation]:
        self.env = {param: param for param in tracked}
        self._block(self.sym.node.body)
        return self.found

    # -- alias queries ---------------------------------------------------
    def _root(self, expr: ast.AST) -> Optional[str]:
        if isinstance(expr, ast.Name):
            return self.env.get(expr.id)
        if isinstance(expr, ast.Subscript):
            return self._root(expr.value)
        if isinstance(expr, ast.Attribute):
            if expr.attr in _VIEW_ATTRS:
                return self._root(expr.value)
            return None
        if isinstance(expr, ast.Call):
            func = expr.func
            if _name_tail(func) in _VIEW_FUNCS and expr.args:
                # np.asarray(x), np.reshape(x, ...)
                return self._root(expr.args[0])
            if isinstance(func, ast.Attribute) and func.attr in _VIEW_METHODS:
                return self._root(func.value)
        return None

    def _flag(self, node: ast.AST, param: str, kind: str) -> None:
        self.found.append(
            self.rule._violation(
                self.sym.path,
                getattr(node, "lineno", self.sym.node.lineno),
                getattr(node, "col_offset", 0),
                (
                    f"'{self.sym.name}' mutates ndarray parameter "
                    f"'{param}' in place ({kind}); return a new array, "
                    "`.copy()` first, or route through a *State-owned "
                    "buffer"
                ),
            )
        )

    # -- expression scan (mutating calls) --------------------------------
    def _scan(self, expr: Optional[ast.AST]) -> None:
        if expr is None:
            return
        for sub in ast.walk(expr):
            if not isinstance(sub, ast.Call):
                continue
            func = sub.func
            if isinstance(func, ast.Attribute):
                recv_root = self._root(func.value)
                if func.attr in _MUTATOR_METHODS and recv_root is not None:
                    self._flag(sub, recv_root, f".{func.attr}() call")
                elif func.attr in _MUTATOR_FUNCS and sub.args:
                    root = self._root(sub.args[0])
                    if root is not None:
                        self._flag(sub, root, f"np.{func.attr}() call")
            for keyword in sub.keywords:
                if keyword.arg == "out":
                    root = self._root(keyword.value)
                    if root is not None:
                        self._flag(sub, root, "out= argument")

    # -- statement walk --------------------------------------------------
    def _block(self, stmts: Sequence[ast.stmt]) -> None:
        for stmt in stmts:
            self._stmt(stmt)

    def _kill_targets(self, target: ast.AST) -> None:
        for sub in ast.walk(target):
            if isinstance(sub, ast.Name):
                self.env.pop(sub.id, None)

    def _store_target(self, target: ast.AST) -> None:
        """A write *through* a target expression (not a rebind); the
        names a tuple target rebinds lose their alias."""
        if isinstance(target, ast.Subscript):
            root = self._root(target.value)
            if root is not None:
                self._flag(target, root, "item/slice assignment")
        elif isinstance(target, ast.Attribute):
            root = self._root(target.value)
            if root is not None:
                self._flag(target, root, f".{target.attr} assignment")
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                if isinstance(element, ast.Name):
                    self.env.pop(element.id, None)
                else:
                    self._store_target(element)

    def _stmt(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            self._scan(stmt.value)
            root = self._root(stmt.value) if stmt.value is not None else None
            targets: List[ast.expr] = (
                list(stmt.targets) if isinstance(stmt, ast.Assign)
                else [stmt.target]
            )
            for target in targets:
                if not isinstance(target, ast.Name):
                    self._store_target(target)
                elif root is not None:
                    self.env[target.id] = root
                else:
                    self.env.pop(target.id, None)
        elif isinstance(stmt, ast.AugAssign):
            self._scan(stmt.value)
            root = self._root(stmt.target)
            if root is not None:
                self._flag(stmt, root, "augmented assignment")
        elif isinstance(stmt, ast.Delete):
            for target in stmt.targets:
                if isinstance(target, ast.Subscript):
                    root = self._root(target.value)
                    if root is not None:
                        self._flag(stmt, root, "del of item/slice")
                elif isinstance(target, ast.Name):
                    self.env.pop(target.id, None)
        else:
            # Any other statement, field by field in source order: scan
            # its expressions, unbind loop and ``with`` targets, walk its
            # nested bodies.  A nested def captures the parameter by
            # closure, so it is walked with the current env (shadowing
            # params would be rare and only costs a reviewable false
            # positive).
            for name, value in ast.iter_fields(stmt):
                for item in value if isinstance(value, list) else [value]:
                    if isinstance(item, ast.stmt):
                        self._stmt(item)
                    elif isinstance(item, ast.ExceptHandler):
                        self._block(item.body)
                    elif isinstance(item, ast.withitem):
                        self._scan(item.context_expr)
                        if item.optional_vars is not None:
                            self._kill_targets(item.optional_vars)
                    elif name == "target":
                        self._kill_targets(item)
                    elif isinstance(item, ast.expr):
                        self._scan(item)


class NdarrayParamMutationRule(Rule):
    """DCL012: core functions must not mutate ndarray parameters."""

    code = "DCL012"
    summary = (
        "no in-place mutation of ndarray parameters in src/repro/core "
        "(+=, slice assignment, .sort()/.fill()/out=); *State-owned "
        "buffers are exempt"
    )

    def check(self, project: ProjectSymbols) -> Iterator[Violation]:
        for module in project.iter_files():
            if not _in_core(module.path):
                continue
            for name in sorted(module.functions):
                sym = module.functions[name]
                tracked = self._tracked_params(project, module, sym)
                if tracked:
                    yield from _MutationWalker(self, sym).run(tracked)

    def _tracked_params(
        self, project: ProjectSymbols, module: ModuleSymbols, sym: FunctionSymbol
    ) -> List[str]:
        tracked: List[str] = []
        for index, param in enumerate(sym.params):
            if index == 0 and sym.has_implicit_self:
                continue  # self/cls: *State-owned buffers are the seam
            annotation = sym.annotations.get(param)
            if annotation is None:
                continue
            if self._is_state_annotation(project, module, annotation):
                continue
            if "ndarray" in annotation or "NDArray" in annotation:
                tracked.append(param)
        return tracked

    @staticmethod
    def _is_state_annotation(
        project: ProjectSymbols,
        module: ModuleSymbols,
        annotation: str,
    ) -> bool:
        """Annotation names a project ``*State`` class (cross-module)."""
        return any(
            cls.name.lstrip("_").endswith("State")
            for cls in project.annotation_classes(module, annotation)
        )


class FloatEqualityRule(Rule):
    """DCL013: no float ``==``/``!=`` in core outside sanctioned seams."""

    code = "DCL013"
    summary = (
        "no float ==/!= comparisons in src/repro/core (incl. "
        "gain_engine): compare with an explicit tolerance, or suppress "
        "at a justified bitwise-parity seam"
    )

    _FLOAT_CONST_TAILS = frozenset({"nan", "inf", "infty", "infinity"})
    _FLOAT_RETURNS = ("float", "np.float64", "numpy.float64")

    def check(self, project: ProjectSymbols) -> Iterator[Violation]:
        for module in project.iter_files():
            if not _in_core(module.path):
                continue
            for node in ast.walk(module.tree):
                if not isinstance(node, ast.Compare):
                    continue
                if not any(
                    isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops
                ):
                    continue
                operands = [node.left, *node.comparators]
                reason = None
                for operand in operands:
                    reason = self._floatish(project, module, operand)
                    if reason is not None:
                        break
                if reason is None:
                    continue
                yield self._violation(
                    module.path,
                    node.lineno,
                    node.col_offset,
                    (
                        f"float equality comparison ({reason}); use an "
                        "explicit tolerance (math.isclose / np.isclose) "
                        "or justify a bitwise-parity seam with "
                        "'# dcl: disable=DCL013'"
                    ),
                )

    def _floatish(
        self,
        project: ProjectSymbols,
        module: ModuleSymbols,
        expr: ast.AST,
    ) -> Optional[str]:
        if isinstance(expr, ast.Constant) and isinstance(expr.value, float):
            return f"against float literal {expr.value!r}"
        if isinstance(expr, ast.UnaryOp) and isinstance(
            expr.operand, ast.Constant
        ):
            if isinstance(expr.operand.value, float):
                return "against a signed float literal"
        if isinstance(expr, ast.Call):
            func = expr.func
            if isinstance(func, ast.Name) and func.id == "float":
                return "against float(...)"
            dotted = module.dotted(func)
            callee = project.resolve_callable(dotted).function if dotted else None
            if callee is not None and callee.returns in self._FLOAT_RETURNS:
                return f"against the float return of '{callee.qualname}'"
        tail = _name_tail(expr)
        if tail is not None and tail.lower() in self._FLOAT_CONST_TAILS:
            return f"against {tail}"
        return None


def _name_tail(expr: ast.AST) -> Optional[str]:
    if isinstance(expr, ast.Attribute):
        return expr.attr
    if isinstance(expr, ast.Name):
        return expr.id
    return None
