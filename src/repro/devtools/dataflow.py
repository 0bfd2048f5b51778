"""Fixpoint dataflow over the call graph: the whole-program DCL rules.

:func:`propagate` is a generic backward taint engine: given *seed*
functions (each with a human-readable reason) it walks caller edges to
a fixpoint and records, for every reached function, the call site and
callee it inherited the taint from -- so each violation can print a
witness chain (``floc -> _phase2 -> timed_helper``) instead of a bare
"transitively reaches".  Iteration order is sorted everywhere, so the
result -- and therefore ``repro lint --format json`` -- is
byte-deterministic.

The four rules here see the whole symbol table and the call graph.
DCL010 and DCL011 each check one reproducibility invariant in full:
the direct case in any module they scope, and its closure over calls.

DCL010
    Timing goes only through the tracer clock seam.  No wall-clock
    read (``time.*`` / ``datetime.*``) anywhere in ``src/repro/core/``
    or ``src/repro/obs/perf/`` -- module level and class bodies
    included -- and no core function whose callees (at any depth,
    across modules) read one.  The tracer clock seam (``Tracer.clock``)
    is a class attribute, not a ``def``, so calls through it stay
    unresolved rather than tainting callers -- the seam is sanctioned
    by construction -- and the perf package's bench clock is injected
    (``bench.DEFAULT_CLOCK``), so counted runs stay bit-identical.
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
from dataclasses import dataclass
from typing import (
    Callable,
    Dict,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from .callgraph import CallGraph, CallSite
from .rules import Rule, Violation, _in_core, _in_perf, _in_tests
from .symbols import (
    ClassSymbol,
    FunctionSymbol,
    ModuleSymbols,
    ProjectSymbols,
)

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


class ClockSeamRule(Rule):
    """DCL010: core and perf timing go only through an injected clock."""

    code = "DCL010"
    summary = (
        "no wall-clock reads (time.* / datetime.*) in src/repro/core/ or "
        "src/repro/obs/perf/, and no core function reaching one through "
        "its callees at any depth: timing goes through the tracer clock "
        "seam (Tracer.clock) or bench.DEFAULT_CLOCK"
    )

    def check(
        self, project: ProjectSymbols, graph: CallGraph
    ) -> Iterator[Violation]:
        yield from self._direct(project)
        yield from self._reach(graph)

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
            else:
                continue
            for node in ast.walk(module.tree):
                if not isinstance(node, ast.Call):
                    continue
                dotted = module.dotted(node.func)
                if dotted in _CLOCK_CALLS:
                    yield self._at(
                        module, node,
                        f"{dotted}() reads the wall clock {advice}",
                    )

    def _reach(self, graph: CallGraph) -> Iterator[Violation]:
        """Core functions that reach a wall-clock read through calls."""
        seeds: Dict[str, str] = {}
        for qualname in sorted(graph.nodes):
            node = graph.nodes[qualname]
            hits = sorted(set(node.external_calls) & _CLOCK_CALLS)
            if hits:
                seeds[qualname] = hits[0]
        tainted = propagate(graph, seeds)
        for qualname in sorted(tainted):
            taint = tainted[qualname]
            sym = graph.nodes[qualname].sym
            if taint.parent is None or not _in_core(sym.path):
                continue  # a reader itself is reported at its call
            chain = witness_chain(tainted, qualname)
            yield self._violation(
                sym.path,
                sym.lineno,
                sym.col,
                (
                    f"'{sym.name}' transitively reaches wall-clock call "
                    f"{taint.reason} via {_short_chain(chain)}; core timing "
                    "goes through the tracer clock seam"
                ),
            )


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

    def check(
        self, project: ProjectSymbols, graph: CallGraph
    ) -> Iterator[Violation]:
        # A bare default_rng() in a public core function is both global
        # state and an internal construction: report the call once.
        seen: Set[Tuple[str, int, int]] = set()
        for found in (
            self._global_state(project),
            self._constructions(project),
            self._threading(graph),
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
                dotted = module.dotted(node.func)
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
                    or sym.node is None
                ):
                    continue
                for node in ast.walk(sym.node):
                    if isinstance(node, ast.Call) and self._mints(
                        module, node.func
                    ):
                        yield self._at(
                            module, node,
                            f"public function '{sym.name.split('.')[-1]}' "
                            "constructs an RNG internally; accept it as an "
                            "'rng' parameter so callers control the stream",
                        )
                        break

    @staticmethod
    def _mints(module: ModuleSymbols, func: ast.AST) -> bool:
        dotted = module.dotted(func)
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
        assert self.sym.node is not None
        body = getattr(self.sym.node, "body", [])
        self._block(body)
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
            if (
                isinstance(func, ast.Attribute)
                and func.attr in _VIEW_FUNCS
                and expr.args
            ):
                # np.asarray(x), np.reshape(x, ...)
                return self._root(expr.args[0])
            if isinstance(func, ast.Attribute) and func.attr in _VIEW_METHODS:
                return self._root(func.value)
            if (
                isinstance(func, ast.Name)
                and func.id in _VIEW_FUNCS
                and expr.args
            ):
                return self._root(expr.args[0])
            return None
        return None

    def _flag(self, node: ast.AST, param: str, kind: str) -> None:
        self.found.append(
            self.rule._violation(
                self.sym.path,
                getattr(node, "lineno", self.sym.lineno),
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
                elif (
                    func.attr in _MUTATOR_FUNCS
                    and sub.args
                    and self._root(sub.args[0]) is not None
                ):
                    root = self._root(sub.args[0])
                    assert root is not None
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
        """A write *through* a target expression (not a rebind)."""
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
                self._store_target(element)

    def _stmt(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, ast.Assign):
            self._scan(stmt.value)
            root = self._root(stmt.value)
            for target in stmt.targets:
                if isinstance(target, ast.Name):
                    if root is not None:
                        self.env[target.id] = root
                    else:
                        self.env.pop(target.id, None)
                else:
                    self._store_target(target)
                    self._kill_targets_in_tuples(target)
        elif isinstance(stmt, ast.AnnAssign):
            self._scan(stmt.value)
            if isinstance(stmt.target, ast.Name):
                root = (
                    self._root(stmt.value) if stmt.value is not None else None
                )
                if root is not None:
                    self.env[stmt.target.id] = root
                else:
                    self.env.pop(stmt.target.id, None)
            else:
                self._store_target(stmt.target)
        elif isinstance(stmt, ast.AugAssign):
            self._scan(stmt.value)
            target = stmt.target
            if isinstance(target, ast.Name):
                root = self.env.get(target.id)
                if root is not None:
                    self._flag(stmt, root, "augmented assignment")
            else:
                root = self._root(target)
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
        elif isinstance(stmt, (ast.Expr, ast.Return)):
            self._scan(stmt.value)
        elif isinstance(stmt, ast.If):
            self._scan(stmt.test)
            self._block(stmt.body)
            self._block(stmt.orelse)
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            self._scan(stmt.iter)
            self._kill_targets(stmt.target)
            self._block(stmt.body)
            self._block(stmt.orelse)
        elif isinstance(stmt, ast.While):
            self._scan(stmt.test)
            self._block(stmt.body)
            self._block(stmt.orelse)
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                self._scan(item.context_expr)
                if item.optional_vars is not None:
                    self._kill_targets(item.optional_vars)
            self._block(stmt.body)
        elif isinstance(stmt, ast.Try):
            self._block(stmt.body)
            for handler in stmt.handlers:
                self._block(handler.body)
            self._block(stmt.orelse)
            self._block(stmt.finalbody)
        elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            # Nested defs capture the parameter by closure; walk them
            # with the current env (shadowing params would be rare and
            # only costs a reviewable false positive).
            self._block(stmt.body)
        elif isinstance(stmt, (ast.Raise, ast.Assert)):
            for value in ast.iter_child_nodes(stmt):
                self._scan(value)

    def _kill_targets_in_tuples(self, target: ast.AST) -> None:
        if isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                if isinstance(element, ast.Name):
                    self.env.pop(element.id, None)


class NdarrayParamMutationRule(Rule):
    """DCL012: core functions must not mutate ndarray parameters."""

    code = "DCL012"
    summary = (
        "no in-place mutation of ndarray parameters in src/repro/core "
        "(+=, slice assignment, .sort()/.fill()/out=); *State-owned "
        "buffers are exempt"
    )

    def check(
        self, project: ProjectSymbols, graph: CallGraph
    ) -> Iterator[Violation]:
        for module in project.iter_files():
            if not _in_core(module.path):
                continue
            for name in sorted(module.functions):
                sym = module.functions[name]
                tracked = self._tracked_params(project, module, sym)
                if tracked and sym.node is not None:
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
        cls: Optional[ClassSymbol]
        for token in annotation.replace('"', " ").replace("'", " ").split():
            cls = project.resolve_class_name(module, token.strip("[],"))
            if cls is not None and cls.name.lstrip("_").endswith("State"):
                return True
        return False


class FloatEqualityRule(Rule):
    """DCL013: no float ``==``/``!=`` in core outside sanctioned seams."""

    code = "DCL013"
    summary = (
        "no float ==/!= comparisons in src/repro/core (incl. "
        "gain_engine): compare with an explicit tolerance, or suppress "
        "at a justified bitwise-parity seam"
    )

    _FLOAT_CONST_TAILS = frozenset({"nan", "inf", "infty", "infinity"})

    def check(
        self, project: ProjectSymbols, graph: CallGraph
    ) -> Iterator[Violation]:
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
            if dotted is not None:
                resolution = project.resolve_callable(dotted)
                if (
                    resolution.function is not None
                    and resolution.function.returns is not None
                    and _returns_float(resolution.function.returns)
                ):
                    return (
                        "against the float return of "
                        f"'{resolution.function.qualname}'"
                    )
        tail = _name_tail(expr)
        if tail is not None and tail.lower() in self._FLOAT_CONST_TAILS:
            return f"against {tail}"
        return None


def _returns_float(annotation: str) -> bool:
    return annotation in ("float", "np.float64", "numpy.float64")


def _name_tail(expr: ast.AST) -> Optional[str]:
    if isinstance(expr, ast.Attribute):
        return expr.attr
    if isinstance(expr, ast.Name):
        return expr.id
    return None
