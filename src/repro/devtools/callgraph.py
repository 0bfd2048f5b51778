"""Cross-module call edges over a :class:`ProjectSymbols`: DCL011's graph.

The graph answers the one question DCL011's threading check asks:
*which project functions does this function call, and does each call
pass the callee's generator?*  A call becomes a :class:`CallSite` edge
when its target resolves to a project function:

* a name or dotted name through the module's imports, re-export chains
  chased (:meth:`ProjectSymbols.canonical`) -- a class call is an edge
  to its ``__init__``;
* a method call on ``self``/``cls``, or on a receiver whose project
  class is known from a parameter annotation (``engine: GainEngine``,
  its class imported anywhere, ``TYPE_CHECKING`` blocks included) or a
  local ``x = ClassName(...)`` binding.

Methods resolve from those types only, never by name: a method call on
an unannotated receiver (``state.perform(...)``) makes no edge.  A call
that resolves to no project function is kept by its canonical dotted
name in :attr:`Node.external_calls` (``numpy.random.default_rng``,
which seeds DCL011's taint).  The tracer clock seam
(``tracer.clock()``) is such a call: ``Tracer.clock`` is a class
attribute, not a ``def``.

Each :class:`CallSite` also records whether the call *covers the
callee's RNG parameter* (positionally, by keyword, or conservatively
via ``*args``/``**kwargs``): DCL011's taint propagation stops at call
sites that thread the generator explicitly.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Dict, List, Optional, Set

from .symbols import (
    ClassSymbol,
    FunctionSymbol,
    ModuleSymbols,
    ProjectSymbols,
    _dotted_parts,
)

__all__ = [
    "CallGraph",
    "CallSite",
    "Node",
    "build_callgraph",
]


@dataclass(frozen=True)
class CallSite:
    """One resolved project-internal call edge."""

    caller: str
    callee: str
    lineno: int
    col: int
    passes_rng: bool


class Node:
    """One function's resolved edges and the other calls it makes."""

    def __init__(self, sym: FunctionSymbol) -> None:
        self.sym = sym
        self.calls: List[CallSite] = []
        #: canonical dotted names of the calls no project function takes
        self.external_calls: Set[str] = set()


class CallGraph:
    """Every function's :class:`Node` plus the reverse (caller) index."""

    def __init__(self) -> None:
        self.nodes: Dict[str, Node] = {}
        self.callers: Dict[str, List[CallSite]] = {}

    def callers_of(self, qualname: str) -> List[CallSite]:
        return list(self.callers.get(qualname, []))


def _call_passes_rng(
    callee: FunctionSymbol, call: ast.Call, bound: bool
) -> bool:
    """Does this call site cover the callee's RNG parameter?

    Conservative in the *stopping* direction for DCL011: ``*args`` /
    ``**kwargs`` are assumed to pass the generator, so taint never
    propagates through a splat (avoiding false positives at the cost of
    possibly missing an unthreaded splat call).
    """
    spec = callee.rng_parameter()
    if spec is None:
        return False
    name, index = spec
    if bound and callee.has_implicit_self:
        index -= 1
    if index < 0:
        return False
    for keyword in call.keywords:
        if keyword.arg is None or keyword.arg == name:
            return True
    positional = 0
    for arg in call.args:
        if isinstance(arg, ast.Starred):
            return True
        positional += 1
    return positional > index


class _FunctionWalker:
    """Resolve every call expression inside one function body."""

    def __init__(
        self, project: ProjectSymbols, module: ModuleSymbols, node: Node
    ) -> None:
        self.project = project
        self.module = module
        self.node = node
        self.sym = node.sym
        #: local name -> project class (parameter annotations plus
        #: flow-insensitive ``x = ClassName(...)`` bindings)
        self.env: Dict[str, ClassSymbol] = {}
        if self.sym.class_name is not None:
            own = module.classes[self.sym.class_name]
            self.env.update(self=own, cls=own)
        for param, annotation in self.sym.annotations.items():
            for cls in project.annotation_classes(module, annotation):
                self.env[param] = cls
                break
        for sub in ast.walk(self.sym.node):
            if isinstance(sub, ast.Assign) and isinstance(sub.value, ast.Call):
                cls = self._class_of(sub.value.func)
                for target in sub.targets:
                    if cls is not None and isinstance(target, ast.Name):
                        self.env[target.id] = cls

    def _class_of(self, func: ast.AST) -> Optional[ClassSymbol]:
        parts = _dotted_parts(func)
        if parts is None:
            return None
        return self.project.resolve_class_name(self.module, ".".join(parts))

    def walk(self) -> None:
        for sub in ast.walk(self.sym.node):
            if isinstance(sub, ast.Call):
                self._resolve(sub)

    def _edge(
        self, call: ast.Call, callee: Optional[FunctionSymbol], bound: bool
    ) -> None:
        if callee is None:
            return
        self.node.calls.append(
            CallSite(
                caller=self.sym.qualname,
                callee=callee.qualname,
                lineno=call.lineno,
                col=call.col_offset,
                passes_rng=_call_passes_rng(callee, call, bound),
            )
        )

    def _resolve(self, call: ast.Call) -> None:
        parts = _dotted_parts(call.func)
        if parts is None:
            return
        receiver = self.env.get(parts[0])
        if receiver is not None:
            if len(parts) == 2:
                method = self.project.resolve_method(receiver, parts[1])
                self._edge(call, method, bound=True)
            return
        dotted = self.project.dotted(self.module, call.func)
        if dotted is None:
            return
        resolution = self.project.resolve_callable(dotted)
        if resolution.function is not None:
            # ``module.Class.method(obj, ...)`` is an unbound call.
            self._edge(call, resolution.function, bound=False)
        elif resolution.cls is not None:
            init = self.project.resolve_method(resolution.cls, "__init__")
            self._edge(call, init, bound=True)
        else:
            self.node.external_calls.add(dotted)


def build_callgraph(project: ProjectSymbols) -> CallGraph:
    """Walk every function of ``project`` and resolve its calls."""
    graph = CallGraph()
    for sym in project.iter_functions():
        node = graph.nodes[sym.qualname] = Node(sym)
        _FunctionWalker(project, project.modules[sym.module], node).walk()
        node.calls.sort(key=lambda s: (s.lineno, s.col, s.callee))
    for qualname in sorted(graph.nodes):
        for site in graph.nodes[qualname].calls:
            graph.callers.setdefault(site.callee, []).append(site)
    for sites in graph.callers.values():
        sites.sort(key=lambda s: (s.caller, s.lineno, s.col))
    return graph
