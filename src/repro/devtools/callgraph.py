"""Conservative cross-module call graph over a :class:`ProjectSymbols`.

The graph answers one question for the transitive rules: *which project
functions can this function reach, and which external calls does it
make along the way?*  Resolution is deliberately conservative and its
gaps are *accounted for* rather than silent: every call expression in
every analyzed function ends up in exactly one of three buckets --

* a **resolved edge** (:class:`CallSite`) to another project function:
  direct ``Name`` calls, calls through import aliases (including
  re-export chains), ``self.method()`` / ``cls.method()`` dispatch, and
  attribute calls on receivers whose project class is known from a
  parameter annotation or a local ``x = ClassName(...)`` binding;
* an **external call** -- the canonical dotted name of a callable
  rooted outside the project (``time.perf_counter``,
  ``numpy.random.default_rng``), which the dataflow rules match against
  their seed sets;
* an **unresolved call** (:class:`UnresolvedCall`) with a category
  saying why (``callable-parameter``, ``attribute-dispatch``,
  ``dynamic-expression``, ...).  ``repro lint`` reports the
  per-category totals so the blind spots of the analysis are visible.

A consequence worth knowing: the tracer clock seam
(``Tracer.clock = staticmethod(time.perf_counter)``) is a class
*attribute*, not a ``def``, so ``tracer.clock()`` lands in the
``missing-method`` bucket instead of resolving to a wall-clock call --
the seam is invisible to DCL010 by construction, which is exactly the
contract (tests substitute a fake clock there).

Each :class:`CallSite` also records whether the call *covers the
callee's RNG parameter* (positionally, by keyword, or conservatively
via ``*args``/``**kwargs``): DCL011's taint propagation stops at call
sites that thread the generator explicitly.
"""

from __future__ import annotations

import ast
import builtins
import re
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

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
    "UnresolvedCall",
    "build_callgraph",
    "render_reach",
]

_BUILTIN_NAMES = frozenset(dir(builtins))


@dataclass(frozen=True)
class CallSite:
    """One resolved project-internal call edge."""

    caller: str
    callee: str
    lineno: int
    col: int
    passes_rng: bool

    def to_dict(self) -> Dict[str, object]:
        return {
            "callee": self.callee,
            "line": self.lineno,
            "col": self.col,
            "passes_rng": self.passes_rng,
        }


@dataclass(frozen=True)
class UnresolvedCall:
    """One call the analysis could not resolve, with the reason why."""

    caller: str
    lineno: int
    col: int
    reason: str
    text: str

    def to_dict(self) -> Dict[str, object]:
        return {
            "line": self.lineno,
            "col": self.col,
            "reason": self.reason,
            "text": self.text,
        }


class Node:
    """Per-function bucket of resolved, external and unresolved calls."""

    def __init__(self, sym: FunctionSymbol) -> None:
        self.sym = sym
        self.calls: List[CallSite] = []
        #: canonical dotted name -> first line it is called on
        self.external_calls: Dict[str, int] = {}
        self.unresolved: List[UnresolvedCall] = []

    def to_dict(self) -> Dict[str, object]:
        return {
            "calls": [site.to_dict() for site in self.calls],
            "external": sorted(self.external_calls),
            "unresolved": [u.to_dict() for u in self.unresolved],
        }


class CallGraph:
    """The whole-program graph plus its reverse index and statistics."""

    def __init__(self, project: ProjectSymbols) -> None:
        self.project = project
        self.nodes: Dict[str, Node] = {}
        self.callers: Dict[str, List[CallSite]] = {}

    def _finish(self) -> None:
        for qualname in sorted(self.nodes):
            node = self.nodes[qualname]
            node.calls.sort(key=lambda s: (s.lineno, s.col, s.callee))
            node.unresolved.sort(key=lambda u: (u.lineno, u.col, u.reason))
            for site in node.calls:
                self.callers.setdefault(site.callee, []).append(site)
        for sites in self.callers.values():
            sites.sort(key=lambda s: (s.caller, s.lineno, s.col))

    def callees(self, qualname: str) -> List[CallSite]:
        node = self.nodes.get(qualname)
        return list(node.calls) if node is not None else []

    def callers_of(self, qualname: str) -> List[CallSite]:
        return list(self.callers.get(qualname, []))

    def transitive_callees(self, qualname: str) -> List[str]:
        """All project functions reachable from ``qualname`` (sorted)."""
        seen: Set[str] = set()
        frontier = [qualname]
        while frontier:
            current = frontier.pop()
            for site in self.callees(current):
                if site.callee not in seen:
                    seen.add(site.callee)
                    frontier.append(site.callee)
        seen.discard(qualname)
        return sorted(seen)

    def stats(self) -> Dict[str, object]:
        edges = sum(len(node.calls) for node in self.nodes.values())
        external = sum(
            len(node.external_calls) for node in self.nodes.values()
        )
        by_reason: Dict[str, int] = {}
        for node in self.nodes.values():
            for unresolved in node.unresolved:
                by_reason[unresolved.reason] = (
                    by_reason.get(unresolved.reason, 0) + 1
                )
        total_unresolved = sum(by_reason.values())
        return {
            "modules": len(self.project.modules),
            "functions": len(self.nodes),
            "edges": edges,
            "external_calls": external,
            "unresolved_calls": {
                "total": total_unresolved,
                "by_reason": {k: by_reason[k] for k in sorted(by_reason)},
            },
        }

    def to_dict(self) -> Dict[str, object]:
        return {
            "nodes": {
                qualname: self.nodes[qualname].to_dict()
                for qualname in sorted(self.nodes)
            },
            "stats": self.stats(),
        }


_ANNOTATION_TOKEN = re.compile(r"[A-Za-z_][A-Za-z0-9_.]*")


def _classes_from_annotation(
    project: ProjectSymbols, module: ModuleSymbols, annotation: str
) -> Optional[ClassSymbol]:
    """Best-effort: a project class named inside an annotation string."""
    for token in _ANNOTATION_TOKEN.findall(annotation.replace('"', "")):
        cls = project.resolve_class_name(module, token)
        if cls is not None:
            return cls
    return None


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
    """Classify every call expression inside one function body."""

    def __init__(
        self,
        project: ProjectSymbols,
        module: ModuleSymbols,
        node: Node,
    ) -> None:
        self.project = project
        self.module = module
        self.node = node
        self.sym = node.sym
        #: local name -> project class (parameter annotations plus
        #: flow-insensitive ``x = ClassName(...)`` bindings)
        self.env: Dict[str, ClassSymbol] = {}
        self._own_class = (
            module.classes.get(self.sym.class_name)
            if self.sym.class_name is not None
            else None
        )
        self._build_env()

    def _build_env(self) -> None:
        for param, annotation in self.sym.annotations.items():
            cls = _classes_from_annotation(
                self.project, self.module, annotation
            )
            if cls is not None:
                self.env[param] = cls
        assert self.sym.node is not None
        for sub in ast.walk(self.sym.node):
            if not isinstance(sub, ast.Assign) or not isinstance(
                sub.value, ast.Call
            ):
                continue
            parts = _dotted_parts(sub.value.func)
            if parts is None:
                continue
            cls = self.project.resolve_class_name(
                self.module, ".".join(parts)
            )
            if cls is None:
                continue
            for target in sub.targets:
                if isinstance(target, ast.Name):
                    self.env[target.id] = cls

    # -- classification --------------------------------------------------
    def walk(self) -> None:
        assert self.sym.node is not None
        for sub in ast.walk(self.sym.node):
            if isinstance(sub, ast.Call):
                self._classify(sub)

    def _edge(
        self, call: ast.Call, callee: FunctionSymbol, bound: bool
    ) -> None:
        self.node.calls.append(
            CallSite(
                caller=self.sym.qualname,
                callee=callee.qualname,
                lineno=call.lineno,
                col=call.col_offset,
                passes_rng=_call_passes_rng(callee, call, bound),
            )
        )

    def _external(self, call: ast.Call, dotted: str) -> None:
        self.node.external_calls.setdefault(dotted, call.lineno)

    def _unresolved(self, call: ast.Call, reason: str, text: str) -> None:
        self.node.unresolved.append(
            UnresolvedCall(
                caller=self.sym.qualname,
                lineno=call.lineno,
                col=call.col_offset,
                reason=reason,
                text=text,
            )
        )

    def _classify(self, call: ast.Call) -> None:
        parts = _dotted_parts(call.func)
        if parts is None:
            self._unresolved(call, "dynamic-expression", "<expr>()")
            return
        text = ".".join(parts)
        if len(parts) == 1:
            self._classify_name(call, parts[0])
            return
        base = parts[0]
        rest = parts[1:]
        # Instance receiver with a known project class.
        receiver = self.env.get(base)
        if receiver is None and base in ("self", "cls"):
            receiver = self._own_class
        if receiver is not None:
            if len(rest) == 1:
                resolution = self.project.resolve_method(receiver, rest[0])
                if resolution.function is not None:
                    self._edge(call, resolution.function, bound=True)
                else:
                    self._unresolved(
                        call, resolution.reason or "missing-method", text
                    )
            else:
                self._unresolved(call, "attribute-dispatch", text)
            return
        # Module alias / from-import chains.
        if base in self.module.imports:
            dotted = ".".join([self.module.imports[base], *rest])
            self._classify_dotted(call, dotted, text)
            return
        self._unresolved(call, "attribute-dispatch", text)

    def _classify_name(self, call: ast.Call, name: str) -> None:
        if name in self.module.functions:
            self._edge(call, self.module.functions[name], bound=False)
            return
        if name in self.module.classes:
            self._constructor(call, self.module.classes[name], name)
            return
        if name in self.module.imports:
            self._classify_dotted(call, self.module.imports[name], name)
            return
        if name in self.sym.params:
            self._unresolved(call, "callable-parameter", name)
            return
        if name in _BUILTIN_NAMES:
            self._external(call, f"builtins.{name}")
            return
        # A local binding (lambda, closure, comprehension variable...).
        self._unresolved(call, "dynamic-name", name)

    def _classify_dotted(
        self, call: ast.Call, dotted: str, text: str
    ) -> None:
        resolution = self.project.resolve_callable(dotted)
        if resolution.function is not None:
            # ``module.Class.method(obj, ...)`` is an unbound call.
            self._edge(call, resolution.function, bound=False)
            return
        if resolution.cls is not None:
            self._constructor(call, resolution.cls, text)
            return
        if resolution.reason == "external":
            self._external(call, dotted)
            return
        self._unresolved(call, resolution.reason or "unknown", text)

    def _constructor(
        self, call: ast.Call, cls: ClassSymbol, text: str
    ) -> None:
        """A class call is an edge to ``__init__`` when one is defined."""
        resolution = self.project.resolve_method(cls, "__init__")
        if resolution.function is not None:
            self._edge(call, resolution.function, bound=True)
        # A dataclass / inherited-init constructor has no project body
        # to analyze; that is not a blind spot worth reporting.


def build_callgraph(project: ProjectSymbols) -> CallGraph:
    """Walk every function of ``project`` and classify its calls."""
    graph = CallGraph(project)
    for sym in project.iter_functions():
        graph.nodes[sym.qualname] = Node(sym)
    for qualname in sorted(graph.nodes):
        node = graph.nodes[qualname]
        module = project.modules[node.sym.module]
        _FunctionWalker(project, module, node).walk()
    graph._finish()
    return graph


def render_reach(
    graph: CallGraph, pattern: str, *, max_depth: int = 12
) -> Tuple[List[str], bool]:
    """Human-readable transitive reach for ``repro lint --call-graph``.

    ``pattern`` matches a qualname exactly, or as a suffix on a dotted
    boundary (``floc`` matches ``repro.core.floc.floc``).  Returns the
    rendered lines and whether anything matched.
    """
    matches = [
        qualname
        for qualname in sorted(graph.nodes)
        if qualname == pattern or qualname.endswith("." + pattern)
    ]
    if not matches:
        return [], False
    lines: List[str] = []
    for root in matches:
        lines.extend(_render_one(graph, root, max_depth))
        lines.append("")
    return lines[:-1], True


def _render_one(graph: CallGraph, root: str, max_depth: int) -> List[str]:
    lines = [root]
    seen: Set[str] = {root}

    def visit(qualname: str, depth: int) -> None:
        node = graph.nodes.get(qualname)
        if node is None:
            return
        indent = "  " * depth
        for dotted in sorted(node.external_calls):
            lines.append(
                f"{indent}! {dotted}  "
                f"(line {node.external_calls[dotted]})"
            )
        reasons: Dict[str, int] = {}
        for unresolved in node.unresolved:
            reasons[unresolved.reason] = reasons.get(unresolved.reason, 0) + 1
        for reason in sorted(reasons):
            lines.append(f"{indent}? {reasons[reason]} x {reason}")
        for site in node.calls:
            marker = " [rng]" if site.passes_rng else ""
            if site.callee in seen:
                lines.append(f"{indent}- {site.callee}{marker} (seen)")
                continue
            seen.add(site.callee)
            lines.append(f"{indent}- {site.callee}{marker}")
            if depth < max_depth:
                visit(site.callee, depth + 1)

    visit(root, 1)
    return lines

