"""Developer tooling: the DCL invariant linter (``repro lint``).

FLOC's correctness rests on invariants the test suite can only
spot-check -- determinism (every stochastic path threads an explicit
:class:`numpy.random.Generator`), the tracer clock seam, count-aware
residue math on matrices with missing entries, and ``__all__`` hygiene.
:mod:`repro.devtools.lint` checks them statically::

    python -m repro.devtools.lint src/
    repro lint --format json src/
    repro lint --call-graph floc src/ # print a function's reach

One pass parses every file once into a project-wide symbol table
(:mod:`repro.devtools.symbols`), builds a conservative cross-module
call graph over it (:mod:`repro.devtools.callgraph`), and runs one rule
per invariant: the module rules of :mod:`repro.devtools.rules` and the
fixpoint dataflow rules of :mod:`repro.devtools.dataflow` -- wall-clock
reads, direct and transitive (DCL010), RNG threading, direct and
transitive (DCL011), ndarray-parameter mutation (DCL012), float
equality (DCL013).

See ``docs/DEVELOPMENT.md`` for the rule catalogue and the rationale
behind each invariant.

Re-exports are lazy (PEP 562, :mod:`repro._lazy`) so
``python -m repro.devtools.lint`` does not import the submodule twice
(runpy would warn).
"""

from .._lazy import lazy_exports

__all__ = [
    "CallGraph",
    "LintReport",
    "ProjectSymbols",
    "RULES",
    "Rule",
    "Violation",
    "all_rules",
    "build_callgraph",
    "build_project",
    "collect_files",
    "known_codes",
    "lint_paths",
    "lint_source",
    "main",
    "propagate",
]

_resolve, __dir__ = lazy_exports(__name__, {
    ".callgraph": ("CallGraph", "build_callgraph"),
    ".dataflow": ("propagate",),
    ".lint": (
        "LintReport", "RULES", "all_rules", "collect_files", "known_codes",
        "lint_paths", "lint_source", "main",
    ),
    ".rules": ("Rule", "Violation"),
    ".symbols": ("ProjectSymbols", "build_project"),
})


def __getattr__(name: str) -> object:
    return _resolve(name)
