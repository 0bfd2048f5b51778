"""Developer tooling: the DCL invariant linter (``repro lint``).

FLOC's correctness rests on invariants the test suite can only
spot-check -- determinism (every stochastic path threads an explicit
:class:`numpy.random.Generator`), the tracer clock seam, count-aware
residue math on matrices with missing entries, and ``__all__`` hygiene.
:mod:`repro.devtools.lint` checks them statically::

    python -m repro.devtools.lint src/
    repro lint --format json src/

One pass parses every file once into a project-wide symbol table
(:mod:`repro.devtools.symbols`) and runs one rule per invariant: the
module rules of :mod:`repro.devtools.rules` and the cross-module rules
of :mod:`repro.devtools.dataflow` -- wall-clock reads plus core's
import boundary (DCL010), RNG threading, direct and over call edges
(DCL011, the one rule that follows calls, through
:mod:`repro.devtools.callgraph`), ndarray-parameter mutation (DCL012),
float equality (DCL013).

See ``docs/DEVELOPMENT.md`` for the rule catalogue, the mutation
census of what each rule catches, and the rationale behind each
invariant.

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
