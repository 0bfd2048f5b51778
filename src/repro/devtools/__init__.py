"""Developer tooling: the DCL invariant linter (``repro lint``).

FLOC's correctness rests on invariants the test suite can only
spot-check -- determinism (every stochastic path threads an explicit
:class:`numpy.random.Generator`), the tracer clock seam, count-aware
residue math on matrices with missing entries, and ``__all__`` hygiene.
:mod:`repro.devtools.lint` checks them statically::

    python -m repro.devtools.lint src/
    repro lint --format json src/
    repro lint --deep src/            # + whole-program rules DCL010-013
    repro lint --call-graph floc src/ # print a function's reach

``--deep`` builds a project-wide symbol table
(:mod:`repro.devtools.symbols`), a conservative cross-module call graph
(:mod:`repro.devtools.callgraph`), and runs fixpoint dataflow rules
(:mod:`repro.devtools.dataflow`) that close the per-file invariants
transitively: wall-clock reach (DCL010), RNG threading (DCL011),
ndarray-parameter mutation (DCL012), float equality (DCL013).

See ``docs/DEVELOPMENT.md`` for the rule catalogue and the rationale
behind each invariant.

Re-exports are lazy (PEP 562, :mod:`repro._lazy`) so
``python -m repro.devtools.lint`` does not import the submodule twice
(runpy would warn).
"""

from .._lazy import lazy_exports

__all__ = [
    "CallGraph",
    "DEEP_RULES",
    "DeepRule",
    "FileContext",
    "LintReport",
    "ProjectSymbols",
    "RULES",
    "Rule",
    "Violation",
    "all_deep_rules",
    "all_rules",
    "build_callgraph",
    "build_project",
    "collect_files",
    "deep_lint",
    "known_codes",
    "lint_paths",
    "lint_source",
    "main",
    "propagate",
]

_resolve, __dir__ = lazy_exports(__name__, {
    ".callgraph": ("CallGraph", "build_callgraph"),
    ".dataflow": (
        "DEEP_RULES", "DeepRule", "all_deep_rules", "deep_lint", "propagate",
    ),
    ".lint": (
        "LintReport", "collect_files", "known_codes", "lint_paths",
        "lint_source", "main",
    ),
    ".rules": ("FileContext", "RULES", "Rule", "Violation", "all_rules"),
    ".symbols": ("ProjectSymbols", "build_project"),
})


def __getattr__(name: str) -> object:
    return _resolve(name)
