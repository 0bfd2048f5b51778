"""Timing guard for the linter itself.

``repro lint src/`` runs in CI on every push, so the one pass must not
rot into something slow: parsing the tree into the symbol table and
running every rule (the module rules, the cross-module rules, and
DCL011's call edges and fixpoint) over the full tree is AST-only work
and should stay within a couple of seconds.  The smoke assertion uses a deliberately
generous budget (CI machines are noisy) -- it exists to catch
accidental quadratic blowups, not to pin milliseconds.
"""

import time
from pathlib import Path

from repro.devtools.lint import lint_paths

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"

#: Generous wall-time ceiling for one lint pass over src/ (seconds).
#: Local runs take ~1 s; the cushion keeps CI noise out while still
#: failing loudly if the linter picks up super-linear behaviour.
DEEP_BUDGET_SECONDS = 10.0


def test_deep_lint_over_src_completes_within_budget(benchmark):
    def run():
        return lint_paths([str(SRC)])

    start = time.perf_counter()
    report = benchmark.pedantic(run, rounds=1, iterations=1)
    elapsed = time.perf_counter() - start
    assert report.violations == []
    assert report.files_checked > 0
    assert elapsed < DEEP_BUDGET_SECONDS, (
        f"lint over src/ took {elapsed:.2f}s "
        f"(budget {DEEP_BUDGET_SECONDS}s); the linter has rotted"
    )
