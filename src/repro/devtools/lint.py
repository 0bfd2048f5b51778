"""The linter engine and CLI: ``python -m repro.devtools.lint src/``.

Walks the given files/directories, parses every ``*.py`` file once,
runs the applicable :mod:`repro.devtools.rules` over each AST, applies
suppression comments, and reports in a human (``path:line:col: CODE
message``) or JSON format.  Exit status is 0 when the tree is clean,
1 when violations were found, 2 on usage errors.

``--deep`` additionally builds the project-wide symbol table and call
graph (:mod:`repro.devtools.symbols` / :mod:`repro.devtools.callgraph`)
and runs the transitive rules DCL010-DCL013 from
:mod:`repro.devtools.dataflow`; the JSON report then carries per-rule
violation counts plus the call-graph's unresolved-call statistics, and
is byte-identical across runs.  ``--call-graph FN`` prints a function's
transitive reach (project edges, external calls, unresolved buckets)
for debugging.

Suppression syntax
------------------
``# dcl: disable=DCL001`` (comma-separate multiple codes, or ``all``):

* on its own line -- disables the code(s) for the whole file; put it
  near the top with a short justification, as :mod:`repro.core.rng`
  does for its sanctioned RNG-construction seam;
* trailing a statement -- disables the code(s) for that line only.

Malformed codes (``disable=DCL01``) are reported as warnings instead of
being silently ignored; ``--strict-suppressions`` turns those warnings
-- plus suppressions naming unknown rules or suppressing rules that no
longer fire there (stale suppressions) -- into a failing exit status.

The library surface (:func:`lint_source`, :func:`lint_paths`) is what
the self-tests use: fixture snippets go through :func:`lint_source`
with a fake path, so path-scoped rules (DCL002/DCL003/DCL004 apply to
``repro/core/`` only) can be exercised without touching disk.
"""

from __future__ import annotations

import argparse
import io
import json
import re
import sys
import tokenize
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from .dataflow import DEEP_RULES, DeepRule, all_deep_rules, deep_lint
from .rules import RULES, FileContext, Rule, Violation, all_rules

__all__ = [
    "LintReport",
    "SuppressionWarning",
    "build_parser",
    "collect_files",
    "known_codes",
    "lint_paths",
    "lint_source",
    "main",
]

_SUPPRESS_RE = re.compile(r"#\s*dcl:\s*disable=([A-Za-z0-9_,\s]+)")
_CODE_RE = re.compile(r"^(ALL|DCL\d{3})$")


def known_codes() -> Set[str]:
    """Every registered rule code, per-file and deep."""
    return {cls.code for cls in RULES} | {cls.code for cls in DEEP_RULES}


@dataclass(frozen=True)
class SuppressionWarning:
    """A problem with a ``# dcl: disable=`` directive."""

    path: str
    line: int
    kind: str  #: ``malformed-code`` | ``unknown-code`` | ``stale``
    code: str
    message: str

    def to_dict(self) -> Dict[str, object]:
        return {
            "path": self.path,
            "line": self.line,
            "kind": self.kind,
            "code": self.code,
            "message": self.message,
        }

    def render(self) -> str:
        return f"{self.path}:{self.line}:0: {self.kind} {self.message}"


class LintReport:
    """Violations plus the bookkeeping the CLI prints."""

    def __init__(self) -> None:
        self.violations: List[Violation] = []
        self.files_checked: int = 0
        self.parse_errors: List[Tuple[str, str]] = []
        self.suppression_warnings: List[SuppressionWarning] = []
        self.stale_suppressions: List[SuppressionWarning] = []
        self.deep_stats: Optional[Dict[str, object]] = None

    @property
    def clean(self) -> bool:
        return not self.violations and not self.parse_errors

    @property
    def strict_clean(self) -> bool:
        """Clean under ``--strict-suppressions`` as well."""
        return (
            self.clean
            and not self.suppression_warnings
            and not self.stale_suppressions
        )

    def rule_counts(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for violation in self.violations:
            counts[violation.rule] = counts.get(violation.rule, 0) + 1
        return {code: counts[code] for code in sorted(counts)}

    def to_dict(self) -> Dict[str, object]:
        return {
            "files_checked": self.files_checked,
            "violations": [v.to_dict() for v in self.violations],
            "parse_errors": [
                {"path": path, "error": error}
                for path, error in self.parse_errors
            ],
            "rule_counts": self.rule_counts(),
            "suppression_warnings": [
                w.to_dict() for w in self.suppression_warnings
            ],
            "stale_suppressions": [
                w.to_dict() for w in self.stale_suppressions
            ],
            "deep": self.deep_stats,
        }


@dataclass(frozen=True)
class _Directive:
    """One parsed ``# dcl: disable=`` comment."""

    lineno: int
    codes: Tuple[str, ...]  #: well-formed codes only, upper-cased
    file_level: bool


class _Suppressions:
    """Per-file suppression tables plus directive/warning records."""

    def __init__(self, path: str, source: str) -> None:
        self.path = path
        self.file_level: Set[str] = set()
        self.by_line: Dict[int, Set[str]] = {}
        self.directives: List[_Directive] = []
        self.warnings: List[SuppressionWarning] = []
        self._parse(source)

    def _parse(self, source: str) -> None:
        # Tokenize so that only *comments* carry directives: a docstring
        # or message string that merely documents the syntax must not
        # act as (or be reported as) a suppression.
        try:
            comments = [
                (token.start[0], token.start[1], token.line, token.string)
                for token in tokenize.generate_tokens(
                    io.StringIO(source).readline
                )
                if token.type == tokenize.COMMENT
            ]
        except (tokenize.TokenError, IndentationError):
            return
        for lineno, col, physical_line, comment in comments:
            match = _SUPPRESS_RE.search(comment)
            if not match:
                continue
            valid: List[str] = []
            for raw in match.group(1).split(","):
                code = raw.strip().upper()
                if not code:
                    continue
                if not _CODE_RE.match(code):
                    self.warnings.append(
                        SuppressionWarning(
                            path=self.path,
                            line=lineno,
                            kind="malformed-code",
                            code=code,
                            message=(
                                f"malformed suppression code '{code}' "
                                "(expected DCLnnn or 'all'); it is ignored"
                            ),
                        )
                    )
                    continue
                if code != "ALL" and code not in known_codes():
                    self.warnings.append(
                        SuppressionWarning(
                            path=self.path,
                            line=lineno,
                            kind="unknown-code",
                            code=code,
                            message=(
                                f"suppression names unknown rule '{code}'"
                            ),
                        )
                    )
                    continue
                valid.append(code)
            file_level = physical_line[:col].strip() == ""
            self.directives.append(
                _Directive(lineno, tuple(valid), file_level)
            )
            if file_level:
                self.file_level |= set(valid)
            else:
                self.by_line.setdefault(lineno, set()).update(valid)

    def suppressed(self, violation: Violation) -> bool:
        for codes in (
            self.file_level,
            self.by_line.get(violation.line, set()),
        ):
            if "ALL" in codes or violation.rule in codes:
                return True
        return False

    def stale(
        self, raw_violations: Sequence[Violation], ran_codes: Set[str]
    ) -> List[SuppressionWarning]:
        """Line-level directive codes whose rule ran but found nothing.

        File-level directives are exempt: they sanction a *seam* (the
        :mod:`repro.core.rng` precedent) and may legitimately outlive
        any individual firing line.
        """
        out: List[SuppressionWarning] = []
        for directive in self.directives:
            if directive.file_level:
                continue
            fired = {
                v.rule
                for v in raw_violations
                if v.line == directive.lineno
            }
            for code in directive.codes:
                if code == "ALL":
                    live = bool(fired)
                elif code not in ran_codes:
                    continue  # rule not run (e.g. --select) -- can't judge
                else:
                    live = code in fired
                if live:
                    continue
                out.append(
                    SuppressionWarning(
                        path=self.path,
                        line=directive.lineno,
                        kind="stale",
                        code=code,
                        message=(
                            f"stale suppression: '{code}' no longer fires "
                            "on this line"
                        ),
                    )
                )
        return out


def lint_source(
    source: str,
    path: str,
    rules: Optional[Sequence[Rule]] = None,
) -> List[Violation]:
    """Lint one in-memory file; ``path`` drives the path-scoped rules."""
    found, _, _ = _lint_file(source, path, rules)
    return found


def _lint_file(
    source: str,
    path: str,
    rules: Optional[Sequence[Rule]] = None,
) -> Tuple[List[Violation], List[Violation], _Suppressions]:
    """``(kept, raw_pre_suppression, suppression_tables)`` for one file."""
    if rules is None:
        rules = all_rules()
    ctx = FileContext(path, source)
    suppressions = _Suppressions(path, source)
    raw: List[Violation] = []
    for rule in rules:
        if not rule.applies(ctx.path):
            continue
        raw.extend(rule.check(ctx))
    raw.sort(key=lambda v: (v.path, v.line, v.col, v.rule))
    kept = [v for v in raw if not suppressions.suppressed(v)]
    return kept, raw, suppressions


def collect_files(paths: Iterable[str]) -> List[Path]:
    """Expand files/directories into a sorted list of ``*.py`` files."""
    out: Set[Path] = set()
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            for sub in path.rglob("*.py"):
                if any(
                    part.startswith(".") or part == "__pycache__"
                    for part in sub.parts
                ):
                    continue
                out.add(sub)
        elif path.suffix == ".py":
            out.add(path)
        elif not path.exists():
            raise FileNotFoundError(f"no such file or directory: {raw}")
    return sorted(out)


def lint_paths(
    paths: Iterable[str],
    rules: Optional[Sequence[Rule]] = None,
    *,
    deep: bool = False,
    deep_rules: Optional[Sequence[DeepRule]] = None,
    check_suppressions: bool = True,
) -> LintReport:
    """Lint every ``*.py`` file under ``paths``.

    With ``deep=True`` the whole-program rules (DCL010-DCL013) run over
    the same file set and the report carries the call-graph statistics.
    ``check_suppressions`` collects malformed/unknown/stale suppression
    records (the CLI decides whether they fail the run).
    """
    if rules is None:
        rules = all_rules()
    report = LintReport()
    sources: Dict[str, str] = {}
    raw_by_path: Dict[str, List[Violation]] = {}
    tables_by_path: Dict[str, _Suppressions] = {}
    for path in collect_files(paths):
        try:
            source = path.read_text(encoding="utf-8")
        except OSError as exc:
            report.parse_errors.append((str(path), str(exc)))
            continue
        report.files_checked += 1
        try:
            kept, raw, tables = _lint_file(source, str(path), rules)
        except SyntaxError as exc:
            report.parse_errors.append((str(path), f"syntax error: {exc}"))
            continue
        sources[str(path)] = source
        raw_by_path[str(path)] = raw
        tables_by_path[str(path)] = tables
        report.violations.extend(kept)
        report.suppression_warnings.extend(tables.warnings)

    active_deep: Sequence[DeepRule] = ()
    if deep:
        active_deep = (
            deep_rules if deep_rules is not None else all_deep_rules()
        )
        deep_found, stats = deep_lint(sources, active_deep)
        report.deep_stats = stats
        for violation in deep_found:
            raw_by_path.setdefault(violation.path, []).append(violation)
            tables = tables_by_path.get(violation.path)
            if tables is None or not tables.suppressed(violation):
                report.violations.append(violation)

    if check_suppressions:
        deep_codes = {rule.code for rule in active_deep}
        for path_str in sorted(tables_by_path):
            tables = tables_by_path[path_str]
            ran = {
                rule.code for rule in rules if rule.applies(path_str)
            } | deep_codes
            report.stale_suppressions.extend(
                tables.stale(raw_by_path.get(path_str, []), ran)
            )

    report.violations.sort(key=lambda v: (v.path, v.line, v.col, v.rule))
    report.suppression_warnings.sort(key=lambda w: (w.path, w.line, w.code))
    report.stale_suppressions.sort(key=lambda w: (w.path, w.line, w.code))
    return report


def _split_select(
    select: Sequence[str],
) -> Tuple[List[str], List[str]]:
    """Partition ``--select`` codes into (per-file, deep) registries."""
    per_file_known = {cls.code for cls in RULES}
    deep_known = {cls.code for cls in DEEP_RULES}
    per_file: List[str] = []
    deep: List[str] = []
    unknown: List[str] = []
    for raw in select:
        code = raw.strip().upper()
        if code in per_file_known:
            per_file.append(code)
        elif code in deep_known:
            deep.append(code)
        else:
            unknown.append(code)
    if unknown:
        raise ValueError(f"unknown rule code(s): {', '.join(sorted(unknown))}")
    return per_file, deep


def build_parser() -> argparse.ArgumentParser:
    """Construct the argparse parser for ``repro lint``."""
    parser = argparse.ArgumentParser(
        prog="repro lint",
        description=(
            "AST-based invariant linter for the repro tree "
            "(determinism, clock seam, count-aware residue math, "
            "RNG threading, __all__ hygiene), with an optional "
            "whole-program mode (--deep) that checks transitive "
            "invariants over the cross-module call graph"
        ),
    )
    parser.add_argument(
        "paths", nargs="*", default=["src"],
        help="files or directories to lint (default: src)",
    )
    parser.add_argument(
        "--format", choices=("human", "json"), default="human",
        help="output format (default: human)",
    )
    parser.add_argument(
        "--select", default=None, metavar="CODES",
        help="comma-separated rule codes to run (default: all)",
    )
    parser.add_argument(
        "--list-rules", action="store_true",
        help="print the rule registry and exit",
    )
    parser.add_argument(
        "--deep", action="store_true",
        help=(
            "also run the whole-program rules (DCL010-DCL013) over the "
            "cross-module call graph"
        ),
    )
    parser.add_argument(
        "--call-graph", default=None, metavar="FN",
        help=(
            "print the transitive reach of a function (qualname or "
            "dotted suffix, e.g. 'floc' or 'repro.core.floc.floc') "
            "and exit"
        ),
    )
    parser.add_argument(
        "--strict-suppressions", action="store_true",
        help=(
            "fail on malformed suppression codes, suppressions naming "
            "unknown rules, and stale suppressions"
        ),
    )
    return parser


def _run_call_graph(paths: Sequence[str], pattern: str) -> int:
    from .callgraph import build_callgraph, render_reach
    from .symbols import build_project

    sources: Dict[str, str] = {}
    for path in collect_files(paths):
        try:
            sources[str(path)] = path.read_text(encoding="utf-8")
        except OSError:
            continue
    graph = build_callgraph(build_project(sources))
    lines, matched = render_reach(graph, pattern)
    if not matched:
        print(f"error: no function matches '{pattern}'", file=sys.stderr)
        return 2
    for line in lines:
        print(line)
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(list(argv) if argv is not None else None)
    if args.list_rules:
        for rule in all_rules():
            print(f"{rule.code}  {rule.summary}")
        for deep_rule in all_deep_rules():
            print(f"{deep_rule.code}  (deep) {deep_rule.summary}")
        return 0
    try:
        if args.select:
            per_file_select, deep_select = _split_select(
                args.select.split(",")
            )
            rules = all_rules(per_file_select)
            deep_rules: Optional[Sequence[DeepRule]] = all_deep_rules(
                deep_select
            )
        else:
            rules = all_rules()
            deep_rules = None
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        if args.call_graph is not None:
            return _run_call_graph(args.paths, args.call_graph)
        report = lint_paths(
            args.paths,
            rules,
            deep=args.deep,
            deep_rules=deep_rules,
        )
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    failed = not report.clean or (
        args.strict_suppressions and not report.strict_clean
    )
    if args.format == "json":
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    else:
        for violation in report.violations:
            print(violation.render())
        for path, error in report.parse_errors:
            print(f"{path}:1:0: PARSE {error}")
        for warning in report.suppression_warnings:
            print(warning.render(), file=sys.stderr)
        if args.strict_suppressions:
            for warning in report.stale_suppressions:
                print(warning.render(), file=sys.stderr)
        status = "clean" if report.clean else (
            f"{len(report.violations)} violation(s)"
        )
        deep_note = ""
        if report.deep_stats is not None:
            unresolved = report.deep_stats["unresolved_calls"]
            assert isinstance(unresolved, dict)
            deep_note = (
                f" [deep: {report.deep_stats['functions']} functions, "
                f"{report.deep_stats['edges']} edges, "
                f"{unresolved['total']} unresolved calls]"
            )
        print(
            f"checked {report.files_checked} file(s): {status}{deep_note}",
            file=sys.stderr,
        )
    return 0 if not failed else 1


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(main())
