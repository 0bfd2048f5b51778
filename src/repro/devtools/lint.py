"""The linter engine and CLI: ``python -m repro.devtools.lint src/``.

Walks the given files/directories, parses every ``*.py`` file once into
one project-wide symbol table (:mod:`repro.devtools.symbols`), runs
every rule of :data:`RULES` over it, applies suppression comments, and
reports in a human (``path:line:col: CODE message``) or JSON format.
The JSON report carries per-rule violation counts and is byte-identical
across runs.  Exit status is 0 when the tree is clean, 1 when
violations were found or a file could not be read or parsed (a
``PARSE`` line: a syntax error, or a file that is not UTF-8), 2 on
usage errors -- a path that does not exist, arguments that name no
Python file, an unknown rule code.

Suppression syntax
------------------
``# dcl: disable=DCL011`` (comma-separate multiple codes, or ``all``):

* on its own line -- disables the code(s) for the whole file; put it
  near the top with a short justification, as :mod:`repro.core.rng`
  does for its sanctioned RNG-construction seam;
* trailing a statement -- disables the code(s) for that line only.

Malformed codes (``disable=DCL01``) are reported as warnings instead of
being silently ignored; ``--strict-suppressions`` turns those warnings
-- plus suppressions naming unknown (or retired) rules or suppressing
rules that no longer fire there (stale suppressions) -- into a failing
exit status.

The library surface (:func:`lint_source`, :func:`lint_paths`) is what
the self-tests use: fixture snippets go through :func:`lint_source`
with a fake path, so path-scoped rules (DCL003/DCL006/DCL010 apply to
``repro/core/``) can be exercised without touching disk.
"""

from __future__ import annotations

import argparse
import io
import json
import re
import sys
import tokenize
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple, Type

from .dataflow import (
    ClockSeamRule,
    FloatEqualityRule,
    NdarrayParamMutationRule,
    RngThreadingRule,
)
from .rules import (
    DunderAllRule,
    ExceptionSwallowRule,
    MutableGlobalWriteRule,
    NanAggregationRule,
    Rule,
    Violation,
)
from .symbols import (
    ModuleSymbols,
    ProjectSymbols,
    build_project,
    module_name_for_path,
)

__all__ = [
    "LintReport",
    "RULES",
    "SuppressionWarning",
    "all_rules",
    "build_parser",
    "collect_files",
    "known_codes",
    "lint_paths",
    "lint_source",
    "main",
]

_SUPPRESS_RE = re.compile(r"#\s*dcl:\s*disable=([A-Za-z0-9_,\s]+)")
_CODE_RE = re.compile(r"^(ALL|DCL\d{3})$")

#: The rule registry, in code order.  Retired codes (DCL001/002/004/008,
#: folded into DCL010 and DCL011) are unknown to ``--select`` and to
#: suppression comments alike.
RULES: Tuple[Type[Rule], ...] = (
    NanAggregationRule,
    DunderAllRule,
    MutableGlobalWriteRule,
    ExceptionSwallowRule,
    ClockSeamRule,
    RngThreadingRule,
    NdarrayParamMutationRule,
    FloatEqualityRule,
)


def all_rules(select: Optional[Sequence[str]] = None) -> List[Rule]:
    """Instantiate the registry, optionally filtered to ``select`` codes
    (blank entries, as a trailing comma leaves, are ignored)."""
    rules = [cls() for cls in RULES]
    if select is None:
        return rules
    wanted = {code.strip().upper() for code in select if code.strip()}
    if not wanted:
        raise ValueError("no rule code selected")
    unknown = wanted - {r.code for r in rules}
    if unknown:
        raise ValueError(f"unknown rule code(s): {', '.join(sorted(unknown))}")
    return [r for r in rules if r.code in wanted]


def known_codes() -> Set[str]:
    """Every registered rule code."""
    return {cls.code for cls in RULES}


@dataclass(frozen=True)
class SuppressionWarning:
    """A problem with a ``# dcl: disable=`` directive."""

    path: str
    line: int
    kind: str  #: ``malformed-code`` | ``unknown-code`` | ``stale``
    code: str
    message: str

    def to_dict(self) -> Dict[str, object]:
        return asdict(self)

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
                    kind, problem = "malformed-code", (
                        f"malformed suppression code '{code}' "
                        "(expected DCLnnn or 'all'); it is ignored"
                    )
                elif code != "ALL" and code not in known_codes():
                    kind, problem = "unknown-code", (
                        f"suppression names unknown rule '{code}'"
                    )
                else:
                    valid.append(code)
                    continue
                self.warnings.append(
                    SuppressionWarning(self.path, lineno, kind, code, problem)
                )
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
                    continue  # rule not run here (--select, path scope)
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
    project = ProjectSymbols()
    project.add_module(ModuleSymbols(module_name_for_path(path), path, source))
    report = LintReport()
    _check(project, all_rules() if rules is None else rules, report)
    return report.violations


def collect_files(paths: Iterable[str]) -> List[Path]:
    """Expand files/directories into a sorted list of ``*.py`` files.

    A path that does not exist, or arguments that yield no Python file
    at all (a ``README.md``, an empty directory), raise
    :class:`FileNotFoundError`: a lint of nothing is not a clean lint.
    """
    raws = list(paths)
    out: Set[Path] = set()
    for raw in raws:
        path = Path(raw)
        if path.is_dir():
            for sub in path.rglob("*.py"):
                if any(
                    part.startswith(".") or part == "__pycache__"
                    for part in sub.parts
                ):
                    continue
                out.add(sub)
        elif not path.exists():
            raise FileNotFoundError(f"no such file or directory: {raw}")
        elif path.suffix == ".py":
            out.add(path)
    if not out:
        raise FileNotFoundError(f"no Python files in: {' '.join(raws)}")
    return sorted(out)


def lint_paths(
    paths: Iterable[str],
    rules: Optional[Sequence[Rule]] = None,
) -> LintReport:
    """Lint every ``*.py`` file under ``paths`` as one project.

    The report also collects malformed/unknown/stale suppression
    records; the CLI decides whether they fail the run.
    """
    report = LintReport()
    sources = _read_sources(paths, report.parse_errors)
    report.files_checked = len(sources)
    project = build_project(sources, report.parse_errors)
    _check(project, all_rules() if rules is None else rules, report)
    return report


def _read_sources(
    paths: Iterable[str], errors: Optional[List[Tuple[str, str]]] = None
) -> Dict[str, str]:
    """``{path: source}`` of every ``*.py`` file under ``paths``; a file
    that cannot be read, or is not UTF-8, is left out (and listed in
    ``errors``)."""
    sources: Dict[str, str] = {}
    for path in collect_files(paths):
        try:
            sources[str(path)] = path.read_text(encoding="utf-8")
        except OSError as exc:
            if errors is not None:
                errors.append((str(path), str(exc)))
        except UnicodeDecodeError as exc:
            if errors is not None:
                errors.append((str(path), f"not UTF-8: {exc}"))
    return sources


def _check(
    project: ProjectSymbols, rules: Sequence[Rule], report: LintReport
) -> None:
    """Run ``rules`` over ``project`` into ``report``: the violations no
    comment suppresses, the suppression warnings and the stale
    suppressions."""
    raw: Dict[str, List[Violation]] = {path: [] for path in project.files}
    for rule in rules:
        for violation in rule.check(project):
            raw.setdefault(violation.path, []).append(violation)
    for path in sorted(project.files):
        tables = _Suppressions(path, project.files[path].source)
        report.violations.extend(v for v in raw[path] if not tables.suppressed(v))
        report.suppression_warnings.extend(tables.warnings)
        ran = {rule.code for rule in rules if rule.applies(path)}
        report.stale_suppressions.extend(tables.stale(raw[path], ran))
    report.violations.sort(key=lambda v: (v.path, v.line, v.col, v.rule))
    report.suppression_warnings.sort(key=lambda w: (w.path, w.line, w.code))
    report.stale_suppressions.sort(key=lambda w: (w.path, w.line, w.code))


def build_parser() -> argparse.ArgumentParser:
    """Construct the argparse parser for ``repro lint``."""
    parser = argparse.ArgumentParser(
        prog="repro lint",
        description=(
            "AST-based invariant linter for the repro tree "
            "(determinism, clock seam and core's import boundary, "
            "count-aware residue math, RNG threading, __all__ "
            "hygiene): one pass over one project-wide symbol table"
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
        "--strict-suppressions", action="store_true",
        help=(
            "fail on malformed suppression codes, suppressions naming "
            "unknown rules, and stale suppressions"
        ),
    )
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(list(argv) if argv is not None else None)
    if args.list_rules:
        for rule in all_rules():
            print(f"{rule.code}  {rule.summary}")
        return 0
    try:
        rules = all_rules(args.select.split(",") if args.select else None)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        report = lint_paths(args.paths, rules)
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
        print(
            f"checked {report.files_checked} file(s): {status}",
            file=sys.stderr,
        )
    return 0 if not failed else 1


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(main())
