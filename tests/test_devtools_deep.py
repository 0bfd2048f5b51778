"""Self-tests for the cross-module side of ``repro lint``.

Covers the analysis layers (symbol table, DCL011's call edges, the
taint fixpoint) plus the four rules that read across modules,
DCL010-DCL013.  Each rule gets at least one positive fixture spread
across two modules that no single-file AST rule could see -- alongside
negative, suppression, and path-scoping cases, following the
``tests/test_devtools_lint.py`` pattern.  A determinism test asserts
two ``--format json`` runs over the real ``src/`` tree are
byte-identical.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.devtools import dataflow
from repro.devtools.callgraph import build_callgraph
from repro.devtools.dataflow import propagate, witness_chain
from repro.devtools.lint import RULES, all_rules, lint_paths, main
from repro.devtools.symbols import build_project, module_name_for_path

pytestmark = pytest.mark.devtools

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"

CORE_A = "src/repro/core/alpha.py"
CORE_B = "src/repro/core/beta.py"
OTHER_A = "src/repro/data/alpha.py"
OTHER_B = "src/repro/data/beta.py"


def lint_files(files, select):
    """The ``select`` rules' unsuppressed findings on ``{path: source}``."""
    project = build_project(files)
    found = [
        violation
        for rule in all_rules(select)
        for violation in rule.check(project)
    ]
    return sorted(found, key=lambda v: (v.path, v.line, v.col, v.rule))


def rule_codes(files, select):
    return [v.rule for v in lint_files(files, select)]


def write_tree(tmp_path, files):
    """Materialize a ``{relpath: source}`` dict under ``tmp_path``."""
    for rel, source in files.items():
        target = tmp_path / rel
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(source)
    return tmp_path


# ----------------------------------------------------------------------
# Symbol table
# ----------------------------------------------------------------------
class TestSymbols:
    def test_module_name_from_src_layout(self):
        assert module_name_for_path("src/repro/core/floc.py") == (
            "repro.core.floc"
        )
        assert module_name_for_path("/tmp/x/src/repro/core/__init__.py") == (
            "repro.core"
        )

    def test_relative_import_resolution(self):
        files = {
            "src/repro/core/alpha.py": (
                "from .beta import helper\n"
                "from ..obs.events import Event\n"
                "__all__ = []\n"
            ),
            "src/repro/core/beta.py": "__all__ = ['helper']\n"
            "def helper():\n    return 1\n",
        }
        project = build_project(files)
        module = project.modules["repro.core.alpha"]
        assert module.imports["helper"] == "repro.core.beta.helper"
        assert module.imports["Event"] == "repro.obs.events.Event"
        resolution = project.resolve_callable("repro.core.beta.helper")
        assert resolution.function is not None
        assert resolution.function.qualname == "repro.core.beta.helper"

    def test_reexport_chain_is_chased(self):
        files = {
            "src/pkg/__init__.py": "from .impl import work\n__all__ = ['work']\n",
            "src/pkg/impl.py": "__all__ = ['work']\ndef work():\n    return 0\n",
            "src/app.py": (
                "import pkg\n__all__ = []\n"
                "def run():\n    return pkg.work()\n"
            ),
        }
        project = build_project(files)
        graph = build_callgraph(project)
        callees = [s.callee for s in graph.nodes["app.run"].calls]
        assert callees == ["pkg.impl.work"]


# ----------------------------------------------------------------------
# Call graph
# ----------------------------------------------------------------------
_GOLDEN_FILES = {
    "src/mypkg/__init__.py": "",
    "src/mypkg/util.py": (
        "import time\n"
        "__all__ = ['tick']\n"
        "def tick():\n"
        "    return time.perf_counter()\n"
    ),
    "src/mypkg/app.py": (
        "from .util import tick\n"
        "__all__ = ['Runner', 'main']\n"
        "class Runner:\n"
        "    def __init__(self):\n"
        "        self.count = 0\n"
        "    def go(self):\n"
        "        self.count = self.count + 1\n"
        "        return tick()\n"
        "def main(callback):\n"
        "    runner = Runner()\n"
        "    callback()\n"
        "    return runner.go()\n"
    ),
}


class TestCallGraph:
    def test_method_dispatch_and_constructor_edges(self):
        graph = build_callgraph(build_project(_GOLDEN_FILES))
        main_calls = [s.callee for s in graph.nodes["mypkg.app.main"].calls]
        assert "mypkg.app.Runner.__init__" in main_calls
        assert "mypkg.app.Runner.go" in main_calls
        go_calls = [s.callee for s in graph.nodes["mypkg.app.Runner.go"].calls]
        assert go_calls == ["mypkg.util.tick"]

    def test_external_calls_are_canonical(self):
        graph = build_callgraph(build_project(_GOLDEN_FILES))
        assert "time.perf_counter" in (
            graph.nodes["mypkg.util.tick"].external_calls
        )


# ----------------------------------------------------------------------
# Fixpoint propagation
# ----------------------------------------------------------------------
class TestPropagate:
    def test_witness_chain_is_deterministic(self):
        files = {
            "src/repro/core/alpha.py": (
                "from .beta import middle\n__all__ = []\n"
                "def top():\n    return middle()\n"
            ),
            "src/repro/core/beta.py": (
                "import time\n__all__ = []\n"
                "def middle():\n    return leaf()\n"
                "def leaf():\n    return time.perf_counter()\n"
            ),
        }
        graph = build_callgraph(build_project(files))
        tainted = propagate(graph, {"repro.core.beta.leaf": "clock"})
        chain = witness_chain(tainted, "repro.core.alpha.top")
        assert chain == [
            "repro.core.alpha.top",
            "repro.core.beta.middle",
            "repro.core.beta.leaf",
        ]

    def test_follow_filter_stops_taint(self):
        files = {
            "src/repro/core/alpha.py": (
                "from .beta import consume\n__all__ = []\n"
                "def threaded(rng):\n    return consume(rng=rng)\n"
            ),
            "src/repro/core/beta.py": (
                "__all__ = []\n"
                "def consume(rng=None):\n    return rng\n"
            ),
        }
        graph = build_callgraph(build_project(files))
        tainted = propagate(
            graph,
            {"repro.core.beta.consume": "rng"},
            follow=lambda site: not site.passes_rng,
        )
        assert "repro.core.alpha.threaded" not in tainted


# ----------------------------------------------------------------------
# DCL010 -- wall-clock reads, and core's import boundary
# ----------------------------------------------------------------------
class TestTransitiveWallClock:
    FILES = {
        CORE_A: (
            "from .beta import helper\n__all__ = []\n"
            "def run(x):\n    return helper(x)\n"
        ),
        CORE_B: (
            "import time\n__all__ = []\n"
            "def helper(x):\n    return x + time.perf_counter()\n"
        ),
    }

    def test_transitive_reach_fires_in_core(self):
        # A core module that can reach a clock outside the checked
        # modules is flagged in core, at the import that leaves the
        # boundary -- invisible to any single-file clock check.  (A core
        # caller of a *core* reader is not flagged: the reader is, at
        # its clock call.)
        files = {
            CORE_A: self.FILES[CORE_A].replace(".beta", "..data.beta"),
            OTHER_B: self.FILES[CORE_B],
        }
        violations = lint_files(files, ["DCL010"])
        assert [(v.path, v.line) for v in violations] == [(CORE_A, 1)]
        assert "imports repro.data.beta.helper" in violations[0].message

    def test_direct_reader_is_reported_at_its_call(self):
        # The reader is flagged once, at the clock call itself -- not
        # again at its def line as the seed of the transitive reach.
        violations = lint_files(self.FILES, ["DCL010"])
        assert [(v.path, v.line) for v in violations if v.path == CORE_B] == [
            (CORE_B, 4)
        ]

    def test_stdlib_names_without_stdlib_module_names(self, monkeypatch):
        # Python 3.9 has no sys.stdlib_module_names: the boundary then
        # lists the standard library directory instead.
        monkeypatch.delattr(sys, "stdlib_module_names", raising=False)
        names = dataflow._stdlib_modules.__wrapped__()
        assert {"__future__", "dataclasses", "math", "os", "time",
                "typing"} <= names
        assert "numpy" not in names and "repro" not in names

    def test_clean_chain_is_silent(self):
        files = {
            CORE_A: (
                "from .beta import helper\n__all__ = []\n"
                "def run(x):\n    return helper(x)\n"
            ),
            CORE_B: "__all__ = []\ndef helper(x):\n    return x * 2\n",
        }
        assert rule_codes(files, ["DCL010"]) == []

    def test_path_scoping_outside_core(self):
        files = {
            OTHER_A: self.FILES[CORE_A],
            OTHER_B: self.FILES[CORE_B],
        }
        assert rule_codes(files, ["DCL010"]) == []

    def test_line_level_suppression(self, tmp_path):
        files = dict(self.FILES)
        files[CORE_A] = files[CORE_A].replace(
            "def run(x):", "def run(x):  # dcl: disable=DCL010"
        )
        files[CORE_B] = files[CORE_B].replace(
            "time.perf_counter()", "time.perf_counter()  # dcl: disable=DCL010"
        )
        write_tree(tmp_path, files)
        report = lint_paths([str(tmp_path)])
        assert "DCL010" not in [v.rule for v in report.violations]


# ----------------------------------------------------------------------
# DCL011 -- RNG threading, transitive
# ----------------------------------------------------------------------
class TestRngThreading:
    FILES = {
        CORE_B: (
            "__all__ = ['consume']\n"
            "def consume(data, rng=None):\n    return data\n"
        ),
        CORE_A: (
            "from .beta import consume\n__all__ = []\n"
            "def middle(data):\n    return consume(data)\n"
            "def outer(data):\n    return middle(data)\n"
        ),
    }

    def test_unthreaded_chain_fires_transitively(self):
        violations = lint_files(self.FILES, ["DCL011"])
        paths_lines = {(v.path, v.rule) for v in violations}
        # Both the direct caller and -- transitively -- its caller are
        # flagged: 'outer' never mentions an RNG in its own file/AST.
        assert paths_lines == {(CORE_A, "DCL011")}
        assert len(violations) == 2
        assert any("outer" in v.message for v in violations)
        assert any("middle" in v.message for v in violations)

    def test_explicit_pass_is_clean(self):
        files = {
            CORE_B: self.FILES[CORE_B],
            CORE_A: (
                "from .beta import consume\n__all__ = []\n"
                "def middle(data, rng=None):\n    return consume(data, rng)\n"
                "def outer(data, rng=None):\n"
                "    return middle(data, rng=rng)\n"
            ),
        }
        assert rule_codes(files, ["DCL011"]) == []

    def test_consumer_itself_not_flagged(self):
        assert all(
            v.path != CORE_B
            for v in lint_files(self.FILES, ["DCL011"])
        )

    def test_path_scoping_outside_core(self):
        files = {
            OTHER_B: self.FILES[CORE_B],
            OTHER_A: self.FILES[CORE_A].replace(".beta", ".beta"),
        }
        assert rule_codes(files, ["DCL011"]) == []

    def test_line_level_suppression(self, tmp_path):
        files = dict(self.FILES)
        files[CORE_A] = (
            "from .beta import consume\n__all__ = []\n"
            "def middle(data):\n"
            "    return consume(data)  # dcl: disable=DCL011\n"
            "def outer(data):\n"
            "    return middle(data)  # dcl: disable=DCL011\n"
        )
        write_tree(tmp_path, files)
        report = lint_paths([str(tmp_path)])
        assert "DCL011" not in [v.rule for v in report.violations]


# ----------------------------------------------------------------------
# DCL012 -- ndarray parameter mutation
# ----------------------------------------------------------------------
class TestNdarrayMutation:
    def test_slice_assignment_fires(self):
        files = {
            CORE_A: (
                "import numpy as np\n__all__ = []\n"
                "def f(member: np.ndarray) -> None:\n"
                "    member[0] = True\n"
            )
        }
        assert rule_codes(files, ["DCL012"]) == ["DCL012"]

    def test_mutation_through_alias_fires(self):
        files = {
            CORE_A: (
                "import numpy as np\n__all__ = []\n"
                "def f(member: np.ndarray) -> None:\n"
                "    view = member[:5]\n"
                "    view += 1\n"
            )
        }
        assert rule_codes(files, ["DCL012"]) == ["DCL012"]

    def test_mutator_method_and_out_fire(self):
        files = {
            CORE_A: (
                "import numpy as np\n__all__ = []\n"
                "def f(a: np.ndarray, b: np.ndarray) -> None:\n"
                "    a.sort()\n"
                "    np.add(b, 1, out=b)\n"
            )
        }
        assert rule_codes(files, ["DCL012"]) == ["DCL012", "DCL012"]

    def test_copy_kills_the_alias(self):
        files = {
            CORE_A: (
                "import numpy as np\n__all__ = []\n"
                "def f(member: np.ndarray) -> np.ndarray:\n"
                "    member = member.copy()\n"
                "    member[0] = True\n"
                "    return member\n"
            )
        }
        assert rule_codes(files, ["DCL012"]) == []

    def test_state_class_exemption_is_cross_module(self):
        # The *State class lives in another module: a per-file rule
        # could not know the annotation names a state-owning class.
        files = {
            CORE_B: (
                "__all__ = ['MiningState']\n"
                "class MiningState:\n"
                "    def __init__(self):\n"
                "        self.buffers = {}\n"
            ),
            CORE_A: (
                "import numpy as np\n"
                "from .beta import MiningState\n__all__ = []\n"
                "def step(state: MiningState, member: np.ndarray) -> None:\n"
                "    member[0] = True\n"
            ),
        }
        violations = lint_files(files, ["DCL012"])
        assert [v.rule for v in violations] == ["DCL012"]
        assert "'member'" in violations[0].message

    def test_self_owned_buffers_are_exempt(self):
        files = {
            CORE_A: (
                "__all__ = ['State']\n"
                "class State:\n"
                "    def toggle(self, index):\n"
                "        self.member[index] = not self.member[index]\n"
            )
        }
        assert rule_codes(files, ["DCL012"]) == []

    def test_path_scoping_outside_core(self):
        files = {
            OTHER_A: (
                "import numpy as np\n__all__ = []\n"
                "def f(member: np.ndarray) -> None:\n"
                "    member[0] = True\n"
            )
        }
        assert rule_codes(files, ["DCL012"]) == []

    def test_files_sharing_a_module_name_are_each_checked(self, tmp_path):
        # Without a src/ layout both files are module "m"; the symbol
        # table keeps one per name, but every parsed file is linted.
        source = (
            "import numpy as np\n__all__ = []\n"
            "def f(member: np.ndarray) -> None:\n"
            "    member[0] = True\n"
        )
        write_tree(tmp_path, {
            "a/repro/core/m.py": source, "b/repro/core/m.py": source,
        })
        report = lint_paths([str(tmp_path)], all_rules(["DCL012"]))
        assert sorted(Path(v.path).parts[-4] for v in report.violations) == [
            "a", "b",
        ]

    def test_line_level_suppression(self, tmp_path):
        files = {
            CORE_A: (
                "import numpy as np\n__all__ = []\n"
                "def f(member: np.ndarray) -> None:\n"
                "    member[0] = True  # dcl: disable=DCL012\n"
            )
        }
        write_tree(tmp_path, files)
        report = lint_paths([str(tmp_path)])
        assert "DCL012" not in [v.rule for v in report.violations]


# ----------------------------------------------------------------------
# DCL013 -- float equality in core
# ----------------------------------------------------------------------
class TestFloatEquality:
    def test_float_literal_fires(self):
        files = {
            CORE_A: (
                "__all__ = []\n"
                "def f(x):\n    return x == 0.5\n"
            )
        }
        assert rule_codes(files, ["DCL013"]) == ["DCL013"]

    def test_nan_and_float_call_fire(self):
        files = {
            CORE_A: (
                "import numpy as np\n__all__ = []\n"
                "def f(x):\n"
                "    return x != np.nan or x == float('1.5')\n"
            )
        }
        # Two comparisons on the line -> two findings.
        assert rule_codes(files, ["DCL013"]) == ["DCL013", "DCL013"]

    def test_float_return_across_modules_fires(self):
        # The operand's floatness lives in another module's return
        # annotation -- invisible to a single-file rule.
        files = {
            CORE_B: (
                "__all__ = ['residue']\n"
                "def residue(sub) -> float:\n    return 0.0\n"
            ),
            CORE_A: (
                "from .beta import residue\n__all__ = []\n"
                "def is_best(sub, best):\n"
                "    return residue(sub) == best\n"
            ),
        }
        violations = lint_files(files, ["DCL013"])
        assert [v.rule for v in violations] == ["DCL013"]
        assert violations[0].path == CORE_A
        assert "repro.core.beta.residue" in violations[0].message

    def test_integer_comparison_is_clean(self):
        files = {
            CORE_A: (
                "__all__ = []\n"
                "def f(x):\n    return x == 5 and x != 'a'\n"
            )
        }
        assert rule_codes(files, ["DCL013"]) == []

    def test_path_scoping_outside_core(self):
        files = {
            OTHER_A: (
                "__all__ = []\n"
                "def f(x):\n    return x == 0.5\n"
            )
        }
        assert rule_codes(files, ["DCL013"]) == []

    def test_line_level_suppression(self, tmp_path):
        files = {
            CORE_A: (
                "__all__ = []\n"
                "def f(x):\n"
                "    return x == 0.5  # dcl: disable=DCL013\n"
            )
        }
        write_tree(tmp_path, files)
        report = lint_paths([str(tmp_path)])
        assert "DCL013" not in [v.rule for v in report.violations]


# ----------------------------------------------------------------------
# Engine / registry / real tree
# ----------------------------------------------------------------------
class TestDeepEngine:
    def test_deep_registry_is_complete(self):
        # One registry: the whole-program rules sit beside the module
        # rules, and no separate deep registry is left.
        assert [cls.code for cls in RULES][-4:] == [
            "DCL010", "DCL011", "DCL012", "DCL013",
        ]
        assert not hasattr(dataflow, "DEEP_RULES")

    def test_list_rules_includes_deep(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for code in ("DCL010", "DCL011", "DCL012", "DCL013"):
            assert code in out
        assert "(deep)" not in out

    def test_select_deep_code_runs_only_that_rule(self, tmp_path, capsys):
        write_tree(tmp_path, TestTransitiveWallClock.FILES)
        status = main(
            [str(tmp_path), "--select", "DCL010", "--format", "json"]
        )
        payload = json.loads(capsys.readouterr().out)
        assert status == 1
        # the reader, at its clock call
        assert payload["rule_counts"] == {"DCL010": 1}

    def test_real_tree_is_deep_clean(self):
        report = lint_paths([str(SRC)])
        assert report.violations == []
        assert report.parse_errors == []
        assert report.files_checked > 40
        assert report.suppression_warnings == []
        assert report.stale_suppressions == []

    def test_deep_json_runs_are_byte_identical(self):
        cmd = [
            sys.executable, "-m", "repro.devtools.lint",
            str(SRC), "--format", "json",
        ]
        runs = [
            subprocess.run(
                cmd,
                capture_output=True,
                cwd=str(REPO_ROOT),
                env={
                    "PYTHONPATH": str(SRC),
                    "PATH": "/usr/bin:/bin",
                    # Different hash seeds must not change the report.
                    "PYTHONHASHSEED": seed,
                },
            )
            for seed in ("0", "424242")
        ]
        assert runs[0].returncode == 0, runs[0].stdout + runs[0].stderr
        assert runs[0].stdout == runs[1].stdout
        payload = json.loads(runs[0].stdout)
        assert payload["files_checked"] > 40
        assert payload["rule_counts"] == {}

    def test_cli_deep_subcommand(self, capsys):
        # --deep is retired: the one pass needs no switch, and the old
        # flag is a usage error rather than a silent no-op.
        from repro.cli import main as cli_main

        with pytest.raises(SystemExit) as exit_info:
            cli_main(["lint", "--deep", str(SRC)])
        assert exit_info.value.code == 2
        assert "--deep" in capsys.readouterr().err

    def test_cli_call_graph_subcommand(self, capsys):
        # --call-graph is retired with the whole-program graph's reach
        # report: the old flag is a usage error, not a silent no-op.
        from repro.cli import main as cli_main

        with pytest.raises(SystemExit) as exit_info:
            cli_main(["lint", "--call-graph", "floc", str(SRC)])
        assert exit_info.value.code == 2
        assert "--call-graph" in capsys.readouterr().err
