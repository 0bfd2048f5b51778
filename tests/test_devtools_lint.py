"""Self-tests for the DCL invariant linter (:mod:`repro.devtools`).

Every rule gets positive fixtures (a violating snippet must fire) and
negative fixtures (compliant code must stay silent), suppression
comments are exercised in both file- and line-level form, and a smoke
test asserts the real ``src/`` tree is clean -- the same gate CI runs.
The direct cases of the clock and RNG invariants (once the per-file
codes DCL001/002/004/008) are checked here under the one rule per
invariant that now owns them, DCL010 and DCL011; :class:`TestFold`
pins that they find exactly what the per-file codes found, line for
line, and that a planted violation in a copy of ``src/`` fails the
lint.  :class:`TestCensus` is the mutation census of
``docs/DEVELOPMENT.md``: every rule's violation planted at every kind
of site it covers, each with the findings the linter reports there.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from repro.devtools.callgraph import build_callgraph
from repro.devtools.lint import (
    RULES,
    LintReport,
    all_rules,
    collect_files,
    lint_paths,
    lint_source,
    main,
)
from repro.devtools.symbols import build_project

pytestmark = pytest.mark.devtools

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"

CORE_PATH = "src/repro/core/fixture.py"
OTHER_PATH = "src/repro/data/fixture.py"
TEST_PATH = "tests/fixture.py"


def codes(violations):
    return [v.rule for v in violations]


# ----------------------------------------------------------------------
# DCL011, direct: no global RNG state
# ----------------------------------------------------------------------
class TestGlobalRng:
    def test_legacy_numpy_call_fires(self):
        src = "import numpy as np\n__all__ = []\nx = np.random.rand(3)\n"
        assert codes(lint_source(src, OTHER_PATH)) == ["DCL011"]

    def test_numpy_seed_fires(self):
        src = "import numpy as np\n__all__ = []\nnp.random.seed(0)\n"
        assert codes(lint_source(src, OTHER_PATH)) == ["DCL011"]

    def test_bare_default_rng_fires(self):
        src = "import numpy as np\n__all__ = []\ng = np.random.default_rng()\n"
        assert codes(lint_source(src, OTHER_PATH)) == ["DCL011"]

    def test_seeded_default_rng_ok(self):
        src = "import numpy as np\n__all__ = []\ng = np.random.default_rng(42)\n"
        assert lint_source(src, OTHER_PATH) == []

    def test_generator_methods_ok(self):
        src = (
            "import numpy as np\n__all__ = []\n"
            "g = np.random.default_rng(1)\nx = g.uniform(0, 1, 5)\n"
        )
        assert lint_source(src, OTHER_PATH) == []

    def test_stdlib_random_fires(self):
        src = "import random\n__all__ = []\nx = random.shuffle([1, 2])\n"
        assert codes(lint_source(src, OTHER_PATH)) == ["DCL011"]

    def test_stdlib_from_import_fires(self):
        src = "from random import choice\n__all__ = []\nx = choice([1, 2])\n"
        assert codes(lint_source(src, OTHER_PATH)) == ["DCL011"]

    def test_random_class_instances_ok(self):
        src = "import random\n__all__ = []\nr = random.Random(7)\n"
        assert lint_source(src, OTHER_PATH) == []

    def test_numpy_alias_tracked(self):
        src = "import numpy\n__all__ = []\nnumpy.random.normal(0, 1)\n"
        assert codes(lint_source(src, OTHER_PATH)) == ["DCL011"]

    def test_tests_tree_exempt(self):
        src = "import numpy as np\nnp.random.seed(0)\n"
        assert lint_source(src, TEST_PATH) == []


# ----------------------------------------------------------------------
# DCL010, direct: no wall-clock reads in core/
# ----------------------------------------------------------------------
class TestWallClock:
    @pytest.mark.parametrize(
        "call",
        ["time.time()", "time.perf_counter()", "time.monotonic()"],
    )
    def test_time_calls_fire_in_core(self, call):
        src = f"import time\n__all__ = []\nt = {call}\n"
        assert codes(lint_source(src, CORE_PATH)) == ["DCL010"]

    def test_datetime_now_fires_in_core(self):
        src = (
            "from datetime import datetime\n__all__ = []\n"
            "t = datetime.now()\n"
        )
        assert codes(lint_source(src, CORE_PATH)) == ["DCL010"]

    def test_from_import_perf_counter_fires(self):
        src = "from time import perf_counter\n__all__ = []\nt = perf_counter()\n"
        assert codes(lint_source(src, CORE_PATH)) == ["DCL010"]

    def test_outside_core_exempt(self):
        src = "import time\n__all__ = []\nt = time.perf_counter()\n"
        assert lint_source(src, OTHER_PATH) == []

    def test_tracer_clock_seam_ok(self):
        src = (
            "__all__ = []\n"
            "def run(tracer):\n    return tracer.clock()\n"
        )
        assert "DCL010" not in codes(lint_source(src, CORE_PATH))


# ----------------------------------------------------------------------
# DCL003 -- no NaN-aggregation in core/
# ----------------------------------------------------------------------
class TestNanAggregation:
    @pytest.mark.parametrize("fn", ["nanmean", "nansum", "nanstd"])
    def test_nan_aggregates_fire_in_core(self, fn):
        src = f"import numpy as np\n__all__ = []\nx = np.{fn}([1.0])\n"
        assert codes(lint_source(src, CORE_PATH)) == ["DCL003"]

    def test_count_aware_mean_ok(self):
        src = (
            "import numpy as np\n__all__ = ['m']\n"
            "def m(a, mask):\n"
            "    return np.where(mask, a, 0.0).sum() / mask.sum()\n"
        )
        assert lint_source(src, CORE_PATH) == []

    def test_outside_core_exempt(self):
        src = "import numpy as np\n__all__ = []\nx = np.nanmean([1.0])\n"
        assert lint_source(src, OTHER_PATH) == []


# ----------------------------------------------------------------------
# DCL011, direct: public core functions accept rng as a parameter
# ----------------------------------------------------------------------
class TestRngParameter:
    def test_internal_construction_fires(self):
        src = (
            "import numpy as np\n__all__ = ['sample']\n"
            "def sample(n):\n"
            "    g = np.random.default_rng(0)\n"
            "    return g.uniform(size=n)\n"
        )
        assert "DCL011" in codes(lint_source(src, CORE_PATH))

    def test_resolve_rng_without_param_fires(self):
        src = (
            "from repro.core.rng import resolve_rng\n__all__ = ['sample']\n"
            "def sample(n):\n"
            "    g = resolve_rng(None)\n"
            "    return g\n"
        )
        assert "DCL011" in codes(lint_source(src, CORE_PATH))

    def test_rng_parameter_ok(self):
        src = (
            "from repro.core.rng import resolve_rng\n__all__ = ['sample']\n"
            "def sample(n, rng=None):\n"
            "    g = resolve_rng(rng)\n"
            "    return g\n"
        )
        assert "DCL011" not in codes(lint_source(src, CORE_PATH))

    def test_private_function_exempt(self):
        src = (
            "import numpy as np\n__all__ = []\n"
            "def _helper():\n"
            "    return np.random.default_rng(3)\n"
        )
        assert "DCL011" not in codes(lint_source(src, CORE_PATH))

    def test_outside_core_exempt(self):
        src = (
            "import numpy as np\n__all__ = ['sample']\n"
            "def sample(n):\n"
            "    return np.random.default_rng(0).uniform(size=n)\n"
        )
        assert "DCL011" not in codes(lint_source(src, OTHER_PATH))


# ----------------------------------------------------------------------
# DCL005 -- __all__ hygiene
# ----------------------------------------------------------------------
class TestDunderAll:
    def test_missing_dunder_all_fires(self):
        src = "def public():\n    return 1\n"
        assert codes(lint_source(src, OTHER_PATH)) == ["DCL005"]

    def test_unknown_name_fires(self):
        src = "__all__ = ['ghost']\n"
        assert codes(lint_source(src, OTHER_PATH)) == ["DCL005"]

    def test_unlisted_public_def_fires(self):
        src = "__all__ = ['a']\ndef a():\n    pass\ndef b():\n    pass\n"
        violations = lint_source(src, OTHER_PATH)
        assert codes(violations) == ["DCL005"]
        assert "'b'" in violations[0].message

    def test_duplicate_entry_fires(self):
        src = "__all__ = ['a', 'a']\ndef a():\n    pass\n"
        assert codes(lint_source(src, OTHER_PATH)) == ["DCL005"]

    def test_clean_module_ok(self):
        src = (
            "__all__ = ['CONST', 'a']\nCONST = 3\n"
            "def a():\n    pass\ndef _hidden():\n    pass\n"
        )
        assert lint_source(src, OTHER_PATH) == []

    def test_imports_count_as_bound(self):
        src = "from os.path import join\n__all__ = ['join']\n"
        assert lint_source(src, OTHER_PATH) == []

    def test_module_getattr_allows_lazy_names(self):
        src = (
            "__all__ = ['lazy']\n"
            "def __getattr__(name):\n    raise AttributeError(name)\n"
        )
        assert lint_source(src, OTHER_PATH) == []

    def test_dunder_main_exempt(self):
        src = "def run():\n    pass\n"
        assert lint_source(src, "src/repro/__main__.py") == []


# ----------------------------------------------------------------------
# DCL006 -- no writes to module-level mutable state in core/
# ----------------------------------------------------------------------
class TestMutableGlobalWrite:
    def test_global_rebinding_fires(self):
        src = (
            "__all__ = []\n_BEST = None\n"
            "def _remember(x):\n    global _BEST\n    _BEST = x\n"
        )
        assert codes(lint_source(src, CORE_PATH)) == ["DCL006"]

    def test_item_write_fires(self):
        src = (
            "__all__ = []\nCACHE = {}\n"
            "def _put(k, v):\n    CACHE[k] = v\n"
        )
        assert codes(lint_source(src, CORE_PATH)) == ["DCL006"]

    def test_item_delete_fires(self):
        src = (
            "__all__ = []\nCACHE = dict()\n"
            "def _drop(k):\n    del CACHE[k]\n"
        )
        assert codes(lint_source(src, CORE_PATH)) == ["DCL006"]

    def test_mutator_method_fires(self):
        src = (
            "__all__ = []\nREGISTRY = []\n"
            "def _register(x):\n    REGISTRY.append(x)\n"
        )
        assert codes(lint_source(src, CORE_PATH)) == ["DCL006"]

    def test_factory_call_global_tracked(self):
        src = (
            "from collections import defaultdict\n__all__ = []\n"
            "HITS = defaultdict(int)\n"
            "def _hit(k):\n    HITS.update({k: 1})\n"
        )
        assert codes(lint_source(src, CORE_PATH)) == ["DCL006"]

    def test_environ_write_fires(self):
        src = (
            "import os\n__all__ = []\n"
            "def _taint():\n    os.environ['SEED'] = '1'\n"
        )
        assert codes(lint_source(src, CORE_PATH)) == ["DCL006"]

    def test_environ_update_fires(self):
        src = (
            "import os\n__all__ = []\n"
            "def _taint():\n    os.environ.update(SEED='1')\n"
        )
        assert codes(lint_source(src, CORE_PATH)) == ["DCL006"]

    def test_putenv_fires(self):
        src = "import os\n__all__ = []\ndef _taint():\n    os.putenv('A', 'b')\n"
        assert codes(lint_source(src, CORE_PATH)) == ["DCL006"]

    def test_local_shadow_ok(self):
        src = (
            "__all__ = []\nCACHE = {}\n"
            "def _work():\n    CACHE = {}\n    CACHE['k'] = 1\n    return CACHE\n"
        )
        assert lint_source(src, CORE_PATH) == []

    def test_parameter_shadow_ok(self):
        src = (
            "__all__ = []\nREGISTRY = []\n"
            "def _register(REGISTRY, x):\n    REGISTRY.append(x)\n"
        )
        assert lint_source(src, CORE_PATH) == []

    def test_reading_global_ok(self):
        src = (
            "__all__ = []\nLIMITS = {'rows': 3}\n"
            "def _floor():\n    return LIMITS['rows']\n"
        )
        assert lint_source(src, CORE_PATH) == []

    def test_immutable_global_rebind_not_mutation(self):
        src = (
            "__all__ = []\nSCALE = 2.0\n"
            "def _use():\n    x = SCALE\n    return x\n"
        )
        assert lint_source(src, CORE_PATH) == []

    def test_module_level_init_ok(self):
        src = (
            "__all__ = []\nTABLE = {}\nTABLE['a'] = 1\n"
        )
        assert lint_source(src, CORE_PATH) == []

    def test_outside_core_exempt(self):
        src = (
            "__all__ = []\nCACHE = {}\n"
            "def _put(k, v):\n    CACHE[k] = v\n"
        )
        assert lint_source(src, OTHER_PATH) == []

    def test_nested_function_analyzed(self):
        src = (
            "__all__ = []\nSEEN = set()\n"
            "def _outer():\n"
            "    def _inner(x):\n        SEEN.add(x)\n"
            "    return inner\n"
        )
        assert codes(lint_source(src, CORE_PATH)) == ["DCL006"]


# ----------------------------------------------------------------------
# DCL007 -- no silent exception swallowing in core/ and runtime/
# ----------------------------------------------------------------------
RUNTIME_PATH = "src/repro/runtime/fixture.py"


class TestExceptionSwallow:
    def test_bare_except_fires(self):
        src = (
            "__all__ = []\n"
            "def _f():\n"
            "    try:\n        return 1\n"
            "    except:\n        return 0\n"
        )
        assert codes(lint_source(src, CORE_PATH)) == ["DCL007"]

    def test_bare_except_fires_in_runtime(self):
        src = (
            "__all__ = []\n"
            "def _f():\n"
            "    try:\n        return 1\n"
            "    except:\n        return 0\n"
        )
        assert codes(lint_source(src, RUNTIME_PATH)) == ["DCL007"]

    def test_broad_except_pass_fires(self):
        src = (
            "__all__ = []\n"
            "def _f():\n"
            "    try:\n        _g()\n"
            "    except Exception:\n        pass\n"
        )
        assert codes(lint_source(src, CORE_PATH)) == ["DCL007"]

    def test_base_exception_ellipsis_fires(self):
        src = (
            "__all__ = []\n"
            "def _f():\n"
            "    try:\n        _g()\n"
            "    except BaseException:\n        ...\n"
        )
        assert codes(lint_source(src, RUNTIME_PATH)) == ["DCL007"]

    def test_broad_except_continue_fires(self):
        src = (
            "__all__ = []\n"
            "def _f(items):\n"
            "    for item in items:\n"
            "        try:\n            _g(item)\n"
            "        except Exception:\n            continue\n"
        )
        assert codes(lint_source(src, RUNTIME_PATH)) == ["DCL007"]

    def test_broad_except_in_tuple_pass_fires(self):
        src = (
            "__all__ = []\n"
            "def _f():\n"
            "    try:\n        _g()\n"
            "    except (ValueError, Exception):\n        pass\n"
        )
        assert codes(lint_source(src, CORE_PATH)) == ["DCL007"]

    def test_broad_except_with_handling_ok(self):
        src = (
            "__all__ = []\n"
            "def _f(log):\n"
            "    try:\n        return _g()\n"
            "    except Exception as exc:\n"
            "        log.append(exc)\n        return None\n"
        )
        assert lint_source(src, CORE_PATH) == []

    def test_broad_except_reraise_ok(self):
        src = (
            "__all__ = []\n"
            "def _f():\n"
            "    try:\n        return _g()\n"
            "    except Exception:\n        raise\n"
        )
        assert lint_source(src, RUNTIME_PATH) == []

    def test_specific_except_pass_ok(self):
        src = (
            "__all__ = []\n"
            "def _f():\n"
            "    try:\n        return _g()\n"
            "    except ValueError:\n        pass\n"
        )
        assert lint_source(src, CORE_PATH) == []

    def test_outside_core_and_runtime_exempt(self):
        src = (
            "__all__ = []\n"
            "def _f():\n"
            "    try:\n        return 1\n"
            "    except:\n        return 0\n"
        )
        assert lint_source(src, OTHER_PATH) == []


# ----------------------------------------------------------------------
# DCL010, direct: no wall-clock reads in obs/perf/
# ----------------------------------------------------------------------
PERF_PATH = "src/repro/obs/perf/fixture.py"


class TestPerfWallClock:
    @pytest.mark.parametrize(
        "call",
        ["time.time()", "time.perf_counter()", "time.monotonic()"],
    )
    def test_time_calls_fire_in_perf(self, call):
        src = f"import time\n__all__ = []\nt = {call}\n"
        assert codes(lint_source(src, PERF_PATH)) == ["DCL010"]

    def test_from_import_perf_counter_fires(self):
        src = "from time import perf_counter\n__all__ = []\nt = perf_counter()\n"
        assert codes(lint_source(src, PERF_PATH)) == ["DCL010"]

    def test_datetime_now_fires_in_perf(self):
        src = (
            "from datetime import datetime\n__all__ = []\n"
            "t = datetime.now()\n"
        )
        assert codes(lint_source(src, PERF_PATH)) == ["DCL010"]

    def test_clock_attribute_reference_ok(self):
        # The seam itself: referencing Tracer.clock (no call) is the
        # sanctioned way to obtain a default clock.
        src = (
            "from repro.obs.tracer import Tracer\n"
            "__all__ = ['DEFAULT_CLOCK']\n"
            "DEFAULT_CLOCK = Tracer.clock\n"
        )
        assert lint_source(src, PERF_PATH) == []

    def test_injected_clock_call_ok(self):
        src = (
            "__all__ = ['timed']\n"
            "def timed(clock):\n    return clock()\n"
        )
        assert lint_source(src, PERF_PATH) == []

    def test_outside_perf_exempt(self):
        src = "import time\n__all__ = []\nt = time.perf_counter()\n"
        assert lint_source(src, OTHER_PATH) == []


# ----------------------------------------------------------------------
# Suppression comments
# ----------------------------------------------------------------------
class TestSuppression:
    VIOLATING = "import numpy as np\n__all__ = []\nnp.random.seed(0)\n"

    def test_file_level_disable(self):
        src = "# dcl: disable=DCL011\n" + self.VIOLATING
        assert lint_source(src, OTHER_PATH) == []

    def test_line_level_disable(self):
        src = (
            "import numpy as np\n__all__ = []\n"
            "np.random.seed(0)  # dcl: disable=DCL011\n"
        )
        assert lint_source(src, OTHER_PATH) == []

    def test_line_level_only_covers_its_line(self):
        src = (
            "import numpy as np\n__all__ = []\n"
            "np.random.seed(0)  # dcl: disable=DCL011\n"
            "np.random.seed(1)\n"
        )
        assert codes(lint_source(src, OTHER_PATH)) == ["DCL011"]

    def test_multiple_codes_and_all(self):
        src = "# dcl: disable=DCL011, DCL005\nimport numpy as np\nnp.random.seed(0)\ndef f():\n    pass\n"
        assert lint_source(src, OTHER_PATH) == []
        src_all = "# dcl: disable=all\nimport numpy as np\nnp.random.seed(0)\n"
        assert lint_source(src_all, OTHER_PATH) == []

    def test_unrelated_code_not_suppressed(self):
        src = "# dcl: disable=DCL005\n" + self.VIOLATING
        assert codes(lint_source(src, OTHER_PATH)) == ["DCL011"]


# ----------------------------------------------------------------------
# Suppression validation (malformed / unknown / stale) and strict mode
# ----------------------------------------------------------------------
class TestSuppressionValidation:
    VIOLATING = "import numpy as np\n__all__ = []\nnp.random.seed(0)\n"

    def test_malformed_code_warns_instead_of_silently_ignoring(self, tmp_path):
        mod = tmp_path / "m.py"
        mod.write_text(
            "import numpy as np\n__all__ = []\n"
            "np.random.seed(0)  # dcl: disable=DCL01\n"
        )
        report = lint_paths([str(mod)])
        # The malformed code does not suppress...
        assert [v.rule for v in report.violations] == ["DCL011"]
        # ...and is surfaced as a warning, not dropped on the floor.
        assert [w.kind for w in report.suppression_warnings] == [
            "malformed-code"
        ]
        assert report.suppression_warnings[0].code == "DCL01"

    def test_valid_codes_beside_malformed_still_apply(self, tmp_path):
        mod = tmp_path / "m.py"
        mod.write_text(
            "import numpy as np\n__all__ = []\n"
            "np.random.seed(0)  # dcl: disable=DCL01,DCL011\n"
        )
        report = lint_paths([str(mod)])
        assert report.violations == []
        assert [w.code for w in report.suppression_warnings] == ["DCL01"]

    def test_unknown_rule_code_warns(self, tmp_path):
        mod = tmp_path / "m.py"
        mod.write_text("__all__ = []\nx = 1  # dcl: disable=DCL999\n")
        report = lint_paths([str(mod)])
        assert [w.kind for w in report.suppression_warnings] == [
            "unknown-code"
        ]

    def test_stale_line_suppression_is_detected(self, tmp_path):
        mod = tmp_path / "m.py"
        mod.write_text("__all__ = []\nx = 1  # dcl: disable=DCL011\n")
        report = lint_paths([str(mod)])
        assert [w.kind for w in report.stale_suppressions] == ["stale"]
        assert report.stale_suppressions[0].code == "DCL011"

    def test_live_suppression_is_not_stale(self, tmp_path):
        mod = tmp_path / "m.py"
        mod.write_text(
            "import numpy as np\n__all__ = []\n"
            "np.random.seed(0)  # dcl: disable=DCL011\n"
        )
        report = lint_paths([str(mod)])
        assert report.stale_suppressions == []

    def test_file_level_suppressions_are_exempt_from_staleness(
        self, tmp_path
    ):
        # The repro.core.rng precedent: a file-level directive
        # sanctions a seam and may outlive any individual firing line.
        mod = tmp_path / "m.py"
        mod.write_text("# dcl: disable=DCL011\n__all__ = []\nx = 1\n")
        report = lint_paths([str(mod)])
        assert report.stale_suppressions == []

    def test_directives_inside_strings_are_ignored(self, tmp_path):
        mod = tmp_path / "m.py"
        mod.write_text(
            '"""Docs show the syntax: # dcl: disable=DCL011 ..."""\n'
            "import numpy as np\n__all__ = []\n"
            "np.random.seed(0)\n"
        )
        report = lint_paths([str(mod)])
        # The docstring neither suppresses nor produces stale warnings.
        assert [v.rule for v in report.violations] == ["DCL011"]
        assert report.stale_suppressions == []

    def test_strict_flag_fails_on_warnings(self, tmp_path, capsys):
        mod = tmp_path / "m.py"
        mod.write_text("__all__ = []\nx = 1  # dcl: disable=DCL01\n")
        assert main([str(mod)]) == 0
        capsys.readouterr()
        assert main([str(mod), "--strict-suppressions"]) == 1
        assert "malformed" in capsys.readouterr().err

    def test_strict_flag_fails_on_stale(self, tmp_path, capsys):
        mod = tmp_path / "m.py"
        mod.write_text("__all__ = []\nx = 1  # dcl: disable=DCL005\n")
        assert main([str(mod)]) == 0
        capsys.readouterr()
        assert main([str(mod), "--strict-suppressions"]) == 1
        assert "stale" in capsys.readouterr().err

    def test_json_carries_warning_and_count_fields(self, tmp_path, capsys):
        mod = tmp_path / "m.py"
        mod.write_text(
            "import numpy as np\n__all__ = []\nnp.random.seed(0)\n"
        )
        main([str(mod), "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        assert payload["rule_counts"] == {"DCL011": 1}
        assert payload["suppression_warnings"] == []
        assert payload["stale_suppressions"] == []
        assert "call_graph" not in payload


# ----------------------------------------------------------------------
# The fold: DCL010/DCL011 find what DCL001/002/004/008 found
# ----------------------------------------------------------------------
#: ``(name, path, source, lines)``: every fixture of the retired
#: per-file rules, and the lines those rules reported on it (recorded
#: before they were folded into DCL010 and DCL011).
FOLDED_FIXTURES = [
    # DCL001: global RNG state
    ("legacy-numpy", OTHER_PATH,
     "import numpy as np\n__all__ = []\nx = np.random.rand(3)\n", [3]),
    ("numpy-seed", OTHER_PATH,
     "import numpy as np\n__all__ = []\nnp.random.seed(0)\n", [3]),
    ("bare-default-rng", OTHER_PATH,
     "import numpy as np\n__all__ = []\ng = np.random.default_rng()\n", [3]),
    ("seeded-default-rng", OTHER_PATH,
     "import numpy as np\n__all__ = []\ng = np.random.default_rng(42)\n", []),
    ("generator-methods", OTHER_PATH,
     "import numpy as np\n__all__ = []\n"
     "g = np.random.default_rng(1)\nx = g.uniform(0, 1, 5)\n", []),
    ("stdlib-random", OTHER_PATH,
     "import random\n__all__ = []\nx = random.shuffle([1, 2])\n", [3]),
    ("stdlib-from-import", OTHER_PATH,
     "from random import choice\n__all__ = []\nx = choice([1, 2])\n", [3]),
    ("random-class", OTHER_PATH,
     "import random\n__all__ = []\nr = random.Random(7)\n", []),
    ("numpy-alias", OTHER_PATH,
     "import numpy\n__all__ = []\nnumpy.random.normal(0, 1)\n", [3]),
    ("tests-tree", TEST_PATH, "import numpy as np\nnp.random.seed(0)\n", []),
    # DCL002: wall clock in core
    ("core-time", CORE_PATH, "import time\n__all__ = []\nt = time.time()\n", [3]),
    ("core-perf-counter", CORE_PATH,
     "import time\n__all__ = []\nt = time.perf_counter()\n", [3]),
    ("core-monotonic", CORE_PATH,
     "import time\n__all__ = []\nt = time.monotonic()\n", [3]),
    ("core-datetime", CORE_PATH,
     "from datetime import datetime\n__all__ = []\nt = datetime.now()\n", [3]),
    ("core-from-import", CORE_PATH,
     "from time import perf_counter\n__all__ = []\nt = perf_counter()\n", [3]),
    ("clock-outside-core", OTHER_PATH,
     "import time\n__all__ = []\nt = time.perf_counter()\n", []),
    ("tracer-clock-seam", CORE_PATH,
     "__all__ = []\ndef run(tracer):\n    return tracer.clock()\n", []),
    # DCL004: public core functions take their RNG
    ("internal-construction", CORE_PATH,
     "import numpy as np\n__all__ = ['sample']\ndef sample(n):\n"
     "    g = np.random.default_rng(0)\n    return g.uniform(size=n)\n", [4]),
    ("resolve-rng-without-param", CORE_PATH,
     "from repro.core.rng import resolve_rng\n__all__ = ['sample']\n"
     "def sample(n):\n    g = resolve_rng(None)\n    return g\n", [4]),
    ("rng-parameter", CORE_PATH,
     "from repro.core.rng import resolve_rng\n__all__ = ['sample']\n"
     "def sample(n, rng=None):\n    g = resolve_rng(rng)\n    return g\n", []),
    ("private-function", CORE_PATH,
     "import numpy as np\n__all__ = []\n"
     "def _helper():\n    return np.random.default_rng(3)\n", []),
    ("construction-outside-core", OTHER_PATH,
     "import numpy as np\n__all__ = ['sample']\ndef sample(n):\n"
     "    return np.random.default_rng(0).uniform(size=n)\n", []),
    # DCL008: wall clock in obs/perf
    ("perf-time", PERF_PATH, "import time\n__all__ = []\nt = time.time()\n", [3]),
    ("perf-perf-counter", PERF_PATH,
     "import time\n__all__ = []\nt = time.perf_counter()\n", [3]),
    ("perf-monotonic", PERF_PATH,
     "import time\n__all__ = []\nt = time.monotonic()\n", [3]),
    ("perf-from-import", PERF_PATH,
     "from time import perf_counter\n__all__ = []\nt = perf_counter()\n", [3]),
    ("perf-datetime", PERF_PATH,
     "from datetime import datetime\n__all__ = []\nt = datetime.now()\n", [3]),
    ("perf-clock-attribute", PERF_PATH,
     "from repro.obs.tracer import Tracer\n__all__ = ['DEFAULT_CLOCK']\n"
     "DEFAULT_CLOCK = Tracer.clock\n", []),
    ("perf-injected-clock", PERF_PATH,
     "__all__ = ['timed']\ndef timed(clock):\n    return clock()\n", []),
    # The seven findings of the per-file rules that the transitive
    # rules used to skip as "the per-file rule's job".
    ("seven-core-a", "src/repro/core/a.py",
     "import numpy as np\n"
     "from repro.core.rng import resolve_rng\n"
     "__all__ = ['draw', 'noise', 'fresh']\n"
     "def draw(n):\n"
     "    return resolve_rng(None).uniform(size=n)\n"  # DCL004
     "def noise(n):\n"
     "    return np.random.rand(n)\n"  # DCL001
     "def fresh():\n"
     "    return np.random.default_rng()\n",  # DCL001 + DCL004
     [5, 7, 9]),
    ("seven-core-b", "src/repro/core/b.py",
     "import time\n"
     "__all__ = ['T0', 'elapsed']\n"
     "T0 = time.time()\n"  # DCL002, module level
     "def elapsed():\n"
     "    return time.perf_counter() - T0\n",  # DCL002
     [3, 5]),
    ("seven-runtime-c", "src/repro/runtime/c.py",
     "import random\n"
     "__all__ = ['jitter']\n"
     "def jitter():\n"
     "    return random.random()\n",  # DCL001
     [4]),
]

#: ``(file under src/repro, appended source, rule)``: one planted
#: violation per folded check.
MUTATIONS = [
    ("core/floc.py", "import time\n_T0 = time.time()\n", "DCL010"),
    ("obs/perf/counters.py",
     "import time\ndef _stamp():\n    return time.perf_counter()\n", "DCL010"),
    ("runtime/supervisor.py",
     "import numpy as np\ndef _jitter():\n    return np.random.rand()\n",
     "DCL011"),
    # Seeded, so only the public-function check can catch it.
    ("core/seeding.py",
     "import numpy as np\ndef fresh_stream():\n"
     "    return np.random.default_rng(7)\n", "DCL011"),
    # The import boundary: a clock read in a module core imports, and
    # a core import of a module outside the boundary.
    ("obs/events.py",
     "import time\ndef _stamp():\n    return time.perf_counter()\n", "DCL010"),
    ("core/mining.py", "from ..obs.analysis import analyze_records\n", "DCL010"),
]


class TestFold:
    @pytest.mark.parametrize(
        "name,path,source,lines", FOLDED_FIXTURES,
        ids=[case[0] for case in FOLDED_FIXTURES],
    )
    def test_same_findings_as_the_retired_rules(self, name, path, source, lines):
        found = lint_source(source, path, all_rules(["DCL010", "DCL011"]))
        assert {(v.path, v.line) for v in found} == {
            (path, line) for line in lines
        }

    def test_one_finding_per_call(self):
        # A bare default_rng() in a public core function is global
        # state and an internal construction at once: reported once.
        source = FOLDED_FIXTURES[-3][2]
        lines = [v.line for v in lint_source(source, "src/repro/core/a.py")]
        assert lines == [5, 7, 9]

    @pytest.mark.parametrize("code", ["DCL001", "DCL002", "DCL004", "DCL008"])
    def test_retired_codes_are_unknown(self, code, tmp_path, capsys):
        assert main(["--select", code, str(tmp_path)]) == 2
        assert f"unknown rule code(s): {code}" in capsys.readouterr().err
        mod = tmp_path / "m.py"
        mod.write_text(f"# dcl: disable={code}\n__all__ = []\n")
        report = lint_paths([str(mod)])
        assert [(w.kind, w.code) for w in report.suppression_warnings] == [
            ("unknown-code", code)
        ]
        assert main([str(mod), "--strict-suppressions"]) == 1

    @pytest.mark.parametrize(
        "target,planted,code", MUTATIONS, ids=[m[0] for m in MUTATIONS]
    )
    def test_planted_violation_in_src_fails(self, target, planted, code, tmp_path):
        tree = tmp_path / "src"
        shutil.copytree(
            SRC, tree, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info")
        )
        victim = tree / "repro" / target
        source = victim.read_text()
        victim.write_text(source + planted)
        last = len((source + planted).splitlines())
        report = lint_paths([str(tree)], all_rules([code]))
        assert not report.clean
        assert (victim.as_posix(), last, code) in {
            (v.path, v.line, v.rule) for v in report.violations
        }


# ----------------------------------------------------------------------
# Engine / CLI behaviour
# ----------------------------------------------------------------------
class TestEngine:
    def test_select_filters_rules(self):
        rules = all_rules(["DCL011"])
        assert [r.code for r in rules] == ["DCL011"]
        src = "import numpy as np\nnp.random.seed(0)\ndef f():\n    pass\n"
        assert codes(lint_source(src, OTHER_PATH, rules)) == ["DCL011"]

    def test_select_unknown_code_raises(self):
        with pytest.raises(ValueError, match="DCL999"):
            all_rules(["DCL999"])

    def test_registry_is_complete(self):
        assert [cls.code for cls in RULES] == [
            "DCL003", "DCL005", "DCL006", "DCL007",
            "DCL010", "DCL011", "DCL012", "DCL013",
        ]

    def test_collect_files_skips_pycache(self, tmp_path):
        (tmp_path / "pkg" / "__pycache__").mkdir(parents=True)
        (tmp_path / "pkg" / "mod.py").write_text("__all__ = []\n")
        (tmp_path / "pkg" / "__pycache__" / "junk.py").write_text("x = 1\n")
        files = collect_files([str(tmp_path)])
        assert [f.name for f in files] == ["mod.py"]

    def test_lint_paths_reports_syntax_errors(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text("def broken(:\n")
        report = lint_paths([str(bad)])
        assert isinstance(report, LintReport)
        assert not report.clean
        assert report.parse_errors and "syntax error" in report.parse_errors[0][1]

    def test_same_named_files_keep_their_call_edges(self, tmp_path):
        # Two trees without src/ or __init__.py: both files are module
        # ``m``, yet each keeps its functions and call edges.
        a = tmp_path / "a" / "repro" / "core" / "m.py"
        b = tmp_path / "b" / "repro" / "core" / "m.py"
        for path, source in (
            (a, "import time\n\n\ndef f():\n    return g()\n\n\n"
                "def g():\n    return time.time()\n"),
            (b, "import time\n\n\ndef h():\n    return time.time()\n"),
        ):
            path.parent.mkdir(parents=True)
            path.write_text(source)

        def findings(report, path):
            return [(v.rule, v.line) for v in report.violations
                    if v.path == str(path)]

        def shape(*paths):
            graph = build_callgraph(
                build_project({str(p): p.read_text() for p in paths})
            )
            edges = sum(len(node.calls) for node in graph.nodes.values())
            return len(graph.nodes), edges

        alone = lint_paths([str(a)])
        both = lint_paths([str(a), str(b)])
        assert findings(alone, a) == [("DCL005", 1), ("DCL010", 9)]
        assert findings(both, a) == findings(alone, a)
        assert findings(both, b) == [("DCL005", 1), ("DCL010", 5)]
        assert shape(a) == (2, 1)
        assert shape(a, b) == (3, 1)

    def test_main_json_format(self, tmp_path, capsys):
        mod = tmp_path / "repro" / "core" / "m.py"
        mod.parent.mkdir(parents=True)
        mod.write_text("import time\n__all__ = []\nt = time.time()\n")
        status = main([str(tmp_path), "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        assert status == 1
        assert payload["files_checked"] == 1
        assert [v["rule"] for v in payload["violations"]] == ["DCL010"]

    def test_main_missing_path_is_usage_error(self, capsys):
        assert main(["definitely/not/a/path"]) == 2
        assert "error" in capsys.readouterr().err
        assert main(["definitely/not/a/file.py"]) == 2
        assert capsys.readouterr().err == (
            "error: no such file or directory: definitely/not/a/file.py\n"
        )

    def test_no_python_file_is_usage_error(self, tmp_path, capsys):
        # A lint of nothing is not a clean lint: a non-.py file, or a
        # directory without Python files, exits 2 with one stderr line.
        readme = tmp_path / "README.md"
        readme.write_text("# not python\n")
        empty = tmp_path / "empty"
        empty.mkdir()
        for target in (readme, empty):
            assert main([str(target)]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == f"error: no Python files in: {target}\n"

    @pytest.mark.parametrize("fmt", ["human", "json"])
    def test_non_utf8_file_is_a_parse_error(self, fmt, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_bytes(b"\xff\xfe__all__ = []\n")
        (tmp_path / "good.py").write_text("__all__ = []\n")
        assert main([str(tmp_path), "--format", fmt]) == 1
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err
        if fmt == "json":
            payload = json.loads(captured.out)
            assert [e["path"] for e in payload["parse_errors"]] == [str(bad)]
            assert payload["files_checked"] == 1
        else:
            assert captured.out.startswith(f"{bad}:1:0: PARSE not UTF-8: ")

    def test_blank_select_entry_is_ignored(self, tmp_path, capsys):
        # ``--select DCL010, src`` leaves a trailing comma: it selects
        # DCL010 instead of failing with an empty unknown-code list.
        mod = tmp_path / "repro" / "core" / "m.py"
        mod.parent.mkdir(parents=True)
        mod.write_text("import time\nt = time.time()\n")
        assert main(["--select", "DCL010,", str(tmp_path), "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["rule_counts"] == {"DCL010": 1}
        assert [r.code for r in all_rules(["DCL010", " ", ""])] == ["DCL010"]
        assert main(["--select", ",", str(tmp_path)]) == 2
        assert "no rule code selected" in capsys.readouterr().err

    def test_list_rules(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for code in ("DCL003", "DCL005", "DCL006", "DCL007",
                     "DCL010", "DCL011", "DCL012", "DCL013"):
            assert code in out
        for retired in ("DCL001", "DCL002", "DCL004", "DCL008"):
            assert retired not in out


# ----------------------------------------------------------------------
# The real tree is clean -- the CI gate
# ----------------------------------------------------------------------
class TestRealTree:
    def test_src_tree_is_clean(self):
        report = lint_paths([str(SRC)])
        assert report.files_checked > 40
        assert report.violations == []
        assert report.parse_errors == []

    def test_module_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "repro.devtools.lint", str(SRC)],
            capture_output=True, text=True,
            cwd=str(REPO_ROOT),
            env={"PYTHONPATH": str(SRC), "PATH": "/usr/bin:/bin"},
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr

    def test_cli_subcommand(self, capsys):
        from repro.cli import main as cli_main

        assert cli_main(["lint", str(SRC)]) == 0


# ----------------------------------------------------------------------
# The mutation census (docs/DEVELOPMENT.md): each rule's violation
# planted at every kind of site it covers
# ----------------------------------------------------------------------
_C = "src/repro/core/census.py"
_HELPER = "src/repro/core/helper.py"
_CORE_INIT = "src/repro/core/__init__.py"
_DATA = "src/repro/data/helper.py"
_TC = "from typing import TYPE_CHECKING\n"
_ENGINE = (
    "__all__ = ['Engine']\nclass Engine:\n"
    "    def draw(self, data, rng=None):\n        return data\n"
)
_CONSUME = "__all__ = ['consume']\ndef consume(data, rng=None):\n    return data\n"
_CLOCK = (
    "import time\n__all__ = ['stamp']\n"
    "def stamp():\n    return time.perf_counter()\n"
)
_STATE = "__all__ = ['MiningState']\nclass MiningState:\n    pass\n"
_MUTATE = (
    "def _f(buf: 'MiningState | np.ndarray', a: np.ndarray) -> None:\n"
    "    buf[0] = 1\n    a[0] = 1\n"
)
_RESIDUE = "__all__ = ['residue']\ndef residue(sub) -> float:\n    return 0.0\n"

#: ``(code, site, {path: source}, findings)``: the ``(path, line)``
#: findings are the census table's "change" column.  An empty list is
#: a site the rule does not claim (a blind spot, or the clock seam).
CENSUS = [
    ("DCL003", "module", {_C: "import numpy as np\n__all__ = []\nX = np.nanmean([1.0])\n"}, [(_C, 3)]),
    ("DCL003", "class", {_C: "import numpy as np\n__all__ = ['K']\nclass K:\n    X = np.nansum([1.0])\n"}, [(_C, 4)]),
    ("DCL003", "function", {_C: "import numpy as np\n__all__ = []\ndef _f(a):\n    return np.nanstd(a)\n"}, [(_C, 4)]),
    ("DCL003", "local-import", {_C: "__all__ = []\ndef _f(a):\n    import numpy as np\n    return np.nanmean(a)\n"}, [(_C, 4)]),
    ("DCL003", "type-checking", {_C: _TC + "if TYPE_CHECKING:\n    import numpy as np\n__all__ = []\ndef _f(a):\n    return np.nanmean(a)\n"}, [(_C, 6)]),
    ("DCL003", "re-export", {
        _HELPER: "from numpy import nanmean\n__all__ = ['nanmean']\n",
        _C: "from .helper import nanmean\n__all__ = []\ndef _f(a):\n    return nanmean(a)\n"}, [(_C, 4)]),
    ("DCL005", "module", {_DATA: "def public():\n    return 1\n"}, [(_DATA, 1)]),
    ("DCL005", "class", {_DATA: "__all__ = []\nclass Public:\n    pass\n"}, [(_DATA, 1)]),
    ("DCL005", "function", {_DATA: "__all__ = ['a']\ndef a():\n    pass\ndef b():\n    pass\n"}, [(_DATA, 1)]),
    ("DCL005", "local-import", {_DATA: "__all__ = ['join']\ndef _f():\n    from os.path import join\n    return join\n"}, [(_DATA, 1)]),
    ("DCL005", "type-checking", {_DATA: _TC + "if TYPE_CHECKING:\n    from os import PathLike\n__all__ = ['PathLike', 'ghost']\n"}, [(_DATA, 4)]),
    ("DCL005", "re-export", {_DATA: "from .use import ghost\n__all__ = ['ghost', 'ghost']\n"}, [(_DATA, 2)]),
    ("DCL006", "module", {_C: "import os\n__all__ = []\nos.environ['SEED'] = '1'\n"}, [(_C, 3)]),
    ("DCL006", "class", {_C: "__all__ = ['K']\nCACHE = {}\nclass K:\n    def put(self, k):\n        CACHE[k] = 1\n"}, [(_C, 5)]),
    ("DCL006", "function", {_C: "__all__ = []\nSEEN = []\ndef _f(x):\n    SEEN.append(x)\n"}, [(_C, 4)]),
    ("DCL006", "local-import", {_C: "__all__ = []\ndef _f():\n    import os\n    os.environ['SEED'] = '1'\n"}, [(_C, 4)]),
    ("DCL006", "re-export", {
        _HELPER: "__all__ = ['CACHE']\nCACHE = {}\n",
        _C: "from .helper import CACHE\n__all__ = []\ndef _f(k):\n    CACHE[k] = 1\n"}, []),
    ("DCL007", "module", {_C: "__all__ = []\ntry:\n    import fast\nexcept:\n    fast = None\n"}, [(_C, 4)]),
    ("DCL007", "class", {RUNTIME_PATH: "__all__ = ['K']\nclass K:\n    def run(self):\n        try:\n            return 1\n        except Exception:\n            pass\n"}, [(RUNTIME_PATH, 6)]),
    ("DCL007", "function", {_C: "__all__ = []\ndef _f():\n    try:\n        return 1\n    except BaseException:\n        ...\n"}, [(_C, 5)]),
    ("DCL010", "module", {_C: "import time\n__all__ = []\nT0 = time.time()\n"}, [(_C, 3)]),
    ("DCL010", "class", {_C: "import time\n__all__ = ['K']\nclass K:\n    T0 = time.monotonic()\n"}, [(_C, 4)]),
    ("DCL010", "function", {_C: "from time import perf_counter\n__all__ = []\ndef _f():\n    return perf_counter()\n"}, [(_C, 4)]),
    ("DCL010", "perf-module", {PERF_PATH: "from datetime import datetime\n__all__ = []\nT0 = datetime.now()\n"}, [(PERF_PATH, 3)]),
    ("DCL010", "local-import", {_C: "__all__ = []\ndef _f():\n    import time\n    return time.time()\n"}, [(_C, 4)]),
    ("DCL010", "type-checking", {_C: _TC + "if TYPE_CHECKING:\n    from ..obs.analysis import TraceAnalysis\n__all__ = []\n"}, [(_C, 3)]),
    ("DCL010", "outside-import", {_C: "from ..obs.analysis import analyze_records\n__all__ = []\n"}, [(_C, 1)]),
    ("DCL010", "cross-module-core", {
        _HELPER: _CLOCK,
        _C: "from .helper import stamp\n__all__ = []\ndef run():\n    return stamp()\n"}, [(_HELPER, 4)]),
    ("DCL010", "cross-module-outside", {
        _DATA: _CLOCK,
        _C: "from ..data.helper import stamp\n__all__ = []\ndef run():\n    return stamp()\n"}, [(_C, 1)]),
    ("DCL010", "cross-module-boundary", {
        "src/repro/obs/events.py": _CLOCK,
        _C: "from ..obs.events import stamp\n__all__ = []\ndef run():\n    return stamp()\n"}, [("src/repro/obs/events.py", 4)]),
    ("DCL010", "re-export-core", {
        _HELPER: "from time import perf_counter\n__all__ = ['perf_counter']\n",
        _C: "from .helper import perf_counter\n__all__ = []\ndef run():\n    return perf_counter()\n"}, [(_C, 4)]),
    ("DCL010", "re-export-outside", {
        _DATA: _CLOCK,
        "src/repro/data/__init__.py": "from .helper import stamp\n__all__ = ['stamp']\n",
        _C: "from ..data import stamp\n__all__ = []\ndef run():\n    return stamp()\n"}, [(_C, 1)]),
    ("DCL010", "re-export-boundary", {
        "src/repro/obs/analysis.py": _CLOCK,
        "src/repro/obs/tracer.py": "from .analysis import stamp\n__all__ = ['stamp']\n",
        _C: "from ..obs.tracer import stamp\n__all__ = []\ndef run():\n    return stamp()\n"}, [("src/repro/obs/tracer.py", 1)]),
    ("DCL010", "tracer-seam", {_C: "__all__ = []\ndef run(tracer):\n    return tracer.clock()\n"}, []),
    ("DCL011", "module", {_DATA: "import numpy as np\n__all__ = []\nX = np.random.rand(3)\n"}, [(_DATA, 3)]),
    ("DCL011", "class", {_DATA: "import random\n__all__ = ['K']\nclass K:\n    X = random.random()\n"}, [(_DATA, 4)]),
    ("DCL011", "function", {_C: "import numpy as np\n__all__ = ['sample']\ndef sample(n):\n    return np.random.default_rng(0).uniform(size=n)\n"}, [(_C, 4)]),
    ("DCL011", "local-import", {_DATA: "__all__ = []\ndef _f():\n    import random\n    return random.random()\n"}, [(_DATA, 4)]),
    ("DCL011", "type-checking", {
        _HELPER: _ENGINE,
        _C: _TC + "if TYPE_CHECKING:\n    from .helper import Engine\n__all__ = []\n"
        "def _run(engine: 'Engine', data):\n    return engine.draw(data)\n"}, [(_C, 6)]),
    ("DCL011", "cross-module", {
        _HELPER: _CONSUME,
        _C: "from .helper import consume\n__all__ = []\ndef _middle(data):\n    return consume(data)\n"
        "def _outer(data):\n    return _middle(data)\n"}, [(_C, 4), (_C, 6)]),
    ("DCL011", "re-export", {
        _HELPER: _CONSUME,
        _CORE_INIT: "from .helper import consume\n__all__ = ['consume']\n",
        _C: "from . import consume\n__all__ = []\ndef _run(data):\n    return consume(data)\n"}, [(_C, 4)]),
    ("DCL011", "re-export-global", {
        "src/repro/data/rngs.py": "from numpy.random import default_rng\n__all__ = ['default_rng']\n",
        "src/repro/data/use.py": "from .rngs import default_rng\n__all__ = []\nG = default_rng()\n"}, [("src/repro/data/use.py", 3)]),
    ("DCL011", "method-self", {
        _C: "__all__ = ['K']\nclass K:\n    def run(self, data):\n        return self._draw(data)\n"
        "    def _draw(self, data, rng=None):\n        return data\n"}, [(_C, 4)]),
    ("DCL011", "method-annotated", {
        _HELPER: _ENGINE,
        _C: "from .helper import Engine\n__all__ = []\ndef _run(engine: Engine, data):\n    return engine.draw(data)\n"}, [(_C, 4)]),
    ("DCL011", "method-constructed", {
        _HELPER: _ENGINE,
        _C: "from .helper import Engine\n__all__ = []\ndef _run(data):\n    engine = Engine()\n    return engine.draw(data)\n"}, [(_C, 5)]),
    ("DCL011", "method-unannotated", {
        _HELPER: _ENGINE,
        _C: "__all__ = []\ndef _run(engine, data):\n    return engine.draw(data)\n"}, []),
    ("DCL012", "function", {_C: "import numpy as np\n__all__ = []\ndef _f(a: np.ndarray) -> None:\n    a[0] = 1\n"}, [(_C, 4)]),
    ("DCL012", "class", {_C: "import numpy as np\n__all__ = ['K']\nclass K:\n    def m(self, a: np.ndarray) -> None:\n        a.sort()\n"}, [(_C, 5)]),
    ("DCL012", "nested", {_C: "import numpy as np\n__all__ = []\ndef _f(a: np.ndarray) -> None:\n    def _g():\n        a.fill(0)\n    _g()\n"}, [(_C, 5)]),
    ("DCL012", "cross-module", {
        _HELPER: _STATE,
        _C: "import numpy as np\nfrom .helper import MiningState\n__all__ = []\n" + _MUTATE}, [(_C, 6)]),
    ("DCL012", "re-export", {
        _HELPER: _STATE,
        _CORE_INIT: "from .helper import MiningState\n__all__ = ['MiningState']\n",
        _C: "import numpy as np\nfrom . import MiningState\n__all__ = []\n" + _MUTATE}, [(_C, 6)]),
    ("DCL012", "type-checking", {
        _HELPER: _STATE,
        _C: "import numpy as np\n" + _TC + "if TYPE_CHECKING:\n    from .helper import MiningState\n__all__ = []\n" + _MUTATE}, [(_C, 8)]),
    ("DCL013", "module", {_C: "__all__ = []\nX = 1.0\nFLAG = X == 0.5\n"}, [(_C, 3)]),
    ("DCL013", "class", {_C: "__all__ = ['K']\nclass K:\n    FLAG = 1.0 != float('nan')\n"}, [(_C, 3)]),
    ("DCL013", "function", {_C: "__all__ = []\ndef _f(x):\n    return x == -0.5\n"}, [(_C, 3)]),
    ("DCL013", "cross-module", {
        _HELPER: _RESIDUE,
        _C: "from .helper import residue\n__all__ = []\ndef _f(s, best):\n    return residue(s) == best\n"}, [(_C, 4)]),
    ("DCL013", "re-export", {
        _HELPER: _RESIDUE,
        _CORE_INIT: "from .helper import residue\n__all__ = ['residue']\n",
        _C: "from . import residue\n__all__ = []\ndef _f(s, best):\n    return residue(s) == best\n"}, [(_C, 4)]),
    ("DCL013", "local-import", {
        _HELPER: _RESIDUE,
        _C: "__all__ = []\ndef _f(s, best):\n    from .helper import residue\n    return residue(s) != best\n"}, [(_C, 4)]),
]


class TestCensus:
    @pytest.mark.parametrize(
        "code,site,files,expected", CENSUS,
        ids=[f"{row[0]}-{row[1]}" for row in CENSUS],
    )
    def test_census_row(self, code, site, files, expected, tmp_path):
        for rel, source in files.items():
            target = tmp_path / rel
            target.parent.mkdir(parents=True, exist_ok=True)
            target.write_text(source)
        report = lint_paths([str(tmp_path)], all_rules([code]))
        found = sorted(
            (Path(v.path).relative_to(tmp_path).as_posix(), v.line)
            for v in report.violations
        )
        assert found == sorted(expected)

    def test_every_rule_has_rows(self):
        assert {row[0] for row in CENSUS} == {cls.code for cls in RULES}
