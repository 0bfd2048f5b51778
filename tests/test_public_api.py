"""Public-surface sanity: exports exist, __all__ lists are honest, and
the example scripts at least compile."""

import doctest
import importlib
import pathlib
import py_compile

import pytest

PACKAGES = [
    "repro",
    "repro.core",
    "repro.baselines",
    "repro.subspace",
    "repro.data",
    "repro.eval",
    "repro.obs",
    "repro.obs.perf",
    "repro.runtime",
]

MODULES = [
    "repro._lazy",
    "repro.cli",
    "repro.commands",
    "repro.core.matrix",
    "repro.core.rng",
    "repro.core.residue",
    "repro.core.cluster",
    "repro.core.clustering",
    "repro.core.actions",
    "repro.core.ordering",
    "repro.core.seeding",
    "repro.core.constraints",
    "repro.core.floc",
    "repro.core.predict",
    "repro.core.mining",
    "repro.core.params",
    "repro.baselines.cheng_church",
    "repro.baselines.pearson",
    "repro.subspace.grid",
    "repro.subspace.clique",
    "repro.subspace.cover",
    "repro.subspace.graph",
    "repro.subspace.derived",
    "repro.data.synthetic",
    "repro.data.movielens",
    "repro.data.microarray",
    "repro.data.categorical",
    "repro.data.distributions",
    "repro.data.io",
    "repro.eval.metrics",
    "repro.eval.experiment",
    "repro.eval.reporting",
    "repro.eval.significance",
    "repro.devtools",
    "repro.devtools.lint",
    "repro.devtools.rules",
]


def test_previously_unexported_names_are_public():
    """Regression: DCL005 found these public names missing from __all__."""
    from repro.core import ordering
    from repro.data import microarray
    from repro.eval import experiment

    assert "greedy_order" in ordering.__all__
    assert "YeastDataset" in microarray.__all__
    assert "generate_workload" in experiment.__all__


@pytest.mark.parametrize("name", PACKAGES + MODULES)
def test_module_imports(name):
    module = importlib.import_module(name)
    assert module is not None


@pytest.mark.parametrize("name", PACKAGES + MODULES)
def test_all_entries_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", None)
    if exported is None:
        pytest.skip(f"{name} has no __all__")
    for symbol in exported:
        assert hasattr(module, symbol), f"{name}.__all__ lists missing {symbol}"


@pytest.mark.parametrize("name", PACKAGES + MODULES)
def test_public_symbols_documented(name):
    module = importlib.import_module(name)
    assert module.__doc__, f"{name} lacks a module docstring"
    for symbol in getattr(module, "__all__", []):
        obj = getattr(module, symbol)
        if isinstance(obj, type) or (
            callable(obj) and not _is_type_alias(obj)
        ):
            assert getattr(obj, "__doc__", None), (
                f"{name}.{symbol} lacks a docstring"
            )


@pytest.mark.parametrize(
    "name", ["repro", "repro.obs", "repro.obs.perf", "repro.data",
             "repro.eval", "repro.devtools"]
)
def test_lazy_exports_behave_like_attributes(name):
    """Lazily exported names show in ``dir()``; an unknown name is an
    ``AttributeError``, so ``hasattr`` and ``from ... import`` fail as
    they would on an eager package."""
    module = importlib.import_module(name)
    assert set(module.__all__) <= set(dir(module))
    assert not hasattr(module, "no_such_name")
    with pytest.raises(ImportError):
        exec(f"from {name} import no_such_name", {})


def _is_type_alias(obj):
    # typing aliases like Seed = Tuple[np.ndarray, np.ndarray] are
    # "callable" but carry typing's docstring, not their own.
    return getattr(obj, "__module__", "") == "typing"


def test_version_string():
    import repro

    assert repro.__version__.count(".") == 2


def test_package_docstring_examples_run():
    import repro

    results = doctest.testmod(repro)
    assert results.attempted > 0
    assert results.failed == 0


EXAMPLES = sorted(
    (pathlib.Path(__file__).parent.parent / "examples").glob("*.py")
)


def test_examples_exist():
    names = {path.name for path in EXAMPLES}
    assert "quickstart.py" in names
    assert len(names) >= 4


@pytest.mark.parametrize(
    "path", EXAMPLES, ids=lambda p: p.name
)
def test_examples_compile(path):
    py_compile.compile(str(path), doraise=True)
