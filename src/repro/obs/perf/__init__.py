"""Performance observability: work counters, bench harness, baselines.

Three layers, bottom up:

* :mod:`~repro.obs.perf.counters` -- the deterministic work-counter
  cost model (:class:`WorkCounters`) the core algorithm counts into;
* :mod:`~repro.obs.perf.workloads` -- seed-pinned bench workloads
  behind a registry, grouped into suites;
* :mod:`~repro.obs.perf.bench` -- the harness that times workloads,
  emits schema-versioned ``BENCH_<suite>.json`` documents, and compares
  them for regressions (``repro bench run/list/compare``).

The whole package is wall-clock-free by construction: lint rule DCL010
bans ``time.*`` calls here, and the one timing need (the harness's
best-of-N wall time) goes through the tracer's injectable clock seam.

``workloads`` and ``bench`` import the core lazily and are therefore
not re-exported here -- import them as submodules
(``from repro.obs.perf import bench``); the dependency-free counter and
fingerprint primitives are re-exported for convenience, each imported
on first use (:mod:`repro._lazy`).
"""

from ..._lazy import lazy_exports

_resolve, __dir__ = lazy_exports(__name__, {
    ".counters": ("WORK_COUNTER_FIELDS", "WorkCounters"),
    ".fingerprint": ("environment_fingerprint", "git_revision"),
})

__all__ = [
    "WORK_COUNTER_FIELDS",
    "WorkCounters",
    "environment_fingerprint",
    "git_revision",
]


def __getattr__(name: str) -> object:
    return _resolve(name)
