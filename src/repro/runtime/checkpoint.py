"""Durable, resumable checkpoints for supervised mining sessions.

Layout of a run directory::

    <run_dir>/
        manifest.json             # session identity + per-restart status
        restarts/
            restart-00000.json    # one durable record per finished restart
            restart-00001.json
            ...
        traces/                   # supervisor trace shards (--trace runs)

Every write is atomic (:func:`repro.data.io.write_json_atomic`: temp
file + fsync + rename), so a kill at any instant leaves either the old
or the new version on disk -- never a torn file.  Restart records carry
a sha256 digest over their canonical-JSON payload; a corrupted record is
detected on load and treated as *absent*, so the supervisor simply
re-executes that restart.

Determinism contract: a restart record serializes floats through
``json`` (``repr`` round-trip), so a reloaded :class:`FlocResult` is
bit-identical to the in-memory original.  The supervisor always pools
from reloaded records, which makes an uninterrupted run and a resumed
run byte-for-byte identical by construction.

A traced restart's record also carries a digest-covered ``trace`` key:
the worker's JSONL shard (:func:`repro.obs.session.worker_trace`) as
one string.  :func:`restart_traces` hands the session collector the
sections of the records that verify.  Untraced records have no
``trace`` key.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Set, Tuple, Union

from ..core.cluster import DeltaCluster
from ..core.clustering import Clustering
from ..core.floc import FlocResult
from ..core.matrix import DataMatrix
from ..data.io import write_json_atomic
from ..obs.perf.counters import WorkCounters
from .config import RunConfig

__all__ = [
    "CheckpointError",
    "CheckpointCorruptionError",
    "CheckpointMismatchError",
    "CheckpointStore",
    "read_record",
    "record_digest",
    "record_to_result",
    "restart_traces",
    "result_to_record",
]

MANIFEST_SCHEMA = 1
PathLike = Union[str, Path]


class CheckpointError(RuntimeError):
    """Base class for checkpoint failures."""


class CheckpointCorruptionError(CheckpointError):
    """A restart record or manifest failed digest / JSON validation."""


class CheckpointMismatchError(CheckpointError):
    """A resume targeted a run directory from a different session."""

    def __init__(self, message: str, fields: Sequence[str] = ()) -> None:
        super().__init__(message)
        #: The identity fields that differ (none for a schema mismatch).
        self.fields = tuple(fields)


def _canonical(obj: object) -> str:
    """Canonical JSON: sorted keys, no whitespace -- the digest input."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


#: Record keys excluded from the digest: ``digest`` is the digest
#: itself, and ``telemetry`` is per-attempt resource measurement
#: (rusage) -- real observation, but nondeterministic, so it must not
#: participate in the bit-identity contract the digest enforces.
_UNDIGESTED_KEYS = frozenset({"digest", "telemetry"})


def record_digest(payload: Dict[str, object]) -> str:
    """sha256 over the canonical JSON of ``payload``.

    Excludes :data:`_UNDIGESTED_KEYS` so resource telemetry can ride the
    durable record without breaking resumed-vs-uninterrupted parity.
    A ``trace`` section is hashed as raw text after the rest, sparing
    the JSON escaping of tens of kilobytes on every verification.
    """
    body = {k: v for k, v in payload.items() if k not in _UNDIGESTED_KEYS}
    trace = body.pop("trace", None)
    digest = hashlib.sha256(_canonical(body).encode("utf-8"))
    if trace is not None:
        digest.update(str(trace).encode("utf-8"))
    return digest.hexdigest()


def result_to_record(
    restart: int,
    result: FlocResult,
    trace: Optional[str] = None,
) -> Dict[str, object]:
    """Serialize one restart's :class:`FlocResult` to a durable record.

    Tracer aggregates (``metrics`` / ``trace_summary``) are dropped:
    they are session-cumulative observations, not part of the restart's
    deterministic output.  ``trace``, a traced restart's JSONL shard,
    becomes the digest-covered ``trace`` key.
    """
    payload: Dict[str, object] = {
        "schema": MANIFEST_SCHEMA,
        "restart": int(restart),
        "clusters": [
            [list(c.rows), list(c.cols)] for c in result.clustering
        ],
        "n_iterations": int(result.n_iterations),
        "initial_residue": float(result.initial_residue),
        "history": [float(x) for x in result.history],
        "iteration_times": [float(x) for x in result.iteration_times],
        "elapsed_seconds": float(result.elapsed_seconds),
        "converged": bool(result.converged),
        "n_actions": int(result.n_actions),
    }
    if result.work is not None:
        # Work counters are deterministic restart output (unlike the
        # tracer aggregates), so they round-trip and feed the digest.
        payload["work"] = result.work.as_dict()
    if trace is not None:
        payload["trace"] = trace
    payload["digest"] = record_digest(payload)
    return payload


def record_to_result(
    record: Dict[str, object], matrix: DataMatrix
) -> FlocResult:
    """Inverse of :func:`result_to_record` (digest must already be
    verified by the caller -- see :meth:`CheckpointStore.load_record`)."""
    clusters = [
        DeltaCluster(rows, cols)
        for rows, cols in record["clusters"]  # type: ignore[union-attr]
    ]
    work = record.get("work")
    return FlocResult(
        clustering=Clustering(matrix, clusters),
        n_iterations=int(record["n_iterations"]),  # type: ignore[arg-type]
        initial_residue=float(record["initial_residue"]),  # type: ignore[arg-type]
        history=list(record["history"]),  # type: ignore[arg-type]
        iteration_times=list(record["iteration_times"]),  # type: ignore[arg-type]
        elapsed_seconds=float(record["elapsed_seconds"]),  # type: ignore[arg-type]
        converged=bool(record["converged"]),
        n_actions=int(record["n_actions"]),  # type: ignore[arg-type]
        work=WorkCounters(**work) if isinstance(work, dict) else None,
    )


def read_record(path: Path, restart: int) -> Dict[str, object]:
    """Load the record of ``restart`` at ``path`` and verify its digest."""
    if not path.exists():
        raise CheckpointError(f"no record for restart {restart}: {path}")
    try:
        record = json.loads(path.read_text(encoding="utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise CheckpointCorruptionError(
            f"restart {restart} record is not valid JSON: {path}"
        ) from exc
    if not isinstance(record, dict):
        raise CheckpointCorruptionError(
            f"restart {restart} record is not an object: {path}"
        )
    digest = record.get("digest")
    if digest != record_digest(record):
        raise CheckpointCorruptionError(
            f"restart {restart} record failed digest check: {path}"
        )
    if record.get("restart") != restart:
        raise CheckpointCorruptionError(
            f"record at {path} claims restart {record.get('restart')!r}"
        )
    return record


def restart_traces(
    run_dir: PathLike,
) -> Tuple[List[Tuple[str, List[Dict[str, object]]]], List[str]]:
    """The trace sections of the restart records under ``run_dir``.

    Returns ``(sections, damaged)``: ``(name, records)`` for every
    record that verifies and carries a ``trace`` section, in restart
    order, with the section's JSONL decoded, and the names of the
    records that do not verify.  Names are relative to the run
    directory (``restarts/restart-00001.json``).
    """
    sections: List[Tuple[str, List[Dict[str, object]]]] = []
    damaged: List[str] = []
    for path in sorted((Path(run_dir) / "restarts").glob("restart-*.json")):
        name = f"restarts/{path.name}"
        try:
            restart = int(path.stem.partition("-")[2])
            trace = read_record(path, restart).get("trace")
            if isinstance(trace, str):
                sections.append(
                    (name, [json.loads(line) for line in trace.splitlines()])
                )
        except (CheckpointError, OSError, ValueError):
            damaged.append(name)
    return sections, damaged


class CheckpointStore:
    """Manifest + per-restart records under one run directory.

    Use :meth:`create` for a fresh session and :meth:`open` to attach to
    an existing one (the resume path).  All mutating methods rewrite the
    manifest atomically, so the store is always consistent on disk.
    """

    def __init__(self, run_dir: PathLike, config: RunConfig,
                 manifest: Dict[str, object]) -> None:
        self.run_dir = Path(run_dir)
        self.config = config
        self._manifest = manifest

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def create(cls, run_dir: PathLike, config: RunConfig) -> "CheckpointStore":
        """Initialize a fresh run directory (must not hold a manifest)."""
        run_dir = Path(run_dir)
        manifest_path = run_dir / "manifest.json"
        if manifest_path.exists():
            raise CheckpointError(
                f"run directory already initialized: {manifest_path}; "
                "use CheckpointStore.open() / --resume to continue it"
            )
        try:
            run_dir.mkdir(parents=True, exist_ok=True)
            (run_dir / "restarts").mkdir(exist_ok=True)
        except OSError as exc:
            # A file at the run directory, or on the path to it.
            blocker = next(
                (path for path in (run_dir, *run_dir.parents)
                 if path.exists() and not path.is_dir()),
                None,
            )
            reason = f"{blocker} is not a directory" if blocker else exc.strerror
            raise CheckpointError(
                f"cannot create run directory {run_dir}: {reason}"
            ) from exc
        manifest: Dict[str, object] = {
            "schema": MANIFEST_SCHEMA,
            "config": config.to_dict(),
            "restarts": {},
            "best": None,
        }
        store = cls(run_dir, config, manifest)
        store._write_manifest()
        return store

    @classmethod
    def open(cls, run_dir: PathLike) -> "CheckpointStore":
        """Attach to an existing run directory, validating the manifest."""
        run_dir = Path(run_dir)
        manifest_path = run_dir / "manifest.json"
        if not manifest_path.exists():
            raise CheckpointError(f"no manifest in run directory: {run_dir}")
        try:
            manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise CheckpointCorruptionError(
                f"manifest is not valid JSON: {manifest_path}: {exc}"
            ) from exc
        if not isinstance(manifest, dict) or "config" not in manifest:
            raise CheckpointCorruptionError(
                f"manifest missing config section: {manifest_path}"
            )
        if manifest.get("schema") != MANIFEST_SCHEMA:
            raise CheckpointMismatchError(
                f"manifest schema {manifest.get('schema')!r} is not the "
                f"supported schema {MANIFEST_SCHEMA}: {manifest_path}"
            )
        try:
            config = RunConfig.from_dict(dict(manifest["config"]))
        except (TypeError, ValueError) as exc:
            raise CheckpointCorruptionError(
                f"manifest config is not a RunConfig: {manifest_path}: {exc}"
            ) from exc
        return cls(run_dir, config, manifest)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def manifest_path(self) -> Path:
        return self.run_dir / "manifest.json"

    def record_path(self, restart: int) -> Path:
        return self.run_dir / "restarts" / f"restart-{restart:05d}.json"

    def completed_restarts(self) -> Set[int]:
        """Restart indices the manifest marks done AND whose record on
        disk verifies; corrupt/missing records are dropped from the
        manifest so the supervisor re-executes them."""
        return set(self.completed_records())

    def completed_records(self) -> Dict[int, Dict[str, object]]:
        """The verified records of :meth:`completed_restarts`, by index."""
        done: Dict[int, Dict[str, object]] = {}
        stale: List[str] = []
        restarts = self._manifest.setdefault("restarts", {})
        assert isinstance(restarts, dict)
        for key, entry in restarts.items():
            restart = int(key)
            if not isinstance(entry, dict) or entry.get("status") != "done":
                continue
            try:
                record = self.load_record(restart)
            except CheckpointError:
                stale.append(key)
                continue
            if record.get("digest") != entry.get("digest"):
                stale.append(key)
                continue
            done[restart] = record
        if stale:
            for key in stale:
                del restarts[key]
            self._write_manifest()
        return done

    def load_record(self, restart: int) -> Dict[str, object]:
        """Load and digest-verify one restart record."""
        return read_record(self.record_path(restart), restart)

    def best_digest(self) -> Optional[str]:
        best = self._manifest.get("best")
        if isinstance(best, dict):
            digest = best.get("digest")
            return digest if isinstance(digest, str) else None
        return None

    def verify_config(self, config: RunConfig) -> None:
        """Raise :class:`CheckpointMismatchError` unless ``config`` is
        identity-compatible with the session stored here."""
        theirs = self.config.identity()
        ours = config.identity()
        if theirs != ours:
            diff = sorted(
                name for name in ours
                if ours[name] != theirs[name]
            )
            raise CheckpointMismatchError(
                "run directory belongs to a different session; "
                f"mismatched fields: {', '.join(diff)}",
                fields=diff,
            )

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def mark_done(self, restart: int, digest: str) -> None:
        """Record a durably-written restart in the manifest."""
        restarts = self._manifest.setdefault("restarts", {})
        assert isinstance(restarts, dict)
        restarts[str(restart)] = {"status": "done", "digest": digest}
        self._write_manifest()

    def update_best(self, digest: str, average_residue: float,
                    n_clusters: int) -> None:
        """Track the best-so-far pooled clustering digest."""
        self._manifest["best"] = {
            "digest": digest,
            "average_residue": float(average_residue),
            "n_clusters": int(n_clusters),
        }
        self._write_manifest()

    def _write_manifest(self) -> None:
        write_json_atomic(self.manifest_path, self._manifest, indent=2)
