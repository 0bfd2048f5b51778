"""Bit-identity digest of FLOC runs across gain modes, orderings and inputs.

A performance change to ``floc`` or the gain engine must not move any
result bit.  This script runs a fixed grid of small ``floc`` calls and
prints one sha256 per case group over everything a run reports
deterministically: the clusters, the bits of ``history``,
``n_iterations``, ``n_actions`` and every ``WorkCounters`` field.

The grid: gain modes ``fast`` and ``exact`` x orderings ``fixed``,
``random``, ``weighted`` and ``greedy`` x inputs (dense; 20% missing;
60% missing with blanked rows and columns; every other cell of two
columns outside the planted clusters missing) form the groups; each group
runs six variants (residue target, no target, alpha 0.5, Cons_o,
mandatory moves, reseed rounds).

    python benchmarks/floc_digest.py                       # print digests
    python benchmarks/floc_digest.py --write FILE          # write a baseline
    python benchmarks/floc_digest.py --check FILE          # compare, exit 1 on drift
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from typing import Dict, List, Tuple

import numpy as np

from repro.core.constraints import Constraints
from repro.core.floc import floc
from repro.core.matrix import DataMatrix
from repro.data.synthetic import generate_embedded
from repro.obs.perf.counters import WorkCounters

MODES = ("fast", "exact")
ORDERINGS = ("fixed", "random", "weighted", "greedy")
TARGET = 6.0

#: (name, floc keyword arguments) of the variants each group runs.
VARIANTS: Tuple[Tuple[str, Dict[str, object]], ...] = (
    ("target", {"residue_target": TARGET}),
    ("no_target", {}),
    ("alpha", {"residue_target": TARGET, "alpha": 0.5}),
    ("cons_o", {"residue_target": TARGET,
                "constraints": Constraints(max_overlap=0.3)}),
    ("mandatory", {"residue_target": TARGET, "mandatory_moves": True}),
    ("reseed", {"residue_target": TARGET, "reseed_rounds": 2}),
)


def inputs() -> Dict[str, DataMatrix]:
    """The four input matrices, 60 x 14 with three planted clusters."""
    def embedded(missing: float, seed: int) -> np.ndarray:
        return generate_embedded(
            60, 14, 3, cluster_shape=(12, 6), noise=2.0,
            missing_fraction=missing, rng=seed,
        ).matrix.values.copy()

    blanked = embedded(0.6, 3)
    blanked[[4, 31], :] = np.nan
    blanked[:, [2, 9]] = np.nan
    # Columns 2 and 6 lie outside this seed's planted clusters: a masked
    # matrix whose clusters can still have fully specified lanes.
    holed = embedded(0.0, 4)
    holed[::2, [2, 6]] = np.nan
    return {
        "dense": DataMatrix(embedded(0.0, 1)),
        "missing20": DataMatrix(embedded(0.2, 2)),
        "missing60_blanked": DataMatrix(blanked),
        "holes_outside": DataMatrix(holed),
    }


def case_bytes(matrix: DataMatrix, mode: str, ordering: str, seed: int,
               kwargs: Dict[str, object]) -> bytes:
    """Everything one ``floc`` run reports deterministically, as bytes."""
    work = WorkCounters()
    result = floc(
        matrix, 4, p=0.3, ordering=ordering, gain_mode=mode, rng=seed,
        max_iterations=30, work=work, **kwargs,
    )
    parts: List[bytes] = []
    for cluster in result.clustering:
        parts.append(np.asarray(cluster.rows, dtype=np.int64).tobytes())
        parts.append(b"|")
        parts.append(np.asarray(cluster.cols, dtype=np.int64).tobytes())
        parts.append(b";")
    parts.append(np.asarray(result.history, dtype=np.float64).tobytes())
    fields = [result.n_iterations, result.n_actions] + [v for _, v in work]
    parts.append(np.asarray(fields, dtype=np.int64).tobytes())
    return b"".join(parts)


def digests() -> Dict[str, str]:
    """One sha256 per ``mode/ordering/input`` group."""
    out: Dict[str, str] = {}
    for input_name, matrix in inputs().items():
        for mode in MODES:
            for ordering in ORDERINGS:
                h = hashlib.sha256()
                for seed, (variant, kwargs) in enumerate(VARIANTS):
                    h.update(variant.encode())
                    h.update(case_bytes(matrix, mode, ordering, seed, kwargs))
                out[f"{mode}/{ordering}/{input_name}"] = h.hexdigest()
    return out


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    group = parser.add_mutually_exclusive_group()
    group.add_argument("--write", metavar="FILE", help="write the digests as JSON")
    group.add_argument("--check", metavar="FILE", help="compare against a JSON baseline")
    args = parser.parse_args(argv)
    current = digests()
    for name, value in current.items():
        print(f"{value}  {name}")
    if args.write:
        with open(args.write, "w") as handle:
            json.dump(current, handle, indent=2, sort_keys=True)
            handle.write("\n")
    if args.check:
        with open(args.check) as handle:
            baseline = json.load(handle)
        drifted = sorted(
            name for name in baseline.keys() | current.keys()
            if baseline.get(name) != current.get(name)
        )
        if drifted:
            print(f"digest drift in {len(drifted)} group(s): {', '.join(drifted)}",
                  file=sys.stderr)
            return 1
        print(f"all {len(current)} groups match {args.check}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
