"""Ablations over this implementation's design choices (DESIGN.md §4).

Not paper tables -- these quantify the deltas introduced by:

* ``gain_mode``: the exact after-toggle residue vs the fast
  frozen-bases estimate;
* ``mandatory_moves``: the paper's perform-even-negative rule vs
  skip-non-positive;
* ``reseed_rounds``: 0 (paper-literal single Phase 2) vs 10.
"""

from conftest import once

from repro import Constraints, floc, generate_embedded, recall_precision
from repro.eval.reporting import format_table


def workload(rng=3):
    dataset = generate_embedded(
        300, 60, 10, cluster_shape=(30, 20), noise=3.0, rng=rng
    )
    return dataset, 2 * dataset.embedded_average_residue()


def run_variant(**overrides):
    dataset, target = workload()
    kwargs = dict(
        k=12, p=0.2, residue_target=target,
        constraints=Constraints(min_rows=3, min_cols=3),
        reseed_rounds=10, gain_mode="fast", ordering="greedy", rng=5,
    )
    kwargs.update(overrides)
    result = floc(dataset.matrix, **kwargs)
    scores = recall_precision(
        dataset.embedded, result.clustering.clusters, dataset.matrix.shape
    )
    return [
        result.elapsed_seconds,
        result.n_iterations,
        scores.recall,
        scores.precision,
    ]


def test_ablation_gain_mode(benchmark, report):
    rows = once(benchmark, lambda: [
        ["fast"] + run_variant(gain_mode="fast"),
        ["exact"] + run_variant(gain_mode="exact"),
    ])
    text = format_table(
        rows,
        headers=["gain mode", "time (s)", "iterations", "recall", "precision"],
        title="Ablation -- exact vs fast gain evaluation\n"
              "(fast scores a frozen-bases estimate instead of "
              "the exact after-toggle residue; the acted cluster's "
              "ledger stays exact either way)",
    )
    report("ablation_gain_mode", text)
    fast_row, exact_row = rows
    assert fast_row[1] < exact_row[1], "fast mode must be faster"
    assert fast_row[3] > 0.5, "fast mode must stay accurate"


def test_ablation_mandatory_moves(benchmark, report):
    rows = once(benchmark, lambda: [
        ["skip non-positive (default)"] + run_variant(mandatory_moves=False),
        ["mandatory (paper-literal)"] + run_variant(mandatory_moves=True),
    ])
    text = format_table(
        rows,
        headers=["policy", "time (s)", "iterations", "recall", "precision"],
        title="Ablation -- negative-gain best actions\n"
              "(the paper performs them and relies on snapshots; at "
              "reproduction scale the mandatory additions of unfitting "
              "rows drown the snapshot signal)",
    )
    report("ablation_mandatory_moves", text)
    skip_row, __ = rows
    assert skip_row[3] > 0.5


def test_ablation_reseed_rounds(benchmark, report):
    rows = once(benchmark, lambda: [
        [rounds] + run_variant(reseed_rounds=rounds)
        for rounds in (0, 5, 10, 20)
    ])
    text = format_table(
        rows,
        headers=["reseed rounds", "time (s)", "iterations", "recall",
                 "precision"],
        title="Ablation -- reseed rounds\n"
              "(0 = paper-literal single Phase 2; each extra round gives "
              "dead seeds a fresh draw while locked clusters persist)",
    )
    report("ablation_reseed_rounds", text)
    recalls = [row[3] for row in rows]
    assert recalls[-1] >= recalls[0], "reseeding must not hurt recall"
