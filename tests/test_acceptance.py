"""Acceptance suite: one test per headline criterion, each printing a
PASS line with its measured figure (run with ``pytest -v -s`` to watch)."""

import json
import time

import numpy as np
import pytest

from tehier import (
    HierLabel,
    KmerConfig,
    LogRegConfig,
    SvmConfig,
    SynthSpec,
    Taxonomy,
    crossval_strategies,
    f_measure,
    featurize,
    featurize_batch,
    generate,
    grid_search,
    hier_metrics,
    taxonomy_from_shape,
    wicker_taxonomy,
)
from tehier.gridsearch import Grid, DESK_C_VALUES, DESK_GAMMA_VALUES
from tehier.hierarchy import decode_lcpnb, decode_nllcpn, score_paths
from tehier.logreg import logreg_gradient, logreg_loss
from tehier.svm import _KernelColumns, rbf_kernel_matrix, smo_solve

from conftest import class_index, hl
from oracles import (
    best_path,
    dual_objective,
    exhaustive_path_oracle,
    finite_difference_logreg_gradient,
    greedy_chain_oracle,
    greedy_descent,
    kkt_violations,
    naive_feature_vector,
    naive_hier_prf,
    projected_gradient_qp,
    random_stub_problem,
    score_all_paths,
    stub_proba_table,
)


def report(name: str, detail: str):
    print(f"\nACCEPTANCE PASS  {name}: {detail}")


# Reported (hP, hR, hF) triples for the two strategies on the three public
# TE corpora; the F-measure must reproduce each reported hF from its hP/hR.
PUBLISHED_TRIPLES = [
    ("greedy/PGSB", 0.908, 0.897, 0.903),
    ("greedy/REPBASE", 0.879, 0.887, 0.883),
    ("greedy/combined", 0.882, 0.879, 0.881),
    ("path-scored/PGSB", 0.907, 0.904, 0.905),
    ("path-scored/REPBASE", 0.881, 0.890, 0.885),
    ("path-scored/combined", 0.880, 0.884, 0.882),
]


def test_f_measure_consistent_with_published_triples():
    worst = 0.0
    for name, hp, hr, hf_published in PUBLISHED_TRIPLES:
        hf = f_measure(hp, hr)
        worst = max(worst, abs(hf - hf_published))
        assert hf == pytest.approx(hf_published, abs=0.001), name
    report("published F-measure triples", f"6/6 within 0.001 (worst {worst:.5f})")


def test_hier_metrics_equals_naive_set_oracle():
    rng = np.random.default_rng(101)
    checked = 0
    for _ in range(1000):
        labels = [
            HierLabel(tuple(int(c) for c in rng.integers(1, 4, size=rng.integers(1, 5))))
            for _ in range(int(rng.integers(2, 8)))
        ]
        taxonomy = Taxonomy(labels)
        nodes = taxonomy.nodes()
        pairs = [
            (nodes[rng.integers(len(nodes))], nodes[rng.integers(len(nodes))])
            for _ in range(int(rng.integers(1, 25)))
        ]
        metrics = hier_metrics(pairs, taxonomy)
        hp, hr, hf = naive_hier_prf([(p.path, t.path) for p, t in pairs])
        assert abs(metrics.hp - hp) <= 1e-12
        assert abs(metrics.hr - hr) <= 1e-12
        assert abs(metrics.hf - hf) <= 1e-12
        checked += 1
    report("hierarchical metric oracle", f"{checked} random pair lists, exact at 1e-12")


def test_greedy_strategy_matches_oracle():
    rng = np.random.default_rng(202)
    agree = 0
    for _ in range(1000):
        tree, probas = random_stub_problem(rng)
        taxonomy = Taxonomy([HierLabel(p) for p in tree if p != ()])
        table = {
            parent: {HierLabel(c): p for c, p in dist.items()}
            for parent, dist in probas.items()
        }
        (node,) = decode_nllcpn(taxonomy, stub_proba_table(taxonomy, [table]))
        expected = greedy_chain_oracle(tree, probas)
        assert taxonomy.node_labels[node].path == expected == greedy_descent(taxonomy, table).path
        agree += 1
    report("greedy strategy oracle", f"{agree}/1000 random stub taxonomies")


def test_path_scoring_strategy_matches_oracle():
    rng = np.random.default_rng(303)
    agree = 0
    for _ in range(1000):
        tree, probas = random_stub_problem(rng)
        taxonomy = Taxonomy([HierLabel(p) for p in tree if p != ()])
        table = {
            parent: {HierLabel(c): p for c, p in dist.items()}
            for parent, dist in probas.items()
        }
        expected, oracle_scores = exhaustive_path_oracle(tree, probas)
        arrays = stub_proba_table(taxonomy, [table])
        scores = score_paths(taxonomy, arrays)
        assert scores == score_all_paths(taxonomy, table)
        assert {s.terminal.path: s.score for s in scores} == oracle_scores
        (node,) = decode_lcpnb(taxonomy, arrays)
        assert taxonomy.node_labels[node].path == expected == best_path(scores).terminal.path
        agree += 1
    report("path-scoring strategy oracle", f"{agree}/1000 incl. tie-breaks")


def test_smo_kkt_audit_and_qp_oracle():
    start = time.time()
    rng = np.random.default_rng(404)
    tol = 1e-3

    worst_violation = 0.0
    for _ in range(20):
        n_half = 100
        separation = float(rng.uniform(0.6, 2.5))
        X = np.vstack(
            [
                rng.normal(0, 0.5, (n_half, 3)) + separation / 2,
                rng.normal(0, 0.5, (n_half, 3)) - separation / 2,
            ]
        )
        y = np.array([1.0] * n_half + [-1.0] * n_half)
        C = float(rng.choice([0.5, 1.0, 4.0]))
        gamma = float(rng.choice([0.5, 1.0, 2.0]))
        alpha, bias, converged, *_ = smo_solve(
            _KernelColumns(X, gamma).column, y, C, tol, 200 * len(y)
        )
        assert converged
        K = rbf_kernel_matrix(X, X, gamma)
        violation = kkt_violations(K, y, alpha, bias, C).max()
        worst_violation = max(worst_violation, violation)
        assert violation <= tol

    worst_gap = 0.0
    for _ in range(20):
        n = int(rng.integers(6, 21))
        X = rng.normal(size=(n, 3))
        y = np.where(rng.random(n) < 0.5, 1.0, -1.0)
        if (y > 0).all() or (y < 0).all():
            y[0] = -y[0]
        C, gamma = 1.0, 0.9
        K = rbf_kernel_matrix(X, X, gamma)
        alpha, *_ = smo_solve(_KernelColumns(X, gamma).column, y, C, 1e-6, 400 * n)
        gap = abs(dual_objective(K, y, alpha) - projected_gradient_qp(K, y, C)[1])
        worst_gap = max(worst_gap, gap)
        assert gap <= 1e-3

    elapsed = time.time() - start
    assert elapsed < 120
    report(
        "SMO correctness",
        f"20 KKT audits (worst violation {worst_violation:.2e}) + 20 QP-oracle "
        f"checks (worst gap {worst_gap:.2e}) in {elapsed:.0f}s",
    )


def test_logreg_gradient_matches_finite_differences():
    rng = np.random.default_rng(505)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(4, 15))
        d = int(rng.integers(2, 6))
        k = int(rng.integers(2, 5))
        X = rng.normal(size=(n, d))
        y = rng.integers(0, k, size=n)
        weights = rng.normal(scale=0.8, size=(d, k))
        bias = rng.normal(scale=0.5, size=k)
        l2 = float(rng.choice([0.0, 1e-4, 1e-2]))
        target = class_index(y, k)
        _, probs = logreg_loss(weights, bias, X, target, l2)
        grad = logreg_gradient(weights, X, target, l2, probs)
        grad_w, grad_b = grad[:-k].reshape(d, k), grad[-k:]
        loss_fn = lambda w, b: logreg_loss(w, b, X, target, l2)[0]
        num_w, num_b = finite_difference_logreg_gradient(loss_fn, weights, bias)
        scale = max(1.0, np.abs(num_w).max(), np.abs(num_b).max())
        err = max(np.abs(grad_w - num_w).max(), np.abs(grad_b - num_b).max()) / scale
        worst = max(worst, err)
        assert err < 1e-5
    report("logistic gradient vs finite differences", f"50 configs, worst {worst:.2e}")


def test_kmer_featurization_matches_naive_oracle():
    rng = np.random.default_rng(606)
    alphabet = np.array(list("ACGT"))
    config = KmerConfig()
    for _ in range(1000):
        length = int(rng.integers(0, 2001))
        chars = rng.choice(alphabet, size=length)
        mask = rng.random(length) < 0.05
        chars[mask] = "N"
        residues = "".join(chars)
        expected = naive_feature_vector(residues, config.k_values, "freq")
        assert np.array_equal(featurize(residues, config), expected)
    report("k-mer featurization oracle", "1000 random sequences, bit-exact")


@pytest.fixture(scope="module")
def pgsb_shaped_dataset():
    """The desk-scale corpus: 2/4/3/5 taxonomy, 100 samples per node budget,
    length 500, separability 0.9, 15% internal labels."""
    taxonomy = taxonomy_from_shape([2, 4, 3, 5], seed=0)
    spec = SynthSpec(
        taxonomy=taxonomy,
        sequences_per_node=100,
        length_range=(500, 500),
        separability=0.9,
        internal_label_fraction=0.15,
        seed=42,
    )
    records = generate(spec)
    X = featurize_batch(records, KmerConfig(), threads=4)
    labels = [r.label for r in records]
    return taxonomy, X, labels


def test_end_to_end_desk_scale_experiment(pgsb_shaped_dataset):
    start = time.time()
    taxonomy, X, labels = pgsb_shaped_dataset

    grid = Grid(
        c_values=DESK_C_VALUES, gamma_values=DESK_GAMMA_VALUES,
        folds=3, strategy="lcpnb", seed=0,
    )
    tuned = grid_search(X, labels, taxonomy, grid, threads=4)
    assert tuned.selected is not None
    c_star, gamma_star = tuned.selected.C, tuned.selected.gamma

    result = crossval_strategies(
        X, labels, taxonomy, SvmConfig(C=c_star, gamma=gamma_star), ("lcpnb",),
        k=10, seed=7, threads=4,
    )["lcpnb"]
    elapsed = time.time() - start
    assert result.mean_hf >= 0.90
    assert elapsed < 600
    report(
        "end-to-end desk-scale experiment",
        f"3x3 grid chose C={c_star:g} gamma={gamma_star:g}; 10-fold SVM "
        f"path-scored hF={result.mean_hf:.4f} in {elapsed:.0f}s",
    )


def test_path_scoring_competitive_with_greedy(pgsb_shaped_dataset):
    taxonomy, X, labels = pgsb_shaped_dataset
    margins = {}
    for base, config in (
        ("svm", SvmConfig(C=16.0, gamma=8.0)),
        ("logreg", LogRegConfig()),
    ):
        greedy_means, scored_means = [], []
        for seed in range(5):
            results = crossval_strategies(
                X, labels, taxonomy,
                config=config,
                strategies=("nllcpn", "lcpnb"), k=3, seed=seed, threads=4,
            )
            greedy_means.append(results["nllcpn"].mean_hf)
            scored_means.append(results["lcpnb"].mean_hf)
        greedy_hf = float(np.mean(greedy_means))
        scored_hf = float(np.mean(scored_means))
        margins[base] = (scored_hf, greedy_hf)
        assert scored_hf >= greedy_hf - 0.02, (base, scored_hf, greedy_hf)
    detail = "; ".join(
        f"{base}: lcpnb {s:.4f} vs nllcpn {g:.4f}" for base, (s, g) in margins.items()
    )
    report("strategy comparison over 5 seeds", detail)


def test_cli_outputs_deterministic_across_runs_and_threads(tmp_path):
    from tehier.cli import main

    def run_all(dirname, threads):
        base = tmp_path / dirname
        base.mkdir()
        paths = {
            name: base / name
            for name in (
                "d.fasta", "d.csv", "m.json", "p.csv", "cv.csv",
                "grid.csv", "cmp.csv", "eval.csv",
            )
        }
        grid_file = base / "grid.json"
        grid_file.write_text(json.dumps({"c_values": [4.0], "gamma_values": [2.0]}))
        cmds = [
            ["synth", "--shape", "2,2", "--per-node", "12", "--length", "120",
             "--seed", "5", "--out", paths["d.fasta"]],
            ["featurize", paths["d.fasta"], "--threads", threads, "--out", paths["d.csv"]],
            ["train", paths["d.csv"], "--base", "svm", "--C", "4", "--gamma", "2",
             "--seed", "5", "--threads", threads, "--out", paths["m.json"]],
            ["predict", paths["d.fasta"], "--model", paths["m.json"],
             "--threads", threads, "--out", paths["p.csv"]],
            ["evaluate", paths["p.csv"], paths["d.fasta"], "--out", paths["eval.csv"]],
            ["cv", paths["d.csv"], "--base", "logreg", "--folds", "3", "--seed", "5",
             "--threads", threads, "--out", paths["cv.csv"]],
            ["gridsearch", paths["d.csv"], "--grid", grid_file, "--folds", "3",
             "--seed", "5", "--threads", threads, "--out", paths["grid.csv"]],
            ["compare", paths["d.csv"], "--folds", "3", "--C", "4", "--gamma", "2",
             "--seed", "5", "--threads", threads, "--out", paths["cmp.csv"]],
        ]
        for cmd in cmds:
            assert main([str(a) for a in cmd]) == 0
        return {name: p.read_bytes() for name, p in paths.items()}

    first = run_all("first", "1")
    second = run_all("second", "1")
    threaded = run_all("threaded", "8")
    assert first == second
    assert first == threaded
    report(
        "CLI determinism",
        f"{len(first)} artifacts byte-identical across reruns and threads 1 vs 8",
    )


def test_taxonomy_structural_check(pgsb_shaped_dataset):
    wicker = wicker_taxonomy()
    assert wicker.max_depth == 4
    assert len(wicker) > 0
    assert wicker.names[hl("1.1.1")] == "Copia"

    taxonomy, _, labels = pgsb_shaped_dataset
    induced = Taxonomy(labels)
    assert induced.classes_per_level() == [2, 4, 3, 5]
    assert induced == taxonomy
    report(
        "taxonomy structural check",
        f"bundled hierarchy loads ({len(wicker)} nodes); synthetic label set "
        f"reproduces 2/4/3/5 per level",
    )
