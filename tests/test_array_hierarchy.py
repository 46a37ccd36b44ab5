"""Property tests: the node-id decoders and metrics against the label-keyed
oracles, bit for bit, on random taxonomy shapes and stub probabilities with
exact ties, and on trained models."""

import numpy as np
import pytest

from tehier import LogRegConfig, SvmConfig, TaxonomyError, hier_metrics, train_hier
from tehier.hierarchy import decode_lcpnb, decode_nllcpn, score_paths
from tehier.synth import taxonomy_from_shape

from conftest import hl
from oracles import (
    best_path,
    exhaustive_path_oracle,
    greedy_chain_oracle,
    greedy_descent,
    naive_hier_prf,
    score_all_paths,
    set_algebra_hier_metrics,
    stub_proba_table,
)

# depth 1, single-child chains, a parent with one child among wider ones
FIXED_SHAPES = [[1], [4], [1, 1, 1], [1, 1, 1, 1, 1], [2, 2, 2], [3, 1, 4], [2, 4, 3, 5]]


def random_shape(rng) -> list[int]:
    shape = [int(rng.integers(1, 4))]
    for _ in range(int(rng.integers(0, 4))):
        shape.append(int(rng.integers(1, 2 * shape[-1] + 2)))
    return shape


def shapes(rng, n_random):
    return FIXED_SHAPES + [random_shape(rng) for _ in range(n_random)]


def stub_tables(rng, taxonomy, n_samples):
    """Per-sample label tables sharing one trained set; some parents are
    untrained, some models lack classes (a model trained only on labels at
    its own node has the self class alone), and probabilities sit on a
    coarse grid so exact ties are common."""
    trained, classes = [], {}
    for (path, v), kids in zip(taxonomy.node_index.items(), taxonomy.child_ids):
        if not kids or (v and rng.random() < 0.2):
            continue
        pool = [taxonomy.node_labels[c] for c in kids] + ([taxonomy.node_labels[v]] if v else [])
        keep = rng.random(len(pool)) < 0.8
        keep[int(rng.integers(len(pool)))] = True
        trained.append(path)
        classes[path] = sorted(c for c, k in zip(pool, keep) if k)
    tables = []
    for _ in range(n_samples):
        table = {}
        for path in trained:
            raw = rng.integers(0, 3, size=len(classes[path])).astype(float)
            if rng.random() < 0.2:
                raw[:] = 1.0  # every class tied
            if raw.sum() == 0:
                raw[0] = 1.0
            table[path] = dict(zip(classes[path], raw / raw.sum()))
        tables.append(table)
    return tables


def path_tables(tables):
    """The same tables keyed by path tuples, as the naive oracles take them."""
    return [
        {parent: {c.path: p for c, p in dist.items()} for parent, dist in t.items()}
        for t in tables
    ]


def tree_of(taxonomy):
    """Path tuple -> child path tuples, with () for the root."""
    paths = list(taxonomy.node_index)  # in id order
    return {path: [paths[c] for c in kids] for path, kids in zip(paths, taxonomy.child_ids)}


def test_array_decoders_equal_every_oracle_on_random_shapes():
    rng = np.random.default_rng(7)
    checked = 0
    for shape in shapes(rng, 60):
        taxonomy = taxonomy_from_shape(shape, seed=int(rng.integers(1000)))
        tree = tree_of(taxonomy)
        tables = stub_tables(rng, taxonomy, 12)
        arrays = stub_proba_table(taxonomy, tables)
        greedy = decode_nllcpn(taxonomy, arrays)
        scored = decode_lcpnb(taxonomy, arrays)
        for row, (table, naive) in enumerate(zip(tables, path_tables(tables))):
            assert taxonomy.node_labels[greedy[row]] == greedy_descent(taxonomy, table)
            assert taxonomy.node_labels[greedy[row]].path == greedy_chain_oracle(tree, naive)
            one_row = stub_proba_table(taxonomy, [table])
            scores = score_paths(taxonomy, one_row)
            assert scores == score_all_paths(taxonomy, table)  # scores and edges, exactly
            expected, oracle_scores = exhaustive_path_oracle(tree, naive)
            assert {s.terminal.path: s.score for s in scores} == oracle_scores
            assert taxonomy.node_labels[scored[row]] == best_path(scores).terminal
            assert taxonomy.node_labels[scored[row]].path == expected
            assert decode_lcpnb(taxonomy, one_row)[0] == scored[row]
            checked += 1
    assert checked > 500


def test_array_decoders_reject_an_untrained_root():
    taxonomy = taxonomy_from_shape([2, 2])
    arrays = stub_proba_table(taxonomy, [{(1,): {hl("1"): 0.5, hl("1.1"): 0.5}}])
    with pytest.raises(TaxonomyError, match="never left the root"):
        decode_nllcpn(taxonomy, arrays)
    with pytest.raises(TaxonomyError, match="root has no local model"):
        decode_lcpnb(taxonomy, arrays)


def label_tables(model, X):
    """Per-sample label tables of a trained model, built from each local
    model's own probabilities."""
    tax = model.taxonomy
    paths = list(tax.node_index)  # in id order
    rows = [{} for _ in range(len(X))]
    for v, local in model.node_models.items():
        probs = local.predict_proba(X)
        classes = [tax.node_labels[c] for c in local.classes]
        for row, table in enumerate(rows):
            table[paths[v]] = dict(zip(classes, probs[row]))
    return rows


@pytest.mark.parametrize("base_kind", ["logreg", "svm"])
def test_trained_model_predictions_equal_label_table_decoders(rng, base_kind):
    taxonomy = taxonomy_from_shape([2, 3, 3], seed=3)
    nodes = taxonomy.nodes()
    # labels at internal nodes and leaves; node 2's subtree gets none
    labels = [n for n in nodes if n.path[0] == 1] * 8
    centers = {n: rng.normal(0.0, 2.0, 3) for n in nodes}
    X = np.vstack([centers[n] + rng.normal(0.0, 0.7, 3) for n in labels])
    config = SvmConfig(C=2.0, gamma=0.5) if base_kind == "svm" else LogRegConfig()
    model = train_hier(X, labels, taxonomy, config=config)
    assert model.untrained_nodes
    queries = np.vstack([X, rng.normal(0.0, 3.0, (40, 3))])
    tables = label_tables(model, queries)
    assert model.predict(queries, "nllcpn") == [greedy_descent(taxonomy, t) for t in tables]
    assert model.predict(queries, "lcpnb") == [
        best_path(score_all_paths(taxonomy, t)).terminal for t in tables
    ]
    for x in queries[:10]:  # one-row batches, as path_scores runs the models
        (table,) = label_tables(model, x[None, :])
        assert model.path_scores(x) == score_all_paths(taxonomy, table)
    # predictions are the taxonomy's own label objects
    assert all(any(p is n for n in nodes) for p in model.predict(queries[:5], "lcpnb"))


def test_hier_metrics_equal_set_algebra_bit_for_bit():
    rng = np.random.default_rng(11)
    checked = 0
    for shape in shapes(rng, 80):
        taxonomy = taxonomy_from_shape(shape, seed=int(rng.integers(1000)))
        nodes = taxonomy.nodes()
        internal = [n for n, kids in zip(nodes, taxonomy.child_ids[1:]) if kids]
        for pool in (nodes, internal or nodes):  # also labels only at internal nodes
            pairs = [
                (pool[rng.integers(len(pool))], pool[rng.integers(len(pool))])
                for _ in range(int(rng.integers(1, 30)))
            ]
            metrics = hier_metrics(pairs, taxonomy)
            assert metrics == set_algebra_hier_metrics(pairs, taxonomy)
            naive = naive_hier_prf([(p.path, t.path) for p, t in pairs])
            assert (metrics.hp, metrics.hr, metrics.hf) == naive
            checked += 1
    assert checked > 100


def test_hier_metrics_rejects_unknown_labels():
    taxonomy = taxonomy_from_shape([2, 2])
    with pytest.raises(TaxonomyError, match="label 3 is not a taxonomy node"):
        hier_metrics([(hl("1"), hl("1")), (hl("3"), hl("1"))], taxonomy)
    with pytest.raises(TaxonomyError, match="label 1.9 is not a taxonomy node"):
        hier_metrics([(hl("1"), hl("1.9"))], taxonomy)
