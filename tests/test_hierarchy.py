import base64
import dataclasses
import io
import json
import multiprocessing
import os
import pathlib
import tracemalloc
import warnings

import numpy as np
import pytest

from tehier import (
    DimensionError,
    FormatError,
    KmerConfig,
    LogRegConfig,
    ModelFileError,
    NumericError,
    SvmConfig,
    Taxonomy,
    TaxonomyError,
    featurize_batch,
    load_model,
    load_model_file,
    read_feature_csv,
    save_model,
    train_binary_svm,
    train_hier,
)
import tehier.metrics
import tehier.svm
import tehier.synth
from tehier.classifiers import fit_multiclass, svm_bank
from tehier.hierarchy import decode_lcpnb, decode_nllcpn, score_paths
from tehier.labels import HierLabel

from conftest import hl, separable_blobs
from oracles import (
    best_path,
    exhaustive_path_oracle,
    greedy_chain_oracle,
    greedy_descent,
    random_stub_problem,
    score_all_paths,
    stub_proba_table,
    train_hier_per_node_reference,
)


def as_label_table(probas):
    """Stub tables use path tuples; the package API wants HierLabel keys."""
    return {
        parent: {HierLabel(cls): p for cls, p in dist.items()}
        for parent, dist in probas.items()
    }


def tree_to_taxonomy(tree) -> Taxonomy:
    return Taxonomy([HierLabel(path) for path in tree if path != ()])


def nllcpn(tax, probas) -> HierLabel:
    """The array decoder's greedy label, checked against the label-table walk."""
    (node,) = decode_nllcpn(tax, stub_proba_table(tax, [probas]))
    assert tax.node_labels[node] == greedy_descent(tax, probas)
    return tax.node_labels[node]


def lcpnb(tax, probas) -> tuple[HierLabel, dict]:
    """(best label, {label: score}) from the arrays, checked bit for bit
    against the label-table path scorer."""
    table = stub_proba_table(tax, [probas])
    scores = score_paths(tax, table)
    assert scores == score_all_paths(tax, probas)
    (node,) = decode_lcpnb(tax, table)
    assert tax.node_labels[node] == best_path(scores).terminal
    return tax.node_labels[node], {s.terminal: s.score for s in scores}


# -- strategy logic over stub distributions ------------------------------------


def chain_taxonomy():
    return Taxonomy([hl("1.1"), hl("2")])


def test_greedy_follows_highest_probabilities():
    tax = chain_taxonomy()
    probas = {
        (): {hl("1"): 0.6, hl("2"): 0.4},
        (1,): {hl("1"): 0.3, hl("1.1"): 0.7},
    }
    assert nllcpn(tax, probas) == hl("1.1")


def test_greedy_stops_on_self_class():
    tax = chain_taxonomy()
    probas = {
        (): {hl("1"): 0.6, hl("2"): 0.4},
        (1,): {hl("1"): 0.8, hl("1.1"): 0.2},
    }
    assert nllcpn(tax, probas) == hl("1")


def test_greedy_degenerate_root_single_child():
    tax = Taxonomy([hl("1")])
    assert nllcpn(tax, {(): {hl("1"): 1.0}}) == hl("1")


def test_greedy_tie_breaks_to_smallest_label():
    tax = Taxonomy([hl("1"), hl("2")])
    assert nllcpn(tax, {(): {hl("1"): 0.5, hl("2"): 0.5}}) == hl("1")
    # self ties with child: self is the smaller label (it is the parent)
    tax2 = chain_taxonomy()
    probas = {
        (): {hl("1"): 1.0, hl("2"): 0.0},
        (1,): {hl("1"): 0.5, hl("1.1"): 0.5},
    }
    assert nllcpn(tax2, probas) == hl("1")


def test_lcpnb_spec_worked_example():
    tax = chain_taxonomy()
    probas = {
        (): {hl("1"): 0.6, hl("2"): 0.4},
        (1,): {hl("1"): 0.3, hl("1.1"): 0.7},
    }
    best, scores = lcpnb(tax, probas)
    assert scores[hl("1")] == pytest.approx(0.45, abs=1e-12)  # (0.6 + 0.3) / 2
    assert scores[hl("1.1")] == pytest.approx(0.65, abs=1e-12)  # (0.6 + 0.7) / 2
    assert scores[hl("2")] == pytest.approx(0.4, abs=1e-12)
    assert best == hl("1.1")


def test_lcpnb_internal_node_win():
    tax = chain_taxonomy()
    probas = {
        (): {hl("1"): 0.9, hl("2"): 0.1},
        (1,): {hl("1"): 0.8, hl("1.1"): 0.2},
    }
    best, scores = lcpnb(tax, probas)
    assert scores[hl("1")] == pytest.approx(0.85, abs=1e-12)
    assert scores[hl("1.1")] == pytest.approx(0.55, abs=1e-12)
    assert best == hl("1")


def test_lcpnb_single_chain_all_ones():
    tax = Taxonomy([hl("1.1.1")])
    probas = {
        (): {hl("1"): 1.0},
        (1,): {hl("1"): 0.0, hl("1.1"): 1.0},
        (1, 1): {hl("1.1"): 0.0, hl("1.1.1"): 1.0},
    }
    best, scores = lcpnb(tax, probas)
    assert best == hl("1.1.1")
    assert scores[best] == 1.0


def test_lcpnb_tie_prefers_deeper_then_smaller():
    tax = Taxonomy([hl("1.1"), hl("2")])
    # identical scores for the depth-1 leaf 2 and the depth-2 leaf 1.1
    probas = {
        (): {hl("1"): 0.4, hl("2"): 0.4},
        (1,): {hl("1"): 0.0, hl("1.1"): 0.4},
    }
    best, scores = lcpnb(tax, probas)
    assert scores[hl("1.1")] == scores[hl("2")]
    assert best == hl("1.1")


def test_path_score_mean_invariant():
    tax = chain_taxonomy()
    probas = {
        (): {hl("1"): 0.37, hl("2"): 0.63},
        (1,): {hl("1"): 0.11, hl("1.1"): 0.89},
    }
    lcpnb(tax, probas)
    for s in score_paths(tax, stub_proba_table(tax, [probas])):
        assert s.score == pytest.approx(
            sum(s.edge_probabilities) / len(s.edge_probabilities), abs=1e-12
        )


def test_untrained_internal_node_acts_as_terminal():
    tax = Taxonomy([hl("1.1.1"), hl("2")])
    probas = {(): {hl("1"): 0.9, hl("2"): 0.1}}  # node 1 untrained
    assert nllcpn(tax, probas) == hl("1")
    _, scores = lcpnb(tax, probas)
    assert set(scores) == {hl("1"), hl("2")}  # 1.1, 1.1.1 unreachable
    assert scores[hl("1")] == pytest.approx(0.9)


def test_strategies_agree_on_degenerate_distributions(rng):
    for _ in range(100):
        tree, probas = random_stub_problem(rng)
        # degenerate: push every distribution onto its argmax
        for parent, dist in probas.items():
            top = max(sorted(dist), key=lambda c: dist[c])
            for cls in dist:
                dist[cls] = 1.0 if cls == top else 0.0
        tax = tree_to_taxonomy(tree)
        table = as_label_table(probas)
        assert nllcpn(tax, table) == lcpnb(tax, table)[0]


def test_nllcpn_matches_greedy_oracle_on_random_stubs(rng):
    for _ in range(1000):
        tree, probas = random_stub_problem(rng)
        tax = tree_to_taxonomy(tree)
        assert nllcpn(tax, as_label_table(probas)).path == greedy_chain_oracle(tree, probas)


def test_lcpnb_matches_exhaustive_oracle_on_random_stubs(rng):
    for _ in range(1000):
        tree, probas = random_stub_problem(rng)
        tax = tree_to_taxonomy(tree)
        expected, oracle_scores = exhaustive_path_oracle(tree, probas)
        best, scores = lcpnb(tax, as_label_table(probas))
        assert {label.path: score for label, score in scores.items()} == oracle_scores
        assert best.path == expected


def test_predictions_are_real_taxonomy_nodes(rng):
    for _ in range(300):
        tree, probas = random_stub_problem(rng)
        tax = tree_to_taxonomy(tree)
        table = as_label_table(probas)
        for label in (nllcpn(tax, table), lcpnb(tax, table)[0]):
            assert label in tax


# -- training -------------------------------------------------------------------


def hier_training_setup(rng):
    """Samples for taxonomy {1, 1.1, 2} labeled at 1, 1.1, and 2."""
    tax = chain_taxonomy()
    centers = {hl("1"): (2.0, 2.0), hl("1.1"): (2.5, -2.0), hl("2"): (-2.0, 0.0)}
    X, labels = [], []
    for label, center in centers.items():
        X.append(rng.normal(0, 0.3, (30, 2)) + center)
        labels.extend([label] * 30)
    return tax, np.vstack(X), labels


def node_ids(tax, *labels):
    """The taxonomy node ids of dot-path labels ("" for the root)."""
    return [tax.node_index[hl(t).path if t else ()] for t in labels]


def test_train_hier_local_model_structure(rng):
    tax, X, labels = hier_training_setup(rng)
    model = train_hier(X, labels, tax, config=LogRegConfig())
    root, one = node_ids(tax, "", "1")
    assert sorted(model.node_models) == [root, one]  # node 2 is a leaf: no model
    assert model.node_models[root].classes.tolist() == node_ids(tax, "1", "2")
    assert model.node_models[one].classes.tolist() == node_ids(tax, "1", "1.1")  # self + child
    assert model.untrained_nodes == []


def test_train_hier_leaf_only_labels_have_no_self_class(rng):
    tax, X, _ = hier_training_setup(rng)
    labels = [hl("1.1")] * 60 + [hl("2")] * 30
    model = train_hier(X, labels, tax, config=LogRegConfig())
    [one] = node_ids(tax, "1")
    assert model.node_models[one].model is None  # a constant model
    assert model.node_models[one].classes.tolist() == node_ids(tax, "1.1")


def test_train_hier_internal_label_joins_self_class(rng):
    tax = chain_taxonomy()
    X = rng.normal(size=(3, 2))
    labels = [hl("1"), hl("1.1"), hl("2")]
    model = train_hier(X, labels, tax, config=LogRegConfig())
    node1 = model.node_models[node_ids(tax, "1")[0]]
    assert node1.classes.tolist() == node_ids(tax, "1", "1.1")


def test_train_hier_untrained_subtree(rng):
    tax = Taxonomy([hl("1.1"), hl("2.1")])
    X = rng.normal(size=(20, 2))
    labels = [hl("1.1")] * 10 + [hl("1")] * 10  # nothing under node 2
    model = train_hier(X, labels, tax, config=LogRegConfig())
    assert node_ids(tax, "2")[0] not in model.node_models
    assert model.untrained_nodes == [hl("2")]


def test_train_hier_rejects_unknown_labels(rng):
    tax = chain_taxonomy()
    with pytest.raises(TaxonomyError):
        train_hier(rng.normal(size=(2, 2)), [hl("9")] * 2, tax)
    with pytest.raises(TaxonomyError):
        train_hier(np.zeros((0, 2)), [], tax)
    with pytest.raises(TaxonomyError, match="nonempty"):
        train_hier(np.zeros((2, 0)), [hl("1")] * 2, tax)


def test_train_hier_rejects_a_config_of_no_base_classifier(rng):
    tax, X, labels = hier_training_setup(rng)
    for threads in (1, 2):
        with pytest.raises(ValueError, match="unknown base classifier config 'logreg'"):
            train_hier(X, labels, tax, "logreg", threads=threads)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_train_hier_rejects_non_finite_features(rng, value):
    tax, X, labels = hier_training_setup(rng)
    X[3, 1] = value
    with pytest.raises(FormatError, match=r"non-finite feature value .* in row 3, column 1"):
        train_hier(X, labels, tax, config=LogRegConfig())


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_predict_rejects_non_finite_features(rng, value):
    tax, X, labels = hier_training_setup(rng)
    model = train_hier(X, labels, tax, config=LogRegConfig())
    queries = rng.normal(size=(5, 2))
    queries[4, 0] = value
    for strategy in ("nllcpn", "lcpnb"):
        with pytest.raises(FormatError, match=r"in row 4, column 0"):
            model.predict(queries, strategy)


def test_end_to_end_prediction_quality(rng):
    tax, X, labels = hier_training_setup(rng)
    model = train_hier(X, labels, tax, config=SvmConfig(C=10, gamma=1.0))
    for strategy in ("nllcpn", "lcpnb"):
        predicted = model.predict(X, strategy)
        assert np.mean([p == t for p, t in zip(predicted, labels)]) >= 0.95
        for p in predicted:
            assert p in tax


def test_predict_batch_empty_and_order(rng):
    tax, X, labels = hier_training_setup(rng)
    model = train_hier(X, labels, tax, config=LogRegConfig())
    assert model.predict(np.zeros((0, 2)), "nllcpn") == []
    repeated = np.tile(X[0], (5, 1))
    assert len(set(model.predict(repeated, "lcpnb"))) == 1


def test_predict_thread_count_independent(rng):
    tax, X, labels = hier_training_setup(rng)
    model = train_hier(X, labels, tax, config=SvmConfig(C=5, gamma=1.0))
    queries = rng.normal(size=(200, 2))
    assert model.predict(queries, "lcpnb", threads=1) == model.predict(
        queries, "lcpnb", threads=8
    )
    assert model.predict(queries, "nllcpn", threads=1) == model.predict(
        queries, "nllcpn", threads=8
    )


def four_level_setup(rng):
    """Blobs labeled at every node of a 2, 2, 2 taxonomy below the root."""
    tax = tehier.synth.taxonomy_from_shape([2, 2, 2], seed=0)
    nodes = tax.node_labels[1:]
    X, y = separable_blobs(rng, 12, [rng.normal(0, 2.0, 3) for _ in nodes], spread=0.7)
    return tax, X, [nodes[c] for c in y]


def model_text(model) -> str:
    sink = io.StringIO()
    save_model(model, sink)
    return sink.getvalue()


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(), reason="needs the fork start method"
)
def test_train_hier_same_model_at_one_and_four_workers(rng, monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    tax, X, labels = four_level_setup(rng)
    config = SvmConfig(C=4.0, gamma=0.5)
    serial = train_hier(X, labels, tax, config=config, threads=1)
    forked = train_hier(X, labels, tax, config=config, threads=4)
    assert model_text(serial) == model_text(forked)


def test_crossval_fold_model_equals_train_hier_on_the_fold_rows(rng, monkeypatch):
    tax, X, labels = four_level_setup(rng)
    config = SvmConfig(C=8.0, gamma=0.5)
    fold_models = []

    def keep(X_train, *args, **kwargs):
        fold_models.append(train_hier(X_train, *args, **kwargs))
        return fold_models[-1]

    monkeypatch.setattr(tehier.metrics, "train_hier", keep)
    tehier.metrics.crossval_strategies(X, labels, tax, config=config, k=3, seed=5)
    plan = tehier.metrics.stratified_kfold(labels, 3, 5)
    for fold, model in enumerate(fold_models):
        rows = plan.train_indices(fold)
        alone = train_hier(X[rows], [labels[i] for i in rows], tax, config=config)
        assert model_text(model) == model_text(alone)


def test_nodes_above_the_gram_limit_build_their_own_providers(rng, monkeypatch):
    tax, X, labels = four_level_setup(rng)
    config = SvmConfig(C=8.0, gamma=0.5)
    sizes = []
    original = tehier.svm.rbf_kernel_matrix

    def full_grams(A, B, gamma):
        if A is B:
            sizes.append(len(A))
        return original(A, B, gamma)

    monkeypatch.setattr(tehier.svm, "rbf_kernel_matrix", full_grams)
    model = train_hier(X, labels, tax, config=config)
    assert sizes == [len(X)]  # one Gram for the training set, sliced per node
    # below n the root keeps no Gram: each node builds its own provider, as
    # every node did before the training set shared one
    monkeypatch.setattr(tehier.svm, "_FULL_GRAM_LIMIT", len(X) // 2)
    sizes.clear()
    model = train_hier(X, labels, tax, config=config)
    assert len(sizes) == len(model.node_models) - 1 and max(sizes) <= len(X) // 2
    reference = train_hier_per_node_reference(X, labels, tax, config)
    assert model_text(model) == model_text(reference)


def test_train_hier_holds_one_gram_and_no_per_node_copy():
    # desk-shaped: 1,540 rows of 336 k-mer frequencies under the 2/4/3/5 tree
    tax = tehier.synth.taxonomy_from_shape([2, 4, 3, 5], seed=0)
    spec = tehier.synth.SynthSpec(
        taxonomy=tax, sequences_per_node=110, length_range=(250, 250), seed=3
    )
    records = tehier.synth.generate(spec)
    X = featurize_batch(records)
    tracemalloc.start()
    try:
        train_hier(X, [r.label for r in records], tax, config=SvmConfig(C=16.0, gamma=8.0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # a node's copied Gram slice and its (r, n) intermediate push this past 1.5
    assert peak < 1.25 * (len(X) ** 2 * 8 + X.nbytes)


def test_unknown_strategy_rejected(rng):
    tax, X, labels = hier_training_setup(rng)
    model = train_hier(X, labels, tax, config=LogRegConfig())
    with pytest.raises(ValueError):
        model.predict(X, "flat")


# -- serialization ----------------------------------------------------------------


@pytest.mark.parametrize("base_kind", ["svm", "logreg"])
def test_save_load_round_trip(rng, base_kind):
    tax, X, labels = hier_training_setup(rng)
    # two more columns make the width 4, one k = 1 block, but fractional
    # values that no frequencies sum up to are no k-mer features
    X = np.hstack([X, X])
    config = SvmConfig(C=5.0, gamma=1.0) if base_kind == "svm" else LogRegConfig()
    model = train_hier(X, labels, tax, config=config)
    assert model.kmer_config is None
    queries = np.tile(rng.normal(size=(100, 2)), 2)
    before = model.predict(queries, "lcpnb")

    sink = io.StringIO()
    save_model(model, sink)
    loaded = load_model(io.StringIO(sink.getvalue()))
    assert loaded.taxonomy == tax
    assert loaded.base_config == model.base_config
    assert loaded.kmer_config == model.kmer_config
    assert loaded.predict(queries, "lcpnb") == before
    assert loaded.predict(queries, "nllcpn") == model.predict(queries, "nllcpn")
    trained_table, loaded_table = model.proba_tables(queries), loaded.proba_tables(queries)
    assert loaded_table.edge.tobytes() == trained_table.edge.tobytes()
    assert loaded_table.stay.tobytes() == trained_table.stay.tobytes()

    resaved = io.StringIO()
    save_model(loaded, resaved)
    assert resaved.getvalue() == sink.getvalue()  # stable serialization


# every file before version 5 held the solver controls in base_config
OLD_LOGREG_CONFIG = {"l2_strength": 1e-4, "max_iterations": 500, "tolerance": 1e-6}

# a version 3 file stated each node's kind, width and gamma, and the k values
# and row count of the pool, beside what version 4 keeps
V3_PAYLOAD = {
    "schema_version": 3,
    "base_kind": "logreg",
    "n_features": 2,
    "kmer_config": None,
    "base_config": OLD_LOGREG_CONFIG,
    "taxonomy": [{"path": "1", "name": ""}, {"path": "2", "name": ""}],
    "node_models": {"": {"kind": "constant", "classes": ["1"], "n_features": 2}},
    "pool_rows": 0,
    "pool": "",
}


@pytest.mark.parametrize("version", [1, 2, 3, 4])
def test_load_refuses_an_old_schema_file(rng, version):
    payload = dict(V3_PAYLOAD) if version == 3 else saved_payload(rng, "logreg")
    payload.update(schema_version=version, base_config=OLD_LOGREG_CONFIG)
    with pytest.raises(ModelFileError, match=f"version {version} is no longer read; retrain"):
        load_model(io.StringIO(json.dumps(payload)))


def test_load_rejects_unknown_schema_version(rng):
    tax, X, labels = hier_training_setup(rng)
    model = train_hier(X, labels, tax, config=LogRegConfig())
    sink = io.StringIO()
    save_model(model, sink)
    assert '"schema_version": 5' in sink.getvalue()
    tampered = sink.getvalue().replace('"schema_version": 5', '"schema_version": 99')
    with pytest.raises(ModelFileError):
        load_model(io.StringIO(tampered))


def test_load_rejects_truncated_file(rng):
    tax, X, labels = hier_training_setup(rng)
    model = train_hier(X, labels, tax, config=LogRegConfig())
    sink = io.StringIO()
    save_model(model, sink)
    with pytest.raises(ModelFileError):
        load_model(io.StringIO(sink.getvalue()[: len(sink.getvalue()) // 2]))
    with pytest.raises(ModelFileError):
        load_model(io.StringIO("{}"))


def saved_payload(rng, base_kind):
    tax, X, labels = hier_training_setup(rng)
    config = SvmConfig(C=5.0, gamma=1.0) if base_kind == "svm" else LogRegConfig()
    sink = io.StringIO()
    save_model(train_hier(X, labels, tax, config=config), sink)
    return json.loads(sink.getvalue())


def move_node(payload, old, new):
    payload["node_models"][new] = payload["node_models"].pop(old)


def set_classes(node, classes):
    node["classes"] = classes


def b64_values(values) -> str:
    return base64.b64encode(np.asarray(values, dtype="<f8").tobytes()).decode("ascii")


def edit_b64(node, key, edit):
    """Replace ``node[key]``, a base64 array, by ``edit`` of its flat values."""
    values = np.frombuffer(base64.b64decode(node[key]), dtype="<f8").copy()
    node[key] = b64_values(edit(values))


def set_at(index, value):
    def edit(values):
        values[index] = value
        return values

    return edit


# (base kind, mutation of the JSON of a version 5 file, words the error must name)
MODEL_FILE_FAULTS = {
    "leaf node": ("logreg", lambda p: move_node(p, "1", "2"), "not the root or an internal node"),
    "unknown node": ("logreg", lambda p: move_node(p, "1", "1.7"), "not the root or an internal"),
    "unparsable node key": ("logreg", lambda p: move_node(p, "1", "1.x"), "model file: non-numeric"),
    "node named twice": (
        "svm",
        lambda p: p["node_models"].__setitem__("01", p["node_models"]["1"]),
        r"two entries for node 1, the second under '01'",
    ),
    "unparsable taxonomy path": (
        "svm", lambda p: p["taxonomy"][0].__setitem__("path", "0.1"), "model file: component 0"
    ),
    "unsorted classes": (
        "logreg", lambda p: set_classes(p["node_models"]["1"], ["1.1", "1"]), "not sorted"
    ),
    "duplicate classes": (
        "logreg", lambda p: set_classes(p["node_models"]["1"], ["1", "1"]), "distinct"
    ),
    "class outside the node": (
        "logreg", lambda p: set_classes(p["node_models"]["1"], ["1", "2"]), "children and itself"
    ),
    "self class at the root": (
        "logreg", lambda p: set_classes(p["node_models"][""], ["1.1", "2"]), "node's children"
    ),
    # a string is not read one character at a time as classes 1 and 2
    "classes as a string": (
        "logreg", lambda p: set_classes(p["node_models"][""], "12"), "classes is not a list"
    ),
    "classes as numbers": (
        "svm", lambda p: set_classes(p["node_models"][""], [1, 2]), "classes is not a list"
    ),
    "n_features as text": ("svm", lambda p: p.__setitem__("n_features", "2"), "n_features '2'"),
    "n_features as a float": ("logreg", lambda p: p.__setitem__("n_features", 2.9), "n_features"),
    # the pool's rows are n_features wide, so no width of 0 can carry them
    "n_features 0": ("logreg", lambda p: p.__setitem__("n_features", 0), "not a positive integer"),
    "node_models as a list": (
        "svm", lambda p: p.__setitem__("node_models", []), "node_models is not a JSON object"
    ),
    "base_config as a list": (
        "svm", lambda p: p.__setitem__("base_config", [1]), "base_config is not a JSON object"
    ),
    # every config field has a default, which must not stand in for the file's
    "base_config lacks gamma": (
        "svm", lambda p: p["base_config"].pop("gamma"), "base_config lacks gamma"
    ),
    "empty svm base_config": (
        "svm", lambda p: p["base_config"].clear(), "base_config lacks C"
    ),
    "unknown config key": (
        "logreg", lambda p: p["base_config"].__setitem__("learning_rate", 1.0), "learning_rate"
    ),
    # the pool's rows, the support vectors, are n_features wide: wider rows
    # split the pool into no whole number of rows, or into fewer than indexed
    "support vector width": (
        "svm", lambda p: p.__setitem__("n_features", 3), "not a whole number|not a row of the"
    ),
    "dual_coef length": (
        "svm", lambda p: edit_b64(p["node_models"][""], "dual_coef", lambda v: v[:-1]), "dual_coef"
    ),
    "pool index out of range": (
        "svm", lambda p: p["node_models"]["1"]["pool_index"].__setitem__(0, pool_size(p)),
        "not a row of the",
    ),
    "bias length": ("svm", lambda p: p["node_models"][""]["bias"].pop(), "bias is not a list of 1"),
    "platt_b as text": (
        "svm",
        lambda p: p["node_models"]["1"].__setitem__("platt_b", ["0.5"]),
        "platt_b is not a list of 1 numbers",
    ),
    "converged as text": (
        "svm",
        lambda p: p["node_models"]["1"]["converged"].__setitem__(0, "false"),
        "converged is not a list of 1 booleans",
    ),
    "logreg converged as text": (
        "logreg",
        lambda p: p["node_models"]["1"].__setitem__("converged", "false"),
        "converged is not a list of 1 booleans",
    ),
    "logreg weights shape": (
        "logreg", lambda p: edit_b64(p["node_models"][""], "weights", lambda v: v[:-1]), "weights"
    ),
    "logreg bias shape": (
        "logreg", lambda p: edit_b64(p["node_models"]["1"], "bias", lambda v: [*v, 0.0]), "bias"
    ),
    "non-finite dual_coef": (
        "svm", lambda p: edit_b64(p["node_models"][""], "dual_coef", set_at(0, np.nan)),
        "non-finite",
    ),
    "non-finite platt_a": (
        "svm", lambda p: p["node_models"]["1"]["platt_a"].__setitem__(0, np.inf), "non-finite"
    ),
    "non-finite logreg weight": (
        "logreg", lambda p: edit_b64(p["node_models"]["1"], "weights", set_at(0, -np.inf)),
        "non-finite",
    ),
    # a well-formed file with a bad value is not called truncated
    "non-finite config": (
        "svm", lambda p: p["base_config"].__setitem__("C", np.nan),
        r"^(?!.*truncated)model file: base_config holds a bad value: C must be finite and positive",
    ),
    "negative gamma": (
        "svm", lambda p: p["base_config"].__setitem__("gamma", -1),
        r"^(?!.*truncated)model file: base_config holds a bad value: gamma must be finite and "
        r"positive, got -1$",
    ),
    "non-finite pool value": ("svm", lambda p: edit_b64(p, "pool", set_at(3, np.nan)), "non-finite"),
    "bad base64": ("svm", lambda p: p.__setitem__("pool", p["pool"][:-3] + "#=="), "base64"),
    "pool as a list": ("svm", lambda p: p.__setitem__("pool", [0.5, 0.5]), "base64"),
    "pool byte length": (
        "svm", lambda p: edit_b64(p, "pool", lambda v: v[:-1]), r"pool holds \d+ bytes, not a whole"
    ),
    "negative pool index": (
        "svm", lambda p: p["node_models"][""]["pool_index"].__setitem__(0, -1), "not a row of the"
    ),
    "unknown base kind": ("svm", lambda p: p.__setitem__("base_kind", "tree"), "base classifier"),
    # the width fixes the k values, and 2 features are no set of k-mer blocks
    "normalization of no k-mer width": (
        "svm",
        lambda p: p.__setitem__("kmer_config", {"normalization": "freq"}),
        r"malformed: 2 feature columns do not split into k-mer blocks",
    ),
    "no root model": ("logreg", lambda p: p["node_models"].pop(""), "no root model"),
    "empty node_models": ("svm", lambda p: p["node_models"].clear(), "no root model"),
    # a file whose base_kind names a classifier that its nodes do not use:
    # the logreg nodes lack the SVM fields
    "node kind is not the base kind": (
        "logreg",
        lambda p: p.update(base_kind="svm", base_config=dataclasses.asdict(SvmConfig())),
        r"truncated or malformed: 'pool_index'",
    ),
}


@pytest.mark.parametrize("fault", sorted(MODEL_FILE_FAULTS))
def test_load_rejects_inconsistent_model_file(rng, fault):
    base_kind, mutate, cause = MODEL_FILE_FAULTS[fault]
    payload = saved_payload(rng, base_kind)
    assert payload["schema_version"] == 5
    mutate(payload)
    with pytest.raises(ModelFileError, match=cause):
        load_model(io.StringIO(json.dumps(payload)))


def pool_size(payload) -> int:
    """The rows of a payload's pool: its bytes over 8 * n_features."""
    return len(base64.b64decode(payload["pool"])) // (8 * payload["n_features"])


DATA = pathlib.Path(__file__).parent / "data"


@pytest.mark.parametrize("base_kind", ["svm", "logreg"])
def test_v5_file_resaves_and_predicts_byte_for_byte(tmp_path, base_kind):
    from tehier.cli import main

    model = DATA / f"model_v5_{base_kind}.json"
    resaved = io.StringIO()
    save_model(load_model_file(model), resaved)
    assert resaved.getvalue().encode("utf-8") == model.read_bytes()
    for strategy in ("nllcpn", "lcpnb"):
        out = tmp_path / f"pred_{strategy}.csv"
        argv = ["predict", str(DATA / "query.csv"), "--model", str(model), "--strategy", strategy]
        assert main([*argv, "--out", str(out)]) == 0
        assert out.read_bytes() == (DATA / f"predict_v5_{base_kind}_{strategy}.csv").read_bytes()


def test_predict_on_a_file_without_gamma_exits_2(tmp_path, capsys):
    from tehier.cli import main

    payload = fixture_payload("svm")  # trained at gamma 64; the default is 1
    del payload["base_config"]["gamma"]
    model = tmp_path / "model.json"
    model.write_text(json.dumps(payload), encoding="utf-8")
    out = tmp_path / "pred.csv"
    argv = ["predict", str(DATA / "query.csv"), "--model", str(model), "--out", str(out)]
    assert main(argv) == 2
    assert "base_config lacks gamma" in capsys.readouterr().err
    assert not out.exists()


def fixture_payload(base_kind):
    """The committed version 5 file of ``base_kind`` (see data/README.md)."""
    return json.loads((DATA / f"model_v5_{base_kind}.json").read_text())


def query_rows():
    with open(DATA / "query.csv", encoding="utf-8") as fh:
        return read_feature_csv(fh)[0]


def test_an_svm_node_with_no_support_vectors_gives_its_bias():
    payload = fixture_payload("svm")
    payload["node_models"]["2"].update(pool_index=[], dual_coef="")
    model = load_model(io.StringIO(json.dumps(payload)))
    bank = model.node_models[model.taxonomy.node_index[(2,)]].model
    assert bank.support_vectors.shape == (0, model.n_features)
    X = query_rows()
    with np.errstate(all="raise"):
        decisions = bank.decision_function(X)
        model.predict(X, "lcpnb")
    assert decisions.tobytes() == np.tile(bank.bias, (len(X), 1)).tobytes()


def test_load_refuses_a_raw_model_whose_pool_holds_a_fraction():
    # the SVM fixture's pool holds 'freq' rows, whose values are fractions
    payload = fixture_payload("svm")
    payload["kmer_config"] = {"normalization": "raw"}
    with pytest.raises(ModelFileError, match="rows do not hold 'raw' features"):
        load_model(io.StringIO(json.dumps(payload)))


def set_node(key, field, value, index=None):
    def mutate(p):
        if index is None:
            p["node_models"][key][field] = value
        else:
            p["node_models"][key][field][index] = value

    return mutate


# (mutation of the SVM fixture, exit code of predict)
SVM_FIXTURE_FAULTS = {
    "base gamma -1": (lambda p: p["base_config"].__setitem__("gamma", -1.0), 2),
    "base gamma 0": (lambda p: p["base_config"].__setitem__("gamma", 0.0), 2),
    "base gamma -1e308": (lambda p: p["base_config"].__setitem__("gamma", -1e308), 2),
    "root bias 1e308": (set_node("", "bias", 1e308, index=0), 3),
    "no root model": (lambda p: p["node_models"].pop(""), 2),
    "empty node_models": (lambda p: p["node_models"].clear(), 2),
    "pool cut by one value": (lambda p: edit_b64(p, "pool", lambda v: v[:-1]), 2),
    "n_features 16 -> 4": (lambda p: p.__setitem__("n_features", 4), 2),
}


@pytest.mark.parametrize("fault", sorted(SVM_FIXTURE_FAULTS))
def test_predict_exits_on_a_fixture_fault_with_one_error_line(tmp_path, capsys, fault):
    from tehier.cli import main

    mutate, code = SVM_FIXTURE_FAULTS[fault]
    payload = fixture_payload("svm")
    mutate(payload)
    model, out = tmp_path / "model.json", tmp_path / "pred.csv"
    model.write_text(json.dumps(payload))
    argv = ["predict", str(DATA / "query.csv"), "--model", str(model), "--out", str(out)]
    assert main(argv) == code
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert not out.exists()


def test_predict_names_the_model_file_of_a_prediction_time_numeric_error(tmp_path, capsys):
    from tehier.cli import main

    payload = fixture_payload("svm")
    payload["node_models"][""]["bias"][0] = 1e308  # loads, then overflows
    model, out = tmp_path / "model.json", tmp_path / "pred.csv"
    model.write_text(json.dumps(payload))
    argv = ["predict", str(DATA / "query.csv"), "--model", str(model), "--out", str(out)]
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"error: {model}: node model (root): prediction failed: overflow"), err


@pytest.mark.parametrize("threads", [1, 2])
def test_an_overflowing_node_raises_numeric_error_naming_it(threads):
    # the faulty node's task may run in a worker process; the type survives
    payload = fixture_payload("svm")
    payload["node_models"]["3"]["bias"][0] = -1e308
    model = load_model(io.StringIO(json.dumps(payload)))
    with pytest.raises(NumericError, match=r"node model 3: prediction failed: overflow"):
        model.proba_tables(query_rows(), threads=threads)


MUTANT_VALUES = (
    None, True, False, 0, 1, -1, 2, 0.5, 64.0, -1e308, 1e308, float("nan"), float("inf"),
    "", "x", "1", [], {},
)


def single_field_mutations(payload):
    """(path, mutation) for every field of a JSON document: each value
    replaced by each of MUTANT_VALUES, deleted, or, a list or string, cut
    short by one item."""

    def fields(node, path):
        for key in range(len(node)) if isinstance(node, list) else list(node):
            yield path + (key,), node[key]
            if isinstance(node[key], (dict, list)):
                yield from fields(node[key], path + (key,))

    for path, value in fields(payload, ()):
        for replacement in MUTANT_VALUES:
            yield path, lambda parent, key, r=replacement: parent.__setitem__(key, r)
        yield path, lambda parent, key: parent.__delitem__(key)
        if isinstance(value, (list, str)) and value:
            yield path, lambda parent, key: parent.__setitem__(key, parent[key][:-1])


@pytest.mark.parametrize("base_kind", ["svm", "logreg"])
def test_every_single_field_mutation_is_refused_or_predicts_finite(base_kind):
    text = (DATA / f"model_v5_{base_kind}.json").read_text()
    queries = query_rows()
    outcomes = {"refused": 0, "numeric": 0, "predicted": 0}
    for path, mutate in single_field_mutations(json.loads(text)):
        mutant = json.loads(text)
        parent = mutant
        for key in path[:-1]:
            parent = parent[key]
        mutate(parent, path[-1])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                model = load_model(io.StringIO(json.dumps(mutant)))
            except ModelFileError:
                outcomes["refused"] += 1
                continue
            try:
                table = model.proba_tables(queries)
                for strategy in ("nllcpn", "lcpnb"):
                    assert len(model.predict(queries, strategy)) == len(queries)
            except NumericError:
                outcomes["numeric"] += 1
                continue
        assert np.isfinite(table.edge).all() and np.isfinite(table.stay).all(), path
        outcomes["predicted"] += 1
    assert outcomes["refused"] > 0 and outcomes["predicted"] > 0
    # only the SVM file holds scalars that can overflow, its bias and Platt values
    assert outcomes["numeric"] > 0 or base_kind == "logreg"


def test_training_reproduces_the_v5_fixtures_byte_for_byte(tmp_path):
    # the commands of data/README.md; a change that moves model bits must
    # regenerate the fixtures with them and say why
    from tehier.cli import main

    def run(*argv):
        assert main([str(a) for a in argv]) == 0

    synth = ["--shape", "3,2", "--length", "150:250", "--separability", "0.9",
             "--internal-fraction", "0.2"]
    run("synth", *synth, "--per-node", 8, "--seed", 3, "--out", tmp_path / "train.fasta")
    run("featurize", tmp_path / "train.fasta", "--kmers", 2, "--out", tmp_path / "train.csv")
    run("synth", *synth, "--per-node", 3, "--seed", 4, "--out", tmp_path / "query.fasta")
    run("featurize", tmp_path / "query.fasta", "--kmers", 2, "--out", tmp_path / "query.csv")
    train = ["train", tmp_path / "train.csv"]
    run(*train, "--base", "svm", "--C", 16, "--gamma", 64, "--out", tmp_path / "model_v5_svm.json")
    run(*train, "--base", "logreg", "--out", tmp_path / "model_v5_logreg.json")
    for name in ("query.csv", "model_v5_svm.json", "model_v5_logreg.json"):
        assert (tmp_path / name).read_bytes() == (DATA / name).read_bytes(), name


@pytest.mark.parametrize("base_kind", ["svm", "logreg"])
def test_multi_digit_path_components_keep_numeric_label_order(rng, base_kind):
    tax = Taxonomy([hl(t) for t in ("1.2", "1.9", "1.10", "2", "10")])
    leaves = [n for n, kids in zip(tax.nodes(), tax.child_ids[1:]) if not kids]
    assert [str(n) for n in leaves] == ["1.2", "1.9", "1.10", "2", "10"]
    labels = leaves * 12
    centers = {n: rng.normal(0.0, 3.0, 3) for n in leaves}
    X = np.vstack([centers[n] + rng.normal(0.0, 0.5, 3) for n in labels])
    config = SvmConfig(C=4.0, gamma=0.5) if base_kind == "svm" else LogRegConfig()
    model = train_hier(X, labels, tax, config=config)
    sink = io.StringIO()
    save_model(model, sink)
    node_models = json.loads(sink.getvalue())["node_models"]
    # numeric order, where text order would put 1.10 before 1.2 and 10 before 2
    assert node_models[""]["classes"] == ["1", "2", "10"]
    assert node_models["1"]["classes"] == ["1.2", "1.9", "1.10"]
    loaded = load_model(io.StringIO(sink.getvalue()))
    queries = np.vstack([X, rng.normal(0.0, 3.0, (30, 3))])
    for strategy in ("nllcpn", "lcpnb"):
        assert loaded.predict(queries, strategy) == model.predict(queries, strategy)
    assert loaded.proba_tables(queries).edge.tobytes() == model.proba_tables(queries).edge.tobytes()


def test_pool_stores_each_support_vector_once(rng):
    tax, X, labels = hier_training_setup(rng)
    model = train_hier(X, labels, tax, config=SvmConfig(C=5.0, gamma=1.0))
    sink = io.StringIO()
    save_model(model, sink)
    payload = json.loads(sink.getvalue())
    rows = {sv.tobytes() for m in model.node_models.values() for sv in m.model.support_vectors}
    stored = sum(len(node["pool_index"]) for node in payload["node_models"].values())
    assert pool_size(payload) == len(rows) < stored


def bank_bytes(bank) -> dict:
    return {f.name: np.asarray(getattr(bank, f.name)).tobytes() for f in dataclasses.fields(bank)}


def test_a_two_class_svm_node_stores_one_column_and_loads_as_trained(rng):
    tax, X, labels = hier_training_setup(rng)
    config = SvmConfig(C=5.0, gamma=1.0)
    model = train_hier(X, labels, tax, config=config)
    sink = io.StringIO()
    save_model(model, sink)
    entries = json.loads(sink.getvalue())["node_models"]
    loaded = load_model(io.StringIO(sink.getvalue()))
    root, one = node_ids(tax, "", "1")
    for v, key in ((root, ""), (one, "1")):
        trained = model.node_models[v].model
        assert trained.dual_coef.shape[1] == 1
        n_sv = len(entries[key]["pool_index"])
        assert len(base64.b64decode(entries[key]["dual_coef"])) == 8 * n_sv
        for field in ("bias", "platt_a", "platt_b", "converged"):
            assert len(entries[key][field]) == 1
        assert bank_bytes(loaded.node_models[v].model) == bank_bytes(trained)
    # fit_multiclass's bank is class 0's SVM alone
    y = np.array([1 if str(label).startswith("1") else 2 for label in labels])
    svm = train_binary_svm(X, np.where(y == 1, 1.0, -1.0), config)
    bank = fit_multiclass(X, y, config).model
    assert bank_bytes(bank) == bank_bytes(svm_bank([svm]))
    assert bank_bytes(bank) == bank_bytes(model.node_models[root].model)


def test_predict_cli_exits_2_on_inconsistent_model_file(rng, tmp_path, capsys):
    from tehier.cli import main

    payload = saved_payload(rng, "svm")
    edit_b64(payload["node_models"]["1"], "dual_coef", lambda values: values[:-1])
    model = tmp_path / "model.json"
    model.write_text(json.dumps(payload))
    queries = tmp_path / "q.csv"
    queries.write_text("a,b\n0.5,0.5\n")
    assert main(["predict", str(queries), "--model", str(model), "--out", str(tmp_path / "p.csv")]) == 2
    err = capsys.readouterr().err
    assert str(model) in err and "dual_coef" in err  # the message names the file


def test_feature_width_fingerprint_checked_at_predict(rng):
    tax, X, labels = hier_training_setup(rng)
    model = train_hier(X, labels, tax, config=LogRegConfig())
    with pytest.raises(DimensionError):
        model.predict(np.zeros((1, 7)), "nllcpn")


def test_model_fingerprint_mismatch_after_refeaturize(rng):
    # train on K=2 features, then featurize with K=2,3: width check trips
    from tehier import featurize_batch

    tax = Taxonomy([hl("1"), hl("2")])
    seqs = ["ACGTAC", "GGTTAA", "ACCGTA", "TTGGCA"]
    X2 = featurize_batch(seqs, KmerConfig(k_values=(2,)))
    labels = [hl("1"), hl("1"), hl("2"), hl("2")]
    model = train_hier(X2, labels, tax, LogRegConfig())
    assert model.kmer_config == KmerConfig(k_values=(2,))
    X23 = featurize_batch(seqs, KmerConfig(k_values=(2, 3)))
    with pytest.raises(DimensionError):
        model.predict(X23, "lcpnb")
