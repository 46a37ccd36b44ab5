import base64
import io
import json
import multiprocessing
import os
import pathlib

import numpy as np
import pytest

from tehier import (
    DimensionError,
    FormatError,
    KmerConfig,
    ModelFileError,
    SvmConfig,
    Taxonomy,
    TaxonomyError,
    featurize_batch,
    load_model,
    load_model_file,
    read_feature_csv,
    save_model,
    train_hier,
)
import tehier.metrics
import tehier.svm
import tehier.synth
from tehier.hierarchy import HierModel, decode_lcpnb, decode_nllcpn, score_paths
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
            assert label.depth >= 1


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


def test_train_hier_local_model_structure(rng):
    tax, X, labels = hier_training_setup(rng)
    model = train_hier(X, labels, tax, base_kind="logreg")
    assert set(model.node_models) == {(), (1,)}  # node 2 is a leaf: no model
    assert model.node_models[()].classes == [hl("1"), hl("2")]
    assert model.node_models[(1,)].classes == [hl("1"), hl("1.1")]  # self + child
    assert model.untrained_nodes == []


def test_train_hier_leaf_only_labels_have_no_self_class(rng):
    tax, X, _ = hier_training_setup(rng)
    labels = [hl("1.1")] * 60 + [hl("2")] * 30
    model = train_hier(X, labels, tax, base_kind="logreg")
    assert model.node_models[(1,)].kind == "constant"
    assert model.node_models[(1,)].classes == [hl("1.1")]


def test_train_hier_internal_label_joins_self_class(rng):
    tax = chain_taxonomy()
    X = rng.normal(size=(3, 2))
    labels = [hl("1"), hl("1.1"), hl("2")]
    model = train_hier(X, labels, tax, base_kind="logreg")
    node1 = model.node_models[(1,)]
    assert node1.classes == [hl("1"), hl("1.1")]


def test_train_hier_untrained_subtree(rng):
    tax = Taxonomy([hl("1.1"), hl("2.1")])
    X = rng.normal(size=(20, 2))
    labels = [hl("1.1")] * 10 + [hl("1")] * 10  # nothing under node 2
    model = train_hier(X, labels, tax, base_kind="logreg")
    assert (2,) not in model.node_models
    assert model.untrained_nodes == [hl("2")]


def test_train_hier_rejects_unknown_labels(rng):
    tax = chain_taxonomy()
    with pytest.raises(TaxonomyError):
        train_hier(rng.normal(size=(2, 2)), [hl("9")] * 2, tax)
    with pytest.raises(TaxonomyError):
        train_hier(np.zeros((0, 2)), [], tax)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_train_hier_rejects_non_finite_features(rng, value):
    tax, X, labels = hier_training_setup(rng)
    X[3, 1] = value
    with pytest.raises(FormatError, match=r"non-finite feature value .* in row 3, column 1"):
        train_hier(X, labels, tax, base_kind="logreg")


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_predict_rejects_non_finite_features(rng, value):
    tax, X, labels = hier_training_setup(rng)
    model = train_hier(X, labels, tax, base_kind="logreg")
    queries = rng.normal(size=(5, 2))
    queries[4, 0] = value
    for strategy in ("nllcpn", "lcpnb"):
        with pytest.raises(FormatError, match=r"in row 4, column 0"):
            model.predict(queries, strategy)


def test_end_to_end_prediction_quality(rng):
    tax, X, labels = hier_training_setup(rng)
    model = train_hier(X, labels, tax, base_kind="svm", config=SvmConfig(C=10, gamma=1.0))
    for strategy in ("nllcpn", "lcpnb"):
        predicted = model.predict(X, strategy)
        assert np.mean([p == t for p, t in zip(predicted, labels)]) >= 0.95
        for p in predicted:
            assert p in tax


def test_predict_batch_empty_and_order(rng):
    tax, X, labels = hier_training_setup(rng)
    model = train_hier(X, labels, tax, base_kind="logreg")
    assert model.predict(np.zeros((0, 2)), "nllcpn") == []
    repeated = np.tile(X[0], (5, 1))
    assert len(set(model.predict(repeated, "lcpnb"))) == 1


def test_predict_thread_count_independent(rng):
    tax, X, labels = hier_training_setup(rng)
    model = train_hier(X, labels, tax, base_kind="svm", config=SvmConfig(C=5, gamma=1.0))
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
    reference = train_hier_per_node_reference(X, labels, tax, "svm", config)
    assert model_text(model) == model_text(reference)


def test_unknown_strategy_rejected(rng):
    tax, X, labels = hier_training_setup(rng)
    model = train_hier(X, labels, tax, base_kind="logreg")
    with pytest.raises(ValueError):
        model.predict(X, "flat")


# -- serialization ----------------------------------------------------------------


@pytest.mark.parametrize("base_kind", ["svm", "logreg"])
def test_save_load_round_trip(rng, base_kind):
    tax, X, labels = hier_training_setup(rng)
    config = SvmConfig(C=5.0, gamma=1.0) if base_kind == "svm" else None
    model = train_hier(
        X, labels, tax, base_kind=base_kind, config=config, kmer_config=KmerConfig()
    )
    queries = rng.normal(size=(100, 2))
    before = model.predict(queries, "lcpnb")

    sink = io.StringIO()
    save_model(model, sink)
    loaded = load_model(io.StringIO(sink.getvalue()))
    assert loaded.taxonomy == tax
    assert loaded.base_config == model.base_config
    assert loaded.kmer_config == KmerConfig()
    assert loaded.predict(queries, "lcpnb") == before
    assert loaded.predict(queries, "nllcpn") == model.predict(queries, "nllcpn")
    trained_table, loaded_table = model.proba_tables(queries), loaded.proba_tables(queries)
    assert loaded_table.edge.tobytes() == trained_table.edge.tobytes()
    assert loaded_table.stay.tobytes() == trained_table.stay.tobytes()

    resaved = io.StringIO()
    save_model(loaded, resaved)
    assert resaved.getvalue() == sink.getvalue()  # stable serialization


def test_load_refuses_schema_1_file(rng):
    payload = saved_payload(rng, "logreg")
    payload["schema_version"] = 1
    with pytest.raises(ModelFileError, match="version 1 is no longer read; retrain"):
        load_model(io.StringIO(json.dumps(payload)))


def test_load_rejects_unknown_schema_version(rng):
    tax, X, labels = hier_training_setup(rng)
    model = train_hier(X, labels, tax, base_kind="logreg")
    sink = io.StringIO()
    save_model(model, sink)
    assert '"schema_version": 3' in sink.getvalue()
    tampered = sink.getvalue().replace('"schema_version": 3', '"schema_version": 99')
    with pytest.raises(ModelFileError):
        load_model(io.StringIO(tampered))


def test_load_rejects_truncated_file(rng):
    tax, X, labels = hier_training_setup(rng)
    model = train_hier(X, labels, tax, base_kind="logreg")
    sink = io.StringIO()
    save_model(model, sink)
    with pytest.raises(ModelFileError):
        load_model(io.StringIO(sink.getvalue()[: len(sink.getvalue()) // 2]))
    with pytest.raises(ModelFileError):
        load_model(io.StringIO("{}"))


def saved_payload(rng, base_kind):
    tax, X, labels = hier_training_setup(rng)
    config = SvmConfig(C=5.0, gamma=1.0) if base_kind == "svm" else None
    sink = io.StringIO()
    save_model(train_hier(X, labels, tax, base_kind=base_kind, config=config), sink)
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


# (base kind, mutation of the JSON of a version 3 file, words the error must name)
MODEL_FILE_FAULTS = {
    "leaf node": ("logreg", lambda p: move_node(p, "1", "2"), "not the root or an internal node"),
    "unknown node": ("logreg", lambda p: move_node(p, "1", "1.7"), "not the root or an internal"),
    "unparsable node key": ("logreg", lambda p: move_node(p, "1", "1.x"), "model file: non-numeric"),
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
    "node_models as a list": (
        "svm", lambda p: p.__setitem__("node_models", []), "node_models is not a JSON object"
    ),
    "base_config as a list": (
        "svm", lambda p: p.__setitem__("base_config", [1]), "base_config is not a JSON object"
    ),
    "unknown config key": (
        "logreg", lambda p: p["base_config"].__setitem__("learning_rate", 1.0), "learning_rate"
    ),
    # the pool's rows, the support vectors, are n_features wide
    "support vector width": ("svm", lambda p: p.__setitem__("n_features", 3), "pool holds"),
    "dual_coef length": (
        "svm", lambda p: edit_b64(p["node_models"][""], "dual_coef", lambda v: v[:-1]), "dual_coef"
    ),
    "pool index out of range": (
        "svm", lambda p: p["node_models"]["1"]["pool_index"].__setitem__(0, p["pool_rows"]),
        "not a row of the",
    ),
    "bias length": ("svm", lambda p: p["node_models"][""]["bias"].pop(), "bias is not a list of 2"),
    "platt_b as text": (
        "svm", lambda p: p["node_models"]["1"].__setitem__("platt_b", ["0.5", "0.5"]), "platt_b"
    ),
    "converged as text": (
        "svm",
        lambda p: p["node_models"]["1"]["converged"].__setitem__(0, "false"),
        "converged is not a list of 2 booleans",
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
        "svm", lambda p: p["node_models"]["1"]["platt_a"].__setitem__(1, np.inf), "non-finite"
    ),
    "non-finite logreg weight": (
        "logreg", lambda p: edit_b64(p["node_models"]["1"], "weights", set_at(0, -np.inf)),
        "non-finite",
    ),
    "non-finite config": ("svm", lambda p: p["base_config"].__setitem__("C", np.nan), "non-finite"),
}


@pytest.mark.parametrize("fault", sorted(MODEL_FILE_FAULTS))
def test_load_rejects_inconsistent_model_file(rng, fault):
    base_kind, mutate, cause = MODEL_FILE_FAULTS[fault]
    payload = saved_payload(rng, base_kind)
    assert payload["schema_version"] == 3
    mutate(payload)
    with pytest.raises(ModelFileError, match=cause):
        load_model(io.StringIO(json.dumps(payload)))


DATA = pathlib.Path(__file__).parent / "data"


def v2_payload(base_kind):
    """The committed version 2 file of ``base_kind`` (see data/README.md)."""
    return json.loads((DATA / f"model_v2_{base_kind}.json").read_text())


def v2_binary(payload, node, c):
    return payload["node_models"][node]["binary_models"][c]


# (base kind, mutation of the JSON of a version 2 file, words the error must name)
MODEL_FILE_V2_FAULTS = {
    "bad base64": ("svm", lambda p: p.__setitem__("pool", p["pool"][:-3] + "#=="), "base64"),
    "pool as a list": ("svm", lambda p: p.__setitem__("pool", [0.5, 0.5]), "base64"),
    "pool byte length": ("svm", lambda p: p.__setitem__("pool_rows", p["pool_rows"] + 1), "bytes"),
    "pool index out of range": (
        "svm",
        lambda p: v2_binary(p, "2", 0)["pool_index"].__setitem__(0, p["pool_rows"]),
        "not a row of the",
    ),
    "negative pool index": (
        "svm", lambda p: v2_binary(p, "", 1)["pool_index"].__setitem__(0, -1), "not a row of the"
    ),
    "pool index length": ("svm", lambda p: v2_binary(p, "", 1)["pool_index"].pop(), "dual_coef"),
    "dual_coef length": (
        "svm", lambda p: v2_binary(p, "2", 1).__setitem__("dual_coef", b64_values([1.0])),
        "dual_coef",
    ),
    "binary model count": (
        "svm", lambda p: p["node_models"]["3"]["binary_models"].pop(), "not a list of 2 models"
    ),
    "converged as text": (
        "svm", lambda p: v2_binary(p, "3", 0).__setitem__("converged", "false"), "converged"
    ),
    "non-finite pool value": ("svm", lambda p: edit_b64(p, "pool", set_at(3, np.nan)), "non-finite"),
    "non-finite dual_coef": (
        "svm", lambda p: edit_b64(v2_binary(p, "", 0), "dual_coef", set_at(0, np.inf)),
        "non-finite",
    ),
    "gamma differs within a node": (
        "svm", lambda p: v2_binary(p, "2", 1).__setitem__("gamma", 0.125), "disagree on gamma"
    ),
    "logreg weights length": (
        "logreg",
        lambda p: p["node_models"][""].__setitem__("weights", b64_values([0.5])),
        "weights",
    ),
    "unknown base kind": ("svm", lambda p: p.__setitem__("base_kind", "tree"), "base classifier"),
}


@pytest.mark.parametrize("fault", sorted(MODEL_FILE_V2_FAULTS))
def test_load_rejects_inconsistent_v2_model_file(fault):
    base_kind, mutate, cause = MODEL_FILE_V2_FAULTS[fault]
    payload = v2_payload(base_kind)
    assert payload["schema_version"] == 2
    load_model(io.StringIO(json.dumps(payload)))  # unmutated, the file loads
    mutate(payload)
    with pytest.raises(ModelFileError, match=cause):
        load_model(io.StringIO(json.dumps(payload)))


@pytest.mark.parametrize("strategy", ["nllcpn", "lcpnb"])
@pytest.mark.parametrize("base_kind", ["svm", "logreg"])
def test_v2_file_predicts_as_when_written(tmp_path, base_kind, strategy):
    from tehier.cli import main

    out = tmp_path / "pred.csv"
    model = DATA / f"model_v2_{base_kind}.json"
    argv = ["predict", str(DATA / "query.csv"), "--model", str(model), "--strategy", strategy]
    assert main([*argv, "--out", str(out)]) == 0
    assert out.read_bytes() == (DATA / f"predict_v2_{base_kind}_{strategy}.csv").read_bytes()


@pytest.mark.parametrize("base_kind", ["svm", "logreg"])
def test_v2_file_resaves_as_v3_with_identical_predictions(base_kind):
    from_v2 = load_model_file(DATA / f"model_v2_{base_kind}.json")
    v3 = io.StringIO()
    save_model(from_v2, v3)
    assert json.loads(v3.getvalue())["schema_version"] == 3
    from_v3 = load_model(io.StringIO(v3.getvalue()))
    resaved = io.StringIO()
    save_model(from_v3, resaved)
    assert resaved.getvalue() == v3.getvalue()

    with open(DATA / "query.csv", encoding="utf-8") as fh:
        queries, _ = read_feature_csv(fh, from_v2.kmer_config)
    tables = [m.proba_tables(queries) for m in (from_v2, from_v3)]
    assert tables[1].edge.tobytes() == tables[0].edge.tobytes()
    assert tables[1].stay.tobytes() == tables[0].stay.tobytes()
    for strategy in ("nllcpn", "lcpnb"):
        assert from_v3.predict(queries, strategy) == from_v2.predict(queries, strategy)


def test_v2_pool_stores_each_support_vector_once(rng):
    tax, X, labels = hier_training_setup(rng)
    model = train_hier(X, labels, tax, base_kind="svm", config=SvmConfig(C=5.0, gamma=1.0))
    sink = io.StringIO()
    save_model(model, sink)
    payload = json.loads(sink.getvalue())
    rows = {sv.tobytes() for m in model.node_models.values() for sv in m.svm.support_vectors}
    stored = sum(len(node["pool_index"]) for node in payload["node_models"].values())
    assert payload["pool_rows"] == len(rows) < stored


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
    model = train_hier(X, labels, tax, base_kind="logreg")
    with pytest.raises(DimensionError):
        model.predict(np.zeros((1, 7)), "nllcpn")


def test_model_fingerprint_mismatch_after_refeaturize(rng):
    # train on K=2 features, then featurize with K=2,3: width check trips
    from tehier import featurize_batch

    tax = Taxonomy([hl("1"), hl("2")])
    seqs = ["ACGTAC", "GGTTAA", "ACCGTA", "TTGGCA"]
    X2 = featurize_batch(seqs, KmerConfig(k_values=(2,)))
    labels = [hl("1"), hl("1"), hl("2"), hl("2")]
    model = train_hier(X2, labels, tax, base_kind="logreg", kmer_config=KmerConfig(k_values=(2,)))
    X23 = featurize_batch(seqs, KmerConfig(k_values=(2, 3)))
    with pytest.raises(DimensionError):
        model.predict(X23, "lcpnb")
