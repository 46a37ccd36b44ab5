import numpy as np
import pytest

import tehier.svm
from tehier import (
    DegenerateDataError,
    DimensionError,
    LogRegConfig,
    SvmConfig,
    fit_multiclass,
    parse_label,
)

from conftest import hl, separable_blobs


def test_single_class_constant_model(rng):
    X = rng.normal(size=(6, 4))
    model = fit_multiclass("svm", X, [hl("1.2")] * 6)
    assert model.kind == "constant"
    probs = model.predict_proba(X)
    assert probs.shape == (6, 1)
    assert (probs == 1.0).all()
    assert model.classes == [hl("1.2")]


@pytest.mark.parametrize("kind", ["svm", "logreg"])
def test_three_class_blobs(rng, kind):
    X, y = separable_blobs(rng, 50, [(2.5, 0), (-2.5, 0), (0, 2.5)])
    labels = [hl(str(c + 1)) for c in y]
    config = SvmConfig(C=10.0, gamma=0.5) if kind == "svm" else LogRegConfig()
    model = fit_multiclass(kind, X, labels, config)
    probs = model.predict_proba(X)
    predicted = [model.classes[i] for i in probs.argmax(axis=1)]
    accuracy = np.mean([p == t for p, t in zip(predicted, labels)])
    assert accuracy >= 0.95
    assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-9)
    assert (probs >= 0).all()


@pytest.mark.parametrize("kind", ["svm", "logreg"])
def test_midpoint_of_symmetric_problem_is_uncertain(rng, kind):
    center_a, center_b = np.array([1.5, 0.0]), np.array([-1.5, 0.0])
    noise = rng.normal(0, 0.3, (60, 2))
    # exact point symmetry through the midpoint: x -> (a + b) - x swaps classes
    X = np.vstack([noise + center_a, -noise + center_b])
    labels = [hl("1")] * 60 + [hl("2")] * 60
    config = SvmConfig(C=2.0, gamma=1.0) if kind == "svm" else LogRegConfig()
    model = fit_multiclass(kind, X, labels, config)
    midpoint = 0.5 * (center_a + center_b)
    probs = model.predict_proba(midpoint)[0]
    assert probs[0] == pytest.approx(0.5, abs=0.05)
    assert probs[1] == pytest.approx(0.5, abs=0.05)


def test_classes_sorted(rng):
    X = rng.normal(size=(9, 3))
    labels = [hl("3"), hl("1"), hl("2")] * 3
    model = fit_multiclass("logreg", X, labels)
    assert model.classes == [hl("1"), hl("2"), hl("3")]


def test_svm_model_is_deterministic(rng):
    X, y = separable_blobs(rng, 30, [(2, 0), (-2, 0), (0, 2)])
    labels = [hl(str(c + 1)) for c in y]
    config = SvmConfig(C=5.0, gamma=1.0)
    first = fit_multiclass("svm", X, labels, config)
    second = fit_multiclass("svm", X, labels, config)
    for m1, m2 in zip(first.binary_models, second.binary_models):
        assert np.array_equal(m1.dual_coef, m2.dual_coef)
        assert m1.bias == m2.bias
        assert (m1.platt_a, m1.platt_b) == (m2.platt_a, m2.platt_b)
    query = rng.normal(size=(20, 2))
    assert np.array_equal(first.predict_proba(query), second.predict_proba(query))


def test_one_gram_per_node(rng, monkeypatch):
    calls = []
    original = tehier.svm.rbf_kernel_matrix

    def counting(X, Y, gamma):
        calls.append((X is Y, len(Y)))
        return original(X, Y, gamma)

    monkeypatch.setattr(tehier.svm, "rbf_kernel_matrix", counting)
    X, y = separable_blobs(rng, 20, [(2, 0), (-2, 0), (0, 2)])
    model = fit_multiclass("svm", X, [hl(str(c + 1)) for c in y], SvmConfig(C=5.0))
    assert len(model.binary_models) == 3
    assert calls == [(True, len(X))]


def test_column_cache_eviction_does_not_change_svm_model(rng, monkeypatch):
    monkeypatch.setattr(tehier.svm, "_FULL_GRAM_LIMIT", 10)
    X, y = separable_blobs(rng, 30, [(2, 0), (-2, 0), (0, 2)], spread=0.8)
    labels = [hl(str(c + 1)) for c in y]
    config = SvmConfig(C=5.0, gamma=1.0)
    monkeypatch.setattr(tehier.svm, "_ROW_CACHE_SIZE", len(X))  # every column stays
    kept = fit_multiclass("svm", X, labels, config)
    monkeypatch.setattr(tehier.svm, "_ROW_CACHE_SIZE", 8)  # columns are evicted and rebuilt
    evicted = fit_multiclass("svm", X, labels, config)
    for m1, m2 in zip(kept.binary_models, evicted.binary_models):
        assert np.array_equal(m1.dual_coef, m2.dual_coef)
        assert m1.bias == m2.bias
        assert (m1.platt_a, m1.platt_b) == (m2.platt_a, m2.platt_b)


def test_dimension_mismatch(rng):
    X = rng.normal(size=(10, 4))
    labels = [hl("1")] * 5 + [hl("2")] * 5
    model = fit_multiclass("logreg", X, labels)
    with pytest.raises(DimensionError):
        model.predict_proba(np.zeros((2, 3)))


def test_empty_data_rejected():
    with pytest.raises(DegenerateDataError):
        fit_multiclass("svm", np.zeros((0, 3)), [])


def test_unknown_kind_rejected(rng):
    with pytest.raises(ValueError):
        fit_multiclass("forest", rng.normal(size=(4, 2)), [hl("1"), hl("2")] * 2)


def three_class_node(rng, monkeypatch):
    X, y = separable_blobs(rng, 30, [(2, 0), (-2, 0), (0, 2)], spread=0.8)
    return X, [hl(str(c + 1)) for c in y]


def lru_node(rng, monkeypatch):
    monkeypatch.setattr(tehier.svm, "_FULL_GRAM_LIMIT", 10)
    return three_class_node(rng, monkeypatch)


def two_class_node(rng, monkeypatch):
    X, y = separable_blobs(rng, 30, [(1, 0), (-1, 0)], spread=0.8)
    return X, [hl(str(c + 1)) for c in y]


def duplicated_rows_node(rng, monkeypatch):
    X, labels = three_class_node(rng, monkeypatch)
    return np.vstack([X, X]), labels + labels  # support vectors recur within one SVM


@pytest.mark.parametrize(
    "node", [three_class_node, lru_node, two_class_node, duplicated_rows_node]
)
def test_bank_matches_each_binary_svm(rng, monkeypatch, node):
    X, labels = node(rng, monkeypatch)
    model = fit_multiclass("svm", X, labels, SvmConfig(C=5.0, gamma=1.0))
    bank = model._svm_bank
    query = rng.normal(0.0, 1.5, size=(40, 2))
    decisions = bank.decision_function(query)
    positives = bank.predict_proba_positive(query)
    assert decisions.shape == positives.shape == (len(query), len(model.classes))
    for c, binary in enumerate(model.binary_models):
        assert np.allclose(decisions[:, c], binary.decision_function(query), rtol=0, atol=1e-12)
        assert np.allclose(
            positives[:, c], binary.predict_proba_positive(query), rtol=0, atol=1e-12
        )
    # the pool holds each support vector of the node once
    used = {sv.tobytes() for m in model.binary_models for sv in m.support_vectors}
    assert sorted(sv.tobytes() for sv in bank.support_vectors) == sorted(used)
    scores = np.column_stack([m.predict_proba_positive(query) for m in model.binary_models])
    expected = scores / scores.sum(axis=1, keepdims=True)
    assert np.allclose(model.predict_proba(query), expected, rtol=0, atol=1e-12)


def test_node_prediction_builds_one_kernel_block(rng, monkeypatch):
    X, labels = three_class_node(rng, monkeypatch)
    model = fit_multiclass("svm", X, labels, SvmConfig(C=5.0, gamma=1.0))
    calls = []
    original = tehier.svm.rbf_kernel_matrix

    def counting(X, Y, gamma):
        calls.append(len(Y))
        return original(X, Y, gamma)

    monkeypatch.setattr(tehier.svm, "rbf_kernel_matrix", counting)
    model.predict_proba(rng.normal(size=(7, 2)))
    model.predict_proba(rng.normal(size=(5, 2)))
    assert calls == [len(model._svm_bank.support_vectors)] * 2
    assert calls[0] < sum(len(m.support_vectors) for m in model.binary_models)
