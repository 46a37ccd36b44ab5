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
    train_binary_svm,
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


BANK_FIELDS = ("support_vectors", "dual_coef", "bias", "platt_a", "platt_b", "converged")


def assert_same_bank(first, second):
    for name in BANK_FIELDS:
        assert np.array_equal(getattr(first.svm, name), getattr(second.svm, name)), name


def test_svm_model_is_deterministic(rng):
    X, y = separable_blobs(rng, 30, [(2, 0), (-2, 0), (0, 2)])
    labels = [hl(str(c + 1)) for c in y]
    config = SvmConfig(C=5.0, gamma=1.0)
    first = fit_multiclass("svm", X, labels, config)
    second = fit_multiclass("svm", X, labels, config)
    assert_same_bank(first, second)
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
    assert model.svm.dual_coef.shape[1] == 3
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
    assert_same_bank(kept, evicted)


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
    # also where one observed class would make a constant model
    with pytest.raises(ValueError, match="tree"):
        fit_multiclass("tree", rng.normal(size=(3, 2)), [hl("1")] * 3)


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
    config = SvmConfig(C=5.0, gamma=1.0)
    model = fit_multiclass("svm", X, labels, config)
    binaries = [
        train_binary_svm(X, np.array([1.0 if l == c else -1.0 for l in labels]), config)
        for c in model.classes
    ]
    bank = model.svm
    query = rng.normal(0.0, 1.5, size=(40, 2))
    decisions = bank.decision_function(query)
    positives = bank.predict_proba_positive(query)
    assert decisions.shape == positives.shape == (len(query), len(model.classes))
    for c, binary in enumerate(binaries):
        assert np.allclose(decisions[:, c], binary.decision_function(query), rtol=0, atol=1e-12)
        assert np.allclose(
            positives[:, c], binary.predict_proba_positive(query), rtol=0, atol=1e-12
        )
    assert bank.bias.tolist() == [m.bias for m in binaries]
    assert bank.platt_a.tolist() == [m.platt_a for m in binaries]
    assert bank.platt_b.tolist() == [m.platt_b for m in binaries]
    assert bank.converged.tolist() == [m.converged for m in binaries]
    # the pool holds each support vector of the node once
    used = {sv.tobytes() for m in binaries for sv in m.support_vectors}
    assert sorted(sv.tobytes() for sv in bank.support_vectors) == sorted(used)
    scores = np.column_stack([m.predict_proba_positive(query) for m in binaries])
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
    assert calls == [len(model.svm.support_vectors)] * 2
    # fewer rows than the SVMs use together: they share support vectors
    assert calls[0] < np.count_nonzero(model.svm.dual_coef)
