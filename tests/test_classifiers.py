import dataclasses

import numpy as np
import pytest

import tehier.svm
from tehier import (
    DegenerateDataError,
    DimensionError,
    KmerConfig,
    LogRegConfig,
    SvmConfig,
    fit_multiclass,
    train_binary_svm,
)
from tehier.classifiers import svm_bank
from tehier.logreg import LogRegModel
from tehier.svm import BinarySvmModel

from conftest import separable_blobs


def test_single_class_constant_model(rng):
    X = rng.normal(size=(6, 4))
    model = fit_multiclass(X, np.full(6, 4))
    assert model.model is None
    probs = model.predict_proba(X)
    assert probs.shape == (6, 1)
    assert (probs == 1.0).all()
    assert model.classes.tolist() == [4]


@pytest.mark.parametrize("kind", ["svm", "logreg"])
def test_three_class_blobs(rng, kind):
    X, y = separable_blobs(rng, 50, [(2.5, 0), (-2.5, 0), (0, 2.5)])
    config = SvmConfig(C=10.0, gamma=0.5) if kind == "svm" else LogRegConfig()
    model = fit_multiclass(X, y + 1, config)
    assert isinstance(model.model, BinarySvmModel if kind == "svm" else LogRegModel)
    probs = model.predict_proba(X)
    accuracy = np.mean(model.classes[probs.argmax(axis=1)] == y + 1)
    assert accuracy >= 0.95
    assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-9)
    assert (probs >= 0).all()


@pytest.mark.parametrize("kind", ["svm", "logreg"])
def test_midpoint_of_symmetric_problem_is_uncertain(rng, kind):
    center_a, center_b = np.array([1.5, 0.0]), np.array([-1.5, 0.0])
    noise = rng.normal(0, 0.3, (60, 2))
    # exact point symmetry through the midpoint: x -> (a + b) - x swaps classes
    X = np.vstack([noise + center_a, -noise + center_b])
    labels = np.repeat([1, 2], 60)
    config = SvmConfig(C=2.0, gamma=1.0) if kind == "svm" else LogRegConfig()
    model = fit_multiclass(X, labels, config)
    midpoint = 0.5 * (center_a + center_b)
    probs = model.predict_proba(midpoint)[0]
    assert probs[0] == pytest.approx(0.5, abs=0.05)
    assert probs[1] == pytest.approx(0.5, abs=0.05)


def test_classes_sorted(rng):
    X = rng.normal(size=(9, 3))
    model = fit_multiclass(X, np.array([7, 2, 5] * 3), LogRegConfig())
    assert model.classes.tolist() == [2, 5, 7]


BANK_FIELDS = ("support_vectors", "dual_coef", "bias", "platt_a", "platt_b", "converged")


def assert_same_bank(first, second):
    for name in BANK_FIELDS:
        assert np.array_equal(getattr(first.model, name), getattr(second.model, name)), name


def test_svm_model_is_deterministic(rng):
    X, y = separable_blobs(rng, 30, [(2, 0), (-2, 0), (0, 2)])
    config = SvmConfig(C=5.0, gamma=1.0)
    first = fit_multiclass(X, y + 1, config)
    second = fit_multiclass(X, y + 1, config)
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
    model = fit_multiclass(X, y + 1, SvmConfig(C=5.0))
    assert model.model.dual_coef.shape[1] == 3
    assert calls == [(True, len(X))]


def test_column_cache_eviction_does_not_change_svm_model(rng, monkeypatch):
    monkeypatch.setattr(tehier.svm, "_FULL_GRAM_LIMIT", 10)
    X, y = separable_blobs(rng, 30, [(2, 0), (-2, 0), (0, 2)], spread=0.8)
    config = SvmConfig(C=5.0, gamma=1.0)
    monkeypatch.setattr(tehier.svm, "_ROW_CACHE_SIZE", len(X))  # every column stays
    kept = fit_multiclass(X, y + 1, config)
    monkeypatch.setattr(tehier.svm, "_ROW_CACHE_SIZE", 8)  # columns are evicted and rebuilt
    evicted = fit_multiclass(X, y + 1, config)
    assert_same_bank(kept, evicted)


def test_dimension_mismatch(rng):
    X = rng.normal(size=(10, 4))
    model = fit_multiclass(X, np.repeat([1, 2], 5), LogRegConfig())
    with pytest.raises(DimensionError):
        model.predict_proba(np.zeros((2, 3)))


def test_empty_data_rejected():
    with pytest.raises(DegenerateDataError):
        fit_multiclass(np.zeros((0, 3)), [])


def test_unknown_kind_rejected(rng):
    # the config's type is the base classifier; no other config is one
    with pytest.raises(ValueError, match="unknown base classifier config"):
        fit_multiclass(rng.normal(size=(4, 2)), np.array([1, 2] * 2), "forest")
    # also where one observed class would make a constant model
    with pytest.raises(ValueError, match="KmerConfig"):
        fit_multiclass(rng.normal(size=(3, 2)), np.ones(3, int), KmerConfig())
    with pytest.raises(ValueError, match="None"):
        fit_multiclass(rng.normal(size=(3, 2)), np.ones(3, int), None)


def three_class_node(rng, monkeypatch):
    X, y = separable_blobs(rng, 30, [(2, 0), (-2, 0), (0, 2)], spread=0.8)
    return X, y + 1


def lru_node(rng, monkeypatch):
    monkeypatch.setattr(tehier.svm, "_FULL_GRAM_LIMIT", 10)
    return three_class_node(rng, monkeypatch)


def two_class_node(rng, monkeypatch):
    X, y = separable_blobs(rng, 30, [(1, 0), (-1, 0)], spread=0.8)
    return X, y + 1


def duplicated_rows_node(rng, monkeypatch):
    X, labels = three_class_node(rng, monkeypatch)
    return np.vstack([X, X]), np.concatenate([labels, labels])  # support vectors recur within one SVM


@pytest.mark.parametrize(
    "node", [three_class_node, lru_node, two_class_node, duplicated_rows_node]
)
def test_bank_matches_each_binary_svm(rng, monkeypatch, node):
    X, labels = node(rng, monkeypatch)
    config = SvmConfig(C=5.0, gamma=1.0)
    model = fit_multiclass(X, labels, config)
    two_class = len(model.classes) == 2
    # a two-class node keeps class 0's SVM only, its one column
    binaries = [
        train_binary_svm(X, np.where(labels == c, 1.0, -1.0), config)
        for c in model.classes[: 1 if two_class else None]
    ]
    bank = model.model
    query = rng.normal(0.0, 1.5, size=(40, 2))
    decisions = bank.decision_function(query)
    positives = bank.predict_proba_positive(query)
    assert decisions.shape == positives.shape == (len(query), len(binaries))
    for c, binary in enumerate(binaries):
        assert np.allclose(
            decisions[:, c : c + 1], binary.decision_function(query), rtol=0, atol=1e-12
        )
        assert np.allclose(
            positives[:, c : c + 1], binary.predict_proba_positive(query), rtol=0, atol=1e-12
        )
    for name in ("bias", "platt_a", "platt_b", "converged"):
        columns = np.concatenate([getattr(m, name) for m in binaries])
        assert getattr(bank, name).tobytes() == columns.tobytes(), name
    # the pool holds each support vector of the node once
    used = {sv.tobytes() for m in binaries for sv in m.support_vectors}
    assert sorted(sv.tobytes() for sv in bank.support_vectors) == sorted(used)
    scores = np.hstack([m.predict_proba_positive(query) for m in binaries])
    if two_class:
        expected = np.hstack([scores, 1.0 - scores])
    else:
        expected = scores / scores.sum(axis=1, keepdims=True)
    assert np.allclose(model.predict_proba(query), expected, rtol=0, atol=1e-12)


def test_two_class_node_is_one_svm(rng, monkeypatch):
    X, labels = two_class_node(rng, monkeypatch)
    config = SvmConfig(C=5.0, gamma=1.0)
    model = fit_multiclass(X, labels, config)
    bank = model.model
    assert bank.dual_coef.shape[1] == 1
    first = train_binary_svm(X, np.where(labels == model.classes[0], 1.0, -1.0), config)
    assert_same_bits(bank, svm_bank([first]))
    probs = model.predict_proba(rng.normal(0.0, 1.5, size=(200, 2)))
    assert probs.shape == (200, 2)
    assert probs[:, 1].tobytes() == (1.0 - probs[:, 0]).tobytes()


def test_node_prediction_builds_one_kernel_block(rng, monkeypatch):
    X, labels = three_class_node(rng, monkeypatch)
    model = fit_multiclass(X, labels, SvmConfig(C=5.0, gamma=1.0))
    calls = []
    original = tehier.svm.rbf_kernel_matrix

    def counting(X, Y, gamma):
        calls.append(len(Y))
        return original(X, Y, gamma)

    monkeypatch.setattr(tehier.svm, "rbf_kernel_matrix", counting)
    model.predict_proba(rng.normal(size=(7, 2)))
    model.predict_proba(rng.normal(size=(5, 2)))
    assert calls == [len(model.model.support_vectors)] * 2
    # fewer rows than the SVMs use together: they share support vectors
    assert calls[0] < np.count_nonzero(model.model.dual_coef)


def assert_same_bits(got, want):
    """Every field of two SVM banks is equal bit for bit."""
    for field in dataclasses.fields(want):
        a, b = getattr(got, field.name), getattr(want, field.name)
        assert type(a) is type(b) and np.shape(a) == np.shape(b), field.name
        assert np.asarray(a).tobytes() == np.asarray(b).tobytes(), field.name


@pytest.mark.parametrize("case", ["separable", "alphas reach C", "alphas near the snap"])
def test_svms_reused_along_c_equal_fresh_solves_bit_for_bit(rng, monkeypatch, case):
    # fit_multiclass at ascending C on one list of solves, as a grid fold does:
    # every SVM it keeps, reused or not, is the fresh solve at its C
    spread, c_values = {
        "separable": (0.25, (16.0, 256.0, 4096.0)),
        "alphas reach C": (1.2, (0.5, 8.0, 128.0)),
        "alphas near the snap": (0.25, (16.0, 64.0, 256.0)),
    }[case]
    if case == "alphas near the snap":  # alphas kept on the way snap at a larger C
        monkeypatch.setattr(tehier.svm, "_SNAP", 1e-3)
    X, y = separable_blobs(rng, 20, [(1.5, 0), (-1.5, 0), (0, 1.5)], spread=spread)
    solves, reused = [], 0
    for C in c_values:
        config = SvmConfig(C=C, gamma=0.5)
        last = list(solves)
        bank = fit_multiclass(X, y, config, solves=solves).model
        assert_same_bits(bank, fit_multiclass(X, y, config).model)
        for c, kept in enumerate(solves):
            if kept is not None:
                assert_same_bits(kept, train_binary_svm(X, np.where(y == c, 1.0, -1.0), config))
                reused += bool(last) and kept is last[c]
    # the separable blobs reuse all 3 classes at both steps; above the larger
    # snap, one class at C = 256 is reused
    assert reused == {"separable": 6, "alphas reach C": 0, "alphas near the snap": 1}[case]
