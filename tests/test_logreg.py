import numpy as np
import pytest

import oracles
import tehier.classifiers
import tehier.logreg
from tehier import DegenerateDataError, DimensionError
from tehier.logreg import (
    _L2_STRENGTH, _MAX_ITERATIONS, _TOLERANCE, logreg_gradient, logreg_loss, softmax, train_logreg,
)

from conftest import class_index
from oracles import (
    finite_difference_logreg_gradient, train_logreg_lbfgs_reference, train_logreg_reference,
)


def loss(weights, bias, X, y_idx, l2):
    """logreg_loss's loss at (weights, bias) for class indices ``y_idx``."""
    return logreg_loss(weights, bias, X, class_index(y_idx, bias.shape[0]), l2)[0]


def finite_difference_gradient(weights, bias, X, y_idx, l2, h=1e-5):
    loss_fn = lambda w, b: loss(w, b, X, y_idx, l2)
    return finite_difference_logreg_gradient(loss_fn, weights, bias, h)


def gradient(weights, bias, X, y_idx, l2):
    """logreg_gradient at (weights, bias) as (grad_weights, grad_bias), given
    the softmax logreg_loss returns there."""
    k = bias.shape[0]
    target = class_index(y_idx, k)
    grad = logreg_gradient(weights, X, target, l2, logreg_loss(weights, bias, X, target, l2)[1])
    return grad[:-k].reshape(weights.shape), grad[-k:]


def test_gradient_at_zero_weights_closed_form(rng):
    # softmax at zero scores is uniform, so the gradient is
    # (uniform - onehot)'X / N for the weights
    n, d, k = 12, 4, 3
    X = rng.normal(size=(n, d))
    y = rng.integers(0, k, size=n)
    grad_w, grad_b = gradient(np.zeros((d, k)), np.zeros(k), X, y, 0.0)
    resid = np.full((n, k), 1.0 / k)
    resid[np.arange(n), y] -= 1.0
    assert np.allclose(grad_w, X.T @ resid / n, atol=1e-12)
    assert np.allclose(grad_b, resid.mean(axis=0), atol=1e-12)


def test_gradient_matches_finite_differences(rng):
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
        grad_w, grad_b = gradient(weights, bias, X, y, l2)
        num_w, num_b = finite_difference_gradient(weights, bias, X, y, l2)
        scale = max(1.0, np.abs(num_w).max(), np.abs(num_b).max())
        err = max(np.abs(grad_w - num_w).max(), np.abs(grad_b - num_b).max()) / scale
        worst = max(worst, err)
    assert worst < 1e-5


def test_duplicated_dataset_same_gradient(rng):
    n, d, k = 10, 3, 3
    X = rng.normal(size=(n, d))
    y = rng.integers(0, k, size=n)
    weights = rng.normal(size=(d, k))
    bias = rng.normal(size=k)
    g1 = gradient(weights, bias, X, y, 0.0)
    g2 = gradient(weights, bias, np.vstack([X, X]), np.concatenate([y, y]), 0.0)
    assert np.allclose(g1[0], g2[0], atol=1e-12)
    assert np.allclose(g1[1], g2[1], atol=1e-12)


def test_softmax_rows_sum_to_one(rng):
    scores = rng.normal(scale=30, size=(20, 5))
    probs = softmax(scores)
    assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-12)
    assert (probs >= 0).all()


def test_training_reduces_loss_and_separates(rng):
    from conftest import separable_blobs

    X, y = separable_blobs(rng, 40, [(2, 0), (-2, 0), (0, 2)])
    model = train_logreg(X, y, 3)
    start = loss(np.zeros((2, 3)), np.zeros(3), X, y, _L2_STRENGTH)
    end = loss(model.weights, model.bias, X, y, _L2_STRENGTH)
    assert end < start
    assert (model.predict_proba(X).argmax(axis=1) == y).mean() >= 0.95


def test_training_single_class_rejected(rng):
    with pytest.raises(DegenerateDataError):
        train_logreg(rng.normal(size=(5, 2)), np.zeros(5, dtype=int), 1)


def test_loss_with_probs_hands_back_the_softmax(rng):
    n, d, k = 30, 4, 5
    X = rng.normal(size=(n, d))
    y = rng.integers(0, k, size=n)
    weights = rng.normal(scale=2.0, size=(d, k))
    bias = rng.normal(size=k)
    value, probs = logreg_loss(weights, bias, X, class_index(y, k), 1e-4)
    assert type(value) is float
    assert np.array_equal(probs, softmax(X @ weights + bias))


@pytest.mark.parametrize("k", [2, 3, 5, 8, 9, 12])
def test_gradient_same_bits_with_passed_in_softmax(rng, k):
    n, d = 40, 6
    X = rng.normal(size=(n, d))
    target = class_index(rng.integers(0, k, size=n), k)
    for scale in (0.0, 1.0, 50.0):  # 0: every score ties
        weights = rng.normal(scale=scale, size=(d, k))
        bias = rng.normal(scale=scale, size=k)
        _, probs = logreg_loss(weights, bias, X, target, 1e-4)
        kept = probs.copy()
        passed = logreg_gradient(weights, X, target, 1e-4, probs)
        fresh = logreg_gradient(weights, X, target, 1e-4, softmax(X @ weights + bias))
        assert np.array_equal(passed, fresh)
        assert np.array_equal(probs, kept)  # the caller's softmax is left alone


def _bit_identity_problems(rng, k):
    n, d = 12 * k, 5
    X = rng.normal(size=(n, d))
    y = np.arange(n) % k
    yield X, y
    # duplicated feature columns
    yield np.hstack([X, X[:, :2], X[:, :2]]), y
    # classes 0 and 1 mirror each other on duplicated rows: their scores tie
    mirrored = np.where(y == 0, 1, np.where(y == 1, 0, y))
    yield np.vstack([X, X]), np.concatenate([y, mirrored])


def _objective_and_gradient_norm(weights, bias, X, y, l2):
    grad_w, grad_b = gradient(weights, bias, X, y, l2)
    gnorm = float(np.sqrt(np.sum(grad_w * grad_w) + np.sum(grad_b * grad_b)))
    return loss(weights, bias, X, y, l2), gnorm


@pytest.mark.parametrize("k", [2, 3, 5, 8, 9, 12])
def test_training_matches_reference_bit_for_bit(rng, monkeypatch, k):
    # L-BFGS takes other steps than the reference's gradient descent, so the
    # weights differ; what holds is that the fit either reaches the tolerance
    # or says it did not, never ends above an unconverged reference, and
    # agrees with a converged one on the optimum of the objective
    for X, y in _bit_identity_problems(rng, k):
        for l2 in (0.0, 1e-4):
            monkeypatch.setattr(tehier.logreg, "_L2_STRENGTH", l2)
            model = train_logreg(X, y, k)
            value, gnorm = _objective_and_gradient_norm(model.weights, model.bias, X, y, l2)
            assert model.converged == (gnorm <= _TOLERANCE)
            weights, bias, converged = train_logreg_reference(
                X, y, k, l2, _MAX_ITERATIONS, _TOLERANCE
            )
            reference_loss = loss(weights, bias, X, y, l2)
            if not converged:
                assert value <= reference_loss
            elif model.converged:
                assert abs(value - reference_loss) <= 1e-9


@pytest.fixture(scope="module")
def desk_nodes():
    """The root and two inner nodes of a desk-shaped corpus: (X, class index)."""
    from tehier import KmerConfig, SynthSpec, featurize_batch, generate, taxonomy_from_shape

    spec = SynthSpec(
        taxonomy=taxonomy_from_shape([2, 4, 3, 5], seed=0), sequences_per_node=100,
        length_range=(500, 500), separability=0.9, internal_label_fraction=0.15, seed=42,
    )
    records = generate(spec)
    X = featurize_batch(records, KmerConfig())
    paths = [r.label.path for r in records]
    nodes = []
    for prefix in [(), (1,), (2, 1, 1)]:
        rows = [i for i, p in enumerate(paths) if len(p) > len(prefix) and p[: len(prefix)] == prefix]
        children = sorted({paths[i][len(prefix)] for i in rows})
        y = np.array([children.index(paths[i][len(prefix)]) for i in rows])
        nodes.append((X[rows], y, len(children)))
    return nodes


def test_desk_nodes_converge_no_higher_than_reference(desk_nodes):
    for X, y, k in desk_nodes:
        model = train_logreg(X, y, k)
        value, gnorm = _objective_and_gradient_norm(model.weights, model.bias, X, y, _L2_STRENGTH)
        assert model.converged and gnorm <= _TOLERANCE
        weights, bias, _ = train_logreg_reference(
            X, y, k, _L2_STRENGTH, _MAX_ITERATIONS, _TOLERANCE
        )
        assert value <= loss(weights, bias, X, y, _L2_STRENGTH)


def test_unbounded_objective_ends_finite_and_unconverged(rng, monkeypatch):
    # separable blobs without a penalty: the loss keeps falling as the weights
    # grow, so no optimum exists; a tolerance no gradient norm reaches makes
    # the fit run until the cap or until float precision stalls the search
    from conftest import separable_blobs

    monkeypatch.setattr(tehier.logreg, "_L2_STRENGTH", 0.0)
    monkeypatch.setattr(tehier.logreg, "_TOLERANCE", 1e-300)
    X, y = separable_blobs(rng, 30, [(3, 0), (-3, 0), (0, 3)])
    model = train_logreg(X, y, 3)
    assert not model.converged
    assert np.isfinite(model.weights).all() and np.isfinite(model.bias).all()
    far = np.vstack([X, 1e6 * X, rng.normal(size=(20, 2))])
    probs = model.predict_proba(far)
    assert np.isfinite(probs).all()
    assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-12)
    assert (probs[: len(y)].argmax(axis=1) == y).all()


def test_flat_curvature_pairs_are_skipped(rng, monkeypatch):
    # overlapping blobs fitted to a tolerance no gradient norm reaches: near
    # float precision an accepted step can leave the gradient unchanged
    # (s.y = 0), and such a pair must be dropped rather than divided by
    from conftest import separable_blobs

    monkeypatch.setattr(tehier.logreg, "_L2_STRENGTH", 0.0)
    monkeypatch.setattr(tehier.logreg, "_TOLERANCE", 1e-300)
    X, y = separable_blobs(rng, 30, [(3, 0), (-3, 0), (0, 3)], spread=1.0)
    model = train_logreg(X, y, 3)
    assert not model.converged
    assert np.isfinite(model.weights).all() and np.isfinite(model.bias).all()


def test_stalled_line_search_is_not_converged(monkeypatch):
    # a tolerance no gradient norm reaches: the fit ends when no step out of
    # 40 halvings lowers the loss, which the reference reported as converged
    rng = np.random.default_rng(7)
    X = rng.normal(size=(40, 3))
    y = rng.integers(0, 3, size=40)
    monkeypatch.setattr(tehier.logreg, "_TOLERANCE", 1e-300)
    model = train_logreg(X, y, 3)
    weights, bias, converged = train_logreg_reference(
        X, y, 3, _L2_STRENGTH, _MAX_ITERATIONS, 1e-300
    )
    assert converged
    assert not model.converged


@pytest.mark.parametrize("bad", [-1, 3])
def test_class_index_outside_the_classes_is_refused(rng, bad):
    X = rng.normal(size=(6, 2))
    y = np.array([0, 1, 2, bad, 1, bad])
    with pytest.raises(DimensionError, match=rf"class index {bad} at row 3 .*n_classes=3"):
        train_logreg(X, y, 3)


@pytest.mark.parametrize("bad", [0.2, 1.5, np.nan, np.inf])
def test_class_index_not_a_whole_number_is_refused(rng, bad):
    X = rng.normal(size=(6, 2))
    y = np.array([0.0, 1.0, 0.0, bad, 0.0, 1.0])
    with pytest.raises(DimensionError, match=rf"class index {bad} at row 3 is not a whole number"):
        train_logreg(X, y, 2)


def test_whole_float_and_bool_class_indices_train_as_ints(rng):
    X = rng.normal(size=(6, 2))
    y = np.array([0, 1, 0, 1, 1, 0])
    want = train_logreg(X, y, 2)
    for given in (y.astype(float), y.astype(bool)):
        got = train_logreg(X, given, 2)
        assert got.weights.tobytes() == want.weights.tobytes()
        assert got.bias.tobytes() == want.bias.tobytes()


# -- the fit against the first L-BFGS fit, bit for bit ---------------------------


def _assert_fit_equals_lbfgs_reference(X, y, k):
    """train_logreg's weights, bias and converged flag are the reference's bit
    for bit, after the same sequence of loss and gradient calls; the solver
    constants are read from tehier.logreg, where a test may have patched them."""
    calls = {"fit": [], "reference": []}
    with pytest.MonkeyPatch.context() as patch:
        for side, module, names in (
            ("fit", tehier.logreg, ("logreg_loss", "logreg_gradient")),
            ("reference", oracles,
             ("_logreg_loss_lbfgs_reference", "_logreg_gradient_lbfgs_reference")),
        ):
            for kind, name in zip(("loss", "gradient"), names):
                def logged(*args, _inner=getattr(module, name), _log=calls[side], _kind=kind):
                    _log.append(_kind)
                    return _inner(*args)

                patch.setattr(module, name, logged)
        model = train_logreg(X, y, k)
        weights, bias, converged = train_logreg_lbfgs_reference(
            X, y, k, tehier.logreg._L2_STRENGTH, tehier.logreg._MAX_ITERATIONS,
            tehier.logreg._TOLERANCE,
        )
    assert model.weights.shape == weights.shape and model.bias.shape == bias.shape
    assert model.weights.tobytes() == weights.tobytes()
    assert model.bias.tobytes() == bias.tobytes()
    assert model.converged == converged
    assert len(calls["fit"]) == len(calls["reference"]) > 2
    assert calls["fit"] == calls["reference"]
    return model


@pytest.mark.parametrize("k", [2, 3, 5, 8, 12])
def test_loss_and_gradient_equal_the_lbfgs_reference(rng, k):
    n, d = 25 * k, 7
    X = rng.normal(size=(n, d))
    y = rng.integers(0, k, size=n)
    for scale in (0.0, 1.0, 50.0):
        weights = rng.normal(scale=scale, size=(d, k))
        bias = rng.normal(scale=scale, size=k)
        loss, probs = logreg_loss(weights, bias, X, class_index(y, k), _L2_STRENGTH)
        ref_loss, ref_probs = oracles._logreg_loss_lbfgs_reference(weights, bias, X, y, _L2_STRENGTH)
        assert loss.hex() == ref_loss.hex() and probs.tobytes() == ref_probs.tobytes()
        grad = logreg_gradient(weights, X, class_index(y, k), _L2_STRENGTH, probs)
        ref_w, ref_b = oracles._logreg_gradient_lbfgs_reference(weights, X, y, _L2_STRENGTH, probs)
        assert grad.tobytes() == np.concatenate([ref_w.ravel(), ref_b]).tobytes()


@pytest.fixture(scope="module")
def desk_fold_nodes():
    """The 9 node problems of folds 0-2 of a 10-fold seed-1 logistic compare on
    the desk corpus (14 nodes x 100 sequences of 500 bp, synth seed 42, rows in
    the seed-1 order): (X, class index, n_classes) as train_logreg gets them."""
    from tehier import (
        KmerConfig, LogRegConfig, SynthSpec, Taxonomy, featurize_batch, generate,
        stratified_kfold, taxonomy_from_shape, train_hier,
    )

    spec = SynthSpec(taxonomy=taxonomy_from_shape([2, 4, 3, 5], seed=0), seed=42)
    records = generate(spec)
    order = np.random.default_rng(1).permutation(len(records))
    X = featurize_batch(records, KmerConfig())[order]
    labels = [records[i].label for i in order]
    taxonomy = Taxonomy(labels)
    plan = stratified_kfold(labels, 10, seed=1)
    problems = []
    fit = tehier.classifiers.train_logreg

    def recorded(X, y_idx, n_classes):
        problems.append((X, y_idx, n_classes))
        return fit(X, y_idx, n_classes)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(tehier.classifiers, "train_logreg", recorded)
        for fold in range(3):
            rows = plan.train_indices(fold)
            train_hier(X[rows], [labels[i] for i in rows], taxonomy, LogRegConfig())
    return problems


def test_desk_fold_fits_equal_the_lbfgs_reference(desk_fold_nodes):
    assert len(desk_fold_nodes) == 27
    assert sorted({k for _, _, k in desk_fold_nodes}) == [2, 3]
    for X, y, k in desk_fold_nodes:
        assert _assert_fit_equals_lbfgs_reference(X, y, k).converged


@pytest.mark.parametrize("k", [2, 3, 5, 8, 12])
def test_random_fits_equal_the_lbfgs_reference(rng, k):
    for n, d, scale in ((8 * k, 4, 1.0), (30 * k, 12, 5.0)):
        X = rng.normal(scale=scale, size=(n, d))
        y = np.arange(n) % k
        rng.shuffle(y)
        _assert_fit_equals_lbfgs_reference(X, y, k)


def test_stalled_fit_equals_the_lbfgs_reference(monkeypatch):
    # the problem of test_stalled_line_search_is_not_converged
    rng = np.random.default_rng(7)
    X = rng.normal(size=(40, 3))
    y = rng.integers(0, 3, size=40)
    monkeypatch.setattr(tehier.logreg, "_TOLERANCE", 1e-300)
    assert not _assert_fit_equals_lbfgs_reference(X, y, 3).converged


def test_flat_curvature_fit_equals_the_lbfgs_reference(rng, monkeypatch):
    # the problem of test_flat_curvature_pairs_are_skipped
    from conftest import separable_blobs

    monkeypatch.setattr(tehier.logreg, "_L2_STRENGTH", 0.0)
    monkeypatch.setattr(tehier.logreg, "_TOLERANCE", 1e-300)
    X, y = separable_blobs(rng, 30, [(3, 0), (-3, 0), (0, 3)], spread=1.0)
    assert not _assert_fit_equals_lbfgs_reference(X, y, 3).converged
