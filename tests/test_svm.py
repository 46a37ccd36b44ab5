import tracemalloc
import warnings

import numpy as np
import pytest

from tehier import DegenerateDataError, DimensionError, SvmConfig, train_binary_svm
import tehier.svm
from tehier.svm import (
    _KernelColumns,
    platt_calibrate,
    platt_probability,
    rbf_kernel_matrix,
    smo_solve,
)

from oracles import (
    dual_objective,
    kkt_violations,
    platt_calibrate_reference,
    platt_probability_reference,
    projected_gradient_qp,
    rbf_kernel,
    rbf_kernel_matrix_reference,
    smo_inplace_reference,
    smo_reference,
)


def blob_pair(rng, n_per_class, separation=2.0, dim=2, spread=0.4):
    X = np.vstack(
        [
            rng.normal(0, spread, (n_per_class, dim)) + separation / 2,
            rng.normal(0, spread, (n_per_class, dim)) - separation / 2,
        ]
    )
    y = np.array([1.0] * n_per_class + [-1.0] * n_per_class)
    return X, y


def test_rbf_kernel_identity():
    x = np.array([0.3, 0.7, 0.1])
    assert rbf_kernel(x, x, gamma=2.5) == 1.0


def test_rbf_kernel_unit_distance():
    x = np.array([0.0, 0.0])
    y = np.array([1.0, 0.0])
    assert rbf_kernel(x, y, gamma=1.0) == pytest.approx(np.exp(-1.0), abs=1e-12)


def test_rbf_kernel_symmetric_random_pairs(rng):
    for _ in range(50):
        x, y = rng.normal(size=(2, 8))
        assert rbf_kernel(x, y, 0.7) == pytest.approx(rbf_kernel(y, x, 0.7), abs=0)


def test_rbf_kernel_dimension_mismatch():
    with pytest.raises(DimensionError):
        rbf_kernel(np.zeros(3), np.zeros(4), 1.0)


def test_rbf_kernel_matrix_matches_reference_bit_for_bit(rng):
    X = rng.normal(size=(60, 9)) * rng.choice([1e-3, 1.0, 30.0], size=(60, 9))
    for A, B in [(X, X), (X[:20], X[5:]), (X[7:8], X)]:
        for gamma in (0.01, 1.0, 64.0):
            got = rbf_kernel_matrix(A, B, gamma).view(np.uint64)
            assert got.tolist() == rbf_kernel_matrix_reference(A, B, gamma).view(np.uint64).tolist()


def test_rbf_kernel_matrix_close_to_direct_differences(rng):
    X = rng.normal(size=(60, 9)) * rng.choice([1e-3, 1.0, 30.0], size=(60, 9))
    for A, B in [(X, X), (X[:20], X[5:]), (X[7:8], X)]:
        # -2 x.y + |x|^2 + |y|^2 cancels: its rounding error scales with the norms
        norms = (A * A).sum(axis=1)[:, None] + (B * B).sum(axis=1)[None, :]
        for gamma in (0.01, 1.0, 64.0):
            direct = np.exp(-gamma * ((A[:, None, :] - B[None, :, :]) ** 2).sum(axis=2))
            error = np.abs(rbf_kernel_matrix(A, B, gamma) - direct)
            assert (error <= gamma * 8 * np.finfo(float).eps * norms + 1e-15).all()
    assert np.abs(np.diag(rbf_kernel_matrix(X, X, 0.01)) - 1.0).max() <= 1e-12


def test_rbf_kernel_matrix_peak_is_the_result_plus_rows(rng):
    X = rng.normal(size=(600, 40))
    tracemalloc.start()
    try:
        K = rbf_kernel_matrix(X, X, 0.5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the result, plus a few arrays of n or n x d values: no (n, n) temporary
    assert peak <= K.nbytes + 4 * X.nbytes


def test_separable_four_points():
    X = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])
    y = np.array([1.0, 1.0, -1.0, -1.0])
    model = train_binary_svm(X, y, SvmConfig(C=10.0, gamma=1.0))
    assert (np.sign(model.decision_function(X)) == y).all()


def test_kkt_audit_on_random_blobs(rng):
    config = SvmConfig(C=1.0, gamma=1.0, kkt_tolerance=1e-3)
    for trial in range(5):
        X, y = blob_pair(rng, 100, separation=1.0 + trial * 0.3)
        K = rbf_kernel_matrix(X, X, config.gamma)
        alpha, bias, converged, _ = smo_solve(
            _KernelColumns(X, config.gamma), y, config.C, config.kkt_tolerance, 200 * len(y)
        )
        assert converged
        viol = kkt_violations(K, y, alpha, bias, config.C)
        assert viol.max() <= config.kkt_tolerance


def test_dual_coefficient_balance(rng):
    config = SvmConfig(C=2.0, gamma=0.8)
    for _ in range(5):
        X, y = blob_pair(rng, 60, separation=1.2)
        model = train_binary_svm(X, y, config)
        assert abs(model.dual_coef.sum()) < 1e-6  # sum alpha_i y_i == 0
        coefs = np.abs(model.dual_coef)
        assert (coefs > 0).all()  # only alpha > 0 retained
        assert (coefs <= config.C + 1e-12).all()


def test_dual_objective_matches_projected_gradient_oracle(rng):
    config = SvmConfig(C=1.0, gamma=0.9, kkt_tolerance=1e-6)
    for _ in range(6):
        n = int(rng.integers(6, 21))
        X = rng.normal(size=(n, 3))
        y = np.where(rng.random(n) < 0.5, 1.0, -1.0)
        if (y > 0).all() or (y < 0).all():
            y[0] = -y[0]
        model = train_binary_svm(X, y, config)
        K = rbf_kernel_matrix(X, X, config.gamma)
        # recover full alpha by re-solving; equivalently read it off the SVs
        alpha, _, _, _ = smo_solve(_KernelColumns(X, config.gamma), y, config.C, 1e-6, 200 * n)
        smo_obj = dual_objective(K, y, alpha)
        _, pg_obj = projected_gradient_qp(K, y, config.C, iterations=150_000)
        assert smo_obj == pytest.approx(pg_obj, abs=1e-3)


def test_training_is_deterministic(rng):
    X, y = blob_pair(rng, 40)
    config = SvmConfig(C=1.0, gamma=1.0)
    m1 = train_binary_svm(X, y, config)
    m2 = train_binary_svm(X, y, config)
    assert np.array_equal(m1.dual_coef, m2.dual_coef)
    assert np.array_equal(m1.support_vectors, m2.support_vectors)
    assert m1.bias == m2.bias
    assert (m1.platt_a, m1.platt_b) == (m2.platt_a, m2.platt_b)


def test_duplicated_dataset_keeps_decision_function(rng):
    # duplication is equivalent to doubling C, so the optimum is unchanged
    # as long as no alpha is pinned at the box bound (cleanly separable data)
    X, y = blob_pair(rng, 12, separation=3.0, spread=0.3)
    config = SvmConfig(C=10.0, gamma=0.5, kkt_tolerance=1e-6)
    base = train_binary_svm(X, y, config)
    assert np.abs(base.dual_coef).max() < config.C * 0.99  # precondition: free SVs only
    doubled = train_binary_svm(np.vstack([X, X]), np.concatenate([y, y]), config)
    grid = np.random.default_rng(0).normal(size=(40, 2))
    assert np.allclose(base.decision_function(grid), doubled.decision_function(grid), atol=1e-3)


def _assert_matches_reference(provider, y, C, tol, max_iter):
    """smo_solve equals both oracles bit for bit; the in-place one also on grad,
    which Platt reads its decision values from."""
    alpha, bias, converged, grad = smo_solve(provider, y, C, tol, max_iter)
    ref_alpha, ref_bias, ref_converged = smo_reference(provider, y, C, tol, max_iter)
    assert np.array_equal(alpha, ref_alpha)
    assert bias == ref_bias
    assert converged == ref_converged
    in_place = smo_inplace_reference(provider, y, C, tol, max_iter)
    assert alpha.view(np.uint64).tolist() == in_place[0].view(np.uint64).tolist()
    assert (bias, converged) == in_place[1:3] and type(bias) is float
    assert grad.view(np.uint64).tolist() == in_place[3].view(np.uint64).tolist()
    return alpha, converged


def test_smo_matches_reference_bit_for_bit(rng):
    for trial in range(8):
        n_pos, n_neg = int(rng.integers(20, 80)), int(rng.integers(20, 80))
        X = np.vstack(
            [rng.normal(0.5, 0.6, (n_pos, 3)), rng.normal(-0.5, 0.6, (n_neg, 3))]
        )
        y = np.array([1.0] * n_pos + [-1.0] * n_neg)
        order = rng.permutation(len(y))
        X, y = X[order], y[order]
        gamma = float(rng.choice([0.3, 1.0, 4.0]))
        C = float(rng.choice([0.5, 2.0, 16.0]))
        _, converged = _assert_matches_reference(
            _KernelColumns(X, gamma), y, C, 1e-3, 200 * len(y)
        )
        assert converged


@pytest.mark.parametrize("C", [0.5, 16.0, 256.0])
def test_smo_matches_in_place_oracle_on_random_blobs(rng, C):
    for _ in range(4):
        X, y = blob_pair(rng, int(rng.integers(20, 60)), separation=float(rng.uniform(0.5, 2.0)))
        order = rng.permutation(len(y))
        _assert_matches_reference(_KernelColumns(X[order], 2.0), y[order], C, 1e-3, 200 * len(y))


def test_smo_matches_reference_with_snapped_alphas(rng, monkeypatch):
    import oracles

    # a snap threshold of 1e-3 * C makes snapping to 0 common; these
    # separable blobs keep every alpha far below C = 100
    X, y = blob_pair(rng, 40, separation=2.0)
    provider = _KernelColumns(X, 1.0)
    default = smo_solve(provider, y, 100.0, 1e-3, 4000)[0]
    monkeypatch.setattr(tehier.svm, "_SNAP", 1e-3)
    monkeypatch.setattr(oracles, "_SNAP", 1e-3)
    snapped, _ = _assert_matches_reference(provider, y, 100.0, 1e-3, 4000)
    assert not np.array_equal(snapped, default) and snapped.max() < 50.0
    monkeypatch.undo()

    # two orthogonal points: the first step is 1.0, which only the snap to C
    # turns into C
    C = 1.0 + 1e-13
    alpha, _ = _assert_matches_reference(lambda i: np.eye(2)[i], np.array([1.0, -1.0]), C, 1e-3, 10)
    assert alpha.tolist() == [C, C]


def test_smo_matches_reference_on_exactly_tied_values(rng):
    # every row and column twice: twins have the same v bit for bit, so the
    # pair selection keeps meeting ties that argmax / argmin break by index
    X, y = blob_pair(rng, 15, separation=0.8, spread=0.6)
    twice = np.repeat(np.arange(len(y)), 2)
    K = rbf_kernel_matrix(X, X, 1.0)[np.ix_(twice, twice)]
    alpha, _ = _assert_matches_reference(lambda i: K[i], y[twice], 4.0, 1e-4, 200 * len(twice))
    _, _, _, grad = smo_solve(lambda i: K[i], y[twice], 4.0, 1e-4, 200 * len(twice))
    assert np.array_equal(grad[0::2], grad[1::2])


def test_smo_matches_reference_with_alphas_at_c(rng):
    X, y = blob_pair(rng, 60, separation=0.5, spread=0.8)
    C = 0.1
    alpha, _ = _assert_matches_reference(_KernelColumns(X, 1.0), y, C, 1e-3, 200 * len(y))
    assert (alpha == C).sum() > 10  # precondition: many alphas pinned at the box bound


def test_smo_matches_reference_when_budget_runs_out(rng):
    X, y = blob_pair(rng, 50, separation=1.0)
    _, converged = _assert_matches_reference(_KernelColumns(X, 1.0), y, 1.0, 1e-3, 5)
    assert not converged


def test_smo_matches_reference_on_plain_callable(rng):
    X, y = blob_pair(rng, 40, separation=1.2)
    K = rbf_kernel_matrix(X, X, 0.7)
    _assert_matches_reference(lambda i: K[i], y, 2.0, 1e-4, 200 * len(y))


def test_smo_matches_reference_on_column_cache(rng, monkeypatch):
    monkeypatch.setattr(tehier.svm, "_FULL_GRAM_LIMIT", 10)
    X, y = blob_pair(rng, 40, separation=1.2)
    _assert_matches_reference(_KernelColumns(X, 0.7), y, 2.0, 1e-3, 200 * len(y))


def test_subset_slices_the_training_set_gram(rng, monkeypatch):
    X = rng.normal(size=(30, 3))
    K = rbf_kernel_matrix(X, X, 0.7)
    root = _KernelColumns(X, 0.7)
    rows = np.flatnonzero(rng.random(30) < 0.5)
    sliced = root.subset(rows, X[rows])
    for i in range(len(rows)):
        assert np.array_equal(sliced.column(i), K[np.ix_(rows, rows)][i])
    every = root.subset(np.arange(30), X)
    assert all(np.array_equal(every.column(i), K[i]) for i in range(30))

    # above the full-Gram limit the rows get a cache of their own
    monkeypatch.setattr(tehier.svm, "_FULL_GRAM_LIMIT", 10)
    root = _KernelColumns(X, 0.7)
    own = root.subset(rows, X[rows])
    for i in range(len(rows)):
        expected = rbf_kernel_matrix(X[rows], X[rows][i : i + 1], 0.7)[:, 0]
        assert np.array_equal(own.column(i), expected)
    assert not root._cache


@pytest.mark.parametrize(
    "tol, max_passes, converges", [(1e-3, 200, True), (1e-12, 1, False)]
)
def test_platt_inputs_from_gradient_match_decision_function(
    rng, monkeypatch, tol, max_passes, converges
):
    captured = []

    def capture(values, labels):
        captured.append(np.array(values))
        return platt_calibrate(values, labels)

    monkeypatch.setattr(tehier.svm, "platt_calibrate", capture)
    X, y = blob_pair(rng, 60, separation=0.8, spread=0.6)
    model = train_binary_svm(X, y, SvmConfig(C=4.0, gamma=2.0, kkt_tolerance=tol,
                                             max_passes=max_passes))
    assert model.converged == converges
    (from_gradient,) = captured
    assert np.allclose(from_gradient, model.decision_function(X), rtol=0, atol=1e-9)


def test_single_class_rejected():
    X = np.zeros((4, 2))
    with pytest.raises(DegenerateDataError):
        train_binary_svm(X, np.ones(4), SvmConfig())


# -- Platt calibration -----------------------------------------------------


def test_platt_monotone_on_separated_values():
    f = np.array([-2.0, -1.0, 1.0, 2.0])
    y = np.array([-1.0, -1.0, 1.0, 1.0])
    a, b = platt_calibrate(f, y)
    probs = platt_probability(f, a, b)
    assert probs[3] > probs[0]
    assert (np.diff(probs) >= 0).all()


def test_platt_symmetric_data_centers_at_half(rng):
    f = rng.normal(size=40)
    values = np.concatenate([f, -f])
    labels = np.concatenate([np.ones(40), -np.ones(40)])
    a, b = platt_calibrate(values, labels)
    assert platt_probability(np.array([0.0]), a, b)[0] == pytest.approx(0.5, abs=1e-6)


def test_platt_beats_random_probes(rng):
    n = 60
    f = np.concatenate([rng.normal(1.2, 0.7, n), rng.normal(-1.2, 0.7, n)])
    y = np.concatenate([np.ones(n), -np.ones(n)])
    a_fit, b_fit = platt_calibrate(f, y)

    n_pos = n_neg = n
    hi = (n_pos + 1.0) / (n_pos + 2.0)
    lo = 1.0 / (n_neg + 2.0)
    t = np.where(y > 0, hi, lo)

    def nll(a, b):
        p = np.clip(platt_probability(f, a, b), 1e-12, 1 - 1e-12)
        return -(t * np.log(p) + (1 - t) * np.log(1 - p)).sum()

    fitted = nll(a_fit, b_fit)
    for _ in range(100):
        a, b = rng.normal(scale=3.0, size=2)
        assert fitted <= nll(a, b) + 1e-9


def test_platt_single_class_rejected():
    with pytest.raises(DegenerateDataError):
        platt_calibrate(np.array([1.0, 2.0]), np.array([1.0, 1.0]))


def test_platt_large_decision_values_raise_no_overflow_warning():
    # separated values far apart drive |a * f + b| past log(DBL_MAX) ~ 709
    f = np.array([-900.0, -800.0, -2.0, 3.0, 800.0, 1000.0])
    y = np.array([-1.0, -1.0, -1.0, 1.0, 1.0, 1.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        a, b = platt_calibrate(f, y)
        probs = platt_probability(np.array([-1e6, -800.0, 0.0, 800.0, 1e6]), 1.0, 0.5)
    assert np.isfinite([a, b]).all()
    assert probs[0] == 1.0 and probs[-1] == 0.0
    assert (np.diff(probs) <= 0).all()


def test_platt_bit_identical_to_both_branch_expressions(rng):
    for n, scale in [(40, 1.0), (200, 3.0), (15, 0.2)]:
        f = np.concatenate([rng.normal(scale, 1.0, n), rng.normal(-scale, 1.0, n)])
        y = np.concatenate([np.ones(n), -np.ones(n)])
        y[rng.random(2 * n) < 0.1] *= -1.0  # some overlap, so (A, B) stay moderate
        a, b = platt_calibrate(f, y)
        assert (a, b) == platt_calibrate_reference(f, y)
        probe = rng.normal(0.0, 50.0, 500)
        assert np.array_equal(
            platt_probability(probe, a, b).view(np.uint64),
            platt_probability_reference(probe, a, b).view(np.uint64),
        )
