"""Binary soft-margin SVM trained with SMO, plus Platt score calibration.

The dual problem  min 1/2 a'Qa - 1'a  s.t.  y'a = 0, 0 <= a <= C  (with
Q_ij = y_i y_j K_ij and an RBF kernel) is solved by sequential minimal
optimization with maximal-violating-pair working-set selection. Training
stops when the KKT gap m(a) - M(a) drops below the configured tolerance,
which guarantees every sample then satisfies the KKT conditions within that
tolerance once the bias is set to the midpoint of the gap.

The kernel comes from one provider per training set (``_KernelColumns``):
the full Gram matrix up to ``_FULL_GRAM_LIMIT`` rows, otherwise an LRU cache
of columns. A one-vs-rest caller builds it once and shares it across all of
its binary problems, which see the same rows and differ only in labels.
``rbf_kernel_matrix`` takes each squared row norm as one dot product and
builds the kernel in the result's buffer, so a Gram build or a column
holds no other array of the result's size.

Decision values are mapped to probabilities with Platt's sigmoid
P(y=1|f) = 1 / (1 + exp(A f + B)), fitted by smoothed-target maximum
likelihood with a Newton iteration. The training decision values Platt needs
are read off the final SMO gradient, f_k = y_k (grad_k + 1) + b, so fitting
never evaluates a kernel beyond the columns SMO requested.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateDataError, DimensionError

_FULL_GRAM_LIMIT = 4000
_ROW_CACHE_SIZE = 512
_SNAP = 1e-12


@dataclass(frozen=True)
class SvmConfig:
    """Soft-margin cost, RBF width, and SMO stopping controls.

    ``max_passes`` bounds the optimizer at ``max_passes * n_samples`` pair
    updates.
    """

    C: float = 1.0
    gamma: float = 1.0
    kkt_tolerance: float = 1e-3
    max_passes: int = 200

    def __post_init__(self):
        if self.C <= 0:
            raise ValueError(f"C must be positive, got {self.C}")
        if self.gamma <= 0:
            raise ValueError(f"gamma must be positive, got {self.gamma}")
        if self.kkt_tolerance <= 0:
            raise ValueError("kkt_tolerance must be positive")
        if self.max_passes < 1:
            raise ValueError("max_passes must be >= 1")


def rbf_kernel_matrix(X: np.ndarray, Y: np.ndarray, gamma: float) -> np.ndarray:
    """Pairwise RBF kernel, rows of X against rows of Y."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    Y = np.atleast_2d(np.asarray(Y, dtype=np.float64))
    if X.shape[1] != Y.shape[1]:
        raise DimensionError(f"kernel matrices disagree: {X.shape[1]} vs {Y.shape[1]} features")
    # exp(-gamma * max(-2 x.y + |x|^2 + |y|^2, 0)), built in the result's
    # buffer: the squared norms are one dot product per row, and no (n_X, n_Y)
    # or (n, d) temporary is held beside the result
    x_norms = np.einsum("ij,ij->i", X, X)
    y_norms = x_norms if Y is X else np.einsum("ij,ij->i", Y, Y)
    sq = X @ Y.T
    sq *= -2.0
    sq += x_norms[:, None]
    sq += y_norms
    np.maximum(sq, 0.0, out=sq)
    sq *= -gamma
    return np.exp(sq, out=sq)


class _KernelColumns:
    """Column provider for the training Gram matrix of one row set.

    Full matrix when the problem is small, otherwise an LRU cache of
    individual columns. Columns depend only on X and gamma, so one provider
    serves every binary problem on the same rows, and a full Gram also
    serves every subset of its rows (``subset``).
    """

    def __init__(self, X: np.ndarray, gamma: float, full: np.ndarray | None = None):
        self._X = X
        self._gamma = gamma
        if full is None and X.shape[0] <= _FULL_GRAM_LIMIT:
            full = rbf_kernel_matrix(X, X, gamma)
        self._full = full
        self._cache: OrderedDict[int, np.ndarray] = OrderedDict() if full is None else None

    def subset(self, rows: np.ndarray, X_rows: np.ndarray) -> _KernelColumns:
        """The provider for ``X_rows``, which is ``X[rows]`` for ascending rows.

        A full Gram is shared when ``rows`` is every row and sliced,
        ``K[np.ix_(rows, rows)]``, otherwise. Without one (above
        ``_FULL_GRAM_LIMIT``) the rows get a provider of their own, built
        from ``X_rows``, so this provider's cache never fills.
        """
        if self._full is None:
            return _KernelColumns(X_rows, self._gamma)
        full = self._full
        if len(rows) < len(full):
            full = full.take(rows, axis=0).take(rows, axis=1)  # C-contiguous rows
        return _KernelColumns(X_rows, self._gamma, full)

    def column(self, i: int) -> np.ndarray:
        if self._full is not None:
            return self._full[i]  # symmetric, and rows are contiguous
        cached = self._cache.get(i)
        if cached is not None:
            self._cache.move_to_end(i)
            return cached
        col = rbf_kernel_matrix(self._X, self._X[i : i + 1], self._gamma)[:, 0]
        self._cache[i] = col
        if len(self._cache) > _ROW_CACHE_SIZE:
            self._cache.popitem(last=False)
        return col


@dataclass
class BinarySvmModel:
    """Support vectors (alpha > 0 only), dual coefficients alpha*y, bias,
    kernel width, and the Platt sigmoid (A, B).

    Several SVMs of one width can share one model: with ``dual_coef`` of
    shape (n_sv, k) and length-k ``bias``, ``platt_a``, ``platt_b`` and
    ``converged``, every output gains a last axis of k, and the kernel block
    over the support vectors is built once for all k.
    """

    support_vectors: np.ndarray
    dual_coef: np.ndarray
    bias: float | np.ndarray
    gamma: float
    platt_a: float | np.ndarray
    platt_b: float | np.ndarray
    converged: bool | np.ndarray = True

    def decision_function(self, X: np.ndarray) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        if X.shape[1] != self.support_vectors.shape[1]:
            raise DimensionError(
                f"input has {X.shape[1]} features, model expects "
                f"{self.support_vectors.shape[1]}"
            )
        if self.support_vectors.shape[0] == 0:
            return np.full((X.shape[0], *np.shape(self.bias)), self.bias)
        K = rbf_kernel_matrix(X, self.support_vectors, self.gamma)
        return K @ self.dual_coef + self.bias

    def predict_proba_positive(self, X: np.ndarray) -> np.ndarray:
        return platt_probability(self.decision_function(X), self.platt_a, self.platt_b)


def smo_solve(K_columns, y: np.ndarray, C: float, tol: float, max_iter: int):
    """Core SMO loop over a kernel-column provider.

    Returns (alpha, bias, converged, grad), where grad is the dual gradient
    Q alpha - 1 at the returned alpha. ``K_columns`` is either a callable
    i -> column or a _KernelColumns instance.
    """
    column = K_columns.column if hasattr(K_columns, "column") else K_columns
    n = y.shape[0]
    labels = y.tolist()
    alpha = [0.0] * n
    # v = -y * grad, and the optimal bias lies between max v over I_up and
    # min v over I_low. v_up / v_low hold v on those index sets and -inf / +inf
    # elsewhere, and are updated in place. Every index is in at least one set
    # (0 < alpha < C: both; alpha at a bound: one), so v is the finite entry
    # of the two and needs no array of its own. With y = +-1 every update is
    # exact, so this is the same arithmetic as recomputing -y * grad.
    v_up = np.where(y > 0, y, -np.inf)  # grad = -1 at alpha = 0
    v_low = np.where(y < 0, y, np.inf)
    argmax, argmin = v_up.argmax, v_low.argmin
    change, other = np.empty(n), np.empty(n)
    inf = np.inf
    to_zero, to_c = _SNAP * C, C * (1.0 - _SNAP)
    converged = False
    bias = 0.0

    for _ in range(max_iter):
        i = argmax()
        j = argmin()
        v_hi = v_up.item(i)
        v_lo = v_low.item(j)
        if v_hi == -inf or v_lo == inf:
            converged = True  # I_up or I_low is empty
            break
        gap = v_hi - v_lo
        bias = 0.5 * (v_hi + v_lo)
        if gap <= tol:
            converged = True
            break

        col_i = column(i)
        col_j = column(j)
        quad = col_i.item(i) + col_j.item(j) - 2.0 * col_i.item(j)
        if quad <= 1e-12:
            quad = 1e-12

        # feasible step length preserving the box constraints
        a_i, a_j, y_i, y_j = alpha[i], alpha[j], labels[i], labels[j]
        step = min(gap / quad, (C - a_i) if y_i > 0 else a_i, a_j if y_j > 0 else (C - a_j))
        new_i = a_i + y_i * step
        new_j = a_j - y_j * step
        if new_i < to_zero:
            new_i = 0.0
        elif new_i > to_c:
            new_i = C
        if new_j < to_zero:
            new_j = 0.0
        elif new_j > to_c:
            new_j = C
        alpha[i] = new_i
        alpha[j] = new_j

        # grad += y * change  <=>  v -= change
        np.multiply(col_i, y_i * (new_i - a_i), out=change)
        np.multiply(col_j, y_j * (new_j - a_j), out=other)
        change += other
        v_up -= change
        v_low -= change
        # i was in I_up and j in I_low, so those entries hold the new v;
        # then both indices move to the sets their new alphas put them in
        v = v_up.item(i)
        v_up[i] = v if (new_i < C if y_i > 0 else new_i > 0) else -inf
        v_low[i] = v if (new_i > 0 if y_i > 0 else new_i < C) else inf
        v = v_low.item(j)
        v_up[j] = v if (new_j < C if y_j > 0 else new_j > 0) else -inf
        v_low[j] = v if (new_j > 0 if y_j > 0 else new_j < C) else inf
    else:
        # iteration budget exhausted: refresh the bias for the final alphas
        v_hi = v_up.item(argmax())
        v_lo = v_low.item(argmin())
        if v_hi != -inf and v_lo != inf:
            bias = 0.5 * (v_hi + v_lo)

    v = np.where(v_up == -inf, v_low, v_up)
    return np.array(alpha), bias, converged, -y * v


def train_binary_svm(
    X: np.ndarray, y: np.ndarray, config: SvmConfig, columns: _KernelColumns | None = None
) -> BinarySvmModel:
    """Train a soft-margin RBF SVM with SMO and fit Platt calibration.

    ``y`` holds +1/-1 labels; both classes must be present. ``columns`` is
    a kernel provider built from this ``X`` and ``config.gamma``, shared by
    callers that train several problems on the same rows; by default one is
    built here.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] != y.shape[0]:
        raise DimensionError(f"X has shape {X.shape} but y has {y.shape[0]} labels")
    if X.shape[0] < 2 or (y > 0).all() or (y < 0).all():
        raise DegenerateDataError("binary SVM training needs both classes present")

    if columns is None:
        columns = _KernelColumns(X, config.gamma)
    alpha, bias, converged, grad = smo_solve(
        columns, y, config.C, config.kkt_tolerance, config.max_passes * X.shape[0]
    )
    # f(x_k) = sum_l alpha_l y_l K_kl + b, and grad_k = y_k sum_l alpha_l y_l K_kl - 1
    a, b = platt_calibrate(y * (grad + 1.0) + bias, y)

    keep = alpha > 0.0
    return BinarySvmModel(
        support_vectors=X[keep].copy(),
        dual_coef=(alpha[keep] * y[keep]),
        bias=bias,
        gamma=config.gamma,
        platt_a=a,
        platt_b=b,
        converged=converged,
    )


def platt_calibrate(decision_values, labels) -> tuple[float, float]:
    """Fit sigmoid parameters (A, B) by smoothed-target maximum likelihood.

    Targets are (N+ + 1)/(N+ + 2) for positives and 1/(N- + 2) for negatives;
    the Newton iteration on the cross-entropy objective uses a small ridge
    term and backtracking line search, so it is robust to perfectly
    separated inputs.
    """
    f = np.asarray(decision_values, dtype=np.float64)
    y = np.asarray(labels, dtype=np.float64)
    if f.shape != y.shape or f.ndim != 1:
        raise DimensionError("decision_values and labels must be equal-length vectors")
    n_pos = int((y > 0).sum())
    n_neg = int((y <= 0).sum())
    if n_pos == 0 or n_neg == 0:
        raise DegenerateDataError("Platt calibration needs both classes present")

    hi = (n_pos + 1.0) / (n_pos + 2.0)
    lo = 1.0 / (n_neg + 2.0)
    t = np.where(y > 0, hi, lo)

    def objective(a, b):
        z = a * f + b
        # log(1 + exp(z)) = max(z, 0) + log1p(exp(-|z|)), which cannot overflow
        softplus = np.where(z >= 0, z, 0.0) + np.log1p(np.exp(-np.abs(z)))
        return float(np.sum(t * z + softplus - z))
        # note: -t*log(p) - (1-t)*log(1-p) == t*z + log(1+exp(-z)) == t*z + softplus(z) - z

    sigma = 1e-12
    a, b = 0.0, np.log((n_neg + 1.0) / (n_pos + 1.0))
    fval = objective(a, b)
    for _ in range(100):
        p = _platt_sigmoid(a * f + b)
        d1 = t - p
        d2 = p * (1.0 - p)
        g1 = float(np.dot(f, d1))
        g2 = float(np.sum(d1))
        if abs(g1) < 1e-5 and abs(g2) < 1e-5:
            break
        h11 = float(np.dot(f * f, d2)) + sigma
        h22 = float(np.sum(d2)) + sigma
        h21 = float(np.dot(f, d2))
        det = h11 * h22 - h21 * h21
        da = -(h22 * g1 - h21 * g2) / det
        db = -(-h21 * g1 + h11 * g2) / det
        gd = g1 * da + g2 * db

        stepsize = 1.0
        while stepsize >= 1e-10:
            new_a = a + stepsize * da
            new_b = b + stepsize * db
            new_f = objective(new_a, new_b)
            if new_f < fval + 1e-4 * stepsize * gd:
                a, b, fval = new_a, new_b, new_f
                break
            stepsize /= 2.0
        else:
            break
    return float(a), float(b)


def platt_probability(decision_values, a: float, b: float) -> np.ndarray:
    """P(y=1 | f) = 1 / (1 + exp(a*f + b)), numerically stable."""
    return _platt_sigmoid(a * np.asarray(decision_values, dtype=np.float64) + b)


def _platt_sigmoid(z: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(z)), as exp(-z) / (1 + exp(-z)) where z >= 0.

    Only exp(-|z|) is evaluated, which is exp(-z) on one side and exp(z) on
    the other, so no branch overflows and no warning is printed.
    """
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, e, 1.0) / (1.0 + e)
