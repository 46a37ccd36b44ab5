"""Binary soft-margin RBF SVMs trained with SMO, with Platt-calibrated outputs.

SMO solves the dual with maximal-violating-pair working-set selection and
stops when the KKT gap drops below ``_KKT_TOLERANCE``. The kernel
comes from one ``_KernelColumns`` provider per row set. Platt's sigmoid
P(y=1|f) = 1 / (1 + exp(A f + B)) is fitted to the training decision values,
which are read off the final SMO gradient, so it evaluates no further kernel.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateDataError, DimensionError

_FULL_GRAM_LIMIT = 4000
_ROW_CACHE_SIZE = 512
_SNAP = 1e-12
_KKT_TOLERANCE = 1e-3
_MAX_PASSES = 200  # SMO makes at most _MAX_PASSES * n_samples pair updates


@dataclass(frozen=True)
class SvmConfig:
    """Soft-margin cost and RBF width, each finite and positive."""

    C: float = 1.0
    gamma: float = 1.0

    def __post_init__(self):
        for name, value in (("C", self.C), ("gamma", self.gamma)):
            if not 0 < value < np.inf:
                raise ValueError(f"{name} must be finite and positive, got {value}")


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
    """Columns of the Gram matrix of one row set: rows of the full matrix up
    to ``_FULL_GRAM_LIMIT`` rows, otherwise an LRU cache of computed columns;
    a subset of a full Gram gathers its columns into that cache. Columns
    depend only on X and gamma, so one provider serves every binary problem
    on the same rows."""

    def __init__(self, X: np.ndarray, gamma: float, full=None, rows=None):
        self._X = X
        self._gamma = gamma
        if full is None and X.shape[0] <= _FULL_GRAM_LIMIT:
            full = rbf_kernel_matrix(X, X, gamma)
        self._full = full
        self._rows = rows  # X's rows of ``full``; None when they are all of them
        self._cache: OrderedDict[int, np.ndarray] = OrderedDict()

    def subset(self, rows: np.ndarray, X_rows: np.ndarray) -> _KernelColumns:
        """The provider for ``X_rows``, which is ``X[rows]`` for ascending
        rows of this provider's whole row set: it reads the full Gram by row
        index and copies no slice, or, without one, it is built from
        ``X_rows``, so this provider's cache never fills."""
        if self._full is None:
            return _KernelColumns(X_rows, self._gamma)
        return _KernelColumns(
            X_rows, self._gamma, self._full, rows if len(rows) < len(self._full) else None
        )

    def column(self, i: int) -> np.ndarray:
        full, rows = self._full, self._rows
        if full is not None and rows is None:
            return full[i]  # symmetric, and rows are contiguous
        cached = self._cache.get(i)
        if cached is not None:
            self._cache.move_to_end(i)
            return cached
        if full is None:
            col = rbf_kernel_matrix(self._X, self._X[i : i + 1], self._gamma)[:, 0]
        else:
            col = full[rows[i]].take(rows)  # the elements K[np.ix_(rows, rows)][i]
        self._cache[i] = col
        if len(self._cache) > _ROW_CACHE_SIZE:
            self._cache.popitem(last=False)
        return col


@dataclass
class BinarySvmModel:
    """k soft-margin RBF SVMs of one width over shared support vectors.

    ``dual_coef`` is (n_sv, k), column c holding alpha*y of SVM c (0 where
    SVM c does not use the vector); ``bias``, ``platt_a``, ``platt_b`` and
    ``converged`` have length k. Outputs are (n_samples, k).
    """

    support_vectors: np.ndarray
    dual_coef: np.ndarray
    bias: np.ndarray
    gamma: float
    platt_a: np.ndarray
    platt_b: np.ndarray
    converged: np.ndarray

    def decision_function(self, X: np.ndarray) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        if X.shape[1] != self.support_vectors.shape[1]:
            raise DimensionError(
                f"input has {X.shape[1]} features, model expects "
                f"{self.support_vectors.shape[1]}"
            )
        K = rbf_kernel_matrix(X, self.support_vectors, self.gamma)
        return K @ self.dual_coef + self.bias

    def predict_proba_positive(self, X: np.ndarray) -> np.ndarray:
        return platt_probability(self.decision_function(X), self.platt_a, self.platt_b)


@dataclass
class SvmSolve(BinarySvmModel):
    """A bank of one SVM as SMO and Platt left it at some C, with the two
    facts of its SMO run (``smo_solve``) that decide whether it is also the
    solve at a larger C."""

    clipped: bool
    least_kept: float

    def exact_at(self, C: float) -> bool:
        """Whether this solve is bit for bit the one at ``C``, which is at
        least the C it was solved at, on the same kernel and labels."""
        # The exact C-path rule. C enters an SMO run only through the step's
        # C term (C - alpha), the snap of alpha to 0 below _SNAP * C, its clip
        # to C above C * (1 - _SNAP), and the I_up / I_low tests against C.
        # Where the C term binds, the step lands alpha at C, above the clip;
        # so in a run that clipped nothing it never bound, and at a larger C
        # it is larger still: every step has the same length. Every kept
        # alpha was at most C * (1 - _SNAP), below the larger clip and below
        # C, so the index sets agree. An alpha snapped to 0 stays snapped, as
        # _SNAP * C only grows; one kept stays kept when it is not below
        # _SNAP * C at the larger C, the comparison smo_solve makes there. So
        # every branch goes the same way: the run takes the same steps to the
        # same alpha, bias and gradient, and Platt fits the same (A, B).
        return not self.clipped and not self.least_kept < _SNAP * C


def smo_solve(column, y: np.ndarray, C: float, tol: float, max_iter: int):
    """SMO on +1/-1 labels ``y``; ``column(i)`` is column i of the kernel.

    Returns (alpha, bias, converged, grad, clipped, least_kept): grad is
    Q alpha - 1 at alpha, ``clipped`` whether any alpha was clipped to C, and
    ``least_kept`` the smallest alpha kept above the zero snap (inf if none).
    """
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
    converged = clipped = False
    least_kept = inf
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
            new_i, clipped = C, True
        elif new_i < least_kept:
            least_kept = new_i
        if new_j < to_zero:
            new_j = 0.0
        elif new_j > to_c:
            new_j, clipped = C, True
        elif new_j < least_kept:
            least_kept = new_j
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
    return np.array(alpha), bias, converged, -y * v, clipped, least_kept


def train_binary_svm(
    X: np.ndarray, y: np.ndarray, config: SvmConfig, columns: _KernelColumns | None = None
) -> SvmSolve:
    """A bank of one SVM, trained by SMO and Platt-calibrated, with the facts
    of its run (``SvmSolve``).

    ``y`` holds +1/-1 labels, both present; any other label raises
    DimensionError. ``columns`` is a kernel provider for this ``X`` and
    ``config.gamma``; by default one is built here.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] != y.shape[0]:
        raise DimensionError(f"X has shape {X.shape} but y has {y.shape[0]} labels")
    bad = np.flatnonzero(np.abs(y) != 1.0)
    if bad.size:
        raise DimensionError(f"label {y[bad[0]]:g} at row {bad[0]} is not +1 or -1")
    if X.shape[0] < 2 or (y > 0).all() or (y < 0).all():
        raise DegenerateDataError("binary SVM training needs both classes present")

    if columns is None:
        columns = _KernelColumns(X, config.gamma)
    alpha, bias, converged, grad, clipped, least_kept = smo_solve(
        columns.column, y, config.C, _KKT_TOLERANCE, _MAX_PASSES * X.shape[0]
    )
    # f(x_k) = sum_l alpha_l y_l K_kl + b, and grad_k = y_k sum_l alpha_l y_l K_kl - 1
    a, b = platt_calibrate(y * (grad + 1.0) + bias, y)

    keep = alpha > 0.0
    return SvmSolve(
        support_vectors=X[keep],
        dual_coef=(alpha[keep] * y[keep])[:, None],
        bias=np.array([bias]),
        gamma=config.gamma,
        platt_a=np.array([a]),
        platt_b=np.array([b]),
        converged=np.array([converged]),
        clipped=clipped,
        least_kept=least_kept,
    )


def platt_calibrate(decision_values, labels) -> tuple[float, float]:
    """Sigmoid parameters (A, B) by maximum likelihood on the smoothed targets
    (N+ + 1)/(N+ + 2) and 1/(N- + 2), by a ridged Newton iteration with
    backtracking that also fits perfectly separated inputs."""
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
        """The loss at (a, b), with z = a f + b and exp(-|z|) for the sigmoid."""
        z = a * f + b
        e = np.exp(-np.abs(z))
        # log(1 + exp(z)) = max(z, 0) + log1p(exp(-|z|)), which cannot overflow
        softplus = np.where(z >= 0, z, 0.0) + np.log1p(e)
        return float(np.sum(t * z + softplus - z)), z, e

    sigma = 1e-12
    a, b = 0.0, np.log((n_neg + 1.0) / (n_pos + 1.0))
    fval, z, e = objective(a, b)
    ff = f * f
    for _ in range(100):
        p = np.where(z >= 0, e, 1.0) / (1.0 + e)  # platt_probability(f, a, b)
        d1 = t - p
        d2 = p * (1.0 - p)
        g1 = float(np.dot(f, d1))
        g2 = float(np.sum(d1))
        if abs(g1) < 1e-5 and abs(g2) < 1e-5:
            break
        h11 = float(np.dot(ff, d2)) + sigma
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
            new_f, new_z, new_e = objective(new_a, new_b)
            if new_f < fval + 1e-4 * stepsize * gd:
                a, b, fval, z, e = new_a, new_b, new_f, new_z, new_e
                break
            stepsize /= 2.0
        else:
            break
    return float(a), float(b)


def platt_probability(decision_values, a, b) -> np.ndarray:
    """P(y=1 | f) = 1 / (1 + exp(a*f + b)), elementwise, evaluating only
    exp(-|z|) so that nothing overflows."""
    z = a * np.asarray(decision_values, dtype=np.float64) + b
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, e, 1.0) / (1.0 + e)
