"""Multinomial logistic regression (softmax) with an L2 penalty on the
weights, not the bias, fitted by L-BFGS (Nocedal & Wright ch. 7) over the
last 10 curvature pairs with Armijo backtracking from the unit step. A
line search that finds no descent step ends the fit with
``converged=False``. The fit builds the flat index of each row's true class
once, and the gradient is written straight into the flat parameter layout
the iterates use: W row by row, then b.
"""

from __future__ import annotations

import functools
from collections import deque
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateDataError, DimensionError

_MEMORY = 10  # L-BFGS curvature pairs kept
_ARMIJO = 1e-4  # sufficient-decrease constant c1
_L2_STRENGTH = 1e-4
_MAX_ITERATIONS = 500
_TOLERANCE = 1e-6  # on the gradient norm


@dataclass(frozen=True)
class LogRegConfig:
    """Chooses softmax regression as the base classifier; it has no settings."""


def softmax(scores: np.ndarray) -> np.ndarray:
    """Row-wise softmax, stable under large scores."""
    shifted = scores - scores.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def logreg_loss(weights, bias, X, target, l2_strength):
    """(loss, probs): the mean cross-entropy plus (l2/2)*||W||^2 (bias
    excluded), and the softmax of ``X @ weights + bias`` it was computed from.
    ``target`` indexes each row's true class in the flattened (n, k) scores:
    ``row * k + class``.
    """
    scores = X @ weights
    scores += bias
    # the row max as k - 1 elementwise maxima over columns: exact in any
    # order, and far cheaper than max(axis=1) when k is small
    scores -= functools.reduce(np.maximum, scores.T)[:, None]
    true_scores = scores.ravel()[target]
    e = np.exp(scores, out=scores)
    total = np.add.reduce(e, axis=1)
    nll = np.log(total)
    nll -= true_scores
    penalty = 0.5 * l2_strength * np.add.reduce(weights * weights, axis=None)
    loss = float(np.add.reduce(nll) / X.shape[0] + penalty)
    e /= total[:, None]
    return loss, e


def logreg_gradient(weights, X, target, l2_strength, probs):
    """The gradient of ``logreg_loss`` as one flat vector, W row by row then b,
    from the softmax ``probs`` it returned for these weights (``target`` as
    there); ``probs`` is not modified."""
    n, k = probs.shape
    residual = probs.copy()
    residual.ravel()[target] -= 1.0
    grad = np.empty(weights.size + k)
    grad_w = np.matmul(X.T, residual, out=grad[:-k].reshape(weights.shape))
    grad_w /= n
    grad_w += l2_strength * weights
    grad_b = np.add.reduce(residual, axis=0, out=grad[-k:])
    grad_b /= n
    return grad


@dataclass
class LogRegModel:
    weights: np.ndarray  # (n_features, n_classes)
    bias: np.ndarray  # (n_classes,)
    converged: bool = True

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        if X.shape[1] != self.weights.shape[0]:
            raise DimensionError(
                f"input has {X.shape[1]} features, model expects {self.weights.shape[0]}"
            )
        return softmax(X @ self.weights + self.bias)


def train_logreg(X: np.ndarray, y_idx: np.ndarray, n_classes: int) -> LogRegModel:
    """Softmax regression on class indices 0..n_classes-1; ``converged`` is
    true only when the gradient norm fell to ``_TOLERANCE``. An index that
    is not a whole number in that range raises DimensionError."""
    X = np.asarray(X, dtype=np.float64)
    given = np.asarray(y_idx, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] != given.shape[0]:
        raise DimensionError(f"X has shape {X.shape} but y has {given.shape[0]} labels")
    if n_classes < 2:
        raise DegenerateDataError("softmax regression needs at least two classes")
    bad = np.flatnonzero(~((given >= 0) & (given < n_classes) & (np.trunc(given) == given)))
    if bad.size:
        raise DimensionError(
            f"class index {given[bad[0]]:g} at row {bad[0]} is not a whole number "
            f"in 0..{n_classes - 1} for n_classes={n_classes}"
        )
    y_idx = given.astype(np.int64)
    n, d = X.shape
    target = np.arange(n) * n_classes + y_idx  # each row's true class, flat

    def split(theta):  # the flat vector holds W row by row, then b
        return theta[:-n_classes].reshape(d, n_classes), theta[-n_classes:]

    theta = np.zeros((d + 1) * n_classes)
    weights, bias = split(theta)
    loss, probs = logreg_loss(weights, bias, X, target, _L2_STRENGTH)
    grad = logreg_gradient(weights, X, target, _L2_STRENGTH, probs)
    history = deque(maxlen=_MEMORY)  # (s, y, 1 / s.y) pairs, oldest first

    for _ in range(_MAX_ITERATIONS):
        # ndarray.dot on vectors is the BLAS dot that @ calls, with less overhead
        gnorm = float(np.sqrt(grad.dot(grad)))
        if gnorm <= _TOLERANCE:
            break
        direction = _two_loop(grad, history, gnorm)
        slope = float(grad.dot(direction))  # < 0: H stays positive definite
        # Armijo backtracking from the unit step, halving on each rejection
        step = 1.0
        for _ in range(40):
            new_theta = theta + step * direction
            weights, bias = split(new_theta)
            new_loss, new_probs = logreg_loss(weights, bias, X, target, _L2_STRENGTH)
            if new_loss - loss <= _ARMIJO * step * slope:
                break
            step /= 2.0
        else:
            break  # stalled: no descent possible at float precision
        new_grad = logreg_gradient(weights, X, target, _L2_STRENGTH, new_probs)
        s, y = new_theta - theta, new_grad - grad
        sy = float(s.dot(y))
        if sy > 0.0:  # keep the inverse-Hessian estimate positive definite
            history.append((s, y, 1.0 / sy))
        theta, loss, grad = new_theta, new_loss, new_grad

    return LogRegModel(*split(theta), converged=float(np.sqrt(grad.dot(grad))) <= _TOLERANCE)


def _two_loop(grad: np.ndarray, history, gnorm: float) -> np.ndarray:
    """L-BFGS direction -H grad from the curvature pairs; with none, H is the
    identity over ||grad||, so the first trial step has unit length."""
    q = grad.copy()
    alphas = []
    for s, y, rho in reversed(history):
        alpha = rho * float(s.dot(q))
        q -= alpha * y
        alphas.append(alpha)
    if history:
        s, y, rho = history[-1]
        q *= 1.0 / (rho * float(y.dot(y)))  # s.y / y.y
    else:
        q /= gnorm
    for (s, y, rho), alpha in zip(history, reversed(alphas)):
        q += (alpha - rho * float(y.dot(q))) * s
    return -q
