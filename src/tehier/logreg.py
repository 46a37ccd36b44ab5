"""Multinomial logistic regression (softmax) with an L2 penalty on the
weights, not the bias, fitted by L-BFGS (Nocedal & Wright ch. 7) over the
last 10 curvature pairs with Armijo backtracking from the unit step. A
line search that finds no descent step ends the fit with
``converged=False``.
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


def logreg_loss(weights, bias, X, y_idx, l2_strength):
    """(loss, probs): the mean cross-entropy plus (l2/2)*||W||^2 (bias
    excluded), and the softmax of ``X @ weights + bias`` it was computed from.
    """
    scores = X @ weights + bias
    # the row max as k - 1 elementwise maxima over columns: exact in any
    # order, and far cheaper than max(axis=1) when k is small
    shifted = scores - functools.reduce(np.maximum, scores.T)[:, None]
    e = np.exp(shifted)
    total = e.sum(axis=1)
    nll = np.log(total) - shifted[np.arange(X.shape[0]), y_idx]
    loss = float(nll.mean() + 0.5 * l2_strength * np.sum(weights * weights))
    return loss, e / total[:, None]


def logreg_gradient(weights, X, y_idx, l2_strength, probs):
    """(grad_weights, grad_bias) of ``logreg_loss``, from the softmax
    ``probs`` it returned for these weights; ``probs`` is not modified."""
    n = X.shape[0]
    probs = probs.copy()
    probs[np.arange(n), y_idx] -= 1.0
    grad_w = X.T @ probs / n + l2_strength * weights
    grad_b = probs.mean(axis=0)
    return grad_w, grad_b


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
    true only when the gradient norm fell to ``_TOLERANCE``."""
    X = np.asarray(X, dtype=np.float64)
    y_idx = np.asarray(y_idx, dtype=np.int64)
    if X.ndim != 2 or X.shape[0] != y_idx.shape[0]:
        raise DimensionError(f"X has shape {X.shape} but y has {y_idx.shape[0]} labels")
    if n_classes < 2:
        raise DegenerateDataError("softmax regression needs at least two classes")

    def split(theta):  # the flat vector holds W row by row, then b
        return theta[:-n_classes].reshape(-1, n_classes), theta[-n_classes:]

    def gradient(theta, probs):
        grad_w, grad_b = logreg_gradient(split(theta)[0], X, y_idx, _L2_STRENGTH, probs)
        return np.concatenate([grad_w.ravel(), grad_b])

    theta = np.zeros((X.shape[1] + 1) * n_classes)
    loss, probs = logreg_loss(*split(theta), X, y_idx, _L2_STRENGTH)
    grad = gradient(theta, probs)
    history = deque(maxlen=_MEMORY)  # (s, y, 1 / s.y) pairs, oldest first

    for _ in range(_MAX_ITERATIONS):
        gnorm = float(np.sqrt(grad @ grad))
        if gnorm <= _TOLERANCE:
            break
        direction = _two_loop(grad, history, gnorm)
        slope = float(grad @ direction)  # < 0: H stays positive definite
        # Armijo backtracking from the unit step, halving on each rejection
        step = 1.0
        for _ in range(40):
            new_theta = theta + step * direction
            new_loss, new_probs = logreg_loss(*split(new_theta), X, y_idx, _L2_STRENGTH)
            if new_loss - loss <= _ARMIJO * step * slope:
                break
            step /= 2.0
        else:
            break  # stalled: no descent possible at float precision
        new_grad = gradient(new_theta, new_probs)
        s, y = new_theta - theta, new_grad - grad
        sy = float(s @ y)
        if sy > 0.0:  # keep the inverse-Hessian estimate positive definite
            history.append((s, y, 1.0 / sy))
        theta, loss, grad = new_theta, new_loss, new_grad

    return LogRegModel(*split(theta), converged=float(np.sqrt(grad @ grad)) <= _TOLERANCE)


def _two_loop(grad: np.ndarray, history, gnorm: float) -> np.ndarray:
    """L-BFGS direction -H grad from the curvature pairs; with none, H is the
    identity over ||grad||, so the first trial step has unit length."""
    q = grad.copy()
    alphas = []
    for s, y, rho in reversed(history):
        alpha = rho * float(s @ q)
        q -= alpha * y
        alphas.append(alpha)
    if history:
        s, y, rho = history[-1]
        q *= 1.0 / (rho * float(y @ y))  # s.y / y.y
    else:
        q /= gnorm
    for (s, y, rho), alpha in zip(history, reversed(alphas)):
        q += (alpha - rho * float(y @ q)) * s
    return -q
