"""Multinomial logistic regression (softmax) with L2-regularized weights.

Fitting is plain gradient descent with a backtracking line search, stopped on
the gradient norm or an iteration cap. The bias row is never regularized.
Each line-search trial's loss also yields the softmax of its scores, and
each gradient reuses the softmax of the accepted trial, so an iteration
computes ``X @ W`` and ``exp`` once per trial and ``X.T @ (P - onehot)``
once. A line search that finds no descent step ends the fit with
``converged=False``.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateDataError, DimensionError


@dataclass(frozen=True)
class LogRegConfig:
    l2_strength: float = 1e-4
    learning_rate: float = 1.0
    max_iterations: int = 500
    tolerance: float = 1e-6

    def __post_init__(self):
        if self.l2_strength < 0:
            raise ValueError("l2_strength must be nonnegative")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if self.learning_rate <= 0 or self.tolerance <= 0:
            raise ValueError("learning_rate and tolerance must be positive")


def softmax(scores: np.ndarray) -> np.ndarray:
    """Row-wise softmax, stable under large scores."""
    shifted = scores - scores.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def logreg_loss(weights, bias, X, y_idx, l2_strength, with_probs: bool = False):
    """Mean cross-entropy plus (l2/2)*||W||^2 (bias excluded).

    Returns the loss as a float, or ``(loss, probs)`` with the softmax of
    ``X @ weights + bias`` when ``with_probs`` is set.
    """
    scores = X @ weights + bias
    # the row max as k - 1 elementwise maxima over columns: exact in any
    # order, and far cheaper than max(axis=1) when k is small
    shifted = scores - functools.reduce(np.maximum, scores.T)[:, None]
    e = np.exp(shifted)
    total = e.sum(axis=1)
    nll = np.log(total) - shifted[np.arange(X.shape[0]), y_idx]
    loss = float(nll.mean() + 0.5 * l2_strength * np.sum(weights * weights))
    if with_probs:
        return loss, e / total[:, None]
    return loss


def logreg_gradient(weights, bias, X, y_idx, l2_strength, probs=None):
    """Gradient of logreg_loss: ((P - onehot)'X / N + l2*W, mean(P - onehot)).

    ``probs`` is P, the softmax of ``X @ weights + bias``, when the caller
    already has it (``logreg_loss(..., with_probs=True)``); it is not modified.
    Returns (grad_weights, grad_bias) with the same shapes as (weights, bias).
    """
    n = X.shape[0]
    probs = softmax(X @ weights + bias) if probs is None else probs.copy()
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


def train_logreg(X: np.ndarray, y_idx: np.ndarray, n_classes: int, config: LogRegConfig) -> LogRegModel:
    """Fit softmax regression on class-index targets 0..n_classes-1.

    ``converged`` is true only when the gradient norm fell to the tolerance;
    an exhausted iteration budget or a line search that found no step
    lowering the loss leaves it false.
    """
    X = np.asarray(X, dtype=np.float64)
    y_idx = np.asarray(y_idx, dtype=np.int64)
    if X.ndim != 2 or X.shape[0] != y_idx.shape[0]:
        raise DimensionError(f"X has shape {X.shape} but y has {y_idx.shape[0]} labels")
    if n_classes < 2:
        raise DegenerateDataError("softmax regression needs at least two classes")

    weights = np.zeros((X.shape[1], n_classes))
    bias = np.zeros(n_classes)
    loss, probs = logreg_loss(weights, bias, X, y_idx, config.l2_strength, with_probs=True)
    step = config.learning_rate
    converged = False

    for _ in range(config.max_iterations):
        grad_w, grad_b = logreg_gradient(weights, bias, X, y_idx, config.l2_strength, probs)
        gnorm = float(np.sqrt(np.sum(grad_w * grad_w) + np.sum(grad_b * grad_b)))
        if gnorm <= config.tolerance:
            converged = True
            break
        # backtracking: shrink until the step actually lowers the loss
        accepted = False
        trial = step
        for _ in range(40):
            new_w = weights - trial * grad_w
            new_b = bias - trial * grad_b
            new_loss, new_probs = logreg_loss(
                new_w, new_b, X, y_idx, config.l2_strength, with_probs=True
            )
            if new_loss < loss:
                weights, bias, loss, probs = new_w, new_b, new_loss, new_probs
                accepted = True
                break
            trial /= 2.0
        if not accepted:
            break  # stalled: no descent possible at float precision
        step = trial * 2.0  # let the step grow; backtracking reins it in

    return LogRegModel(weights=weights, bias=bias, converged=converged)
