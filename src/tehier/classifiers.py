"""Probabilistic multiclass classifiers over integer class ids.

``fit_multiclass`` trains a local classifier on feature rows and int class
ids; its ``MulticlassModel`` gives each row a distribution over the sorted
distinct ids. The type of the config chooses the base classifier: an
``SvmConfig`` (one-vs-rest Platt-calibrated RBF SVMs, kept as one bank) or
a ``LogRegConfig`` (softmax regression). A single class gives a constant
model.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateDataError, DimensionError
from .logreg import LogRegConfig, LogRegModel, train_logreg
from .svm import BinarySvmModel, SvmConfig, SvmSolve, _KernelColumns, train_binary_svm

SVM = "svm"
LOGREG = "logreg"

_ZERO_SUM = 1e-12


@dataclass
class MulticlassModel:
    """A fitted local classifier: sorted class ids and the node's model, an
    SVM bank (``svm_bank``), a ``LogRegModel``, or None for a single class."""

    classes: np.ndarray  # sorted distinct class ids
    n_features: int
    model: BinarySvmModel | LogRegModel | None = None

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        """Row-per-sample distributions over self.classes (rows sum to 1)."""
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        if X.shape[1] != self.n_features:
            raise DimensionError(
                f"input has {X.shape[1]} features, model expects {self.n_features}"
            )
        if self.model is None:
            return np.ones((X.shape[0], 1))
        if isinstance(self.model, LogRegModel):
            return self.model.predict_proba(X)
        scores = self.model.predict_proba_positive(X)
        if scores.shape[1] == 1:  # two classes: class 0's SVM, and 1 - p for class 1
            return np.hstack([scores, 1.0 - scores])
        totals = scores.sum(axis=1, keepdims=True)
        degenerate = totals[:, 0] <= _ZERO_SUM
        safe = np.where(totals <= _ZERO_SUM, 1.0, totals)
        probs = scores / safe
        if degenerate.any():
            probs[degenerate] = 1.0 / len(self.classes)
        return probs


def svm_bank(svms: list[BinarySvmModel]) -> BinarySvmModel:
    """One bank of the banks of one in ``svms``, over their pooled support
    vectors; column c is ``svms[c]``'s, 0 where it does not use a vector.

    The pool holds each distinct support vector once, by its bytes, in
    order of first use.
    """
    pool: dict[bytes, int] = {}
    rows = [np.array(pool_rows(m.support_vectors, pool), dtype=np.intp) for m in svms]
    vectors = np.empty((len(pool), svms[0].support_vectors.shape[1]))
    coef = np.zeros((len(pool), len(svms)))
    for c, (m, used) in enumerate(zip(svms, rows)):
        vectors[used] = m.support_vectors
        np.add.at(coef[:, c], used, m.dual_coef[:, 0])  # a vector may recur in one SVM
    return BinarySvmModel(
        support_vectors=vectors,
        dual_coef=coef,
        bias=np.concatenate([m.bias for m in svms]),
        gamma=svms[0].gamma,
        platt_a=np.concatenate([m.platt_a for m in svms]),
        platt_b=np.concatenate([m.platt_b for m in svms]),
        converged=np.concatenate([m.converged for m in svms]),
    )


def pool_rows(vectors: np.ndarray, pool: dict[bytes, int]) -> list[int]:
    """The row of each of ``vectors`` in ``pool``, adding the new ones.

    ``pool`` maps the little-endian float64 bytes of each distinct vector to
    its row, in order of first use.
    """
    rows = np.ascontiguousarray(vectors, dtype="<f8")
    return [pool.setdefault(row.tobytes(), len(pool)) for row in rows]


def fit_multiclass(
    X: np.ndarray,
    y: np.ndarray,
    config: SvmConfig | LogRegConfig = SvmConfig(),
    columns: _KernelColumns | None = None,
    solves: list[SvmSolve | None] | None = None,
) -> MulticlassModel:
    """Train a local classifier on the rows of ``X`` and their int class ids.

    The type of ``config`` chooses the base classifier; any other value
    raises ValueError. Empty data raises DegenerateDataError, and a row
    count other than ``len(y)`` DimensionError. One distinct id gives a
    constant model (``model`` None). ``columns`` is a kernel provider for
    ``X`` and ``config.gamma``; by default one is built. An SVM node keeps
    one bank (``svm_bank``) of its one-vs-rest SVMs; with two classes, of
    class 0's SVM only, as class 1's probability is 1 - p. ``solves``, a
    list, carries those SVMs from a fit of the same rows and kernel at a
    smaller C: each one exact at this C (``SvmSolve.exact_at``) is reused as
    it is, and the list is refilled with this fit's, None for each inexact
    even at this C (one that clipped an alpha), which no larger C can reuse.
    """
    if not isinstance(config, SvmConfig | LogRegConfig):
        raise ValueError(
            f"unknown base classifier config {config!r}; expected an SvmConfig or a LogRegConfig"
        )
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] == 0:
        raise DegenerateDataError("training data must be a nonempty 2-D array")
    if X.shape[0] != len(y):
        raise DimensionError(f"{X.shape[0]} rows but {len(y)} class ids")
    classes, y_idx = np.unique(y, return_inverse=True)
    if len(classes) == 1:
        return MulticlassModel(classes, X.shape[1])
    if isinstance(config, LogRegConfig):
        return MulticlassModel(classes, X.shape[1], train_logreg(X, y_idx, len(classes)))
    if columns is None:
        columns = _KernelColumns(X, config.gamma)
    svms = [
        solves[c] if solves and solves[c] and solves[c].exact_at(config.C)
        else train_binary_svm(X, np.where(y_idx == c, 1.0, -1.0), config, columns)
        for c in range(1 if len(classes) == 2 else len(classes))
    ]
    if solves is not None:  # one inexact at its own C is so at every larger C
        solves[:] = [svm if svm.exact_at(config.C) else None for svm in svms]
    return MulticlassModel(classes, X.shape[1], svm_bank(svms))
