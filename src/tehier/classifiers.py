"""Probabilistic multiclass classifiers over hierarchy labels.

Both base classifiers expose the same contract: fit on labeled feature
vectors, then emit a probability distribution over the local class set
(sorted hierarchy labels). The SVM flavor reduces one-vs-rest with a
Platt-calibrated binary SVM per class; all of a node's binary SVMs share one
kernel provider (the Gram matrix, or the column cache above the full-Gram
limit), and each fits Platt on the decision values from its SMO gradient.
A hierarchy passes each node a slice of its training set's one Gram; on
its own, ``fit_multiclass`` builds the node's provider. Once trained, a
node's SVMs are kept only as one bank (``svm_bank``): a single
``BinarySvmModel`` over the distinct support vectors of all k SVMs, with an
(n_pool, k) dual-coefficient matrix and length-k bias, Platt (A, B) and
``converged``, so one kernel block and one matrix product give all of its
decision values.
Logistic regression is a single softmax model. Single-class data yields a
constant classifier so parent nodes with degenerate subsets still produce a
probability.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateDataError, DimensionError
from .labels import HierLabel
from .logreg import LogRegConfig, LogRegModel, train_logreg
from .svm import BinarySvmModel, SvmConfig, _KernelColumns, train_binary_svm

SVM = "svm"
LOGREG = "logreg"

_ZERO_SUM = 1e-12


@dataclass
class MulticlassModel:
    """A fitted local classifier: sorted class list plus kind-specific state."""

    kind: str  # "svm", "logreg", or "constant"
    classes: list[HierLabel]
    n_features: int
    svm: BinarySvmModel | None = None  # the node bank (``svm_bank``)
    logreg_model: LogRegModel | None = None

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        """Row-per-sample distributions over self.classes (rows sum to 1)."""
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        if X.shape[1] != self.n_features:
            raise DimensionError(
                f"input has {X.shape[1]} features, model expects {self.n_features}"
            )
        if self.kind == "constant":
            out = np.zeros((X.shape[0], 1))
            out[:, 0] = 1.0
            return out
        if self.kind == LOGREG:
            return self.logreg_model.predict_proba(X)
        scores = self.svm.predict_proba_positive(X)
        totals = scores.sum(axis=1, keepdims=True)
        degenerate = totals[:, 0] <= _ZERO_SUM
        safe = np.where(totals <= _ZERO_SUM, 1.0, totals)
        probs = scores / safe
        if degenerate.any():
            probs[degenerate] = 1.0 / len(self.classes)
        return probs


def svm_bank(binaries: list[BinarySvmModel]) -> BinarySvmModel:
    """A node's one-vs-rest SVMs as one model over their pooled support
    vectors, so prediction builds one kernel block per node.

    The pool holds each distinct support vector once, by its bytes, in
    order of first use in class order; column c of the (n_pool, k) dual
    coefficients is class c's, 0 where the class does not use a vector.
    Bias, Platt (A, B) and ``converged`` are length-k arrays.
    """
    pool: dict[bytes, int] = {}
    rows = [np.array(pool_rows(m.support_vectors, pool), dtype=np.intp) for m in binaries]
    vectors = np.empty((len(pool), binaries[0].support_vectors.shape[1]))
    coef = np.zeros((len(pool), len(binaries)))
    for c, (m, used) in enumerate(zip(binaries, rows)):
        vectors[used] = m.support_vectors
        np.add.at(coef[:, c], used, m.dual_coef)  # a vector may recur in one SVM
    return BinarySvmModel(
        support_vectors=vectors,
        dual_coef=coef,
        bias=np.array([m.bias for m in binaries]),
        gamma=binaries[0].gamma,
        platt_a=np.array([m.platt_a for m in binaries]),
        platt_b=np.array([m.platt_b for m in binaries]),
        converged=np.array([m.converged for m in binaries]),
    )


def pool_rows(vectors: np.ndarray, pool: dict[bytes, int]) -> list[int]:
    """The row of each of ``vectors`` in ``pool``, adding the new ones.

    ``pool`` maps the little-endian float64 bytes of each distinct vector to
    its row, in order of first use.
    """
    rows = np.ascontiguousarray(vectors, dtype="<f8")
    return [pool.setdefault(row.tobytes(), len(pool)) for row in rows]


def fit_multiclass(
    kind: str,
    X: np.ndarray,
    labels: list[HierLabel],
    config: SvmConfig | LogRegConfig | None = None,
    columns: _KernelColumns | None = None,
) -> MulticlassModel:
    """Train a local classifier of the requested kind.

    Classes are the distinct labels observed in ``labels``, sorted; a single
    observed class produces a constant model of either kind. ``columns``
    is an SVM kernel provider for this ``X`` and ``config.gamma``, such as
    a slice of the training set's Gram (``_KernelColumns.subset``); by
    default one is built here. An SVM node trains one binary SVM per class
    and keeps only their bank (``svm_bank``).
    """
    if kind not in (SVM, LOGREG):
        raise ValueError(f"unknown base classifier kind {kind!r}")
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] == 0:
        raise DegenerateDataError("training data must be a nonempty 2-D array")
    if X.shape[0] != len(labels):
        raise DimensionError(f"{X.shape[0]} rows but {len(labels)} labels")
    classes = sorted(set(labels))
    if len(classes) == 1:
        return MulticlassModel(kind="constant", classes=classes, n_features=X.shape[1])
    index = {c: i for i, c in enumerate(classes)}
    y_idx = np.array([index[l] for l in labels])

    if kind == LOGREG:
        model = train_logreg(X, y_idx, len(classes), config or LogRegConfig())
        return MulticlassModel(LOGREG, classes, X.shape[1], logreg_model=model)
    config = config or SvmConfig()
    if columns is None:
        columns = _KernelColumns(X, config.gamma)
    binaries = [
        train_binary_svm(X, np.where(y_idx == c, 1.0, -1.0), config, columns)
        for c in range(len(classes))
    ]
    return MulticlassModel(SVM, classes, X.shape[1], svm=svm_bank(binaries))
