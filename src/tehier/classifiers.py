"""Probabilistic multiclass classifiers over hierarchy labels.

Both base classifiers expose the same contract: fit on labeled feature
vectors, then emit a probability distribution over the local class set
(sorted hierarchy labels). The SVM flavor reduces one-vs-rest with a
Platt-calibrated binary SVM per class; all of a node's binary SVMs share one
kernel provider (the Gram matrix, or the column cache above the full-Gram
limit), and each fits Platt on the decision values from its SMO gradient.
A hierarchy passes each node a slice of its training set's one Gram; on
its own, ``fit_multiclass`` builds the node's provider. To predict, a node
pools the distinct support vectors of its SVMs once (``_svm_bank``), so one
kernel block and one matrix product give all of its decision values.
Logistic regression is a single softmax model. Single-class data yields a
constant classifier so parent nodes with degenerate subsets still produce a
probability.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

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
    binary_models: list[BinarySvmModel] = field(default_factory=list)
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
        scores = self._svm_bank.predict_proba_positive(X)
        totals = scores.sum(axis=1, keepdims=True)
        degenerate = totals[:, 0] <= _ZERO_SUM
        safe = np.where(totals <= _ZERO_SUM, 1.0, totals)
        probs = scores / safe
        if degenerate.any():
            probs[degenerate] = 1.0 / len(self.classes)
        return probs

    @cached_property
    def _svm_bank(self) -> BinarySvmModel:
        """The node's one-vs-rest SVMs as one model over their pooled support
        vectors, so prediction builds one kernel block per node.

        The pool holds each distinct support vector once, by its bytes, in
        order of first use in class order; column c of the (n_pool, k) dual
        coefficients is class c's, 0 where the class does not use a vector.
        Bias and Platt (A, B) are length-k arrays. The bank is derived from
        ``binary_models`` alone, so a loaded model predicts as the trained
        one did, bit for bit.
        """
        binaries = self.binary_models
        pool: dict[bytes, int] = {}
        rows = [np.array(pool_rows(m.support_vectors, pool), dtype=np.intp) for m in binaries]
        vectors = np.empty((len(pool), self.n_features))
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
    observed class produces a constant model regardless of kind. ``columns``
    is an SVM kernel provider for this ``X`` and ``config.gamma``, such as
    a slice of the training set's Gram (``_KernelColumns.subset``); by
    default one is built here.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] == 0:
        raise DegenerateDataError("training data must be a nonempty 2-D array")
    if X.shape[0] != len(labels):
        raise DimensionError(f"{X.shape[0]} rows but {len(labels)} labels")
    classes = sorted(set(labels))
    if len(classes) == 1:
        return MulticlassModel(kind="constant", classes=classes, n_features=X.shape[1])

    if kind == SVM:
        config = config or SvmConfig()
        index = {c: i for i, c in enumerate(classes)}
        y_idx = np.array([index[l] for l in labels])
        if columns is None:
            columns = _KernelColumns(X, config.gamma)
        binaries = [
            train_binary_svm(X, np.where(y_idx == c, 1.0, -1.0), config, columns)
            for c in range(len(classes))
        ]
        return MulticlassModel(
            kind=SVM, classes=classes, n_features=X.shape[1], binary_models=binaries
        )

    if kind == LOGREG:
        config = config or LogRegConfig()
        index = {c: i for i, c in enumerate(classes)}
        y_idx = np.array([index[l] for l in labels])
        model = train_logreg(X, y_idx, len(classes), config)
        return MulticlassModel(
            kind=LOGREG, classes=classes, n_features=X.shape[1], logreg_model=model
        )

    raise ValueError(f"unknown base classifier kind {kind!r}")
