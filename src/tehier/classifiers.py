"""Probabilistic multiclass classifiers over integer class ids.

Both base classifiers expose the same contract: fit on feature vectors and
int class ids (a hierarchy's are node ids), then emit a probability
distribution over the local class set (the sorted distinct ids). The type
of the config is the choice of base classifier: an ``SvmConfig`` (the
default) or a ``LogRegConfig``. The SVM flavor reduces one-vs-rest with a
Platt-calibrated binary SVM per class; all of a node's binary SVMs share
one kernel provider (the Gram matrix, or the column cache above the
full-Gram limit), and each fits Platt on the decision values from its SMO
gradient. A two-class node solves one SVM and negates its dual
coefficients, bias and Platt B for class 1, the exact solution of the
flipped problem. A hierarchy passes each node a slice of its training
set's one Gram; on its own, ``fit_multiclass`` builds the node's provider.

A trained node holds one model. Its SVMs are kept only as one bank
(``svm_bank``): a single ``BinarySvmModel`` over the distinct support
vectors of all k SVMs, with an (n_pool, k) dual-coefficient matrix and
length-k bias, Platt (A, B) and ``converged``, so one kernel block and one
matrix product give all of its decision values. Logistic regression is a
single softmax model, a ``LogRegModel``. Single-class data yields a
constant classifier, with no model, so parent nodes with degenerate
subsets still produce a probability.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import DegenerateDataError, DimensionError
from .logreg import LogRegConfig, LogRegModel, train_logreg
from .svm import BinarySvmModel, SvmConfig, _KernelColumns, train_binary_svm

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

    @property
    def kind(self) -> str:
        """The model's name in a model file: "svm", "logreg" or "constant"."""
        if self.model is None:
            return "constant"
        return SVM if isinstance(self.model, BinarySvmModel) else LOGREG

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
    X: np.ndarray,
    y: np.ndarray,
    config: SvmConfig | LogRegConfig = SvmConfig(),
    columns: _KernelColumns | None = None,
) -> MulticlassModel:
    """Train a local classifier; the type of ``config`` chooses the base
    classifier, and any other value raises ValueError.

    Classes are the distinct ids observed in the int array ``y``, sorted; a
    single observed class produces a constant model (``model`` None).
    ``columns`` is an SVM kernel provider for this ``X`` and
    ``config.gamma``, such as a slice of the training set's Gram
    (``_KernelColumns.subset``); by default one is built here. An SVM node
    trains one binary SVM per class and keeps only their bank (``svm_bank``);
    with two classes it trains class 0's and negates its dual coefficients,
    bias and Platt B for class 1, whose probability is then 1 - p.
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
        return MulticlassModel(classes, X.shape[1], train_logreg(X, y_idx, len(classes), config))
    if columns is None:
        columns = _KernelColumns(X, config.gamma)
    if len(classes) == 2:  # class 1's problem is class 0's with the labels flipped
        svm = train_binary_svm(X, np.where(y_idx == 0, 1.0, -1.0), config, columns)
        mirror = replace(svm, dual_coef=-svm.dual_coef, bias=-svm.bias, platt_b=-svm.platt_b)
        binaries = [svm, mirror]
    else:
        binaries = [
            train_binary_svm(X, np.where(y_idx == c, 1.0, -1.0), config, columns)
            for c in range(len(classes))
        ]
    return MulticlassModel(classes, X.shape[1], svm_bank(binaries))
