"""The benchmark's tracer (perfbench/spans.py) wraps tehier functions by name
from outside the package. These tests keep those hooks working: every
wrapped name exists, fitting a node fires each SVM span the benchmark
requires (once per class, or once for a two-class node), on both the
full-Gram and the column-cache path, a logistic regression fit is counted
once per loss and once per gradient, and a cross-validation round fires
every hierarchy, classifier, metrics and label hook the benchmark requires,
also when grid cells and folds are shared with a worker process."""

import multiprocessing
import os
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import tehier.gridsearch  # noqa: E402
import tehier.metrics  # noqa: E402
import tehier.svm  # noqa: E402
from perfbench.spans import REQUIRED, Tracer  # noqa: E402
from tehier import (  # noqa: E402
    STRATEGIES, Grid, LogRegConfig, SvmConfig, Taxonomy, fit_multiclass,
)

from conftest import hl, separable_blobs  # noqa: E402

SVM_SPANS = {name for names in REQUIRED.values() for name in names if name.startswith("svm.")}


@pytest.fixture
def tracer():
    tracer = Tracer()
    tracer.install()
    try:
        yield tracer
    finally:
        tracer.uninstall()


def fired(tracer: Tracer) -> set[str]:
    _, _, calls = tracer.totals()
    return {name for name, count in calls.items() if count} | {
        name for name, count in tracer.counts.items() if count
    }


def test_every_hook_resolves(tracer):
    assert tracer.unpatched == set()


def test_fitting_fires_required_svm_spans(tracer, rng, monkeypatch):
    X, y = separable_blobs(rng, 20, [(2, 0), (-2, 0), (0, 2)], spread=0.8)
    config = SvmConfig(C=5.0, gamma=1.0)

    full = fit_multiclass(X, y + 1, config)
    _, _, calls = tracer.totals()
    assert calls["svm.kernel_full"] == 1  # one Gram for the node's three binary SVMs
    assert fired(tracer) >= {"svm.train_binary_svm", "svm.smo_solve", "svm.kernel_full",
                             "svm.platt_calibrate"}
    assert "svm.kernel_column" not in fired(tracer)

    monkeypatch.setattr(tehier.svm, "_FULL_GRAM_LIMIT", 10)
    fit_multiclass(X, y + 1, config)
    assert "svm.kernel_column" in fired(tracer)
    assert "svm.decision_function" not in fired(tracer)
    assert "svm.kernel_decision" not in fired(tracer)

    full.predict_proba(X)
    assert SVM_SPANS <= fired(tracer)


@pytest.mark.parametrize("centers", [[(2, 0), (-2, 0)], [(2, 0), (-2, 0), (0, 2)]])
def test_a_two_class_node_fires_one_solve_and_a_larger_node_one_per_class(
    tracer, rng, centers
):
    X, y = separable_blobs(rng, 20, centers, spread=0.8)
    fit_multiclass(X, y + 1, SvmConfig(C=5.0, gamma=1.0))
    _, _, calls = tracer.totals()
    solves = 1 if len(centers) == 2 else len(centers)  # class 1 of two is 1 - p
    for name in ("svm.train_binary_svm", "svm.smo_solve", "svm.platt_calibrate"):
        assert calls[name] == solves, name


def test_logreg_counts_each_trial_loss_and_each_iteration_gradient(tracer, rng, monkeypatch):
    X, y = separable_blobs(rng, 20, [(2, 0), (-2, 0), (0, 2)], spread=0.8)
    X = 10.0 * X  # wide features: unit-length steps overshoot and backtrack
    monkeypatch.setattr(tehier.logreg, "_MAX_ITERATIONS", 60)

    # log every loss and gradient call with the weights it was given, on top
    # of the tracer's own wrappers, so both see the same fit
    calls = []
    for name in ("logreg_loss", "logreg_gradient"):
        traced = getattr(tehier.logreg, name)

        def logged(weights, *args, _name=name, _traced=traced, **kwargs):
            calls.append((_name, weights.copy()))
            return _traced(weights, *args, **kwargs)

        monkeypatch.setattr(tehier.logreg, name, logged)
    fit_multiclass(X, y + 1, LogRegConfig())

    # one loss at the start plus one per line-search trial; one gradient at
    # the start plus one at each accepted trial, the loss call just before it
    assert calls[0][0] == "logreg_loss" and not calls[0][1].any()
    trials = sum(name == "logreg_loss" for name, _ in calls) - 1
    accepted = sum(
        now[0] == "logreg_gradient" and before[0] == "logreg_loss"
        and np.array_equal(now[1], before[1])
        for before, now in zip(calls, calls[1:])
    ) - 1
    assert trials > accepted > 1  # the line search backtracked at least once
    assert tracer.counts["logreg.loss_evals"] == 1 + trials
    assert tracer.counts["logreg.gradient_evals"] == 1 + accepted
    assert "logreg.train_logreg" in fired(tracer)
    assert tracer.unpatched == set()


def test_crossval_round_fires_every_hierarchy_hook(tracer, rng, monkeypatch):
    # labels are made after the tracer is installed, so their creation counts
    names = ["1", "1.1", "1.2", "2"]
    tax = Taxonomy([hl(n) for n in names])
    X, y = separable_blobs(rng, 8, [(2, 0), (-2, 0), (0, 2), (2, 2)], spread=0.5)
    labels = [hl(names[c]) for c in y]
    monkeypatch.setattr(tehier.logreg, "_MAX_ITERATIONS", 20)
    results = tehier.metrics.crossval_strategies(
        X, labels, tax, config=LogRegConfig(), strategies=STRATEGIES, k=2
    )
    assert set(results) == set(STRATEGIES)
    assert fired(tracer) >= {
        "hierarchy.train_hier", "classifiers.fit_multiclass", "hierarchy.predict",
        "hierarchy.proba_tables", "classifiers.predict_proba", "metrics.hier_metrics",
        "labels.hierlabel_created",
    }
    assert tracer.unpatched == set()


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(), reason="needs the fork start method"
)
def test_parallel_grid_and_folds_fire_required_spans_in_the_caller(tracer, rng, monkeypatch):
    # one child process takes tasks while the caller works too; spans that
    # fire only in the child never reach this tracer
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    names = ["1", "1.1", "1.2", "2"]
    tax = Taxonomy([hl(n) for n in names])
    X, y = separable_blobs(rng, 6, [(2, 0), (-2, 0), (0, 2), (2, 2)], spread=0.5)
    labels = [hl(names[c]) for c in y]
    caller_spans = {
        "metrics.crossval", "hierarchy.train_hier", "svm.smo_solve", "svm.kernel_full",
        "svm.decision_function", "metrics.hier_metrics",
    }

    grid = Grid(c_values=(1.0, 4.0), gamma_values=(0.5, 1.0), folds=2)
    result = tehier.gridsearch.grid_search(X, labels, tax, grid, threads=2)
    assert all(cell.status == "ok" for cell in result.cells)
    assert fired(tracer) >= caller_spans

    tracer.spans.clear()
    tracer.counts.clear()
    tehier.metrics.crossval_strategies(
        X, labels, tax, config=SvmConfig(C=4.0, gamma=0.5), strategies=STRATEGIES, k=3,
        threads=2,
    )
    assert fired(tracer) >= caller_spans - {"metrics.crossval"}
    assert tracer.unpatched == set()
