"""The benchmark's tracer (perfbench/spans.py) wraps tehier functions by name
from outside the package. These tests keep those hooks working: every
wrapped name exists, fitting a node fires each SVM span the benchmark
requires, on both the full-Gram and the column-cache path, a logistic
regression fit is counted once per loss and once per gradient, and a
cross-validation round fires every hierarchy, classifier, metrics and label
hook the benchmark requires."""

import sys
from collections import Counter
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import tehier.metrics  # noqa: E402
import tehier.svm  # noqa: E402
from perfbench.spans import REQUIRED, Tracer  # noqa: E402
from tehier import STRATEGIES, LogRegConfig, SvmConfig, Taxonomy, fit_multiclass  # noqa: E402

import oracles  # noqa: E402
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
    labels = [hl(str(c + 1)) for c in y]
    config = SvmConfig(C=5.0, gamma=1.0)

    full = fit_multiclass("svm", X, labels, config)
    _, _, calls = tracer.totals()
    assert calls["svm.kernel_full"] == 1  # one Gram for the node's three binary SVMs
    assert fired(tracer) >= {"svm.train_binary_svm", "svm.smo_solve", "svm.kernel_full",
                             "svm.platt_calibrate"}
    assert "svm.kernel_column" not in fired(tracer)

    monkeypatch.setattr(tehier.svm, "_FULL_GRAM_LIMIT", 10)
    fit_multiclass("svm", X, labels, config)
    assert "svm.kernel_column" in fired(tracer)
    assert "svm.decision_function" not in fired(tracer)
    assert "svm.kernel_decision" not in fired(tracer)

    full.predict_proba(X)
    assert SVM_SPANS <= fired(tracer)


def test_logreg_counts_each_trial_loss_and_each_iteration_gradient(tracer, rng, monkeypatch):
    X, y = separable_blobs(rng, 20, [(2, 0), (-2, 0), (0, 2)], spread=0.8)
    labels = [hl(str(c + 1)) for c in y]
    config = LogRegConfig(learning_rate=4.0, max_iterations=60)

    # the reference fit takes the same steps: one loss at the start plus one
    # per line-search trial, and one gradient per iteration
    reference = Counter()
    for name in ("_logreg_loss_reference", "_logreg_gradient_reference"):
        original = getattr(oracles, name)

        def counted(*args, _name=name, _original=original):
            reference[_name] += 1
            return _original(*args)

        monkeypatch.setattr(oracles, name, counted)
    oracles.train_logreg_reference(X, y, 3, config)
    trials = reference["_logreg_loss_reference"] - 1
    iterations = reference["_logreg_gradient_reference"]
    assert trials > iterations > 1  # the line search backtracked at least once

    fit_multiclass("logreg", X, labels, config)
    assert tracer.counts["logreg.loss_evals"] == 1 + trials
    assert tracer.counts["logreg.gradient_evals"] == iterations
    assert "logreg.train_logreg" in fired(tracer)
    assert tracer.unpatched == set()


def test_crossval_round_fires_every_hierarchy_hook(tracer, rng):
    # labels are made after the tracer is installed, so their creation counts
    names = ["1", "1.1", "1.2", "2"]
    tax = Taxonomy([hl(n) for n in names])
    X, y = separable_blobs(rng, 8, [(2, 0), (-2, 0), (0, 2), (2, 2)], spread=0.5)
    labels = [hl(names[c]) for c in y]
    config = LogRegConfig(max_iterations=20)
    results = tehier.metrics.crossval_strategies(
        X, labels, tax, base_kind="logreg", config=config, strategies=STRATEGIES, k=2
    )
    assert set(results) == set(STRATEGIES)
    assert fired(tracer) >= {
        "hierarchy.train_hier", "classifiers.fit_multiclass", "hierarchy.predict",
        "hierarchy.proba_tables", "classifiers.predict_proba", "metrics.hier_metrics",
        "labels.hierlabel_created",
    }
    assert tracer.unpatched == set()
