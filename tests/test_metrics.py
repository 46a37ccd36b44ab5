import numpy as np
import pytest

from tehier import (
    HierLabel,
    LogRegConfig,
    SvmConfig,
    Taxonomy,
    TaxonomyError,
    crossval_strategies,
    f_measure,
    hier_metrics,
    stratified_kfold,
)

from conftest import hl
from oracles import ancestor_set, naive_hier_prf


def pair_taxonomy():
    return Taxonomy([hl("1.1.1"), hl("1.2"), hl("2")])


def test_label_set_examples():
    # a label's set is its row of ancestor ids below the root
    tax = pair_taxonomy()
    rows = tax.ancestor_ids[tax.ids([hl("1.1.1"), hl("2")]), 1:]
    assert [[tax.node_labels[a] for a in row if a > 0] for row in rows] == [
        [hl("1"), hl("1.1"), hl("1.1.1")],
        [hl("2")],
    ]
    for node in tax.nodes():
        row = tax.ancestor_ids[tax.node_index[node.path], 1:]
        assert {tax.node_labels[a].path for a in row[row > 0]} == ancestor_set(node.path)
    with pytest.raises(TaxonomyError):
        tax.ids([hl("3")])


def test_single_pair_worked_example():
    tax = pair_taxonomy()
    metrics = hier_metrics([(hl("1.1"), hl("1.1.1"))], tax)
    assert metrics.hp == pytest.approx(1.0, abs=1e-12)
    assert metrics.hr == pytest.approx(2 / 3, abs=1e-12)
    assert metrics.hf == pytest.approx(0.8, abs=1e-12)


def test_all_correct_gives_ones():
    tax = pair_taxonomy()
    pairs = [(l, l) for l in (hl("1.1.1"), hl("1.2"), hl("2"))]
    metrics = hier_metrics(pairs, tax)
    assert (metrics.hp, metrics.hr, metrics.hf) == (1.0, 1.0, 1.0)


def test_published_f_measure_consistency():
    # a reported (hP, hR) pair for the PGSB corpus rounds to its reported hF
    assert f_measure(0.908, 0.897) == pytest.approx(0.903, abs=0.001)


def test_f_measure_harmonic_identity(rng):
    for _ in range(200):
        hp, hr = rng.random(2)
        hf = f_measure(hp, hr)
        assert hf * (hp + hr) == pytest.approx(2 * hp * hr, abs=1e-12)
    assert f_measure(0.0, 0.0) == 0.0


def test_recall_one_iff_true_contained_in_predicted():
    tax = pair_taxonomy()
    # predicted deeper than truth: every true set is inside the predicted set
    over = hier_metrics([(hl("1.1.1"), hl("1.1"))], tax)
    assert over.hr == 1.0 and over.hp < 1.0
    # predicted shallower: predicted sets inside true sets
    under = hier_metrics([(hl("1.1"), hl("1.1.1"))], tax)
    assert under.hp == 1.0 and under.hr < 1.0


def test_empty_pairs_rejected():
    with pytest.raises(TaxonomyError):
        hier_metrics([], pair_taxonomy())


def test_matches_naive_set_oracle_on_random_pairs(rng):
    for _ in range(300):
        labels = [
            HierLabel(tuple(int(c) for c in rng.integers(1, 4, size=rng.integers(1, 5))))
            for _ in range(int(rng.integers(2, 10)))
        ]
        tax = Taxonomy(labels)
        nodes = tax.nodes()
        pairs = [
            (nodes[rng.integers(len(nodes))], nodes[rng.integers(len(nodes))])
            for _ in range(int(rng.integers(1, 30)))
        ]
        metrics = hier_metrics(pairs, tax)
        hp, hr, hf = naive_hier_prf([(p.path, t.path) for p, t in pairs])
        assert metrics.hp == hp
        assert metrics.hr == hr
        assert metrics.hf == hf
        assert 0.0 <= metrics.hp <= 1.0 and 0.0 <= metrics.hr <= 1.0


# -- level-wise -----------------------------------------------------------------


def test_levelwise_all_correct_at_level_one():
    tax = pair_taxonomy()
    pairs = [(hl("1.1.1"), hl("1.1.1")), (hl("1.2"), hl("1.2"))]
    assert hier_metrics(pairs, tax).per_level_f[0] == 1.0


def test_levelwise_truncation_gives_full_credit_at_level_one():
    tax = pair_taxonomy()
    assert hier_metrics([(hl("1.2"), hl("1.1"))], tax).per_level_f[0] == 1.0


def test_levelwise_worked_example_at_level_two():
    tax = pair_taxonomy()
    value = hier_metrics([(hl("1.2"), hl("1.1"))], tax).per_level_f[1]
    assert value == pytest.approx(0.5, abs=1e-12)


def test_levelwise_excludes_shallow_true_paths():
    tax = pair_taxonomy()
    # the only depth-3 truth decides level 3; the depth-1 truth is excluded
    pairs = [(hl("1.1.1"), hl("1.1.1")), (hl("2"), hl("2"))]
    per_level = hier_metrics(pairs, tax).per_level_f
    assert per_level[2] == 1.0
    assert per_level[0] == 1.0


def test_levelwise_short_prediction_contributes_prefix():
    tax = pair_taxonomy()
    # prediction depth 1 against truth depth 3 at level 2: P={1}, T={1,1.1}
    value = hier_metrics([(hl("1"), hl("1.1.1"))], tax).per_level_f[1]
    hp, hr = 1.0, 0.5
    assert value == pytest.approx(2 * hp * hr / (hp + hr), abs=1e-12)


def test_levelwise_undefined_when_no_eligible_samples():
    tax = pair_taxonomy()
    assert hier_metrics([(hl("1.1.1"), hl("2"))], tax).per_level_f[1] is None


def test_hier_metrics_carries_per_level():
    tax = pair_taxonomy()
    metrics = hier_metrics([(hl("1.1.1"), hl("1.1.1"))], tax)
    assert metrics.per_level_f == (1.0, 1.0, 1.0)


# -- stratified folds -------------------------------------------------------------


def test_balanced_two_class_folds():
    labels = [hl("1")] * 50 + [hl("2")] * 50
    plan = stratified_kfold(labels, k=10, seed=0)
    for fold in range(10):
        test = plan.test_indices(fold)
        assert len(test) == 10
        assert sum(1 for i in test if labels[i] == hl("1")) == 5
    assert plan.warnings == ()


def test_small_class_spread_with_warning():
    labels = [hl("1")] * 30 + [hl("2")] * 3
    plan = stratified_kfold(labels, k=10, seed=1)
    hits = [
        sum(1 for i in plan.test_indices(f) if labels[i] == hl("2")) for f in range(10)
    ]
    assert sorted(hits, reverse=True)[:3] == [1, 1, 1]
    assert len(plan.warnings) == 1


def test_fold_plan_deterministic():
    labels = [hl("1")] * 21 + [hl("2")] * 34
    assert stratified_kfold(labels, 5, seed=9) == stratified_kfold(labels, 5, seed=9)
    assert stratified_kfold(labels, 5, seed=9) != stratified_kfold(labels, 5, seed=10)


def test_folds_partition_and_stratify(rng):
    for _ in range(50):
        k = int(rng.integers(2, 6))
        counts = rng.integers(k, 30, size=int(rng.integers(1, 5)))
        labels = []
        for c, n in enumerate(counts):
            labels += [hl(str(c + 1))] * int(n)
        plan = stratified_kfold(labels, k, seed=int(rng.integers(1000)))
        everything = sorted(i for f in range(k) for i in plan.test_indices(f))
        assert everything == list(range(len(labels)))  # disjoint cover
        for c, n in enumerate(counts):
            label = hl(str(c + 1))
            per_fold = [
                sum(1 for i in plan.test_indices(f) if labels[i] == label)
                for f in range(k)
            ]
            assert max(per_fold) - min(per_fold) <= 1  # within one sample


def test_kfold_argument_validation():
    labels = [hl("1")] * 4
    with pytest.raises(ValueError):
        stratified_kfold(labels, 1)
    with pytest.raises(ValueError):
        stratified_kfold(labels, 5)


def test_train_indices_complement():
    labels = [hl("1")] * 8 + [hl("2")] * 8
    plan = stratified_kfold(labels, 4, seed=2)
    for fold in range(4):
        train = set(plan.train_indices(fold))
        test = set(plan.test_indices(fold))
        assert train | test == set(range(16))
        assert not (train & test)


# -- cross-validation ---------------------------------------------------------------


def tiny_dataset(rng):
    tax = Taxonomy([hl("1"), hl("2")])
    X = np.vstack(
        [rng.normal(0, 0.3, (20, 2)) + (2, 0), rng.normal(0, 0.3, (20, 2)) - (2, 0)]
    )
    labels = [hl("1")] * 20 + [hl("2")] * 20
    return tax, X, labels


def test_crossval_two_folds_on_four_samples(rng):
    tax = Taxonomy([hl("1"), hl("2")])
    X = np.array([[1.0, 0], [1.1, 0], [-1.0, 0], [-1.1, 0]])
    labels = [hl("1"), hl("1"), hl("2"), hl("2")]
    result = crossval_strategies(X, labels, tax, LogRegConfig(), ("nllcpn",), k=2)["nllcpn"]
    assert len(result.fold_metrics) == 2


def test_crossval_separable_data_scores_high(rng):
    tax, X, labels = tiny_dataset(rng)
    result = crossval_strategies(
        X, labels, tax, SvmConfig(C=5, gamma=1.0), ("lcpnb",), k=5, seed=3,
    )["lcpnb"]
    assert result.mean_hf >= 0.95


def test_crossval_label_shuffle_drops_score(rng):
    tax, X, labels = tiny_dataset(rng)
    good = crossval_strategies(X, labels, tax, LogRegConfig(), ("lcpnb",), k=5, seed=3)["lcpnb"]
    shuffled = list(labels)
    rng.shuffle(shuffled)
    bad = crossval_strategies(X, shuffled, tax, LogRegConfig(), ("lcpnb",), k=5, seed=3)["lcpnb"]
    assert bad.mean_hf < good.mean_hf


def test_crossval_strategies_share_training(rng):
    tax, X, labels = tiny_dataset(rng)
    both = crossval_strategies(
        X, labels, tax, config=LogRegConfig(), strategies=("nllcpn", "lcpnb"), k=4, seed=5
    )
    single = crossval_strategies(X, labels, tax, LogRegConfig(), ("nllcpn",), k=4, seed=5)
    assert both["nllcpn"].fold_metrics == single["nllcpn"].fold_metrics


def test_crossval_strategies_refuses_a_strategy_given_twice(rng):
    tax, X, labels = tiny_dataset(rng)
    with pytest.raises(ValueError, match="strategy 'lcpnb' given twice"):
        crossval_strategies(X, labels, tax, LogRegConfig(), strategies=("lcpnb", "lcpnb"), k=4)


def test_crossval_thread_count_independent(rng):
    tax, X, labels = tiny_dataset(rng)
    serial = crossval_strategies(X, labels, tax, LogRegConfig(), k=4, seed=1, threads=1)
    threaded = crossval_strategies(X, labels, tax, LogRegConfig(), k=4, seed=1, threads=4)
    assert serial["lcpnb"].fold_metrics == threaded["lcpnb"].fold_metrics
