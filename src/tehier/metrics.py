"""Hierarchical precision / recall / F-measure and cross-validation tooling.

Each sample contributes its ancestor-closed label set (the terminal label
plus every non-root ancestor). Metrics are micro-aggregated:

    hP = sum |P_i & T_i| / sum |P_i|
    hR = sum |P_i & T_i| / sum |T_i|
    hF = 2 hP hR / (hP + hR)

Both sets are root paths, so no set is built: |P & T| is the depth of the
deepest common ancestor, read off the taxonomy's ancestor-id rows, and
|P| and |T| are the node depths. Level-wise F truncates both paths at a
depth L, which caps each of the three counts at L, and drops samples whose
true path is shallower than L. The counts are summed as integers before
the divisions. Zero-denominator metrics are reported as None (undefined),
never silently as 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .classifiers import LOGREG, SVM
from .errors import TaxonomyError
from .hierarchy import STRATEGIES, train_hier
from .labels import HierLabel
from .logreg import LogRegConfig
from .parallel import run_tasks
from .svm import SvmConfig
from .taxonomy import Taxonomy


def label_set(taxonomy: Taxonomy, label: HierLabel) -> frozenset[HierLabel]:
    """The ancestor-closed class set of one label (root excluded)."""
    if label not in taxonomy:
        raise TaxonomyError(f"label {label} is not a taxonomy node")
    return frozenset(label.prefixes() + [label])


@dataclass(frozen=True)
class HierMetrics:
    hp: float
    hr: float
    hf: float
    per_level_f: tuple[float | None, ...]
    n_samples: int


def f_measure(hp: float, hr: float) -> float:
    """hF from an (hP, hR) pair; 0 when both are 0."""
    if hp + hr == 0:
        return 0.0
    return 2.0 * hp * hr / (hp + hr)


def _pair_depths(pairs: list[tuple[HierLabel, HierLabel]], taxonomy: Taxonomy):
    """Per pair: |P & T| (common-ancestor depth), |P| and |T|, as int arrays."""
    predicted = taxonomy.ids([p for p, _ in pairs])
    true = taxonomy.ids([t for _, t in pairs])
    p_rows = taxonomy.ancestor_ids[predicted, 1:]
    common = ((p_rows == taxonomy.ancestor_ids[true, 1:]) & (p_rows >= 0)).sum(axis=1)
    return common, taxonomy.node_depth[predicted], taxonomy.node_depth[true]


def _level_f(common, p_depth, t_depth, level: int) -> float | None:
    eligible = t_depth >= level
    if not eligible.any():
        return None
    hits = int(np.minimum(common[eligible], level).sum())
    pred_total = int(np.minimum(p_depth[eligible], level).sum())
    return f_measure(hits / pred_total, hits / (level * int(eligible.sum())))


def hier_metrics(
    pairs: list[tuple[HierLabel, HierLabel]], taxonomy: Taxonomy
) -> HierMetrics:
    """Micro-aggregated hP/hR/hF plus per-level F over (predicted, true) pairs."""
    if not pairs:
        raise TaxonomyError("cannot evaluate an empty prediction list")
    common, p_depth, t_depth = _pair_depths(pairs, taxonomy)
    hits = int(common.sum())
    hp = hits / int(p_depth.sum())
    hr = hits / int(t_depth.sum())
    per_level = tuple(
        _level_f(common, p_depth, t_depth, level)
        for level in range(1, taxonomy.max_depth + 1)
    )
    return HierMetrics(
        hp=hp, hr=hr, hf=f_measure(hp, hr), per_level_f=per_level, n_samples=len(pairs)
    )


def levelwise_f(
    pairs: list[tuple[HierLabel, HierLabel]], taxonomy: Taxonomy, level: int
) -> float | None:
    """hF over paths truncated at ``level``.

    Samples whose true path is shorter than the level are excluded; a
    predicted path shorter than the level contributes its available prefix.
    Returns None when no sample is eligible (undefined, distinct from 0).
    """
    if level < 1:
        raise ValueError("level must be >= 1")
    return _level_f(*_pair_depths(pairs, taxonomy), level)


@dataclass(frozen=True)
class FoldPlan:
    """A k-fold partition: per-fold test index tuples plus warnings for
    classes too small to reach every fold."""

    k: int
    seed: int
    test_folds: tuple[tuple[int, ...], ...]
    warnings: tuple[str, ...] = ()

    def train_indices(self, fold: int) -> list[int]:
        test = set(self.test_folds[fold])
        total = sum(len(f) for f in self.test_folds)
        return [i for i in range(total) if i not in test]

    def test_indices(self, fold: int) -> list[int]:
        return list(self.test_folds[fold])


def stratified_kfold(labels: list[HierLabel], k: int, seed: int = 0) -> FoldPlan:
    """Deterministic stratified folds keyed on the full-path label.

    Each class's samples are shuffled with the seed and dealt round-robin,
    so every fold holds floor or ceil of class_count/k samples of each class.
    Classes with fewer than k samples are spread as evenly as possible and
    reported in the warnings list.
    """
    if k < 2:
        raise ValueError("k must be >= 2")
    if k > len(labels):
        raise ValueError(f"k={k} exceeds the {len(labels)} available samples")
    rng = np.random.default_rng(seed)
    by_class: dict[HierLabel, list[int]] = {}
    for i, label in enumerate(labels):
        by_class.setdefault(label, []).append(i)

    folds: list[list[int]] = [[] for _ in range(k)]
    warnings: list[str] = []
    offset = 0
    for label in sorted(by_class):
        indices = np.array(by_class[label])
        rng.shuffle(indices)
        if len(indices) < k:
            warnings.append(
                f"class {label} has only {len(indices)} samples for {k} folds"
            )
        for pos, idx in enumerate(indices):
            folds[(offset + pos) % k].append(int(idx))
        offset = (offset + len(indices)) % k
    return FoldPlan(
        k=k,
        seed=seed,
        test_folds=tuple(tuple(sorted(f)) for f in folds),
        warnings=tuple(warnings),
    )


@dataclass
class CrossvalResult:
    strategy: str
    base_kind: str
    fold_metrics: list[HierMetrics]
    seed: int

    @property
    def mean_hp(self) -> float:
        return float(np.mean([m.hp for m in self.fold_metrics]))

    @property
    def mean_hr(self) -> float:
        return float(np.mean([m.hr for m in self.fold_metrics]))

    @property
    def mean_hf(self) -> float:
        return float(np.mean([m.hf for m in self.fold_metrics]))

    @property
    def std_hf(self) -> float:
        return float(np.std([m.hf for m in self.fold_metrics]))

    def mean_level_f(self, level: int) -> float | None:
        values = [
            m.per_level_f[level - 1]
            for m in self.fold_metrics
            if level <= len(m.per_level_f) and m.per_level_f[level - 1] is not None
        ]
        if not values:
            return None
        return float(np.mean(values))


def crossval_strategies(
    X: np.ndarray,
    labels: list[HierLabel],
    taxonomy: Taxonomy,
    base_kind: str = SVM,
    config: SvmConfig | LogRegConfig | None = None,
    strategies: tuple[str, ...] = STRATEGIES,
    k: int = 10,
    seed: int = 0,
    threads: int = 1,
) -> dict[str, CrossvalResult]:
    """k-fold cross-validation sharing one trained model per fold across
    all requested strategies (training is strategy-independent).

    The folds are the tasks that ``threads`` worker processes share
    (``parallel.run_tasks``); the result is the same for any worker count.
    """
    for strategy in strategies:
        if strategy not in STRATEGIES:
            raise ValueError(f"unknown strategy {strategy!r}")
    if base_kind not in (SVM, LOGREG):
        raise ValueError(f"unknown base classifier kind {base_kind!r}")
    if config is None:
        config = SvmConfig() if base_kind == SVM else LogRegConfig()
    X = np.asarray(X, dtype=np.float64)
    plan = stratified_kfold(labels, k, seed)

    def run_fold(fold: int) -> dict[str, HierMetrics]:
        train_idx = plan.train_indices(fold)
        test_idx = plan.test_indices(fold)
        model = train_hier(
            X[train_idx],
            [labels[i] for i in train_idx],
            taxonomy,
            base_kind=base_kind,
            config=config,
        )
        out = {}
        for strategy in strategies:
            predicted = model.predict(X[test_idx], strategy)
            truth = [labels[i] for i in test_idx]
            out[strategy] = hier_metrics(list(zip(predicted, truth)), taxonomy)
        return out

    fold_results = run_tasks(run_fold, k, threads)

    return {
        strategy: CrossvalResult(
            strategy=strategy,
            base_kind=base_kind,
            fold_metrics=[fr[strategy] for fr in fold_results],
            seed=seed,
        )
        for strategy in strategies
    }


def crossval(
    X: np.ndarray,
    labels: list[HierLabel],
    taxonomy: Taxonomy,
    strategy: str,
    base_kind: str = SVM,
    config: SvmConfig | LogRegConfig | None = None,
    k: int = 10,
    seed: int = 0,
    threads: int = 1,
) -> CrossvalResult:
    """k-fold cross-validation of one (base, strategy) combination."""
    results = crossval_strategies(
        X,
        labels,
        taxonomy,
        base_kind=base_kind,
        config=config,
        strategies=(strategy,),
        k=k,
        seed=seed,
        threads=threads,
    )
    return results[strategy]
