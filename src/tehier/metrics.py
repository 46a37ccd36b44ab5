"""Hierarchical precision / recall / F-measure and cross-validation.

A sample's class set is its label plus every non-root ancestor; the metrics
are micro-aggregated over samples:

    hP = sum |P_i & T_i| / sum |P_i|
    hR = sum |P_i & T_i| / sum |T_i|
    hF = 2 hP hR / (hP + hR)

Level-wise F at depth L caps each path at L and drops samples whose true
path is shallower than L. The counts are summed as integers before the
divisions, and an undefined level is None, never 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import TaxonomyError
from .hierarchy import STRATEGIES, train_hier
from .labels import HierLabel
from .logreg import LogRegConfig
from .parallel import run_tasks
from .svm import SvmConfig
from .taxonomy import Taxonomy


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
    # both sets are root paths: |P & T| is the deepest common ancestor's depth
    predicted = taxonomy.ids([p for p, _ in pairs])
    true = taxonomy.ids([t for _, t in pairs])
    p_rows = taxonomy.ancestor_ids[predicted, 1:]
    common = ((p_rows == taxonomy.ancestor_ids[true, 1:]) & (p_rows >= 0)).sum(axis=1)
    p_depth, t_depth = taxonomy.node_depth[predicted], taxonomy.node_depth[true]
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


@dataclass(frozen=True)
class FoldPlan:
    """A k-fold partition: per-fold test index tuples plus warnings for
    classes too small to reach every fold."""

    k: int
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
        test_folds=tuple(tuple(sorted(f)) for f in folds),
        warnings=tuple(warnings),
    )


@dataclass
class CrossvalResult:
    fold_metrics: list[HierMetrics]

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
        values = [f for m in self.fold_metrics if (f := m.per_level_f[level - 1]) is not None]
        return float(np.mean(values)) if values else None


def crossval_strategies(
    X: np.ndarray,
    labels: list[HierLabel],
    taxonomy: Taxonomy,
    config: SvmConfig | LogRegConfig = SvmConfig(),
    strategies: tuple[str, ...] = STRATEGIES,
    k: int = 10,
    seed: int = 0,
    threads: int = 1,
) -> dict[str, CrossvalResult]:
    """k-fold cross-validation sharing one trained model per fold across
    all requested strategies (training is strategy-independent). The type
    of ``config`` chooses the base classifier (``train_hier``).

    The folds are the tasks that ``threads`` worker processes share
    (``parallel.run_tasks``); the result is the same for any worker count.
    """
    for i, strategy in enumerate(strategies):
        if strategy not in STRATEGIES:
            raise ValueError(f"unknown strategy {strategy!r}")
        if strategy in strategies[:i]:
            raise ValueError(f"strategy {strategy!r} given twice")
    X = np.asarray(X, dtype=np.float64)
    plan = stratified_kfold(labels, k, seed)

    def run_fold(fold: int) -> dict[str, HierMetrics]:
        train_idx = plan.train_indices(fold)
        test_idx = plan.test_indices(fold)
        model = train_hier(X[train_idx], [labels[i] for i in train_idx], taxonomy, config)
        X_test = X[test_idx]
        truth = [labels[i] for i in test_idx]
        return {
            strategy: hier_metrics(list(zip(model.predict(X_test, strategy), truth)), taxonomy)
            for strategy in strategies
        }

    fold_results = run_tasks(run_fold, k, threads)

    return {
        strategy: CrossvalResult([fr[strategy] for fr in fold_results])
        for strategy in strategies
    }


def crossval(
    X: np.ndarray,
    labels: list[HierLabel],
    taxonomy: Taxonomy,
    strategy: str,
    config: SvmConfig | LogRegConfig = SvmConfig(),
    k: int = 10,
    seed: int = 0,
    threads: int = 1,
) -> CrossvalResult:
    """k-fold cross-validation of one (base config, strategy) combination."""
    results = crossval_strategies(
        X, labels, taxonomy, config, strategies=(strategy,), k=k, seed=seed, threads=threads
    )
    return results[strategy]
