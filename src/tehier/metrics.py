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

from .errors import TaxonomyError, TehierError
from .hierarchy import STRATEGIES, CPath, train_hier
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


def crossval(
    X: np.ndarray,
    labels: list[HierLabel],
    taxonomy: Taxonomy,
    configs: list[SvmConfig | LogRegConfig],
    strategies: tuple[str, ...] = STRATEGIES,
    k: int = 10,
    seed: int = 0,
    threads: int = 1,
) -> list[dict[str, CrossvalResult] | Exception]:
    """k-fold cross-validation of each config on the same folds: per config,
    its results by strategy, or the error of its lowest failing fold. Each
    fold's model serves every requested strategy (training is
    strategy-independent), and the type of a config chooses the base
    classifier (``train_hier``).

    The SVM configs of one gamma form a group that each fold trains in
    ascending C along one ``CPath``: one kernel provider, and every solve
    that is exact at the next C reused there. The (group, fold) pairs are
    the tasks that ``threads`` worker processes share, larger gamma first
    (``parallel.run_tasks``); the result is the same for any worker count.
    """
    for i, strategy in enumerate(strategies):
        if strategy not in STRATEGIES:
            raise ValueError(f"unknown strategy {strategy!r}")
        if strategy in strategies[:i]:
            raise ValueError(f"strategy {strategy!r} given twice")
    X = np.asarray(X, dtype=np.float64)
    plan = stratified_kfold(labels, k, seed)

    def place(i: int) -> tuple[float, float]:
        config = configs[i]
        return (-config.gamma, config.C) if isinstance(config, SvmConfig) else (np.inf, 0.0)

    # one group per gamma, the larger (dearer) first, each in ascending C;
    # the configs of other types form one last group
    groups: dict[float, list[int]] = {}
    for i in sorted(range(len(configs)), key=place):
        groups.setdefault(place(i)[0], []).append(i)
    members = list(groups.values())

    def run_task(task: int) -> list:
        group, fold = divmod(task, k)
        train_idx = plan.train_indices(fold)
        test_idx = plan.test_indices(fold)
        X_train, train_labels = X[train_idx], [labels[i] for i in train_idx]
        X_test, truth = X[test_idx], [labels[i] for i in test_idx]

        def scores(model) -> dict[str, HierMetrics]:
            return {
                strategy: hier_metrics(list(zip(model.predict(X_test, strategy), truth)), taxonomy)
                for strategy in strategies
            }

        # a lone config has no next C to keep solves for
        path = CPath() if len(members[group]) > 1 else None
        outcomes = []
        for i in members[group]:
            try:
                # the model is scored and dropped before the next C trains
                outcomes.append(
                    scores(train_hier(X_train, train_labels, taxonomy, configs[i], path=path))
                )
            except (TehierError, ValueError) as exc:
                if path is not None:
                    path.solves.clear()  # a failed fit leaves no solves to reuse
                outcomes.append(exc)
        return outcomes

    done = run_tasks(run_task, len(members) * k, threads)
    results: list = [None] * len(configs)
    for group, indices in enumerate(members):
        for position, i in enumerate(indices):
            folds = [done[group * k + fold][position] for fold in range(k)]
            failed = [fold for fold in folds if not isinstance(fold, dict)]
            results[i] = failed[0] if failed else {
                strategy: CrossvalResult([fold[strategy] for fold in folds])
                for strategy in strategies
            }
    return results


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
    """``crossval`` of the one config ``config``, raising its error."""
    (result,) = crossval(X, labels, taxonomy, [config], strategies, k, seed, threads)
    if not isinstance(result, dict):
        raise result
    return result
