"""Top-down hierarchical classification over per-parent-node local models.

Training is shared by both strategies: every internal node (and the implicit
root) gets one local multiclass classifier whose classes are the node's
children plus the node itself (the replicated-self class that lets a
prediction stop early). The root has no self class. A sample labeled exactly
at an internal node trains that node's self class; a sample labeled deeper
trains the child its path passes through.

Prediction differs:

* greedy descent ("nllcpn"): follow the argmax child from the root until the
  local argmax is the self class, a leaf, or an untrained node.
* path scoring ("lcpnb"): score every root-to-node path by the arithmetic
  mean of its edge probabilities (internal terminals additionally average in
  their self-class probability) and return the best terminal.

Both are implemented as pure functions over per-node probability tables so
they can be driven by stub distributions as well as trained models.
"""

from __future__ import annotations

import json
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import IO, Mapping

import numpy as np

from .classifiers import LOGREG, SVM, MulticlassModel, fit_multiclass
from .errors import DimensionError, FormatError, ModelFileError, TaxonomyError
from .kmers import KmerConfig
from .labels import HierLabel, parse_label, render_label
from .logreg import LogRegConfig, LogRegModel
from .svm import BinarySvmModel, SvmConfig
from .taxonomy import Taxonomy

NLLCPN = "nllcpn"
LCPNB = "lcpnb"
STRATEGIES = (NLLCPN, LCPNB)

_SCHEMA_VERSION = 1

# A local probability table: parent path tuple -> {class label: probability}.
# Untrained parents are simply absent.
ProbaTable = Mapping[tuple[int, ...], Mapping[HierLabel, float]]


@dataclass(frozen=True)
class PathScore:
    """One scored root-to-node path: terminal, mean score, edge probabilities."""

    terminal: HierLabel
    score: float
    edge_probabilities: tuple[float, ...]


def greedy_descent(taxonomy: Taxonomy, probas: ProbaTable) -> HierLabel:
    """The nllcpn walk for one sample over a probability table."""
    cur: tuple[int, ...] = ()
    while True:
        dist = probas.get(cur)
        if dist is None:  # untrained node acts as a terminal
            break
        best = None
        best_p = -1.0
        for cls in sorted(dist):  # sorted => ties go to the smallest label
            p = dist[cls]
            if p > best_p:
                best, best_p = cls, p
        if best is None or best.path == cur:  # self class: stop here
            break
        cur = best.path
        if taxonomy.is_leaf(best):
            break
    if not cur:
        raise TaxonomyError("prediction never left the root; no usable local model")
    return HierLabel(cur)


def score_all_paths(taxonomy: Taxonomy, probas: ProbaTable) -> list[PathScore]:
    """The lcpnb path table for one sample, in taxonomy preorder.

    Candidates are all nodes reachable through trained parents. An internal
    trained terminal contributes its self-class probability as a final edge;
    classes missing from a parent's table score 0.
    """
    scores: list[PathScore] = []
    if () not in probas:
        raise TaxonomyError("root has no local model; nothing can be scored")
    # stack of (node, edge probabilities along the path to it)
    stack: list[tuple[HierLabel, tuple[float, ...]]] = []
    root_dist = probas[()]
    for top in reversed(taxonomy.roots):
        stack.append((top, (float(root_dist.get(top, 0.0)),)))
    while stack:
        node, edges = stack.pop()
        own_dist = probas.get(node.path)
        is_terminal_style = taxonomy.is_leaf(node) or own_dist is None
        if is_terminal_style:
            scored_edges = edges
        else:
            scored_edges = edges + (float(own_dist.get(node, 0.0)),)
        scores.append(
            PathScore(
                terminal=node,
                score=sum(scored_edges) / len(scored_edges),
                edge_probabilities=scored_edges,
            )
        )
        if own_dist is not None:
            for child in reversed(taxonomy.children(node)):
                stack.append((child, edges + (float(own_dist.get(child, 0.0)),)))
    return scores


def best_path(scores: list[PathScore]) -> PathScore:
    """Highest score; ties broken by greater depth, then smallest label."""
    if not scores:
        raise TaxonomyError("no scorable paths")
    best = scores[0]
    for cand in scores[1:]:
        if cand.score > best.score:
            best = cand
        elif cand.score == best.score:
            if cand.terminal.depth > best.terminal.depth:
                best = cand
            elif cand.terminal.depth == best.terminal.depth and cand.terminal < best.terminal:
                best = cand
    return best


def _require_finite(X: np.ndarray) -> None:
    """Raise FormatError naming the first nan or inf feature value."""
    finite = np.isfinite(X)
    if not finite.all():
        row, col = np.argwhere(~finite)[0]
        raise FormatError(
            f"non-finite feature value {float(X[row, col])!r} in row {row}, "
            f"column {col} (0-based)"
        )


@dataclass
class HierModel:
    """Taxonomy plus one trained local classifier per populated parent node."""

    taxonomy: Taxonomy
    base_kind: str
    node_models: dict[tuple[int, ...], MulticlassModel]
    base_config: SvmConfig | LogRegConfig
    kmer_config: KmerConfig | None = None
    n_features: int = 0

    def _check_input(self, X: np.ndarray) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        if X.shape[1] != self.n_features:
            raise DimensionError(
                f"input has {X.shape[1]} features but the model was trained on "
                f"{self.n_features}; featurization does not match the model fingerprint"
            )
        _require_finite(X)
        return X

    def proba_tables(self, X: np.ndarray, threads: int = 1) -> list[ProbaTable]:
        """Per-sample probability tables for every trained node."""
        X = self._check_input(X)
        paths = sorted(self.node_models)

        def node_probs(path):
            model = self.node_models[path]
            return path, model.classes, model.predict_proba(X)

        if threads > 1 and len(paths) > 1:
            with ThreadPoolExecutor(max_workers=threads) as pool:
                computed = list(pool.map(node_probs, paths))
        else:
            computed = [node_probs(p) for p in paths]

        tables: list[dict] = [dict() for _ in range(X.shape[0])]
        for path, classes, probs in computed:
            for row, table in enumerate(tables):
                table[path] = dict(zip(classes, probs[row]))
        return tables

    def predict(self, X: np.ndarray, strategy: str, threads: int = 1) -> list[HierLabel]:
        """Predict one hierarchy label per row; order follows the input.

        Raises FormatError for a nan or inf feature value.
        """
        if strategy not in STRATEGIES:
            raise ValueError(f"unknown strategy {strategy!r}; expected one of {STRATEGIES}")
        tables = self.proba_tables(X, threads=threads)
        if strategy == NLLCPN:
            return [greedy_descent(self.taxonomy, t) for t in tables]
        return [best_path(score_all_paths(self.taxonomy, t)).terminal for t in tables]

    def path_scores(self, x: np.ndarray) -> list[PathScore]:
        """The full lcpnb score table for a single sample."""
        (table,) = self.proba_tables(np.atleast_2d(np.asarray(x, dtype=np.float64)))
        return score_all_paths(self.taxonomy, table)

    @property
    def untrained_nodes(self) -> list[HierLabel]:
        """Internal nodes that received no training data."""
        return [
            n for n in self.taxonomy.internal_nodes() if n.path not in self.node_models
        ]


def _local_assignments(
    parent: tuple[int, ...], labels: list[HierLabel]
) -> tuple[list[int], list[HierLabel]]:
    """Training rows and local classes for one parent node.

    A label equal to the parent joins the replicated-self class; a label
    passing through child c joins class c; anything else is out of scope.
    """
    depth = len(parent)
    rows: list[int] = []
    locals_: list[HierLabel] = []
    for i, label in enumerate(labels):
        if len(label.path) < depth or label.path[:depth] != parent:
            continue
        if len(label.path) == depth:
            rows.append(i)
            locals_.append(label)  # == parent: the self class
        else:
            rows.append(i)
            locals_.append(HierLabel(label.path[: depth + 1]))
    return rows, locals_


def train_hier(
    X: np.ndarray,
    labels: list[HierLabel],
    taxonomy: Taxonomy,
    base_kind: str = SVM,
    config: SvmConfig | LogRegConfig | None = None,
    kmer_config: KmerConfig | None = None,
    threads: int = 1,
) -> HierModel:
    """Train one local classifier per parent node (root included).

    Every label must be a taxonomy node, and every feature value finite
    (FormatError otherwise). Parent nodes whose training subset is empty are
    left untrained; prediction treats them as terminals.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] == 0:
        raise TaxonomyError("training data must be nonempty")
    if X.shape[0] != len(labels):
        raise DimensionError(f"{X.shape[0]} rows but {len(labels)} labels")
    _require_finite(X)
    for label in labels:
        if label not in taxonomy:
            raise TaxonomyError(f"training label {label} is not a taxonomy node")
    if base_kind not in (SVM, LOGREG):
        raise ValueError(f"unknown base classifier kind {base_kind!r}")
    if config is None:
        config = SvmConfig() if base_kind == SVM else LogRegConfig()

    parents: list[tuple[int, ...]] = [()]
    parents.extend(n.path for n in taxonomy.internal_nodes())

    def train_node(parent):
        rows, local_classes = _local_assignments(parent, labels)
        if not rows:
            return parent, None
        model = fit_multiclass(base_kind, X[rows], local_classes, config)
        return parent, model

    if threads > 1 and len(parents) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            trained = list(pool.map(train_node, parents))
    else:
        trained = [train_node(p) for p in parents]

    node_models = {parent: model for parent, model in trained if model is not None}
    return HierModel(
        taxonomy=taxonomy,
        base_kind=base_kind,
        node_models=node_models,
        base_config=config,
        kmer_config=kmer_config,
        n_features=X.shape[1],
    )


def predict_batch(
    model: HierModel, X: np.ndarray, strategy: str, threads: int = 1
) -> list[HierLabel]:
    return model.predict(X, strategy, threads=threads)


# -- serialization -----------------------------------------------------------


def _binary_to_dict(m: BinarySvmModel) -> dict:
    return {
        "support_vectors": m.support_vectors.tolist(),
        "dual_coef": m.dual_coef.tolist(),
        "bias": m.bias,
        "gamma": m.gamma,
        "platt_a": m.platt_a,
        "platt_b": m.platt_b,
        "converged": m.converged,
    }


def _binary_from_dict(d: dict, n_features: int) -> BinarySvmModel:
    sv = np.array(d["support_vectors"], dtype=np.float64)
    if sv.size == 0:
        sv = sv.reshape(0, n_features)
    return BinarySvmModel(
        support_vectors=sv,
        dual_coef=np.array(d["dual_coef"], dtype=np.float64),
        bias=float(d["bias"]),
        gamma=float(d["gamma"]),
        platt_a=float(d["platt_a"]),
        platt_b=float(d["platt_b"]),
        converged=bool(d["converged"]),
    )


def _multiclass_to_dict(m: MulticlassModel) -> dict:
    out = {
        "kind": m.kind,
        "classes": [render_label(c) for c in m.classes],
        "n_features": m.n_features,
    }
    if m.kind == SVM:
        out["binary_models"] = [_binary_to_dict(b) for b in m.binary_models]
    elif m.kind == LOGREG:
        out["weights"] = m.logreg_model.weights.tolist()
        out["bias"] = m.logreg_model.bias.tolist()
        out["converged"] = m.logreg_model.converged
    return out


def _multiclass_from_dict(d: dict) -> MulticlassModel:
    classes = [parse_label(c) for c in d["classes"]]
    kind = d["kind"]
    n_features = int(d["n_features"])
    model = MulticlassModel(kind=kind, classes=classes, n_features=n_features)
    if kind == SVM:
        model.binary_models = [_binary_from_dict(b, n_features) for b in d["binary_models"]]
    elif kind == LOGREG:
        weights = np.array(d["weights"], dtype=np.float64)
        model.logreg_model = LogRegModel(
            weights=weights.reshape(int(d["n_features"]), -1),
            bias=np.array(d["bias"], dtype=np.float64),
            converged=bool(d.get("converged", True)),
        )
    elif kind != "constant":
        raise ModelFileError(f"unknown local model kind {kind!r}")
    return model


def _config_to_dict(base_kind: str, config) -> dict:
    if base_kind == SVM:
        return {
            "C": config.C,
            "gamma": config.gamma,
            "kkt_tolerance": config.kkt_tolerance,
            "max_passes": config.max_passes,
        }
    return {
        "l2_strength": config.l2_strength,
        "learning_rate": config.learning_rate,
        "max_iterations": config.max_iterations,
        "tolerance": config.tolerance,
    }


def _config_from_dict(base_kind: str, d: dict):
    # older model files carry a config seed that never affected a fit
    d = {key: value for key, value in d.items() if key != "seed"}
    if base_kind == SVM:
        return SvmConfig(**d)
    return LogRegConfig(**d)


def save_model(model: HierModel, sink: IO[str]) -> None:
    """Write the model as versioned JSON; floats keep full precision."""
    taxonomy_nodes = [
        {"path": render_label(n), "name": model.taxonomy.names.get(n, "")}
        for n in model.taxonomy.nodes()
    ]
    payload = {
        "schema_version": _SCHEMA_VERSION,
        "base_kind": model.base_kind,
        "n_features": model.n_features,
        "kmer_config": (
            {
                "k_values": list(model.kmer_config.k_values),
                "normalization": model.kmer_config.normalization,
            }
            if model.kmer_config is not None
            else None
        ),
        "base_config": _config_to_dict(model.base_kind, model.base_config),
        "taxonomy": taxonomy_nodes,
        "node_models": {
            render_label(HierLabel(path)) if path else "": _multiclass_to_dict(m)
            for path, m in sorted(model.node_models.items())
        },
    }
    json.dump(payload, sink, indent=1)
    sink.write("\n")


def save_model_file(model: HierModel, path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        save_model(model, fh)


def load_model(source: IO[str]) -> HierModel:
    """Inverse of save_model; raises ModelFileError for unusable files."""
    try:
        payload = json.load(source)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ModelFileError(f"model file is not valid JSON: {exc}") from None
    if not isinstance(payload, dict) or "schema_version" not in payload:
        raise ModelFileError("model file has no schema_version field")
    if payload["schema_version"] != _SCHEMA_VERSION:
        raise ModelFileError(
            f"unsupported model schema version {payload['schema_version']!r}; "
            f"this build reads version {_SCHEMA_VERSION}"
        )
    try:
        names = {}
        labels = []
        for entry in payload["taxonomy"]:
            label = parse_label(entry["path"])
            labels.append(label)
            if entry.get("name"):
                names[label] = entry["name"]
        taxonomy = Taxonomy(labels, names)
        kc = payload.get("kmer_config")
        kmer_config = (
            KmerConfig(k_values=tuple(kc["k_values"]), normalization=kc["normalization"])
            if kc
            else None
        )
        base_kind = payload["base_kind"]
        node_models = {}
        for key, entry in payload["node_models"].items():
            path = () if key == "" else parse_label(key).path
            node_models[path] = _multiclass_from_dict(entry)
        return HierModel(
            taxonomy=taxonomy,
            base_kind=base_kind,
            node_models=node_models,
            base_config=_config_from_dict(base_kind, payload["base_config"]),
            kmer_config=kmer_config,
            n_features=int(payload["n_features"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ModelFileError(f"model file is truncated or malformed: {exc}") from None


def load_model_file(path) -> HierModel:
    with open(path, "r", encoding="utf-8") as fh:
        return load_model(fh)
