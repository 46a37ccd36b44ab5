"""Top-down hierarchical classification over per-parent-node local models.

``train_hier`` fits one local classifier (``fit_multiclass``) per parent
node, the implicit root included. A node's classes are its children and,
below the root, the node itself: the self class, for samples labeled at
the node. ``HierModel.node_models`` maps a taxonomy node id (0 is the root,
the rest preorder) to that model, whose ``classes`` are node ids.

``HierModel.proba_tables`` gives a batch's local probabilities as a
``ProbaTable``, and ``decode_nllcpn`` (greedy descent) and ``decode_lcpnb``
(path scoring) map a table to one node id per sample.

``save_model`` writes schema version 5 JSON, the one schema ``load_model``
reads. A loaded model predicts bit for bit as the saved one did; a file
that holds what training never writes raises ``ModelFileError``.
"""

from __future__ import annotations

import base64
import dataclasses
import json
import math
from dataclasses import dataclass
from typing import IO

import numpy as np

from .classifiers import LOGREG, SVM, MulticlassModel, fit_multiclass, pool_rows
from .errors import (
    DimensionError, FormatError, LabelParseError, ModelFileError, NumericError, TaxonomyError
)
from .kmers import KmerConfig, holds_normalization, k_values_of, kmer_config_of
from .labels import HierLabel, parse_label, render_label
from .logreg import LogRegConfig, LogRegModel
from .parallel import run_tasks
from .svm import BinarySvmModel, SvmConfig, SvmSolve, _KernelColumns
from .taxonomy import Taxonomy

NLLCPN = "nllcpn"
LCPNB = "lcpnb"
STRATEGIES = (NLLCPN, LCPNB)

_SCHEMA_VERSION = 5


@dataclass(frozen=True)
class ProbaTable:
    """Local probabilities of a batch by taxonomy node id: ``edge[s, v]`` is
    the probability of the edge into v at v's parent, ``stay[s, v]`` that of
    v's self class (0 for a class missing from a model), and ``trained[v]``
    marks the nodes that have a model."""

    edge: np.ndarray  # (n_samples, n_nodes)
    stay: np.ndarray  # (n_samples, n_nodes)
    trained: np.ndarray  # (n_nodes,) bool


@dataclass(frozen=True)
class PathScore:
    """One scored root-to-node path: terminal, mean score, edge probabilities."""

    terminal: HierLabel
    score: float
    edge_probabilities: tuple[float, ...]


def decode_nllcpn(taxonomy: Taxonomy, table: ProbaTable) -> np.ndarray:
    """Greedy descent: the node id each sample stops at.

    Each sample moves from the root to its local argmax class until it takes
    the self class or reaches a leaf or an untrained node; ties go to the
    first class in sorted order, the self class before the children. Raises
    TaxonomyError when a sample never leaves the root.
    """
    n, n_nodes = table.edge.shape
    # step[s, v]: the node sample s moves to from v; v itself ends the descent
    step = np.tile(np.arange(n_nodes), (n, 1))
    for v in np.flatnonzero(table.trained):
        classes = taxonomy.child_ids[v] if v == 0 else [v, *taxonomy.child_ids[v]]
        probs = np.column_stack([table.stay[:, c] if c == v else table.edge[:, c] for c in classes])
        step[:, v] = np.take(classes, probs.argmax(axis=1))
    node = np.zeros(n, dtype=np.intp)
    for _ in range(taxonomy.max_depth):
        node = step[np.arange(n), node]
    if (node == 0).any():
        raise TaxonomyError("prediction never left the root; no usable local model")
    return node


def _lcpnb_scores(taxonomy: Taxonomy, table: ProbaTable):
    """(candidate ids, their (n_samples, n_candidates) mean scores, which of
    them add a self edge) over the nodes reachable through trained parents."""
    if not table.trained[0]:
        raise TaxonomyError("root has no local model; nothing can be scored")
    reach = np.zeros(len(table.trained), dtype=bool)
    total = np.zeros_like(table.edge)
    for v in range(1, len(reach)):  # preorder: the parent's sum is ready
        p = taxonomy.parent_id[v]
        if table.trained[p] and (p == 0 or reach[p]):
            reach[v] = True
            total[:, v] = total[:, p] + table.edge[:, v]
    candidates = np.flatnonzero(reach)
    self_edge = np.array(
        [table.trained[v] and bool(taxonomy.child_ids[v]) for v in candidates], dtype=bool
    )
    edges = total[:, candidates] + np.where(self_edge, table.stay[:, candidates], 0.0)
    return candidates, edges / (taxonomy.node_depth[candidates] + self_edge), self_edge


def decode_lcpnb(taxonomy: Taxonomy, table: ProbaTable) -> np.ndarray:
    """Path scoring: the node id of each sample's best-scoring path.

    Every node reachable through trained parents scores the mean of the
    edge probabilities on its root path; a trained internal node adds its
    self-class probability as a last edge. Ties go to the deeper node, then
    the smaller id. Sums run edge by edge from the root, so scores and ties
    are exact. Raises TaxonomyError when the root has no model.
    """
    candidates, scores, _ = _lcpnb_scores(taxonomy, table)
    # argmax keeps the first maximum: deeper nodes first, then by id, which
    # within one depth is label order
    order = np.lexsort((candidates, -taxonomy.node_depth[candidates]))
    return candidates[order][scores[:, order].argmax(axis=1)]


def score_paths(taxonomy: Taxonomy, table: ProbaTable) -> list[PathScore]:
    """The lcpnb path table of a one-sample table, in taxonomy preorder."""
    candidates, (scores,), self_edge = _lcpnb_scores(taxonomy, table)
    out = []
    for v, score, own in zip(candidates, scores, self_edge):
        path = taxonomy.ancestor_ids[v, 1 : taxonomy.node_depth[v] + 1]
        edges = table.edge[0, path].tolist() + ([float(table.stay[0, v])] if own else [])
        out.append(PathScore(taxonomy.node_labels[v], float(score), tuple(edges)))
    return out


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
    node_models: dict[int, MulticlassModel]  # by taxonomy node id
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

    def proba_tables(self, X: np.ndarray, threads: int = 1) -> ProbaTable:
        """Every trained node's local probabilities for the batch.

        The node models are the tasks that ``threads`` worker processes
        share (``parallel.run_tasks``); the table is the same for any count.
        A node whose arithmetic overflows or makes a NaN raises NumericError.
        """
        X = self._check_input(X)
        n_nodes = len(self.taxonomy.node_labels)
        edge = np.zeros((X.shape[0], n_nodes))
        stay = np.zeros_like(edge)
        trained = np.zeros(n_nodes, dtype=bool)
        nodes = sorted(self.node_models)

        def node_proba(i: int) -> np.ndarray:
            # underflow is left alone: exp(-large) is 0 in the kernel and in Platt
            try:
                with np.errstate(over="raise", invalid="raise", divide="raise"):
                    return self.node_models[nodes[i]].predict_proba(X)
            except FloatingPointError as exc:
                label = self.taxonomy.node_labels[nodes[i]] or "(root)"
                raise NumericError(f"node model {label}: prediction failed: {exc}") from None

        computed = run_tasks(node_proba, len(nodes), threads)
        for v, probs in zip(nodes, computed):
            trained[v] = True
            classes = self.node_models[v].classes
            own = classes == v  # v's self class
            stay[:, classes[own]] = probs[:, own]
            edge[:, classes[~own]] = probs[:, ~own]
        return ProbaTable(edge, stay, trained)

    def predict(self, X: np.ndarray, strategy: str, threads: int = 1) -> list[HierLabel]:
        """Predict one hierarchy label per row; order follows the input.

        Raises FormatError for a nan or inf feature value.
        """
        if strategy not in STRATEGIES:
            raise ValueError(f"unknown strategy {strategy!r}; expected one of {STRATEGIES}")
        table = self.proba_tables(X, threads=threads)
        decode = decode_nllcpn if strategy == NLLCPN else decode_lcpnb
        labels = self.taxonomy.node_labels
        return [labels[v] for v in decode(self.taxonomy, table).tolist()]

    def path_scores(self, x: np.ndarray) -> list[PathScore]:
        """The full lcpnb score table for a single sample."""
        return score_paths(self.taxonomy, self.proba_tables(x))

    @property
    def untrained_nodes(self) -> list[HierLabel]:
        """Internal nodes that received no training data."""
        labels, kids = self.taxonomy.node_labels, self.taxonomy.child_ids
        return [labels[v] for v in range(1, len(kids)) if kids[v] and v not in self.node_models]


@dataclass
class CPath:
    """What ``train_hier`` calls on one training set share when they run at
    one gamma in ascending C: the set's kernel provider, which the first
    call builds, and by parent node id the one-vs-rest SVMs of the last call
    (``fit_multiclass``)."""

    columns: _KernelColumns | None = None
    solves: dict[int, list[SvmSolve | None]] = dataclasses.field(default_factory=dict)


def train_hier(
    X: np.ndarray,
    labels: list[HierLabel],
    taxonomy: Taxonomy,
    config: SvmConfig | LogRegConfig = SvmConfig(),
    threads: int = 1,
    path: CPath | None = None,
) -> HierModel:
    """Train one local classifier per parent node (root included).

    The type of ``config`` chooses the base classifier (``fit_multiclass``).
    A label that is no taxonomy node raises TaxonomyError, and a feature
    value that is not finite FormatError. A parent node with no training
    rows is left untrained. An SVM hierarchy builds one kernel provider for
    ``X`` and hands each node the slice of it for the node's rows; along a
    ``path`` it takes the path's provider and reuses the SVMs of the last
    call that are exact at this C. The nodes are the tasks of ``threads``
    worker processes, or of the calling process alone along a path; the
    model is the same for any count. The model's ``kmer_config`` is
    ``kmer_config_of(X)``, or None where the rows hold no k-mer features.
    """
    X = np.ascontiguousarray(X, dtype=np.float64)  # the root node trains on X itself
    if X.ndim != 2 or X.size == 0:  # a model file's pool rows need a width
        raise TaxonomyError("training data must be nonempty")
    if X.shape[0] != len(labels):
        raise DimensionError(f"{X.shape[0]} rows but {len(labels)} labels")
    _require_finite(X)
    ids = taxonomy.ids(labels, "training label")
    ancestors = taxonomy.ancestor_ids[ids]
    depths = taxonomy.node_depth[ids]

    parents = [v for v, kids in enumerate(taxonomy.child_ids) if kids]
    # one kernel provider for the training set; each node's rows are a subset
    kernel = path.columns if path is not None else None
    if kernel is None and isinstance(config, SvmConfig):
        kernel = _KernelColumns(X, config.gamma)
        if path is not None:
            path.columns = kernel

    def train_node(index: int):
        # rows under the parent; a label at the parent is its self class,
        # a deeper one the child on its path
        parent = parents[index]
        depth = taxonomy.node_depth[parent]
        rows = np.flatnonzero(ancestors[:, depth] == parent)
        if not rows.size:
            return None
        local = np.where(depths[rows] == depth, parent, ancestors[rows, depth + 1])
        X_rows = X if len(rows) == len(X) else X[rows]  # the root's rows need no copy
        columns = kernel.subset(rows, X_rows) if kernel is not None else None
        solves = path.solves.setdefault(parent, []) if path is not None else None
        return fit_multiclass(X_rows, local, config, columns, solves)

    # a path's solves are refilled in place, so its nodes train here
    trained = run_tasks(train_node, len(parents), threads if path is None else 1)
    try:
        kmer_config = kmer_config_of(X)
    except ValueError:
        kmer_config = None
    return HierModel(
        taxonomy=taxonomy,
        node_models={v: model for v, model in zip(parents, trained) if model is not None},
        base_config=config,
        kmer_config=kmer_config,
        n_features=X.shape[1],
    )


# -- serialization -----------------------------------------------------------


def _encode(values: np.ndarray) -> str:
    """Base64 of the little-endian float64 bytes of an array in C order."""
    return base64.b64encode(np.ascontiguousarray(values, dtype="<f8").tobytes()).decode("ascii")


def _finite(where: str, values) -> None:
    if not np.isfinite(values).all():
        raise ModelFileError(f"{where} holds a non-finite number")


def _decode(text, shape: tuple[int, ...], where: str, name: str) -> np.ndarray:
    """Inverse of _encode for an array of ``shape`` whose values are finite;
    a first dimension of -1 is as many rows as the bytes hold."""
    try:
        raw = base64.b64decode(text, validate=True)
    except (TypeError, ValueError):  # binascii.Error is a ValueError
        raise ModelFileError(f"{where}: {name} is not base64 text") from None
    if shape[0] == -1:
        row = 8 * math.prod(shape[1:])
        if len(raw) % row:
            raise ModelFileError(
                f"{where}: {name} holds {len(raw)} bytes, not a whole number of "
                f"rows of {row // 8} float64 values"
            )
        shape = (len(raw) // row, *shape[1:])
    if len(raw) != 8 * math.prod(shape):
        raise ModelFileError(
            f"{where}: {name} holds {len(raw)} bytes, but {shape} float64 values "
            f"take {8 * math.prod(shape)}"
        )
    values = np.frombuffer(raw, dtype="<f8").astype(np.float64).reshape(shape)
    _finite(f"{where} {name}", values)
    return values


def _object(value, name: str) -> dict:
    """``value``, which must be a JSON object."""
    if not isinstance(value, dict):
        raise ModelFileError(f"model file: {name} is not a JSON object")
    return value


def _listed(values, k: int, where: str, name: str, flags: bool = False) -> np.ndarray:
    """A list of k finite JSON numbers, or with ``flags`` k JSON booleans."""
    types = (bool,) if flags else (int, float)
    if not (isinstance(values, list) and len(values) == k and all(type(v) in types for v in values)):
        raise ModelFileError(
            f"{where}: {name} is not a list of {k} {'booleans' if flags else 'numbers'}"
        )
    out = np.array(values, dtype=bool if flags else np.float64)
    _finite(f"{where} {name}", out)
    return out


def _pool_index(index, pool: np.ndarray, where: str) -> np.ndarray:
    if not isinstance(index, list) or not all(
        type(i) is int and 0 <= i < len(pool) for i in index
    ):
        raise ModelFileError(
            f"{where}: pool_index holds an entry that is not a row of the "
            f"{len(pool)}-row pool"
        )
    return np.array(index, dtype=np.intp)


def _svm_to_dict(bank: BinarySvmModel, pool: dict[bytes, int]) -> dict:
    """A node bank, its support vectors added to ``pool``: the pool rows of
    its support vectors (``pool_index``), its ``dual_coef`` in base64, and
    lists of its columns' ``bias``, ``platt_a``, ``platt_b`` and
    ``converged``. A two-class bank holds class 0's column only.

    ``pool`` maps the little-endian bytes of each distinct support vector to
    its row in the file's pool, in order of first use.
    """
    return {
        "pool_index": pool_rows(bank.support_vectors, pool),
        "dual_coef": _encode(bank.dual_coef),
        "bias": bank.bias.tolist(),
        "platt_a": bank.platt_a.tolist(),
        "platt_b": bank.platt_b.tolist(),
        "converged": bank.converged.tolist(),
    }


def _svm_from_dict(d: dict, pool: np.ndarray, k: int, gamma: float, where: str) -> BinarySvmModel:
    """The bank of a node with k classes, of class 0's column only for two."""
    index = _pool_index(d["pool_index"], pool, where)
    stored = 1 if k == 2 else k
    return BinarySvmModel(
        support_vectors=pool[index],
        dual_coef=_decode(d["dual_coef"], (len(index), stored), where, "dual_coef"),
        bias=_listed(d["bias"], stored, where, "bias"),
        gamma=gamma,
        platt_a=_listed(d["platt_a"], stored, where, "platt_a"),
        platt_b=_listed(d["platt_b"], stored, where, "platt_b"),
        converged=_listed(d["converged"], stored, where, "converged", flags=True),
    )


def _multiclass_to_dict(m: MulticlassModel, paths: list[str], pool: dict[bytes, int]) -> dict:
    """One node's model; ``paths`` renders each node id as its dot-path."""
    out = {"classes": [paths[c] for c in m.classes.tolist()]}
    if isinstance(m.model, BinarySvmModel):
        out.update(_svm_to_dict(m.model, pool))
    elif isinstance(m.model, LogRegModel):
        out["weights"] = _encode(m.model.weights)
        out["bias"] = _encode(m.model.bias)
        out["converged"] = m.model.converged
    return out


def _multiclass_from_dict(
    d: dict, taxonomy: Taxonomy, node: int | None, key: str, n_features: int, pool, base_config
):
    """The model of node id ``node``, stored under the dot-path ``key`` ("" for
    the root), checked against the taxonomy and the feature width: constant
    for one class, otherwise of ``base_config``'s classifier."""
    where = f"node model {key or '(root)'}"
    if node is None or not taxonomy.child_ids[node]:
        raise ModelFileError(f"{where} is not the root or an internal node of the taxonomy")
    names = d["classes"]
    if not isinstance(names, list) or not all(type(c) is str for c in names):
        raise ModelFileError(f"{where}: classes is not a list of label strings")
    # ids follow label order, so sorted labels are sorted ids
    classes = np.array([taxonomy.node_index.get(parse_label(c).path, -1) for c in names], np.intp)
    allowed = set(taxonomy.child_ids[node]) | ({node} if node else set())
    if not names or (np.diff(classes) <= 0).any() or not allowed.issuperset(classes.tolist()):
        raise ModelFileError(
            f"{where}: classes {names} are not sorted, distinct and drawn from "
            f"the node's children{' and itself' if node else ''}"
        )
    if len(classes) == 1:
        return MulticlassModel(classes, n_features)
    if isinstance(base_config, SvmConfig):
        return MulticlassModel(
            classes, n_features, _svm_from_dict(d, pool, len(classes), base_config.gamma, where)
        )
    model = LogRegModel(
        weights=_decode(d["weights"], (n_features, len(classes)), where, "weights"),
        bias=_decode(d["bias"], (len(classes),), where, "bias"),
        converged=_listed([d["converged"]], 1, where, "converged", flags=True).item(),
    )
    return MulticlassModel(classes, n_features, model)


def _config_from_dict(base_kind: str, d) -> SvmConfig | LogRegConfig:
    """The config of ``base_kind`` from its fields in ``d``, which must hold
    every field: a missing one raises ModelFileError naming it, not its
    default. An unknown field or a value of the wrong type raises TypeError
    (a malformed file), and a value the config refuses ModelFileError naming
    it as a bad value."""
    _object(d, "base_config")
    if base_kind not in (SVM, LOGREG):
        raise ModelFileError(f"unknown base classifier kind {base_kind!r}")
    config_type = SvmConfig if base_kind == SVM else LogRegConfig
    for field in dataclasses.fields(config_type):
        if field.name not in d:
            raise ModelFileError(f"model file: base_config lacks {field.name}")
    try:
        return config_type(**d)
    except ValueError as exc:
        raise ModelFileError(f"model file: base_config holds a bad value: {exc}") from None


def save_model(model: HierModel, sink: IO[str]) -> None:
    """Write the model as schema version 5 JSON, which states each fact once.

    Every node and class is named by its dot-path (the root by ""). Scalars
    are JSON numbers and float arrays base64 of their little-endian float64
    bytes, so every value reads back exactly. Every distinct support vector
    of the model is stored once, in one top-level ``pool`` of
    ``n_features``-wide rows. A node's classifier is constant for one class
    and ``base_kind`` otherwise, its width is the file's and its gamma
    ``base_config``'s, which holds C and gamma for an SVM model and nothing
    for logreg; ``kmer_config`` holds the normalization, the width the k
    values (``k_values_of``).
    """
    taxonomy_nodes = [
        {"path": render_label(n), "name": model.taxonomy.names.get(n, "")}
        for n in model.taxonomy.nodes()
    ]
    pool: dict[bytes, int] = {}
    paths = ["", *(node["path"] for node in taxonomy_nodes)]  # by node id; "" is the root
    node_models = {
        paths[v]: _multiclass_to_dict(m, paths, pool) for v, m in sorted(model.node_models.items())
    }
    payload = {
        "schema_version": _SCHEMA_VERSION,
        "base_kind": SVM if isinstance(model.base_config, SvmConfig) else LOGREG,
        "n_features": model.n_features,
        "kmer_config": (
            {"normalization": model.kmer_config.normalization}
            if model.kmer_config is not None
            else None
        ),
        "base_config": dataclasses.asdict(model.base_config),
        "taxonomy": taxonomy_nodes,
        "node_models": node_models,
        "pool": _encode(np.frombuffer(b"".join(pool), dtype="<f8")),
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
    version = payload["schema_version"]
    if version in range(1, _SCHEMA_VERSION):
        raise ModelFileError(
            f"model schema version {version} is no longer read; retrain the model to write "
            f"a version {_SCHEMA_VERSION} file"
        )
    if version != _SCHEMA_VERSION:
        raise ModelFileError(
            f"unsupported model schema version {version!r}; this build reads "
            f"version {_SCHEMA_VERSION}"
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
        n_features = payload["n_features"]
        if type(n_features) is not int or n_features < 1:
            raise ModelFileError(f"model file: n_features {n_features!r} is not a positive integer")
        kc = payload.get("kmer_config")  # the width gives the k values, if it has any
        kmer_config = KmerConfig(k_values_of(n_features), kc["normalization"]) if kc else None
        pool = _decode(payload["pool"], (-1, n_features), "model file", "pool")
        if kmer_config is not None and not holds_normalization(pool, kmer_config.normalization):
            raise ModelFileError(
                f"model file: the pool's {n_features}-wide rows do not hold "
                f"{kmer_config.normalization!r} features; n_features or the pool is wrong"
            )
        base_config = _config_from_dict(payload["base_kind"], payload["base_config"])
        node_models = {}
        for key, entry in _object(payload["node_models"], "node_models").items():
            node = taxonomy.node_index.get(parse_label(key).path if key else ())
            if node in node_models:
                raise ModelFileError(
                    f"model file: node_models holds two entries for node "
                    f"{taxonomy.node_labels[node]}, the second under {key!r}"
                )
            node_models[node] = _multiclass_from_dict(
                entry, taxonomy, node, key, n_features, pool, base_config
            )
        if 0 not in node_models:
            raise ModelFileError('model file: node_models holds no root model (key "")')
        return HierModel(
            taxonomy=taxonomy,
            node_models=node_models,
            base_config=base_config,
            kmer_config=kmer_config,
            n_features=n_features,
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ModelFileError(f"model file is truncated or malformed: {exc}") from None
    except (LabelParseError, TaxonomyError) as exc:
        raise ModelFileError(f"model file: {exc}") from None


def load_model_file(path) -> HierModel:
    """load_model on the file at ``path``; a ModelFileError names the file."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return load_model(fh)
        except ModelFileError as exc:
            raise ModelFileError(f"{path}: {exc}") from None
