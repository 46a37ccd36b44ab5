"""Top-down hierarchical classification over per-parent-node local models.

Training is shared by both strategies: every internal node (and the implicit
root) gets one local multiclass classifier whose classes are the node's
children plus the node itself (the replicated-self class that lets a
prediction stop early). The root has no self class. A sample labeled exactly
at an internal node trains that node's self class; a sample labeled deeper
trains the child its path passes through. A node's rows are one mask over
the training labels' ancestor ids (``Taxonomy.ancestor_ids``). An SVM
hierarchy has one kernel provider per training set: the RBF Gram matrix of
all training rows is computed once, and every node's one-vs-rest SVMs solve
on the slice of it for the node's rows (above the full-Gram limit, where
no Gram is kept, each node builds its own provider).

Prediction works on taxonomy node ids (0 is the root, the rest preorder).
``HierModel.proba_tables`` runs every local model once over the batch and
returns a ``ProbaTable`` of ``(n_samples, n_nodes)`` arrays: ``edge[s, v]``
is the probability of the edge into v at v's parent, ``stay[s, v]`` that of
v's self class, and ``trained[v]`` marks the nodes that have a model. A
class missing from a model scores 0. The decoders are pure functions of a
taxonomy and a table, so stub tables drive them as well as trained models:

* greedy descent ("nllcpn"): move every sample from the root to its local
  argmax class, depth by depth, until it takes the self class or reaches a
  leaf or an untrained node. Ties go to the first class in sorted order,
  which puts the self class before the children.
* path scoring ("lcpnb"): score every node reachable through trained
  parents by the mean of the edge probabilities on its root path (a trained
  internal node adds its self-class probability as a last edge) and take
  the best; ties go to the deeper node, then the smaller label. Each
  column is summed edge by edge from the root, in the order of
  ``sum(edges)``, so scores and ties are exact.

``save_model`` writes schema version 3: JSON whose scalars are JSON numbers
(``repr`` round-trips a float exactly) and whose float arrays are base64 of
their little-endian float64 bytes. Every distinct support vector of the
model is stored once, in one ``pool`` of ``pool_rows`` rows: a node's
one-vs-rest SVMs share most of their support vectors, and a child node
trains on a subset of its parent's rows. An SVM node is stored as its bank
(``classifiers.svm_bank``): the ``pool_index`` of the bank's rows, its
(n, k) ``dual_coef``, ``gamma``, and lists of k ``bias``, ``platt_a``,
``platt_b`` and ``converged`` values. Loading takes the bank's rows as
``pool[pool_index]``, so the model and its predictions are the ones saved,
bit for bit. ``load_model`` also reads version 2 files, which list each
binary SVM of a node apart with the ``pool_index`` and ``dual_coef`` of its
own support vectors; it pools them into the bank as training does. Version 1
files are refused: retrain the model. Files are checked against themselves
and the taxonomy on load; any inconsistency raises ``ModelFileError``.
"""

from __future__ import annotations

import base64
import dataclasses
import json
import math
from dataclasses import dataclass
from typing import IO

import numpy as np

from .classifiers import LOGREG, SVM, MulticlassModel, fit_multiclass, pool_rows, svm_bank
from .errors import DimensionError, FormatError, LabelParseError, ModelFileError, TaxonomyError
from .kmers import KmerConfig
from .labels import HierLabel, parse_label, render_label
from .logreg import LogRegConfig, LogRegModel
from .parallel import run_tasks
from .svm import BinarySvmModel, SvmConfig, _KernelColumns
from .taxonomy import Taxonomy

NLLCPN = "nllcpn"
LCPNB = "lcpnb"
STRATEGIES = (NLLCPN, LCPNB)

_SCHEMA_VERSION = 3


@dataclass(frozen=True)
class ProbaTable:
    """Local probabilities of a batch by taxonomy node id (see module doc)."""

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
    """Greedy descent: the node id each sample stops at."""
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
    """Path scoring: the node id of each sample's best-scoring path."""
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

    def proba_tables(self, X: np.ndarray, threads: int = 1) -> ProbaTable:
        """Every trained node's local probabilities for the batch.

        The node models are the tasks that ``threads`` worker processes
        share (``parallel.run_tasks``); the table is the same for any count.
        """
        X = self._check_input(X)
        index = self.taxonomy.node_index
        edge = np.zeros((X.shape[0], len(index)))
        stay = np.zeros_like(edge)
        trained = np.zeros(len(index), dtype=bool)
        paths = sorted(self.node_models)
        computed = run_tasks(
            lambda i: self.node_models[paths[i]].predict_proba(X), len(paths), threads
        )
        for path, probs in zip(paths, computed):
            trained[index[path]] = True
            for col, cls in enumerate(self.node_models[path].classes):
                (stay if cls.path == path else edge)[:, index[cls.path]] = probs[:, col]
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
        return [
            n for n in self.taxonomy.internal_nodes() if n.path not in self.node_models
        ]


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
    left untrained; prediction treats them as terminals. An SVM hierarchy
    builds one kernel provider for the training set and hands each parent
    node the slice of it for the node's rows (``_KernelColumns.subset``);
    above the full-Gram limit each node builds its own. The parent nodes
    are the tasks that ``threads`` worker processes share
    (``parallel.run_tasks``); the model is the same for any worker count.
    """
    X = np.ascontiguousarray(X, dtype=np.float64)  # the root node trains on X itself
    if X.ndim != 2 or X.shape[0] == 0:
        raise TaxonomyError("training data must be nonempty")
    if X.shape[0] != len(labels):
        raise DimensionError(f"{X.shape[0]} rows but {len(labels)} labels")
    _require_finite(X)
    ids = taxonomy.ids(labels, "training label")
    if base_kind not in (SVM, LOGREG):
        raise ValueError(f"unknown base classifier kind {base_kind!r}")
    config_type = SvmConfig if base_kind == SVM else LogRegConfig
    if config is None:
        config = config_type()
    elif not isinstance(config, config_type):
        raise ValueError(f"a {base_kind} hierarchy needs a {config_type.__name__}")
    ancestors = taxonomy.ancestor_ids[ids]
    depths = taxonomy.node_depth[ids]

    parents = [v for v, kids in enumerate(taxonomy.child_ids) if kids]
    # one kernel provider for the training set; each node's rows are a subset
    kernel = _KernelColumns(X, config.gamma) if base_kind == SVM else None

    def train_node(index: int):
        # rows under the parent; a label at the parent is its self class,
        # a deeper one the child on its path
        parent = parents[index]
        depth = taxonomy.node_depth[parent]
        rows = np.flatnonzero(ancestors[:, depth] == parent)
        if not rows.size:
            return None
        local = np.where(depths[rows] == depth, parent, ancestors[rows, depth + 1])
        classes = [taxonomy.node_labels[c] for c in local.tolist()]
        X_rows = X if len(rows) == len(X) else X[rows]  # the root's rows need no copy
        columns = kernel.subset(rows, X_rows) if kernel is not None else None
        return fit_multiclass(base_kind, X_rows, classes, config, columns)

    trained = run_tasks(train_node, len(parents), threads)
    node_models = {
        taxonomy.node_paths[v]: model for v, model in zip(parents, trained) if model is not None
    }
    return HierModel(
        taxonomy=taxonomy,
        node_models=node_models,
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
    """Inverse of _encode for an array of ``shape`` whose values are finite."""
    try:
        raw = base64.b64decode(text, validate=True)
    except (TypeError, ValueError):  # binascii.Error is a ValueError
        raise ModelFileError(f"{where}: {name} is not base64 text") from None
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
    """A node bank, its support vectors added to ``pool``.

    ``pool`` maps the little-endian bytes of each distinct support vector to
    its row in the file's pool, in order of first use; the bank keeps the
    pool rows of its own support vectors, in its own order.
    """
    return {
        "pool_index": pool_rows(bank.support_vectors, pool),
        "dual_coef": _encode(bank.dual_coef),
        "gamma": bank.gamma,
        "bias": bank.bias.tolist(),
        "platt_a": bank.platt_a.tolist(),
        "platt_b": bank.platt_b.tolist(),
        "converged": bank.converged.tolist(),
    }


def _svm_from_dict(d: dict, pool: np.ndarray, k: int, where: str) -> BinarySvmModel:
    """The bank of a version 3 node with k classes."""
    index = _pool_index(d["pool_index"], pool, where)
    return BinarySvmModel(
        support_vectors=pool[index],
        dual_coef=_decode(d["dual_coef"], (len(index), k), where, "dual_coef"),
        bias=_listed(d["bias"], k, where, "bias"),
        gamma=_listed([d["gamma"]], 1, where, "gamma").item(),
        platt_a=_listed(d["platt_a"], k, where, "platt_a"),
        platt_b=_listed(d["platt_b"], k, where, "platt_b"),
        converged=_listed(d["converged"], k, where, "converged", flags=True),
    )


def _svm_from_v2(binaries, pool: np.ndarray, k: int, where: str) -> BinarySvmModel:
    """The bank of a version 2 node, which lists its k binary SVMs apart."""
    if not isinstance(binaries, list) or len(binaries) != k:
        raise ModelFileError(f"{where}: binary_models is not a list of {k} models")
    models = []
    for d in binaries:
        index = _pool_index(d["pool_index"], pool, where)
        keys = ("bias", "gamma", "platt_a", "platt_b")
        numbers = _listed([d[key] for key in keys], 4, where, ", ".join(keys)).tolist()
        coef = _decode(d["dual_coef"], (len(index),), where, "dual_coef")
        converged = _listed([d["converged"]], 1, where, "converged", flags=True).item()
        models.append(
            BinarySvmModel(pool[index], coef, converged=converged, **dict(zip(keys, numbers)))
        )
    if len({m.gamma for m in models}) > 1:  # the bank shares one kernel
        raise ModelFileError(f"{where}: its binary models disagree on gamma")
    return svm_bank(models)


def _multiclass_to_dict(m: MulticlassModel, pool: dict[bytes, int]) -> dict:
    out = {
        "kind": m.kind,
        "classes": [render_label(c) for c in m.classes],
        "n_features": m.n_features,
    }
    if m.kind == SVM:
        out.update(_svm_to_dict(m.svm, pool))
    elif m.kind == LOGREG:
        out["weights"] = _encode(m.logreg_model.weights)
        out["bias"] = _encode(m.logreg_model.bias)
        out["converged"] = m.logreg_model.converged
    return out


def _multiclass_from_dict(
    d: dict, taxonomy: Taxonomy, path: tuple, n_features: int, pool: np.ndarray, version: int
):
    """One node's model, checked against the taxonomy and the feature width."""
    where = f"node model {'.'.join(map(str, path)) or '(root)'}"
    node = taxonomy.node_index.get(path)
    if node is None or not taxonomy.child_ids[node]:
        raise ModelFileError(f"{where} is not the root or an internal node of the taxonomy")
    classes = [parse_label(c) for c in d["classes"]]
    allowed = {taxonomy.node_paths[c] for c in taxonomy.child_ids[node]} | ({path} if path else set())
    paths = [c.path for c in classes]
    if not paths or paths != sorted(set(paths)) or not allowed.issuperset(paths):
        raise ModelFileError(
            f"{where}: classes {d['classes']} are not sorted, distinct and drawn from "
            f"the node's children{' and itself' if path else ''}"
        )
    if int(d["n_features"]) != n_features:
        raise ModelFileError(f"{where} has {d['n_features']} features, not {n_features}")
    kind = d["kind"]
    model = MulticlassModel(kind=kind, classes=classes, n_features=n_features)
    if kind == SVM and version == 2:
        model.svm = _svm_from_v2(d["binary_models"], pool, len(classes), where)
    elif kind == SVM:
        model.svm = _svm_from_dict(d, pool, len(classes), where)
    elif kind == LOGREG:
        model.logreg_model = LogRegModel(
            weights=_decode(d["weights"], (n_features, len(classes)), where, "weights"),
            bias=_decode(d["bias"], (len(classes),), where, "bias"),
            converged=_listed([d["converged"]], 1, where, "converged", flags=True).item(),
        )
    elif kind != "constant":
        raise ModelFileError(f"{where}: unknown local model kind {kind!r}")
    elif len(classes) != 1:
        raise ModelFileError(f"{where}: a constant model has {len(classes)} classes, not 1")
    return model


def _config_from_dict(base_kind: str, d) -> SvmConfig | LogRegConfig:
    _finite("base_config", list(_object(d, "base_config").values()))
    if base_kind == SVM:
        return SvmConfig(**d)
    if base_kind == LOGREG:
        return LogRegConfig(**d)
    raise ModelFileError(f"unknown base classifier kind {base_kind!r}")


def save_model(model: HierModel, sink: IO[str]) -> None:
    """Write the model as schema version 3 JSON (see the module docstring)."""
    taxonomy_nodes = [
        {"path": render_label(n), "name": model.taxonomy.names.get(n, "")}
        for n in model.taxonomy.nodes()
    ]
    pool: dict[bytes, int] = {}
    node_models = {
        ".".join(map(str, path)): _multiclass_to_dict(m, pool)
        for path, m in sorted(model.node_models.items())
    }
    payload = {
        "schema_version": _SCHEMA_VERSION,
        "base_kind": SVM if isinstance(model.base_config, SvmConfig) else LOGREG,
        "n_features": model.n_features,
        "kmer_config": (
            {
                "k_values": list(model.kmer_config.k_values),
                "normalization": model.kmer_config.normalization,
            }
            if model.kmer_config is not None
            else None
        ),
        "base_config": dataclasses.asdict(model.base_config),
        "taxonomy": taxonomy_nodes,
        "node_models": node_models,
        "pool_rows": len(pool),
        "pool": _encode(np.frombuffer(b"".join(pool), dtype="<f8")),
    }
    json.dump(payload, sink, indent=1)
    sink.write("\n")


def save_model_file(model: HierModel, path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        save_model(model, fh)


def load_model(source: IO[str]) -> HierModel:
    """Inverse of save_model, for version 2 and 3 files; raises
    ModelFileError for unusable files."""
    try:
        payload = json.load(source)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ModelFileError(f"model file is not valid JSON: {exc}") from None
    if not isinstance(payload, dict) or "schema_version" not in payload:
        raise ModelFileError("model file has no schema_version field")
    version = payload["schema_version"]
    if version == 1:
        raise ModelFileError(
            "model schema version 1 is no longer read; retrain the model to write "
            f"a version {_SCHEMA_VERSION} file"
        )
    if version not in (2, _SCHEMA_VERSION):
        raise ModelFileError(
            f"unsupported model schema version {version!r}; this build reads "
            f"versions 2 and {_SCHEMA_VERSION}"
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
        n_features = int(payload["n_features"])
        shape = (int(payload["pool_rows"]), n_features)
        pool = _decode(payload["pool"], shape, "model file", "pool")
        node_models = {}
        for key, entry in _object(payload["node_models"], "node_models").items():
            path = () if key == "" else parse_label(key).path
            node_models[path] = _multiclass_from_dict(
                entry, taxonomy, path, n_features, pool, version
            )
        return HierModel(
            taxonomy=taxonomy,
            node_models=node_models,
            base_config=_config_from_dict(payload["base_kind"], payload["base_config"]),
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
