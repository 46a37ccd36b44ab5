"""Independent reference implementations used to check the package.

Everything here is deliberately naive: substring scans, explicit set
algebra, exhaustive enumeration, and a projected-gradient QP solver. None of
it shares code with the package internals it audits; the label-keyed
decoders and metrics below use only the package's data types (labels,
taxonomies, ``PathScore``, ``HierMetrics``).
"""

from __future__ import annotations

import csv
import functools
from collections import deque

import numpy as np

from tehier.classifiers import fit_multiclass
from tehier.errors import DimensionError, FormatError, TaxonomyError
from tehier.hierarchy import HierModel, PathScore, ProbaTable
from tehier.kmers import RELATIVE_FREQUENCY, KmerConfig, canonical_feature_order
from tehier.labels import HierLabel, render_label
from tehier.metrics import HierMetrics
from tehier.sequence_io import Sequence
from tehier.synth import _DIRICHLET_ALPHA, _node_chain, node_allocation


def naive_kmer_counts(residues: str, k: int) -> dict[str, int]:
    """Count k-mers by scanning every substring; windows with non-ACGT skip."""
    counts: dict[str, int] = {}
    for i in range(len(residues) - k + 1):
        window = residues[i : i + k]
        if all(c in "ACGT" for c in window):
            counts[window] = counts.get(window, 0) + 1
    return counts


def valid_window_count(residues, k: int) -> int:
    """Number of length-k windows made purely of A/C/G/T."""
    residues = getattr(residues, "residues", residues)
    return sum(set(residues[i : i + k]) <= set("ACGT") for i in range(len(residues) - k + 1))


def naive_feature_vector(residues: str, k_values, normalization: str) -> np.ndarray:
    """Canonical-order vector built from naive_kmer_counts."""
    import itertools

    blocks = []
    for k in k_values:
        names = ["".join(p) for p in itertools.product("ACGT", repeat=k)]
        counts = naive_kmer_counts(residues, k)
        block = np.array([float(counts.get(name, 0)) for name in names])
        if normalization == "freq":
            total = block.sum()
            if total > 0:
                block = block / total
        blocks.append(block)
    return np.concatenate(blocks)


_ENCODE = np.full(256, 4, dtype=np.uint8)
for _i, _b in enumerate(b"ACGT"):
    _ENCODE[_b] = _i


def count_kmers_reference(residues: str, k: int) -> np.ndarray:
    """The package's original per-sequence counter: a sliding window over
    the 2-bit codes, windows with a non-ACGT code dropped, one bincount."""
    from numpy.lib.stride_tricks import sliding_window_view

    raw = np.frombuffer(residues.encode("ascii", errors="replace"), dtype=np.uint8)
    enc = _ENCODE[raw]
    if enc.size < k:
        return np.zeros(4**k, dtype=np.int64)
    windows = sliding_window_view(enc, k)
    valid = (windows < 4).all(axis=1)
    if not valid.any():
        return np.zeros(4**k, dtype=np.int64)
    powers = 4 ** np.arange(k - 1, -1, -1, dtype=np.int64)
    idx = windows[valid].astype(np.int64) @ powers
    return np.bincount(idx, minlength=4**k).astype(np.int64)


def featurize_reference(residues: str, config: KmerConfig) -> np.ndarray:
    """The package's original per-sequence, per-k feature vector."""
    blocks = []
    for k in config.k_values:
        counts = count_kmers_reference(residues, k).astype(np.float64)
        if config.normalization == RELATIVE_FREQUENCY:
            total = counts.sum()
            if total > 0:
                counts /= total
        blocks.append(counts)
    return np.concatenate(blocks)


# -- synthetic sequences -------------------------------------------------------


def sample_sequence_reference(rng: np.random.Generator, chain: np.ndarray, length: int) -> str:
    """The package's original one-residue-at-a-time Markov walk."""
    cumulative = np.cumsum(chain, axis=1)
    out = np.empty(length, dtype=np.int64)
    out[0] = rng.integers(4)
    draws = rng.random(length - 1)
    for i in range(1, length):
        out[i] = np.searchsorted(cumulative[out[i - 1]], draws[i - 1], side="right")
    return "".join("ACGT"[min(b, 3)] for b in out)


def generate_reference(spec) -> list[Sequence]:
    """``synth.generate`` with one sequence sampled at a time; the chains and
    the per-node counts come from the package, only the walk is the old one."""
    rng_base = np.random.default_rng([spec.seed, 3])
    base = rng_base.dirichlet([_DIRICHLET_ALPHA] * 4, size=4)
    random_parts: dict[tuple, np.ndarray] = {}
    records: list[Sequence] = []
    lo, hi = spec.length_range
    for node, count in node_allocation(spec).items():
        if count == 0:
            continue
        chain = _node_chain(spec, base, random_parts, node)
        rng = np.random.default_rng([spec.seed, 11, *node.path])
        lengths = rng.integers(lo, hi + 1, size=count)
        for i in range(count):
            records.append(
                Sequence(
                    id=f"synth-{node}-{i:04d}",
                    residues=sample_sequence_reference(rng, chain, int(lengths[i])),
                    label=node,
                )
            )
    return records


# -- hierarchical metrics ------------------------------------------------------


def ancestor_set(path: tuple[int, ...]) -> set[tuple[int, ...]]:
    return {path[:d] for d in range(1, len(path) + 1)}


def naive_hier_prf(pairs: list[tuple[tuple[int, ...], tuple[int, ...]]]):
    """(hP, hR, hF) from explicit ancestor-closed set construction."""
    hits = pred = true = 0
    for p_path, t_path in pairs:
        p_set = ancestor_set(p_path)
        t_set = ancestor_set(t_path)
        hits += len(p_set & t_set)
        pred += len(p_set)
        true += len(t_set)
    hp = hits / pred
    hr = hits / true
    hf = 0.0 if hp + hr == 0 else 2 * hp * hr / (hp + hr)
    return hp, hr, hf


def set_algebra_hier_metrics(pairs, taxonomy) -> HierMetrics:
    """hP/hR/hF and per-level F from explicit sets of ancestor paths."""
    unknown = [label for pair in pairs for label in pair if label not in taxonomy]
    if unknown:
        raise TaxonomyError(f"label {unknown[0]} is not a taxonomy node")

    def counts(selected):
        hits = pred = true = 0
        for predicted, truth in selected:
            p_set, t_set = ancestor_set(predicted), ancestor_set(truth)
            hits += len(p_set & t_set)
            pred += len(p_set)
            true += len(t_set)
        return hits, pred, true

    def f(hp, hr):
        return 0.0 if hp + hr == 0 else 2.0 * hp * hr / (hp + hr)

    paths = [(p.path, t.path) for p, t in pairs]
    hits, pred, true = counts(paths)
    per_level = []
    for level in range(1, taxonomy.max_depth + 1):
        kept = [(p[:level], t[:level]) for p, t in paths if len(t) >= level]
        if kept:
            l_hits, l_pred, l_true = counts(kept)
            per_level.append(f(l_hits / l_pred, l_hits / l_true))
        else:
            per_level.append(None)
    return HierMetrics(
        hp=hits / pred, hr=hits / true, hf=f(hits / pred, hits / true),
        per_level_f=tuple(per_level), n_samples=len(pairs),
    )


# -- top-down strategies -------------------------------------------------------


def greedy_descent(taxonomy, probas) -> HierLabel:
    """The nllcpn walk for one sample over a label table: trained parent path
    tuple -> {class label: probability}."""
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
        if not taxonomy.child_ids[taxonomy.node_index[cur]]:  # a leaf
            break
    if not cur:
        raise TaxonomyError("prediction never left the root; no usable local model")
    return HierLabel(cur)


def score_all_paths(taxonomy, probas) -> list[PathScore]:
    """The lcpnb path table for one sample over a label table, in preorder.

    Candidates are all nodes reachable through trained parents. An internal
    trained terminal contributes its self-class probability as a final edge;
    classes missing from a parent's table score 0.
    """
    scores: list[PathScore] = []
    if () not in probas:
        raise TaxonomyError("root has no local model; nothing can be scored")
    labels, kids = taxonomy.node_labels, taxonomy.child_ids
    root_dist = probas[()]
    stack = [(v, (float(root_dist.get(labels[v], 0.0)),)) for v in reversed(kids[0])]
    while stack:
        v, edges = stack.pop()
        node = labels[v]
        own_dist = probas.get(node.path)
        if not kids[v] or own_dist is None:
            scored_edges = edges
        else:
            scored_edges = edges + (float(own_dist.get(node, 0.0)),)
        scores.append(PathScore(node, sum(scored_edges) / len(scored_edges), scored_edges))
        if own_dist is not None:
            for child in reversed(kids[v]):
                stack.append((child, edges + (float(own_dist.get(labels[child], 0.0)),)))
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
            depth, best_depth = len(cand.terminal.path), len(best.terminal.path)
            if depth > best_depth or (depth == best_depth and cand.terminal < best.terminal):
                best = cand
    return best


def stub_proba_table(taxonomy, tables) -> ProbaTable:
    """The array table of a list of per-sample label tables (as taken by
    ``greedy_descent``) that share one set of trained parents."""
    index = taxonomy.node_index
    edge = np.zeros((len(tables), len(index)))
    stay = np.zeros_like(edge)
    trained = np.zeros(len(index), dtype=bool)
    for row, probas in enumerate(tables):
        for parent, dist in probas.items():
            trained[index[parent]] = True
            for cls, p in dist.items():
                (stay if cls.path == parent else edge)[row, index[cls.path]] = p
    return ProbaTable(edge, stay, trained)


def greedy_chain_oracle(tree: dict, probas: dict) -> tuple[int, ...]:
    """Greedy descent over a stub tree.

    ``tree`` maps each node path tuple to its (sorted) child path tuples,
    with () for the root; ``probas`` maps trained parent path tuples to
    {class path tuple: probability}.
    """
    current: tuple[int, ...] = ()
    while True:
        dist = probas.get(current)
        if dist is None:
            break
        # argmax with ties to the smallest class path
        best_class = None
        for cls in sorted(dist):
            if best_class is None or dist[cls] > dist[best_class]:
                best_class = cls
        if best_class == current:
            break
        current = best_class
        if not tree.get(current):
            break
    assert current != ()
    return current


def exhaustive_path_oracle(tree: dict, probas: dict) -> tuple[tuple[int, ...], dict]:
    """Score every reachable node by its mean edge probability and take the
    best (ties: deeper, then smaller path)."""
    all_nodes = [n for n in tree if n != ()]
    scores: dict[tuple[int, ...], float] = {}
    for node in all_nodes:
        prefixes = [node[:d] for d in range(0, len(node))]  # root .. parent
        if any(p not in probas for p in prefixes):
            continue  # unreachable through an untrained parent
        edges = []
        for depth, parent in enumerate(prefixes):
            child = node[: depth + 1]
            edges.append(probas[parent].get(child, 0.0))
        if tree.get(node) and node in probas:  # internal and trained: self edge
            edges.append(probas[node].get(node, 0.0))
        scores[node] = sum(edges) / len(edges)
    best = None
    for node, score in scores.items():
        if best is None:
            best = node
            continue
        if (score, len(node), [-c for c in node]) > (
            scores[best],
            len(best),
            [-c for c in best],
        ):
            best = node
    return best, scores


def random_stub_problem(rng: np.random.Generator, max_depth=4, max_branch=3):
    """A random taxonomy plus stub local distributions for strategy tests.

    Some internal nodes are randomly left untrained; probabilities are drawn
    on a coarse grid so exact ties actually occur.
    """
    tree: dict[tuple[int, ...], list[tuple[int, ...]]] = {(): []}

    def grow(node, depth):
        if depth >= max_depth:
            tree[node] = []
            return
        n_children = int(rng.integers(0 if depth > 0 else 1, max_branch + 1))
        children = [node + (i + 1,) for i in range(n_children)]
        tree[node] = children
        for child in children:
            grow(child, depth + 1)

    grow((), 0)
    probas: dict[tuple[int, ...], dict[tuple[int, ...], float]] = {}
    for node, children in tree.items():
        if not children:
            continue
        if node != () and rng.random() < 0.15:
            continue  # untrained internal node
        classes = list(children) + ([node] if node != () else [])
        raw = rng.integers(0, 5, size=len(classes)).astype(float)
        if raw.sum() == 0:
            raw[0] = 1.0
        dist = raw / raw.sum()
        probas[node] = dict(zip(classes, dist))
    return tree, probas


# -- finite differences ----------------------------------------------------------


def finite_difference_logreg_gradient(loss_fn, weights, bias, h=1e-5):
    """Central-difference gradient of loss_fn(weights, bias)."""
    grad_w = np.zeros_like(weights)
    grad_b = np.zeros_like(bias)
    for idx in np.ndindex(weights.shape):
        bump = np.zeros_like(weights)
        bump[idx] = h
        grad_w[idx] = (loss_fn(weights + bump, bias) - loss_fn(weights - bump, bias)) / (2 * h)
    for i in range(bias.shape[0]):
        bump = np.zeros_like(bias)
        bump[i] = h
        grad_b[i] = (loss_fn(weights, bias + bump) - loss_fn(weights, bias - bump)) / (2 * h)
    return grad_w, grad_b


# -- QP oracle -----------------------------------------------------------------


def project_to_feasible(v: np.ndarray, y: np.ndarray, C: float) -> np.ndarray:
    """Exact Euclidean projection onto {0 <= a <= C, y'a = 0}.

    The projection is clip(v - lam*y, 0, C) for the multiplier lam solving
    y'clip(v - lam*y, 0, C) = 0; that function of lam is piecewise linear and
    non-increasing, so the root is found by scanning its breakpoints.
    """
    pos = y > 0
    w_pos = v[pos]
    w_neg = -v[~pos]

    breakpoints = np.sort(
        np.concatenate([w_pos, w_pos - C, w_neg, w_neg + C])
    )

    def phi(lams):
        lams = np.asarray(lams)[:, None]
        total = np.clip(w_pos[None, :] - lams, 0.0, C).sum(axis=1)
        total -= np.clip(lams - w_neg[None, :], 0.0, C).sum(axis=1)
        return total

    values = phi(breakpoints)
    # first breakpoint where phi <= 0; both classes present => a crossing exists
    idx = int(np.argmax(values <= 0.0))
    if values[idx] == 0.0 or idx == 0:
        lam = breakpoints[idx]
    else:
        lo, hi = breakpoints[idx - 1], breakpoints[idx]
        flo, fhi = values[idx - 1], values[idx]
        lam = lo if flo == fhi else lo + (hi - lo) * flo / (flo - fhi)
    return np.clip(v - lam * y, 0.0, C)


def projected_gradient_qp(
    K: np.ndarray,
    y: np.ndarray,
    C: float,
    iterations: int = 400_000,
    plateau: float = 1e-9,
    check_every: int = 10_000,
) -> tuple[np.ndarray, float]:
    """Maximize W(a) = 1'a - 1/2 (a*y)'K(a*y) over the SVM dual feasible set.

    Plain projected gradient ascent with a small fixed step (1/eigmax);
    stops early once a whole block of iterations improves the objective by
    less than ``plateau``.
    """
    n = y.shape[0]
    Q = K * np.outer(y, y)
    eigmax = np.linalg.eigvalsh(Q)[-1]
    step = 1.0 / max(eigmax, 1e-9)

    def objective(a):
        return float(a.sum() - 0.5 * a @ Q @ a)

    alpha = project_to_feasible(np.full(n, min(C, 1.0) / 2), y, C)
    last = objective(alpha)
    done = 0
    while done < iterations:
        for _ in range(check_every):
            grad = 1.0 - Q @ alpha
            alpha = project_to_feasible(alpha + step * grad, y, C)
        done += check_every
        current = objective(alpha)
        if current - last < plateau:
            break
        last = current
    return alpha, objective(alpha)


def dual_objective(K: np.ndarray, y: np.ndarray, alpha: np.ndarray) -> float:
    """Dual objective W(a) = 1'a - 1/2 a'Qa (the quantity SMO maximizes)."""
    ay = alpha * y
    return float(alpha.sum() - 0.5 * ay @ K @ ay)


def kkt_violations(K: np.ndarray, y: np.ndarray, alpha: np.ndarray, bias: float, C: float) -> np.ndarray:
    """Per-sample KKT violation magnitudes for an audit.

    For margins m_i = y_i f(x_i): alpha=0 wants m_i >= 1, alpha=C wants
    m_i <= 1, free alphas want m_i = 1; the returned value is how far each
    sample is on the wrong side (0 when satisfied).
    """
    f = K @ (alpha * y) + bias
    margins = y * f
    viol = np.zeros_like(margins)
    at_zero = alpha <= 0.0
    at_c = alpha >= C
    free = ~(at_zero | at_c)
    viol[at_zero] = np.maximum(0.0, 1.0 - margins[at_zero])
    viol[at_c] = np.maximum(0.0, margins[at_c] - 1.0)
    viol[free] = np.abs(margins[free] - 1.0)
    return viol


def rbf_kernel(x: np.ndarray, y: np.ndarray, gamma: float) -> float:
    """exp(-gamma * ||x - y||^2) for a single pair of equal-length vectors."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1:
        raise DimensionError(f"kernel arguments have shapes {x.shape} and {y.shape}")
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    diff = x - y
    return float(np.exp(-gamma * np.dot(diff, diff)))


def rbf_kernel_matrix_reference(X, Y, gamma: float) -> np.ndarray:
    """The RBF kernel matrix as one expression in the package's order of
    operations, -2 x.y + |x|^2 + |y|^2 with one dot product per row norm; it
    holds (n_X, n_Y) temporaries beside the result, and
    ``svm.rbf_kernel_matrix`` must equal it bit for bit."""
    x_norms = np.einsum("ij,ij->i", X, X)
    y_norms = np.einsum("ij,ij->i", Y, Y)
    sq = -2.0 * (X @ Y.T) + x_norms[:, None] + y_norms[None, :]
    return np.exp(-gamma * np.maximum(sq, 0.0))


def train_hier_per_node_reference(X, labels, taxonomy, config) -> HierModel:
    """``train_hier`` as it was before a training set shared one Gram matrix:
    every parent node calls ``fit_multiclass`` on its own rows, which builds
    the node's own kernel provider. Serial, and without the input checks."""
    ids = taxonomy.ids(labels, "training label")
    ancestors = taxonomy.ancestor_ids[ids]
    depths = taxonomy.node_depth[ids]
    node_models = {}
    for parent, kids in enumerate(taxonomy.child_ids):
        depth = taxonomy.node_depth[parent]
        rows = np.flatnonzero(ancestors[:, depth] == parent)
        if not kids or not rows.size:
            continue
        local = np.where(depths[rows] == depth, parent, ancestors[rows, depth + 1])
        node_models[parent] = fit_multiclass(X[rows], local, config)
    return HierModel(taxonomy, node_models, config, None, X.shape[1])


# -- SMO -------------------------------------------------------------------------

_SNAP = 1e-12


def smo_reference(K_columns, y: np.ndarray, C: float, tol: float, max_iter: int):
    """The package's original SMO loop, kept verbatim as a bit-for-bit oracle.

    It rebuilds v = -y * grad and the I_up / I_low masks every iteration.
    Returns (alpha, bias, converged). ``K_columns`` is either a callable
    i -> column or an object with a ``column`` method.
    """
    column = K_columns.column if hasattr(K_columns, "column") else K_columns
    n = y.shape[0]
    alpha = np.zeros(n)
    grad = -np.ones(n)  # gradient of the dual objective at alpha = 0
    converged = False
    bias = 0.0

    def select_pair():
        # v = -y * grad; the optimal bias lies between max over I_up and min over I_low
        v = -y * grad
        up = ((y > 0) & (alpha < C)) | ((y < 0) & (alpha > 0))
        low = ((y > 0) & (alpha > 0)) | ((y < 0) & (alpha < C))
        if not up.any() or not low.any():
            return None
        v_up = np.where(up, v, -np.inf)
        v_low = np.where(low, v, np.inf)
        i = int(np.argmax(v_up))
        j = int(np.argmin(v_low))
        return i, j, v_up[i], v_low[j]

    for _ in range(max_iter):
        selected = select_pair()
        if selected is None:
            converged = True
            break
        i, j, v_hi, v_lo = selected
        gap = v_hi - v_lo
        bias = 0.5 * (v_hi + v_lo)
        if gap <= tol:
            converged = True
            break

        col_i = column(i)
        col_j = column(j)
        quad = col_i[i] + col_j[j] - 2.0 * col_i[j]
        if quad <= 1e-12:
            quad = 1e-12
        step = gap / quad

        # feasible step length preserving the box constraints
        limit_i = (C - alpha[i]) if y[i] > 0 else alpha[i]
        limit_j = alpha[j] if y[j] > 0 else (C - alpha[j])
        step = min(step, limit_i, limit_j)

        new_i = alpha[i] + y[i] * step
        new_j = alpha[j] - y[j] * step
        if new_i < _SNAP * C:
            new_i = 0.0
        elif new_i > C * (1.0 - _SNAP):
            new_i = C
        if new_j < _SNAP * C:
            new_j = 0.0
        elif new_j > C * (1.0 - _SNAP):
            new_j = C

        delta_i = new_i - alpha[i]
        delta_j = new_j - alpha[j]
        alpha[i] = new_i
        alpha[j] = new_j
        grad += y * (y[i] * delta_i * col_i + y[j] * delta_j * col_j)
    else:
        # iteration budget exhausted: refresh the bias for the final alphas
        selected = select_pair()
        if selected is not None:
            bias = 0.5 * (selected[2] + selected[3])

    return alpha, float(bias), converged


def smo_inplace_reference(K_columns, y: np.ndarray, C: float, tol: float, max_iter: int):
    """The in-place SMO loop that ``svm.smo_solve`` replaced, kept verbatim
    as a bit-for-bit oracle for it.

    Returns (alpha, bias, converged, grad), where grad is the dual gradient
    Q alpha - 1 at the returned alpha. ``K_columns`` is either a callable
    i -> column or an object with a ``column`` method.
    """
    column = K_columns.column if hasattr(K_columns, "column") else K_columns
    n = y.shape[0]
    alpha = np.zeros(n)
    # v = -y * grad, and the optimal bias lies between max v over I_up and
    # min v over I_low. v_up / v_low hold v on those index sets and -inf / +inf
    # elsewhere; they are updated in place, and their membership only at the
    # two indices an iteration changes. With y = +-1 every update is exact,
    # so this is the same arithmetic as recomputing -y * grad each time.
    v = y.astype(np.float64)  # grad = -1 at alpha = 0
    v_up = np.where(y > 0, v, -np.inf)
    v_low = np.where(y < 0, v, np.inf)
    converged = False
    bias = 0.0

    def select_pair():
        i = int(np.argmax(v_up))
        j = int(np.argmin(v_low))
        if v_up[i] == -np.inf or v_low[j] == np.inf:
            return None  # I_up or I_low is empty
        return i, j, v_up[i], v_low[j]

    def refresh(k):
        up = alpha[k] < C if y[k] > 0 else alpha[k] > 0
        low = alpha[k] > 0 if y[k] > 0 else alpha[k] < C
        v_up[k] = v[k] if up else -np.inf
        v_low[k] = v[k] if low else np.inf

    for _ in range(max_iter):
        selected = select_pair()
        if selected is None:
            converged = True
            break
        i, j, v_hi, v_lo = selected
        gap = v_hi - v_lo
        bias = 0.5 * (v_hi + v_lo)
        if gap <= tol:
            converged = True
            break

        col_i = column(i)
        col_j = column(j)
        quad = col_i[i] + col_j[j] - 2.0 * col_i[j]
        if quad <= 1e-12:
            quad = 1e-12
        step = gap / quad

        # feasible step length preserving the box constraints
        limit_i = (C - alpha[i]) if y[i] > 0 else alpha[i]
        limit_j = alpha[j] if y[j] > 0 else (C - alpha[j])
        step = min(step, limit_i, limit_j)

        new_i = alpha[i] + y[i] * step
        new_j = alpha[j] - y[j] * step
        if new_i < _SNAP * C:
            new_i = 0.0
        elif new_i > C * (1.0 - _SNAP):
            new_i = C
        if new_j < _SNAP * C:
            new_j = 0.0
        elif new_j > C * (1.0 - _SNAP):
            new_j = C

        delta_i = new_i - alpha[i]
        delta_j = new_j - alpha[j]
        alpha[i] = new_i
        alpha[j] = new_j
        # grad += y * change  <=>  v -= change
        change = y[i] * delta_i * col_i + y[j] * delta_j * col_j
        v -= change
        v_up -= change
        v_low -= change
        refresh(i)
        refresh(j)
    else:
        # iteration budget exhausted: refresh the bias for the final alphas
        selected = select_pair()
        if selected is not None:
            bias = 0.5 * (selected[2] + selected[3])

    return alpha, float(bias), converged, -y * v


# -- logistic regression -----------------------------------------------------------


def platt_calibrate_reference(decision_values, labels) -> tuple[float, float]:
    """The package's original Platt fit, whose sigmoid and softplus take both
    ``np.where`` branches (and so overflow in one of them for large |z|)."""
    f = np.asarray(decision_values, dtype=np.float64)
    y = np.asarray(labels, dtype=np.float64)
    n_pos = int((y > 0).sum())
    n_neg = int((y <= 0).sum())
    hi = (n_pos + 1.0) / (n_pos + 2.0)
    lo = 1.0 / (n_neg + 2.0)
    t = np.where(y > 0, hi, lo)

    def objective(a, b):
        z = a * f + b
        softplus = np.where(z >= 0, z + np.log1p(np.exp(-z)), np.log1p(np.exp(z)))
        return float(np.sum(t * z + softplus - z))

    sigma = 1e-12
    a, b = 0.0, np.log((n_neg + 1.0) / (n_pos + 1.0))
    fval = objective(a, b)
    for _ in range(100):
        p = platt_probability_reference(f, a, b)
        d1 = t - p
        d2 = p * (1.0 - p)
        g1 = float(np.dot(f, d1))
        g2 = float(np.sum(d1))
        if abs(g1) < 1e-5 and abs(g2) < 1e-5:
            break
        h11 = float(np.dot(f * f, d2)) + sigma
        h22 = float(np.sum(d2)) + sigma
        h21 = float(np.dot(f, d2))
        det = h11 * h22 - h21 * h21
        da = -(h22 * g1 - h21 * g2) / det
        db = -(-h21 * g1 + h11 * g2) / det
        gd = g1 * da + g2 * db

        stepsize = 1.0
        while stepsize >= 1e-10:
            new_a = a + stepsize * da
            new_b = b + stepsize * db
            new_f = objective(new_a, new_b)
            if new_f < fval + 1e-4 * stepsize * gd:
                a, b, fval = new_a, new_b, new_f
                break
            stepsize /= 2.0
        else:
            break
    return float(a), float(b)


def platt_probability_reference(decision_values, a: float, b: float) -> np.ndarray:
    z = a * np.asarray(decision_values, dtype=np.float64) + b
    return np.where(z >= 0, np.exp(-z) / (1.0 + np.exp(-z)), 1.0 / (1.0 + np.exp(z)))


def platt_calibrate_stable_reference(decision_values, labels) -> tuple[float, float]:
    """The overflow-free Platt fit written plainly: every Newton step
    recomputes z = a f + b and exp(-|z|) for its sigmoid, and h11 forms f * f
    again."""
    f = np.asarray(decision_values, dtype=np.float64)
    y = np.asarray(labels, dtype=np.float64)
    n_pos = int((y > 0).sum())
    n_neg = int((y <= 0).sum())
    hi = (n_pos + 1.0) / (n_pos + 2.0)
    lo = 1.0 / (n_neg + 2.0)
    t = np.where(y > 0, hi, lo)

    def objective(a, b):
        z = a * f + b
        softplus = np.where(z >= 0, z, 0.0) + np.log1p(np.exp(-np.abs(z)))
        return float(np.sum(t * z + softplus - z))

    def probability(a, b):
        z = a * f + b
        e = np.exp(-np.abs(z))
        return np.where(z >= 0, e, 1.0) / (1.0 + e)

    sigma = 1e-12
    a, b = 0.0, np.log((n_neg + 1.0) / (n_pos + 1.0))
    fval = objective(a, b)
    for _ in range(100):
        p = probability(a, b)
        d1 = t - p
        d2 = p * (1.0 - p)
        g1 = float(np.dot(f, d1))
        g2 = float(np.sum(d1))
        if abs(g1) < 1e-5 and abs(g2) < 1e-5:
            break
        h11 = float(np.dot(f * f, d2)) + sigma
        h22 = float(np.sum(d2)) + sigma
        h21 = float(np.dot(f, d2))
        det = h11 * h22 - h21 * h21
        da = -(h22 * g1 - h21 * g2) / det
        db = -(-h21 * g1 + h11 * g2) / det
        gd = g1 * da + g2 * db

        stepsize = 1.0
        while stepsize >= 1e-10:
            new_a = a + stepsize * da
            new_b = b + stepsize * db
            new_f = objective(new_a, new_b)
            if new_f < fval + 1e-4 * stepsize * gd:
                a, b, fval = new_a, new_b, new_f
                break
            stepsize /= 2.0
        else:
            break
    return float(a), float(b)


def _logreg_loss_reference(weights, bias, X, y_idx, l2_strength) -> float:
    scores = X @ weights + bias
    shifted = scores - scores.max(axis=1, keepdims=True)
    log_norm = np.log(np.exp(shifted).sum(axis=1))
    nll = log_norm - shifted[np.arange(X.shape[0]), y_idx]
    return float(nll.mean() + 0.5 * l2_strength * np.sum(weights * weights))


def _logreg_gradient_reference(weights, bias, X, y_idx, l2_strength):
    n = X.shape[0]
    scores = X @ weights + bias
    shifted = scores - scores.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    probs = e / e.sum(axis=-1, keepdims=True)
    probs[np.arange(n), y_idx] -= 1.0
    grad_w = X.T @ probs / n + l2_strength * weights
    grad_b = probs.mean(axis=0)
    return grad_w, grad_b


def train_logreg_reference(X, y_idx, n_classes, l2_strength, max_iterations, tolerance):
    """The package's original softmax-regression fit: gradient descent with
    a backtracking line search from a unit learning rate, each search
    starting at twice the last accepted step, for at most ``max_iterations``
    steps until the gradient norm falls to ``tolerance``.

    Every gradient recomputes the scores and their softmax. Returns
    (weights, bias, converged); a line search that finds no descent step
    reports ``converged=True`` here, as the original did.
    """
    X = np.asarray(X, dtype=np.float64)
    y_idx = np.asarray(y_idx, dtype=np.int64)
    weights = np.zeros((X.shape[1], n_classes))
    bias = np.zeros(n_classes)
    loss = _logreg_loss_reference(weights, bias, X, y_idx, l2_strength)
    step = 1.0  # the original fit's default learning rate
    converged = False

    for _ in range(max_iterations):
        grad_w, grad_b = _logreg_gradient_reference(weights, bias, X, y_idx, l2_strength)
        gnorm = float(np.sqrt(np.sum(grad_w * grad_w) + np.sum(grad_b * grad_b)))
        if gnorm <= tolerance:
            converged = True
            break
        accepted = False
        trial = step
        for _ in range(40):
            new_w = weights - trial * grad_w
            new_b = bias - trial * grad_b
            new_loss = _logreg_loss_reference(new_w, new_b, X, y_idx, l2_strength)
            if new_loss < loss:
                weights, bias, loss = new_w, new_b, new_loss
                accepted = True
                break
            trial /= 2.0
        if not accepted:
            converged = True
            break
        step = trial * 2.0

    return weights, bias, converged


def _logreg_loss_lbfgs_reference(weights, bias, X, y_idx, l2_strength):
    scores = X @ weights + bias
    shifted = scores - functools.reduce(np.maximum, scores.T)[:, None]
    e = np.exp(shifted)
    total = e.sum(axis=1)
    nll = np.log(total) - shifted[np.arange(X.shape[0]), y_idx]
    loss = float(nll.mean() + 0.5 * l2_strength * np.sum(weights * weights))
    return loss, e / total[:, None]


def _logreg_gradient_lbfgs_reference(weights, X, y_idx, l2_strength, probs):
    n = X.shape[0]
    probs = probs.copy()
    probs[np.arange(n), y_idx] -= 1.0
    grad_w = X.T @ probs / n + l2_strength * weights
    grad_b = probs.mean(axis=0)
    return grad_w, grad_b


def train_logreg_lbfgs_reference(X, y_idx, n_classes, l2_strength, max_iterations, tolerance):
    """The package's first L-BFGS softmax-regression fit, kept as it was:
    a loss and a gradient that rebuild the true-class index on every call,
    and a gradient assembled from its weight and bias blocks by
    concatenation. The fit keeps 10 curvature pairs and backtracks from the
    unit step with Armijo constant 1e-4. Returns (weights, bias, converged);
    a line search that finds no descent step reports ``converged=False``.
    """
    X = np.asarray(X, dtype=np.float64)
    y_idx = np.asarray(y_idx, dtype=np.int64)

    def split(theta):  # the flat vector holds W row by row, then b
        return theta[:-n_classes].reshape(-1, n_classes), theta[-n_classes:]

    def gradient(theta, probs):
        grad_w, grad_b = _logreg_gradient_lbfgs_reference(
            split(theta)[0], X, y_idx, l2_strength, probs
        )
        return np.concatenate([grad_w.ravel(), grad_b])

    theta = np.zeros((X.shape[1] + 1) * n_classes)
    loss, probs = _logreg_loss_lbfgs_reference(*split(theta), X, y_idx, l2_strength)
    grad = gradient(theta, probs)
    history = deque(maxlen=10)  # (s, y, 1 / s.y) pairs, oldest first

    for _ in range(max_iterations):
        gnorm = float(np.sqrt(grad @ grad))
        if gnorm <= tolerance:
            break
        direction = _two_loop_lbfgs_reference(grad, history, gnorm)
        slope = float(grad @ direction)
        step = 1.0
        for _ in range(40):
            new_theta = theta + step * direction
            new_loss, new_probs = _logreg_loss_lbfgs_reference(
                *split(new_theta), X, y_idx, l2_strength
            )
            if new_loss - loss <= 1e-4 * step * slope:
                break
            step /= 2.0
        else:
            break
        new_grad = gradient(new_theta, new_probs)
        s, y = new_theta - theta, new_grad - grad
        sy = float(s @ y)
        if sy > 0.0:
            history.append((s, y, 1.0 / sy))
        theta, loss, grad = new_theta, new_loss, new_grad

    weights, bias = split(theta)
    return weights, bias, float(np.sqrt(grad @ grad)) <= tolerance


def _two_loop_lbfgs_reference(grad, history, gnorm):
    q = grad.copy()
    alphas = []
    for s, y, rho in reversed(history):
        alpha = rho * float(s @ q)
        q -= alpha * y
        alphas.append(alpha)
    if history:
        s, y, rho = history[-1]
        q *= 1.0 / (rho * float(y @ y))
    else:
        q /= gnorm
    for (s, y, rho), alpha in zip(history, reversed(alphas)):
        q += (alpha - rho * float(y @ q)) * s
    return -q


def write_feature_csv_matrix_reference(records, sink, config=None) -> None:
    """The whole-matrix feature-CSV writer: stack every vector into one
    matrix, format each distinct bit pattern of it once, and map every cell
    to its text through a sorted index of the distinct patterns."""
    config = config or KmerConfig()
    names = canonical_feature_order(config)
    records = list(records)
    labeled = any(label is not None for _, label in records)
    vectors = [np.asarray(vector, dtype=np.float64) for vector, _ in records]
    for vector in vectors:
        if vector.shape != (len(names),):
            raise FormatError(
                f"vector has {vector.shape[0] if vector.ndim == 1 else vector.shape} "
                f"values, expected {len(names)}"
            )
    bits = np.array(vectors).reshape(len(vectors), len(names)).view(np.uint64)
    distinct = np.unique(bits)
    cells = np.array([repr(v) for v in distinct.view(np.float64).tolist()], dtype=object)
    sink.write(",".join(names + ["label"] if labeled else names) + "\n")
    for index, (_, label) in zip(np.searchsorted(distinct, bits), records):
        row = cells[index].tolist()
        if labeled:
            row.append(render_label(label) if label is not None else "")
        sink.write(",".join(row) + "\n")


def write_feature_csv_reference(records, sink, config=None) -> None:
    """The package's original feature-CSV writer: ``repr(float)`` per cell
    through ``csv.writer``, one record at a time."""
    config = config or KmerConfig()
    names = canonical_feature_order(config)
    records = list(records)
    labeled = any(label is not None for _, label in records)
    writer = csv.writer(sink, lineterminator="\n")
    writer.writerow(names + ["label"] if labeled else names)
    for vector, label in records:
        vector = np.asarray(vector, dtype=np.float64)
        if vector.shape != (len(names),):
            raise FormatError(
                f"vector has {vector.shape[0] if vector.ndim == 1 else vector.shape} "
                f"values, expected {len(names)}"
            )
        row = [repr(float(v)) for v in vector]
        if labeled:
            row.append(render_label(label) if label is not None else "")
        writer.writerow(row)
