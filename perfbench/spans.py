"""In-memory span recorder that wraps tehier's public functions from outside.

Nothing in ``src/tehier`` knows about tracing: ``Tracer.install`` replaces
each function under the name its caller resolves (``tehier.cli.train_hier``,
``tehier.svm.rbf_kernel_matrix``, a method on its class, ...) with a wrapper
that records one span per call, and ``uninstall`` puts the originals back.
A span is (name, start, end, parent index). Worker threads of a
``ThreadPoolExecutor`` start with an empty stack; their outermost spans are
parented to the innermost open span of the main thread, which is the call
blocked in ``pool.map`` (no workload nests two pools).

Self time is a span's duration minus the union of its children's
intervals, so parallel children that together cover the parent leave it no
self time. Per-layer times are sums over spans and therefore over threads.
"""

from __future__ import annotations

import functools
import statistics
import threading
import time
from collections import Counter, defaultdict

import tehier.classifiers
import tehier.cli
import tehier.gridsearch
import tehier.hierarchy
import tehier.kmers
import tehier.labels
import tehier.logreg
import tehier.metrics
import tehier.svm
import tehier.synth

# (owner, attribute, span name). The same function patched at several call
# sites shares one span name; the name is the layer (module) that owns it.
_SPANNED = [
    (tehier.cli, "main", "cli.main"),
    (tehier.cli, "read_fasta", "sequence_io.read_fasta"),
    (tehier.cli, "read_feature_csv", "sequence_io.read_feature_csv"),
    (tehier.cli, "write_feature_csv", "sequence_io.write_feature_csv"),
    (tehier.cli, "train_hier", "hierarchy.train_hier"),
    (tehier.cli, "save_model_file", "hierarchy.save_model_file"),
    (tehier.cli, "load_model_file", "hierarchy.load_model_file"),
    (tehier.cli, "grid_search", "gridsearch.grid_search"),
    (tehier.cli, "crossval_strategies", "metrics.crossval_strategies"),
    (tehier.cli, "hier_metrics", "metrics.hier_metrics"),
    (tehier.gridsearch, "crossval", "metrics.crossval"),
    (tehier.metrics, "crossval_strategies", "metrics.crossval_strategies"),
    (tehier.metrics, "train_hier", "hierarchy.train_hier"),
    (tehier.metrics, "hier_metrics", "metrics.hier_metrics"),
    (tehier.hierarchy, "fit_multiclass", "classifiers.fit_multiclass"),
    (tehier.hierarchy.HierModel, "predict", "hierarchy.predict"),
    (tehier.hierarchy.HierModel, "proba_tables", "hierarchy.proba_tables"),
    (tehier.classifiers.MulticlassModel, "predict_proba", "classifiers.predict_proba"),
    (tehier.logreg.LogRegModel, "predict_proba", "logreg.predict_proba"),
    (tehier.svm, "platt_calibrate", "svm.platt_calibrate"),
    (tehier.svm.BinarySvmModel, "decision_function", "svm.decision_function"),
]

# Called too often for a span each: counted only.
_COUNTED = [
    (tehier.logreg, "logreg_loss", "logreg.loss_evals"),
    (tehier.logreg, "logreg_gradient", "logreg.gradient_evals"),
]


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent]
        self.counts: Counter = Counter()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []
        self.unpatched: set[str] = set()

    # -- recording -------------------------------------------------------

    def _stack(self) -> list[int]:
        if threading.current_thread() is threading.main_thread():
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> int:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            main = self._main_stack
            parent = main[-1] if main and stack is not main else -1
        with self._lock:
            index = len(self.spans)
            self.spans.append([name, time.perf_counter(), None, parent])
        stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack().pop()

    def count(self, name: str, n: int = 1) -> None:
        with self._lock:
            self.counts[name] += n

    # -- patching --------------------------------------------------------

    def _patch(self, owner, attr: str, make_wrapper) -> None:
        original = owner.__dict__.get(attr)
        if original is None:  # renamed or moved: reported as a failed check
            self.unpatched.add(f"{owner.__name__}.{attr}")
            return
        wrapper = functools.wraps(original)(make_wrapper(original))
        self._restore.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def _spanned(self, name: str, on_result=None):
        def make(original):
            def wrapper(*args, **kwargs):
                index = self.open(name)
                try:
                    result = original(*args, **kwargs)
                finally:
                    self.close(index)
                if on_result is not None:
                    on_result(result)
                return result

            return wrapper

        return make

    def _counted(self, name: str):
        def make(original):
            def wrapper(*args, **kwargs):
                self.count(name)
                return original(*args, **kwargs)

            return wrapper

        return make

    def install(self) -> None:
        """Wrap every traced function; names that no longer exist are
        collected in ``unpatched`` instead."""
        if self._restore:
            raise RuntimeError("tracer is already installed")
        for owner, attr, name in _SPANNED:
            self._patch(owner, attr, self._spanned(name))
        for owner, attr, name in _COUNTED:
            self._patch(owner, attr, self._counted(name))
        self._patch(tehier.synth, "generate", self._spanned("synth.generate", self._on_generate))
        featurize = self._spanned("kmers.featurize_batch")
        self._patch(tehier.cli, "featurize_batch", self._with_residue_bytes(featurize))
        # the benchmark's own set-up calls the kmers module directly
        self._patch(tehier.kmers, "featurize_batch", self._with_residue_bytes(featurize))
        self._patch(
            tehier.classifiers, "train_binary_svm",
            self._spanned("svm.train_binary_svm", self._on_binary_svm),
        )
        self._patch(
            tehier.classifiers, "train_logreg",
            self._spanned("logreg.train_logreg", self._on_logreg),
        )
        self._patch(tehier.svm, "rbf_kernel_matrix", self._kernel)
        self._patch(tehier.svm, "smo_solve", self._smo)
        self._patch(
            tehier.labels.HierLabel, "__post_init__", self._counted("labels.hierlabel_created")
        )

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # -- special wrappers ------------------------------------------------

    def _on_generate(self, records) -> None:
        self.count("synth.bases", sum(len(r.residues) for r in records))

    def _with_residue_bytes(self, make_spanned):
        def make(original):
            spanned = make_spanned(original)

            def wrapper(sequences, *args, **kwargs):
                sequences = list(sequences)
                self.count("kmers.residue_bytes", sum(len(s.residues) for s in sequences))
                return spanned(sequences, *args, **kwargs)

            return wrapper

        return make

    def _on_binary_svm(self, model) -> None:
        self.count("svm.support_vectors", model.support_vectors.shape[0])
        if not model.converged:
            self.count("svm.unconverged")

    def _on_logreg(self, model) -> None:
        if not model.converged:
            self.count("logreg.unconverged")

    def _kernel(self, original):
        """Classify kernel calls by shape: Y is X builds the full Gram, a
        one-row Y inside SMO is a column-cache miss, the rest are decisions."""

        def wrapper(X, Y, gamma):
            stack = self._stack()
            in_smo = bool(stack) and self.spans[stack[-1]][0] == "svm.smo_solve"
            if Y is X:
                kind = "svm.kernel_full"
            elif in_smo and len(Y) == 1:
                kind = "svm.kernel_column"
            else:
                kind = "svm.kernel_decision"
            n, d = X.shape
            self.count("svm.kernel_flop", 2 * n * len(Y) * d)
            index = self.open(kind)
            try:
                return original(X, Y, gamma)
            finally:
                self.close(index)

        return wrapper

    def _smo(self, original):
        """Hand smo_solve a counting column provider; alpha is unchanged.

        Every SMO iteration requests exactly two columns, so iterations are
        requests / 2. Requests on the LRU-cache path (n above the full-Gram
        limit) are counted separately for the hit ratio.
        """

        def wrapper(K_columns, y, C, tol, max_iter):
            column = K_columns.column if hasattr(K_columns, "column") else K_columns
            requests = [0]

            def counting(i):
                requests[0] += 1
                return column(i)

            index = self.open("svm.smo_solve")
            try:
                return original(counting, y, C, tol, max_iter)
            finally:
                self.close(index)
                self.count("svm.column_requests_all", requests[0])
                if y.shape[0] > tehier.svm._FULL_GRAM_LIMIT:
                    self.count("svm.column_requests", requests[0])

        return wrapper

    # -- aggregation -----------------------------------------------------

    def totals(self) -> tuple[dict[str, float], dict[str, float], Counter]:
        """(inclusive seconds, self seconds, calls) per span name."""
        children: dict[int, list[int]] = defaultdict(list)
        for index, span in enumerate(self.spans):
            if span[3] >= 0:
                children[span[3]].append(index)
        inclusive: dict[str, float] = defaultdict(float)
        own: dict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        for index, (name, start, end, _) in enumerate(self.spans):
            if end is None:
                raise RuntimeError(f"span {name} never closed")
            inclusive[name] += end - start
            calls[name] += 1
            covered = 0.0
            reach = start
            for c_start, c_end in sorted(
                (self.spans[c][1], self.spans[c][2]) for c in children[index]
            ):
                c_start, c_end = max(c_start, reach), min(c_end, end)
                if c_end > c_start:
                    covered += c_end - c_start
                    reach = c_end
            own[name] += (end - start) - covered
        return inclusive, own, calls


# name -> (unit, better); every name is reported by every traced run, as 0
# where the layer does not run (for example svm.* on baseline-logreg).
PER_LAYER = {
    "synth.generate_s": ("s", "lower"),
    "synth.bases_per_s": ("bases/s", "higher"),
    "sequence_io.read_fasta_s": ("s", "lower"),
    "sequence_io.read_feature_csv_s": ("s", "lower"),
    "sequence_io.write_feature_csv_s": ("s", "lower"),
    "kmers.featurize_batch_s": ("s", "lower"),
    "kmers.mb_per_s": ("MB/s", "higher"),
    "svm.gram_full_calls": ("count", "lower"),
    "svm.gram_full_s": ("s", "lower"),
    "svm.column_requests": ("count", "lower"),
    "svm.column_misses": ("count", "lower"),
    "svm.column_miss_s": ("s", "lower"),
    "svm.column_cache_hit_ratio": ("ratio", "higher"),
    "svm.kernel_gflop": ("GFLOP", "lower"),
    "svm.smo_self_s": ("s", "lower"),
    "svm.smo_iterations": ("count", "lower"),
    "svm.platt_s": ("s", "lower"),
    "svm.decision_s": ("s", "lower"),
    "svm.support_vectors": ("count", "lower"),
    "svm.unconverged": ("count", "lower"),
    "logreg.train_s": ("s", "lower"),
    "logreg.predict_proba_s": ("s", "lower"),
    "logreg.loss_evals": ("count", "lower"),
    "logreg.gradient_evals": ("count", "lower"),
    "logreg.unconverged": ("count", "lower"),
    "classifiers.fit_multiclass_self_s": ("s", "lower"),
    "classifiers.predict_proba_self_s": ("s", "lower"),
    "hierarchy.train_hier_self_s": ("s", "lower"),
    "hierarchy.proba_tables_s": ("s", "lower"),
    "hierarchy.decode_s": ("s", "lower"),
    "hierarchy.save_model_s": ("s", "lower"),
    "hierarchy.load_model_s": ("s", "lower"),
    "labels.hierlabel_created": ("count", "lower"),
    "metrics.hier_metrics_s": ("s", "lower"),
    "metrics.crossval_self_s": ("s", "lower"),
    "gridsearch.grid_search_self_s": ("s", "lower"),
    "gridsearch.cells_failed": ("count", "lower"),
    "cli.self_s": ("s", "lower"),
    "trace.overhead_ratio": ("ratio", "lower"),
}
PER_LAYER_UNITS = {name: unit for name, (unit, _) in PER_LAYER.items()}

# Spans and counters that must fire on each workload, so that a renamed or
# moved function fails the run instead of reporting 0 s.
_REQUIRED_ALL = [
    "synth.generate", "cli.main", "sequence_io.read_feature_csv", "kmers.featurize_batch",
    "hierarchy.train_hier", "classifiers.fit_multiclass", "hierarchy.predict",
    "hierarchy.proba_tables", "classifiers.predict_proba", "metrics.hier_metrics",
    "labels.hierlabel_created",
]
_REQUIRED_SVM = [
    "svm.train_binary_svm", "svm.smo_solve", "svm.kernel_full", "svm.kernel_decision",
    "svm.platt_calibrate", "svm.decision_function",
]
REQUIRED = {
    "tune-desk": _REQUIRED_ALL + _REQUIRED_SVM + [
        "gridsearch.grid_search", "metrics.crossval", "metrics.crossval_strategies",
    ],
    "annotate-large": _REQUIRED_ALL + _REQUIRED_SVM + [
        "sequence_io.read_fasta", "sequence_io.write_feature_csv", "svm.kernel_column",
        "hierarchy.save_model_file", "hierarchy.load_model_file",
    ],
    "baseline-logreg": _REQUIRED_ALL + [
        "metrics.crossval_strategies", "logreg.train_logreg", "logreg.predict_proba",
        "logreg.loss_evals", "logreg.gradient_evals",
    ],
}


def required_spans_missing(tracer: Tracer, workload: str) -> list[str]:
    _, _, calls = tracer.totals()
    return [n for n in REQUIRED[workload] if not calls[n] and not tracer.counts[n]]


def layer_metrics(tracer: Tracer, reference, traced) -> dict[str, float]:
    """Per-layer figures per traced round (one set-up plus one pass)."""
    inclusive, own, calls = tracer.totals()
    n = tracer.counts
    rounds = len(traced)

    def per(value):
        return value / rounds

    def rate(amount, seconds):
        return amount / seconds if seconds > 0 else 0.0

    requests = n["svm.column_requests"]
    misses = calls["svm.kernel_column"]
    return {
        "synth.generate_s": per(inclusive["synth.generate"]),
        "synth.bases_per_s": rate(n["synth.bases"], inclusive["synth.generate"]),
        "sequence_io.read_fasta_s": per(inclusive["sequence_io.read_fasta"]),
        "sequence_io.read_feature_csv_s": per(inclusive["sequence_io.read_feature_csv"]),
        "sequence_io.write_feature_csv_s": per(inclusive["sequence_io.write_feature_csv"]),
        "kmers.featurize_batch_s": per(inclusive["kmers.featurize_batch"]),
        "kmers.mb_per_s": rate(n["kmers.residue_bytes"] / 1e6, inclusive["kmers.featurize_batch"]),
        "svm.gram_full_calls": per(calls["svm.kernel_full"]),
        "svm.gram_full_s": per(inclusive["svm.kernel_full"]),
        "svm.column_requests": per(requests),
        "svm.column_misses": per(misses),
        "svm.column_miss_s": per(inclusive["svm.kernel_column"]),
        "svm.column_cache_hit_ratio": 1.0 - misses / requests if requests else 0.0,
        "svm.kernel_gflop": per(n["svm.kernel_flop"]) / 1e9,
        "svm.smo_self_s": per(own["svm.smo_solve"]),
        "svm.smo_iterations": per(n["svm.column_requests_all"]) / 2,
        "svm.platt_s": per(inclusive["svm.platt_calibrate"]),
        "svm.decision_s": per(inclusive["svm.decision_function"]),
        "svm.support_vectors": per(n["svm.support_vectors"]),
        "svm.unconverged": per(n["svm.unconverged"]),
        "logreg.train_s": per(inclusive["logreg.train_logreg"]),
        "logreg.predict_proba_s": per(inclusive["logreg.predict_proba"]),
        "logreg.loss_evals": per(n["logreg.loss_evals"]),
        "logreg.gradient_evals": per(n["logreg.gradient_evals"]),
        "logreg.unconverged": per(n["logreg.unconverged"]),
        "classifiers.fit_multiclass_self_s": per(own["classifiers.fit_multiclass"]),
        "classifiers.predict_proba_self_s": per(own["classifiers.predict_proba"]),
        "hierarchy.train_hier_self_s": per(own["hierarchy.train_hier"]),
        "hierarchy.proba_tables_s": per(inclusive["hierarchy.proba_tables"]),
        "hierarchy.decode_s": per(
            inclusive["hierarchy.predict"] - inclusive["hierarchy.proba_tables"]
        ),
        "hierarchy.save_model_s": per(inclusive["hierarchy.save_model_file"]),
        "hierarchy.load_model_s": per(inclusive["hierarchy.load_model_file"]),
        "labels.hierlabel_created": per(n["labels.hierlabel_created"]),
        "metrics.hier_metrics_s": per(inclusive["metrics.hier_metrics"]),
        "metrics.crossval_self_s": per(
            own["metrics.crossval"] + own["metrics.crossval_strategies"]
        ),
        "gridsearch.grid_search_self_s": per(own["gridsearch.grid_search"]),
        "gridsearch.cells_failed": per(sum(p.values.get("cells_failed", 0) for p in traced)),
        "cli.self_s": per(own["cli.main"]),
        "trace.overhead_ratio": (
            statistics.median(p.pipeline_s for p in traced) / reference.pipeline_s - 1.0
        ),
    }
