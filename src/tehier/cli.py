"""Command-line interface.

Subcommands cover the whole pipeline: ``synth`` makes labeled FASTA,
``featurize`` turns FASTA into feature CSV, ``train``/``predict`` fit and
apply a hierarchical model, ``evaluate`` scores prediction files, ``cv``
cross-validates, ``gridsearch`` tunes the SVM, and ``compare`` sweeps
base-classifier/strategy combinations.

Every command takes an explicit ``--seed`` (echoed to stdout) and writes
machine-readable artifacts only through ``--out`` paths; given the same
arguments the outputs are byte-identical, regardless of ``--threads``.

Exit codes: 0 success, 1 usage, 2 data/format problem, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import ctypes
import functools
import json
import sys

from .errors import (
    DegenerateDataError,
    DimensionError,
    FormatError,
    GridSearchError,
    ModelFileError,
    TaxonomyError,
    TehierError,
)
from .gridsearch import (
    DEFAULT_C_VALUES,
    DEFAULT_GAMMA_VALUES,
    DESK_C_VALUES,
    DESK_GAMMA_VALUES,
    Grid,
    grid_search,
)
from .hierarchy import LCPNB, STRATEGIES, load_model_file, save_model_file, train_hier
from .kmers import KmerConfig, canonical_feature_order, featurize_batch
from .labels import parse_label, render_label
from .logreg import LogRegConfig
from .metrics import crossval_strategies, hier_metrics
from .sequence_io import (
    read_fasta,
    read_feature_csv,
    save_fasta,
    write_feature_csv,
)
from .svm import SvmConfig
from .synth import SynthSpec, generate, taxonomy_from_shape
from .taxonomy import build_from_labels, load_taxonomy

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3

_DATA_ERRORS = (FormatError, TaxonomyError, ModelFileError, DimensionError, OSError)
_NUMERIC_ERRORS = (DegenerateDataError, GridSearchError)


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems exit with code 1, not argparse's 2
        self.print_usage(sys.stderr)
        raise _UsageError(f"{self.prog}: error: {message}")


class _UsageError(Exception):
    pass


def _fmt(value: float) -> str:
    return repr(float(value))


def _fmt_or_na(value) -> str:
    return "NA" if value is None else _fmt(value)


def _parse_kmers(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(t) for t in text.split(","))
    except ValueError:
        raise FormatError(f"bad --kmers value {text!r}; expected e.g. 2,3,4") from None


def _kmer_config(args) -> KmerConfig:
    try:
        return KmerConfig(k_values=_parse_kmers(args.kmers), normalization=args.norm)
    except ValueError as exc:
        raise FormatError(str(exc)) from None


def _base_config(args):
    if args.base == "svm":
        return SvmConfig(C=args.cost, gamma=args.gamma)
    return LogRegConfig()


def _echo_seed(args):
    print(f"seed: {args.seed}")


def _load_labeled_features(path, config: KmerConfig):
    with open(path, "r", encoding="utf-8") as fh:
        X, labels = read_feature_csv(fh, config)
    if not labels:
        raise FormatError(f"{path}: no feature rows")
    unlabeled = labels.count(None)
    if unlabeled:
        raise FormatError(f"{path}: {unlabeled} rows have no label; training needs labels")
    return X, labels


def _write_csv_rows(path, header: list[str], rows: list[list[str]]):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(row) + "\n")


# -- subcommands ----------------------------------------------------------------


def cmd_synth(args) -> int:
    _echo_seed(args)
    if args.taxonomy:
        taxonomy = load_taxonomy(args.taxonomy)
    else:
        shape = [int(t) for t in args.shape.split(",")]
        taxonomy = taxonomy_from_shape(shape, seed=args.seed)
    lo, _, hi = args.length.partition(":")
    spec = SynthSpec(
        taxonomy=taxonomy,
        sequences_per_node=args.per_node,
        length_range=(int(lo), int(hi or lo)),
        separability=args.separability,
        internal_label_fraction=args.internal_fraction,
        seed=args.seed,
    )
    records = generate(spec)
    save_fasta(records, args.out)
    per_level = "/".join(str(c) for c in taxonomy.classes_per_level())
    print(f"wrote {len(records)} sequences over {len(taxonomy)} classes ({per_level}) to {args.out}")
    return EXIT_OK


def cmd_featurize(args) -> int:
    _echo_seed(args)
    config = _kmer_config(args)
    records = read_fasta(args.input)
    X = featurize_batch(records, config, threads=args.threads)
    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        write_feature_csv(
            [(X[i], records[i].label) for i in range(len(records))], fh, config
        )
    labeled = sum(1 for r in records if r.label is not None)
    print(f"wrote {len(records)} rows x {config.dimension} features to {args.out} "
          f"({labeled} labeled)")
    return EXIT_OK


def cmd_train(args) -> int:
    _echo_seed(args)
    config = _kmer_config(args)
    X, labels = _load_labeled_features(args.input, config)
    taxonomy = (
        load_taxonomy(args.taxonomy) if args.taxonomy else build_from_labels(labels)
    )
    model = train_hier(
        X,
        labels,
        taxonomy,
        base_kind=args.base,
        config=_base_config(args),
        kmer_config=config,
        threads=args.threads,
    )
    save_model_file(model, args.out)
    print(f"trained {args.base} hierarchy ({len(model.node_models)} local models) "
          f"on {len(labels)} samples; wrote {args.out}")
    return EXIT_OK


def _read_prediction_inputs(path, model):
    """(ids, X) from FASTA (featurized per the model) or a feature CSV."""
    config = model.kmer_config or KmerConfig()
    with open(path, "rb") as fh:
        head = fh.read(1)
    if head == b">":
        records = read_fasta(path)
        ids = [r.id for r in records]
        X = featurize_batch(records, config)
    else:
        with open(path, "r", encoding="utf-8") as fh:
            X, _ = read_feature_csv(fh, config)
        if not len(X):
            raise FormatError(f"{path}: no feature rows")
        ids = [f"row{i + 1}" for i in range(len(X))]
    return ids, X


def cmd_predict(args) -> int:
    _echo_seed(args)
    model = load_model_file(args.model)
    ids, X = _read_prediction_inputs(args.input, model)
    predicted = model.predict(X, args.strategy, threads=args.threads)
    _write_csv_rows(
        args.out,
        ["id", "predicted_label"],
        [[i, render_label(p)] for i, p in zip(ids, predicted)],
    )
    print(f"predicted {len(ids)} samples with {args.strategy}; wrote {args.out}")
    return EXIT_OK


def _read_label_file(path) -> dict[str, object]:
    """id -> label from a labeled FASTA or an id,label CSV."""
    with open(path, "rb") as fh:
        head = fh.read(1)
    if head == b">":
        records = read_fasta(path)
        missing = [r.id for r in records if r.label is None]
        if missing:
            raise FormatError(f"{path}: {len(missing)} sequences have no label")
        return {r.id: r.label for r in records}
    out = {}
    parse = functools.cache(parse_label)
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        if len(header) != 2 or header[0] != "id":
            raise FormatError(f"{path}: expected an 'id,<label>' CSV header")
        for lineno, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            ident, _, token = line.partition(",")
            try:
                out[ident] = parse(token)
            except FormatError as exc:
                raise FormatError(f"{path}: {exc}", line=lineno) from None
    if not out:
        raise FormatError(f"{path}: no labeled records")
    return out


def cmd_evaluate(args) -> int:
    _echo_seed(args)
    predicted = _read_label_file(args.predictions)
    truth = _read_label_file(args.truth)
    missing = sorted(set(truth) - set(predicted))
    if missing:
        raise FormatError(
            f"{len(missing)} ids in the truth file have no prediction "
            f"(first: {missing[0]})"
        )
    pairs = [(predicted[i], truth[i]) for i in sorted(truth)]
    taxonomy = build_from_labels([p for p, _ in pairs] + [t for _, t in pairs])
    metrics = hier_metrics(pairs, taxonomy)
    print(f"hP: {metrics.hp:.6f}")
    print(f"hR: {metrics.hr:.6f}")
    print(f"hF: {metrics.hf:.6f}")
    for level, value in enumerate(metrics.per_level_f, start=1):
        shown = "NA" if value is None else f"{value:.6f}"
        print(f"hF level {level}: {shown}")
    if args.out:
        header = ["samples", "hP", "hR", "hF"] + [
            f"hF_L{l}" for l in range(1, len(metrics.per_level_f) + 1)
        ]
        row = [str(metrics.n_samples), _fmt(metrics.hp), _fmt(metrics.hr), _fmt(metrics.hf)]
        row += [_fmt_or_na(v) for v in metrics.per_level_f]
        _write_csv_rows(args.out, header, [row])
    return EXIT_OK


def _metrics_report_rows(results: dict, max_depth: int):
    header = ["fold", "strategy", "base", "hP", "hR", "hF"] + [
        f"hF_L{l}" for l in range(1, max_depth + 1)
    ]
    rows = []
    for strategy, result in results.items():
        for fold, m in enumerate(result.fold_metrics):
            row = [str(fold), strategy, result.base_kind, _fmt(m.hp), _fmt(m.hr), _fmt(m.hf)]
            row += [_fmt_or_na(v) for v in m.per_level_f]
            rows.append(row)
        mean_row = [
            "mean", strategy, result.base_kind,
            _fmt(result.mean_hp), _fmt(result.mean_hr), _fmt(result.mean_hf),
        ]
        mean_row += [_fmt_or_na(result.mean_level_f(l)) for l in range(1, max_depth + 1)]
        rows.append(mean_row)
    return header, rows


def cmd_cv(args) -> int:
    _echo_seed(args)
    config = _kmer_config(args)
    X, labels = _load_labeled_features(args.input, config)
    taxonomy = build_from_labels(labels)
    results = crossval_strategies(
        X,
        labels,
        taxonomy,
        base_kind=args.base,
        config=_base_config(args),
        strategies=(args.strategy,),
        k=args.folds,
        seed=args.seed,
        threads=args.threads,
    )
    result = results[args.strategy]
    print(f"{args.base}+{args.strategy} {args.folds}-fold: "
          f"hP={result.mean_hp:.4f} hR={result.mean_hr:.4f} "
          f"hF={result.mean_hf:.4f} (+-{result.std_hf:.4f})")
    if args.out:
        header, rows = _metrics_report_rows(results, taxonomy.max_depth)
        _write_csv_rows(args.out, header, rows)
    return EXIT_OK


def _grid_from_args(args) -> Grid:
    if args.grid == "default":
        c_values, gamma_values = DEFAULT_C_VALUES, DEFAULT_GAMMA_VALUES
    elif args.grid == "desk":
        c_values, gamma_values = DESK_C_VALUES, DESK_GAMMA_VALUES
    else:
        try:
            with open(args.grid, "r", encoding="utf-8") as fh:
                payload = json.load(fh)
            c_values = tuple(float(v) for v in payload["c_values"])
            gamma_values = tuple(float(v) for v in payload["gamma_values"])
        except (OSError, json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
            raise FormatError(
                f"--grid must be 'default', 'desk', or a JSON file with "
                f"c_values/gamma_values arrays ({exc})"
            ) from None
    try:
        return Grid(
            c_values=c_values,
            gamma_values=gamma_values,
            folds=args.folds,
            strategy=args.strategy,
            seed=args.seed,
        )
    except ValueError as exc:
        raise FormatError(str(exc)) from None


def cmd_gridsearch(args) -> int:
    _echo_seed(args)
    config = _kmer_config(args)
    X, labels = _load_labeled_features(args.input, config)
    taxonomy = build_from_labels(labels)
    grid = _grid_from_args(args)
    result = grid_search(X, labels, taxonomy, grid, threads=args.threads)
    if args.out:
        rows = [
            [
                _fmt(cell.C), _fmt(cell.gamma),
                _fmt_or_na(cell.mean_hf), _fmt_or_na(cell.std_hf), cell.status,
            ]
            for cell in result.cells
        ]
        _write_csv_rows(args.out, ["C", "gamma", "mean_hF", "std_hF", "status"], rows)
    failed = sum(1 for c in result.cells if c.status == "failed")
    print(f"evaluated {len(result.cells)} cells ({failed} failed)")
    if result.selected is None:
        raise GridSearchError("no viable cell: every grid cell failed")
    chosen = result.selected_cell
    print(f"selected C={chosen.C:g} gamma={chosen.gamma:g} "
          f"(mean hF={chosen.mean_hf:.4f})")
    return EXIT_OK


def cmd_compare(args) -> int:
    _echo_seed(args)
    config = _kmer_config(args)
    X, labels = _load_labeled_features(args.input, config)
    taxonomy = build_from_labels(labels)
    bases = args.bases.split(",")
    strategies = tuple(args.strategies.split(","))
    rows = []
    for base in bases:
        if base not in ("svm", "logreg"):
            raise FormatError(f"unknown base classifier {base!r}")
        base_config = (
            SvmConfig(C=args.cost, gamma=args.gamma) if base == "svm" else LogRegConfig()
        )
        try:
            results = crossval_strategies(
                X, labels, taxonomy,
                base_kind=base, config=base_config, strategies=strategies,
                k=args.folds, seed=args.seed, threads=args.threads,
            )
        except TehierError as exc:
            for strategy in strategies:
                rows.append([base, strategy, "NA", "NA", f"failed: {exc}"])
            continue
        for strategy in strategies:
            result = results[strategy]
            rows.append(
                [base, strategy, _fmt(result.mean_hf), _fmt(result.std_hf), "ok"]
            )
            print(f"{base:7s} {strategy:7s} hF={result.mean_hf:.4f} "
                  f"(+-{result.std_hf:.4f})")
    if args.out:
        _write_csv_rows(
            args.out, ["base", "strategy", "hF_mean", "hF_std", "status"], rows
        )
    return EXIT_OK


# -- parser ----------------------------------------------------------------------


def _add_common(p, threads=True):
    p.add_argument("--seed", type=int, default=0, help="random seed (echoed to stdout)")
    if threads:
        p.add_argument("--threads", type=int, default=1,
                       help="worker processes, the calling one included")


def _add_kmer_flags(p):
    p.add_argument("--kmers", default="2,3,4", help="comma-separated window sizes")
    p.add_argument("--norm", choices=["raw", "freq"], default="freq",
                   help="k-mer block normalization")


def _add_svm_flags(p):
    p.add_argument("--base", choices=["svm", "logreg"], default="svm")
    p.add_argument("--C", dest="cost", type=float, default=1.0, help="SVM cost")
    p.add_argument("--gamma", type=float, default=1.0, help="RBF width")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="tehier", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a labeled synthetic FASTA dataset")
    p.add_argument("--shape", default="2,4,3,5", help="classes per level, e.g. 2,4,3,5")
    p.add_argument("--taxonomy", help="taxonomy file instead of --shape")
    p.add_argument("--per-node", type=int, default=100, help="sample budget per class node")
    p.add_argument("--length", default="500", help="sequence length MIN:MAX")
    p.add_argument("--separability", type=float, default=0.9)
    p.add_argument("--internal-fraction", type=float, default=0.15,
                   help="fraction of samples labeled at internal nodes")
    p.add_argument("--out", required=True)
    _add_common(p, threads=False)
    p.set_defaults(handler=cmd_synth)

    p = sub.add_parser("featurize", help="FASTA -> canonical k-mer feature CSV")
    p.add_argument("input")
    p.add_argument("--out", required=True)
    _add_kmer_flags(p)
    _add_common(p)
    p.set_defaults(handler=cmd_featurize)

    p = sub.add_parser("train", help="train a hierarchical model on a labeled feature CSV")
    p.add_argument("input")
    p.add_argument("--taxonomy", help="taxonomy file (default: induced from labels)")
    p.add_argument("--out", required=True, help="model JSON path")
    _add_kmer_flags(p)
    _add_svm_flags(p)
    _add_common(p)
    p.set_defaults(handler=cmd_train)

    p = sub.add_parser("predict", help="predict labels for FASTA or feature CSV")
    p.add_argument("input")
    p.add_argument("--model", required=True)
    p.add_argument("--strategy", choices=list(STRATEGIES), default=LCPNB)
    p.add_argument("--out", required=True, help="id,predicted_label CSV path")
    _add_common(p)
    p.set_defaults(handler=cmd_predict)

    p = sub.add_parser("evaluate", help="score a prediction CSV against truth")
    p.add_argument("predictions", help="id,predicted_label CSV")
    p.add_argument("truth", help="labeled FASTA or id,label CSV")
    p.add_argument("--out", help="optional metrics CSV")
    _add_common(p, threads=False)
    p.set_defaults(handler=cmd_evaluate)

    p = sub.add_parser("cv", help="stratified k-fold cross-validation")
    p.add_argument("input", help="labeled feature CSV")
    p.add_argument("--strategy", choices=list(STRATEGIES), default=LCPNB)
    p.add_argument("--folds", type=int, default=10)
    p.add_argument("--out", help="per-fold metrics CSV")
    _add_kmer_flags(p)
    _add_svm_flags(p)
    _add_common(p)
    p.set_defaults(handler=cmd_cv)

    p = sub.add_parser("gridsearch", help="grid search over SVM C and gamma")
    p.add_argument("input", help="labeled feature CSV")
    p.add_argument("--grid", default="desk",
                   help="'default', 'desk', or a JSON file with c_values/gamma_values")
    p.add_argument("--strategy", choices=list(STRATEGIES), default=LCPNB)
    p.add_argument("--folds", type=int, default=10, help="inner CV folds per cell")
    p.add_argument("--out", help="grid report CSV")
    _add_kmer_flags(p)
    _add_common(p)
    p.set_defaults(handler=cmd_gridsearch)

    p = sub.add_parser("compare", help="cross-validate every base x strategy pair")
    p.add_argument("input", help="labeled feature CSV")
    p.add_argument("--bases", default="svm,logreg")
    p.add_argument("--strategies", default="nllcpn,lcpnb")
    p.add_argument("--folds", type=int, default=10)
    p.add_argument("--C", dest="cost", type=float, default=1.0)
    p.add_argument("--gamma", type=float, default=1.0)
    p.add_argument("--out", help="long-form comparison CSV")
    _add_kmer_flags(p)
    _add_common(p)
    p.set_defaults(handler=cmd_compare)

    return parser


def _release_free_heap() -> None:
    """Return the C heap's free memory to the OS (glibc's ``malloc_trim``).

    glibc keeps freed heap memory resident, up to twice the largest block
    freed so far (a Gram matrix, here), and how much depends on the order
    of earlier frees, which depends on the grid cells and folds this
    process happened to run. So where ``main`` runs several commands in
    one process, a command's peak resident memory would vary by a Gram
    from run to run; released first, it no longer depends on what ran
    before. Without glibc this does nothing.
    """
    try:
        malloc_trim = ctypes.CDLL(None).malloc_trim
    except (OSError, TypeError, AttributeError):
        return
    malloc_trim(0)


def main(argv=None) -> int:
    _release_free_heap()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_USAGE
    try:
        if getattr(args, "threads", 1) < 1:
            raise FormatError(f"--threads must be at least 1, got {args.threads}")
        return args.handler(args)
    except _NUMERIC_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except _DATA_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except TehierError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
