"""Hierarchical classification of transposable-element DNA sequences.

The pipeline: parse FASTA (`sequence_io`), extract k-mer features (`kmers`),
organize labels in a taxonomy (`taxonomy`), train one local classifier per
parent node (`classifiers`, `hierarchy`), predict top-down with the greedy
or path-scoring strategy, and evaluate with hierarchical precision / recall
/ F-measure (`metrics`). `gridsearch` tunes the SVM, `synth` generates
labeled test corpora, and `cli` ties everything into subcommands.
"""

from .classifiers import LOGREG, SVM, MulticlassModel, fit_multiclass
from .errors import (
    DegenerateDataError,
    DimensionError,
    FormatError,
    GridSearchError,
    LabelParseError,
    ModelFileError,
    TaxonomyError,
    TehierError,
)
from .gridsearch import Grid, GridResult, desk_grid, grid_search, train_final
from .hierarchy import (
    LCPNB,
    NLLCPN,
    STRATEGIES,
    HierModel,
    PathScore,
    load_model,
    load_model_file,
    save_model,
    save_model_file,
    train_hier,
)
from .kmers import (
    KmerConfig,
    canonical_feature_order,
    count_kmers,
    featurize,
    featurize_batch,
)
from .labels import HierLabel, parse_label, render_label
from .logreg import LogRegConfig
from .metrics import (
    CrossvalResult,
    FoldPlan,
    HierMetrics,
    crossval,
    crossval_strategies,
    f_measure,
    hier_metrics,
    label_set,
    levelwise_f,
    stratified_kfold,
)
from .sequence_io import (
    Sequence,
    parse_fasta,
    read_fasta,
    read_feature_csv,
    save_fasta,
    write_fasta,
    write_feature_csv,
)
from .svm import SvmConfig, platt_calibrate, train_binary_svm
from .synth import SynthSpec, generate, taxonomy_from_shape
from .taxonomy import (
    Taxonomy,
    build_from_labels,
    load_taxonomy,
    read_taxonomy,
    wicker_taxonomy,
    write_taxonomy,
)

__version__ = "0.1.0"
