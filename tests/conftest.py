import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from tehier import HierLabel, Taxonomy, parse_label


def hl(text: str) -> HierLabel:
    return parse_label(text)


@pytest.fixture
def small_taxonomy() -> Taxonomy:
    """{1, 1.1, 2}: one internal chain plus a depth-1 leaf."""
    return Taxonomy([hl("1.1"), hl("2")])


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240811)


def separable_blobs(rng, n_per_class, centers, spread=0.25):
    """Gaussian blobs around the given centers; returns (X, class indices)."""
    X = np.vstack(
        [rng.normal(0.0, spread, (n_per_class, len(centers[0]))) + c for c in centers]
    )
    y = np.repeat(np.arange(len(centers)), n_per_class)
    return X, y


def class_index(y_idx, n_classes):
    """The flat index of each row's true class in its (n, n_classes) scores,
    the form ``logreg_loss`` and ``logreg_gradient`` take the labels in."""
    y_idx = np.asarray(y_idx, dtype=np.int64)
    return np.arange(y_idx.shape[0]) * n_classes + y_idx
