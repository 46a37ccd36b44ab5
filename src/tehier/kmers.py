"""k-mer feature extraction.

Every sequence maps to one fixed-length vector: for each window size k the
counts (or per-block relative frequencies) of all 4^k k-mers, blocks
concatenated in ascending k. The canonical coordinate order is lexicographic
over A<C<G<T within each block; with the default K=2,3,4 the vector has
16+64+256 = 336 coordinates and index 0 is AA, 16 is AAA, 80 is AAAA.

Counting uses direct 2-bit indexing (A=0, C=1, G=2, T=3). Any window touching
a non-ACGT character (N or another ambiguity code) is skipped entirely.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Sequence as SequenceType

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .parallel import run_tasks

RAW_COUNTS = "raw"
RELATIVE_FREQUENCY = "freq"

_BASES = "ACGT"
_MAX_K = 12

_ENCODE = np.full(256, 4, dtype=np.uint8)
for _i, _b in enumerate(b"ACGT"):
    _ENCODE[_b] = _i


@dataclass(frozen=True)
class KmerConfig:
    """Window sizes and normalization mode for featurization."""

    k_values: tuple[int, ...] = (2, 3, 4)
    normalization: str = RELATIVE_FREQUENCY

    def __post_init__(self):
        ks = tuple(self.k_values)
        object.__setattr__(self, "k_values", ks)
        if not ks:
            raise ValueError("k_values must be nonempty")
        if any(k < 1 or k > _MAX_K for k in ks):
            raise ValueError(f"each k must be in 1..{_MAX_K}, got {ks}")
        if any(a >= b for a, b in zip(ks, ks[1:])):
            raise ValueError(f"k_values must be strictly increasing, got {ks}")
        if self.normalization not in (RAW_COUNTS, RELATIVE_FREQUENCY):
            raise ValueError(f"unknown normalization {self.normalization!r}")

    @property
    def dimension(self) -> int:
        return sum(4**k for k in self.k_values)

    def block_slices(self) -> list[slice]:
        """One slice per k, in vector coordinates."""
        out, start = [], 0
        for k in self.k_values:
            out.append(slice(start, start + 4**k))
            start += 4**k
        return out


def canonical_feature_order(config: KmerConfig | None = None) -> list[str]:
    """All k-mer names in vector-coordinate order.

    This order is the contract for CSV columns and vector indices.
    """
    config = config or KmerConfig()
    names: list[str] = []
    for k in config.k_values:
        names.extend("".join(p) for p in itertools.product(_BASES, repeat=k))
    return names


def _encode(residues: str) -> np.ndarray:
    raw = np.frombuffer(residues.encode("ascii", errors="replace"), dtype=np.uint8)
    return _ENCODE[raw]


def count_kmers(residues, k: int) -> np.ndarray:
    """Exact counts of every 4^k k-mer in a sequence (int64 vector).

    Windows containing a non-ACGT character count for nothing; sequences
    shorter than k give all zeros.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    residues = getattr(residues, "residues", residues)
    enc = _encode(residues)
    if enc.size < k:
        return np.zeros(4**k, dtype=np.int64)
    windows = sliding_window_view(enc, k)
    valid = (windows < 4).all(axis=1)
    if not valid.any():
        return np.zeros(4**k, dtype=np.int64)
    powers = 4 ** np.arange(k - 1, -1, -1, dtype=np.int64)
    idx = windows[valid].astype(np.int64) @ powers
    return np.bincount(idx, minlength=4**k).astype(np.int64)


def featurize(sequence, config: KmerConfig | None = None) -> np.ndarray:
    """Feature vector of one sequence (accepts a Sequence record or a str)."""
    config = config or KmerConfig()
    residues = getattr(sequence, "residues", sequence)
    blocks = []
    for k in config.k_values:
        counts = count_kmers(residues, k).astype(np.float64)
        if config.normalization == RELATIVE_FREQUENCY:
            total = counts.sum()
            if total > 0:
                counts /= total
        blocks.append(counts)
    return np.concatenate(blocks)


def featurize_batch(
    sequences: SequenceType, config: KmerConfig | None = None, threads: int = 1
) -> np.ndarray:
    """Row-per-sequence feature matrix; row order matches input order.

    The sequences are cut into one contiguous chunk per worker, and the
    chunks are the tasks that ``threads`` worker processes share
    (``parallel.run_tasks``); the result is identical for any worker count.
    """
    config = config or KmerConfig()
    sequences = list(sequences)
    if not sequences:
        return np.zeros((0, config.dimension), dtype=np.float64)
    size = -(-len(sequences) // max(threads, 1))

    def chunk(i: int) -> list[np.ndarray]:
        return [featurize(s, config) for s in sequences[i * size : (i + 1) * size]]

    chunks = run_tasks(chunk, -(-len(sequences) // size), threads)
    return np.vstack([row for rows in chunks for row in rows])


def valid_window_count(residues, k: int) -> int:
    """Number of length-k windows made purely of A/C/G/T."""
    residues = getattr(residues, "residues", residues)
    enc = _encode(residues)
    if enc.size < k:
        return 0
    windows = sliding_window_view(enc, k)
    return int((windows < 4).all(axis=1).sum())
