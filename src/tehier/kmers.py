"""k-mer features: per window size k, the counts or the per-block relative
frequencies of all 4^k k-mers, blocks in ascending k, each lexicographic
over A<C<G<T. With k = 2, 3, 4 a vector has 336 coordinates, and index 0
is AA, 16 is AAA and 80 is AAAA. A window that touches a character other
than uppercase A, C, G or T counts for nothing.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence as SequenceType

import numpy as np

from .parallel import run_tasks

RAW_COUNTS = "raw"
RELATIVE_FREQUENCY = "freq"

_BASES = "ACGT"
_MAX_K = 12  # the rolling k-mer index is uint32, 2 bits per base
_BLOCK_RESIDUES = 100_000

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


def k_values_of(width: int) -> tuple[int, ...]:
    """The one set of k values whose 4^k blocks add up to ``width``
    (ValueError for a width with none)."""
    ks = tuple(k for k in range(1, _MAX_K + 1) if (width >> 2 * k) & 3)
    if not ks or sum(4**k for k in ks) != width:
        raise ValueError(f"{width} feature columns do not split into k-mer blocks of 4^k columns")
    return ks


def holds_normalization(X: np.ndarray, normalization: str) -> bool:
    """Whether every row of an (n_rows, width) feature matrix can hold
    features of ``normalization``: for relative frequencies, every k-block
    (of ``k_values_of(width)``) sums to 0 or 1 within 1e-9; for raw counts,
    every entry is a whole number."""
    if normalization == RAW_COUNTS:
        return not (X % 1.0).any()
    ks = k_values_of(X.shape[1])
    sums = np.add.reduceat(X, np.cumsum([0] + [4**k for k in ks[:-1]]), axis=1)
    return bool((np.abs(sums - (sums > 0.5)) <= 1e-9).all())


def kmer_config_of(X: np.ndarray) -> KmerConfig:
    """The featurization of an (n_rows, width) feature matrix, read off it:
    the k values of ``k_values_of(width)``, and relative frequencies when the
    rows hold them (``holds_normalization``), else raw counts when every
    entry is a whole number; ValueError when the rows hold neither."""
    for normalization in (RELATIVE_FREQUENCY, RAW_COUNTS):
        if holds_normalization(X, normalization):
            return KmerConfig(k_values_of(X.shape[1]), normalization)
    raise ValueError("the rows hold neither 'freq' nor 'raw' k-mer features")


def canonical_feature_order(config: KmerConfig | None = None) -> list[str]:
    """All k-mer names in vector-coordinate order, the order of CSV columns."""
    config = config or KmerConfig()
    names: list[str] = []
    for k in config.k_values:
        names.extend("".join(p) for p in itertools.product(_BASES, repeat=k))
    return names


def count_kmers(residues, k: int) -> np.ndarray:
    """Counts of every 4^k k-mer in a sequence (int64 vector), k in 1..12."""
    if not 1 <= k <= _MAX_K:
        raise ValueError(f"k must be in 1..{_MAX_K}, got {k}")
    return _count_block([getattr(residues, "residues", residues)], (k,))[0][0]


def featurize(sequence, config: KmerConfig | None = None) -> np.ndarray:
    """Feature vector of one sequence (accepts a Sequence record or a str)."""
    return _features([getattr(sequence, "residues", sequence)], config or KmerConfig())[0]


def featurize_batch(
    sequences: SequenceType, config: KmerConfig | None = None, threads: int = 1
) -> np.ndarray:
    """Row-per-sequence feature matrix in input order, the same for any
    number of ``threads`` (one contiguous chunk of sequences per worker)."""
    config = config or KmerConfig()
    residues = [getattr(s, "residues", s) for s in sequences]
    if not residues:
        return np.zeros((0, config.dimension), dtype=np.float64)
    size = -(-len(residues) // max(threads, 1))

    def chunk(i: int) -> np.ndarray:
        return _features(residues[i * size : (i + 1) * size], config)

    return np.vstack(run_tasks(chunk, -(-len(residues) // size), threads))


def _features(residues: list[str], config: KmerConfig) -> np.ndarray:
    """Feature rows of ``residues``, counted in blocks of whole sequences of
    up to ``_BLOCK_RESIDUES`` residues; each row is normalized by its own
    totals."""
    out = np.empty((len(residues), config.dimension), dtype=np.float64)
    for start, stop in _blocks([len(r) for r in residues]):
        counts = _count_block(residues[start:stop], config.k_values)
        for columns, block in zip(config.block_slices(), counts):
            rows = out[start:stop, columns]
            rows[...] = block
            if config.normalization == RELATIVE_FREQUENCY:
                totals = block.sum(axis=1, keepdims=True)
                np.divide(rows, totals, out=rows, where=totals > 0)
    return out


def _blocks(lengths: list[int]):
    """(start, stop) row ranges of at most ``_BLOCK_RESIDUES`` residues each,
    except that a longer row makes a block of its own."""
    start, size = 0, 0
    for i, length in enumerate(lengths):
        if size and size + length > _BLOCK_RESIDUES:
            yield start, i
            start, size = i, 0
        size += length
    yield start, len(lengths)


def _count_block(residues: list[str], k_values) -> list[np.ndarray]:
    """One ``(len(residues), 4**k)`` int64 count matrix per k.

    One rolling uint32 index for the largest k serves every k: bits 2j..2j+1
    at position p hold the code at p - j. The window ending at p counts for k
    when the ACGT run ending at p, inside p's own sequence, is k or longer.
    """
    text = "".join(residues).encode("ascii", errors="replace")
    codes = _ENCODE[np.frombuffer(text, dtype=np.uint8)]
    lengths = np.array([len(r) for r in residues], dtype=np.int64)
    positions = np.arange(codes.size)
    # first position of the ACGT run ending at each position: after the last
    # non-ACGT character, and never before the sequence's own start
    run_start = np.where(codes < 4, 0, positions + 1)
    starts = (np.cumsum(lengths) - lengths)[lengths > 0]
    run_start[starts] = np.maximum(run_start[starts], starts)
    run_length = positions + 1 - np.maximum.accumulate(run_start)
    row = np.repeat(np.arange(len(residues)), lengths)

    bits = (codes & 3).astype(np.uint32)
    index = bits.copy()
    for j in range(1, min(max(k_values), codes.size)):
        index[j:] |= bits[: codes.size - j] << (2 * j)

    counts = []
    for k in k_values:
        valid = run_length >= k
        keys = row[valid] * 4**k + (index[valid] & (4**k - 1))
        counts.append(
            np.bincount(keys, minlength=len(residues) * 4**k).reshape(len(residues), 4**k)
        )
    return counts
