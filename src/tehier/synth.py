"""Synthetic labeled sequence datasets with controllable class separability.

Every taxonomy node owns an order-1 nucleotide Markov chain: the shared base
matrix and a node-specific random matrix, mixed by ``separability`` (0 gives
every node the base chain, 1 its own). A child's random matrix is a drifted
copy of its parent's. ``sequences_per_node * node_count`` samples are split so
that ``internal_label_fraction`` of them carry internal-node labels and the
rest divide evenly among the leaves. Output depends only on the spec.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .labels import HierLabel
from .sequence_io import Sequence
from .taxonomy import Taxonomy

_LETTERS = np.frombuffer(b"ACGT", dtype=np.uint8)
_BLOCK_CELLS = 1 << 20  # positions walked at once; the draws take 8 bytes each
_CHILD_DRIFT = 0.6  # how far a child's random matrix moves from its parent's
_DIRICHLET_ALPHA = 1.5


@dataclass(frozen=True)
class SynthSpec:
    taxonomy: Taxonomy
    sequences_per_node: int = 100
    length_range: tuple[int, int] = (500, 500)
    separability: float = 0.9
    internal_label_fraction: float = 0.15
    seed: int = 0

    def __post_init__(self):
        if self.sequences_per_node < 1:  # featurize refuses a FASTA of no sequences
            raise ValueError(f"sequences_per_node must be >= 1, got {self.sequences_per_node}")
        lo, hi = self.length_range
        if lo < 1 or hi < lo:
            raise ValueError(f"bad length range {self.length_range}")
        if not 0.0 <= self.separability <= 1.0:
            raise ValueError("separability must be in [0, 1]")
        if not 0.0 <= self.internal_label_fraction <= 1.0:
            raise ValueError("internal_label_fraction must be in [0, 1]")


def taxonomy_from_shape(level_counts: list[int], seed: int = 0) -> Taxonomy:
    """A taxonomy with the given node count per level (e.g. [2, 4, 3, 5]).

    Children are dealt round-robin over a seed-shuffled parent order, so the
    per-level counts are exact and the tree varies with the seed.
    """
    if not level_counts or any(c < 1 for c in level_counts):
        raise ValueError("level_counts must be positive")
    rng = np.random.default_rng(seed)
    previous = [(i + 1,) for i in range(level_counts[0])]
    paths = list(previous)
    for count in level_counts[1:]:
        order = rng.permutation(len(previous))
        next_component = dict.fromkeys(previous, 0)
        current = []
        for i in range(count):
            parent = previous[order[i % len(previous)]]
            next_component[parent] += 1
            current.append(parent + (next_component[parent],))
        paths.extend(current)
        previous = current
    return Taxonomy(HierLabel(p) for p in paths)


def _even_split(total: int, bins: int) -> list[int]:
    """Largest-remainder split of ``total`` into ``bins`` near-equal parts."""
    if bins == 0:
        return []
    base, extra = divmod(total, bins)
    return [base + (1 if i < extra else 0) for i in range(bins)]


def _random_part(spec: SynthSpec, cache: dict[tuple, np.ndarray], path: tuple) -> np.ndarray:
    """The node-specific random matrix, drifted from the parent's."""
    if path in cache:
        return cache[path]
    rng = np.random.default_rng([spec.seed, 7, *path])
    part = rng.dirichlet([_DIRICHLET_ALPHA] * 4, size=4)
    if len(path) > 1:
        part = (1.0 - _CHILD_DRIFT) * _random_part(spec, cache, path[:-1]) + _CHILD_DRIFT * part
    cache[path] = part
    return part


def _node_chain(
    spec: SynthSpec, base: np.ndarray, cache: dict[tuple, np.ndarray], node: HierLabel
) -> np.ndarray:
    return (1.0 - spec.separability) * base + spec.separability * _random_part(
        spec, cache, node.path
    )


def _sample_sequences(rng: np.random.Generator, chain: np.ndarray, lengths) -> list[str]:
    """Markov-chain sequences of the given lengths, walked in lockstep.

    The draws are taken per sequence, in order: the first base
    (``rng.integers(4)``), then ``length - 1`` uniforms for the transitions.
    All sequences of a block of rows then advance one position per step; the
    next state is the number of cumulative transition probabilities at or
    below the draw (``searchsorted(side="right")``), clamped to T, since a row
    whose sum rounds below 1 can leave a draw above its last entry.
    """
    cumulative = np.cumsum(chain, axis=1)
    width = int(max(lengths))
    rows_per_block = max(1, _BLOCK_CELLS // width)
    sequences: list[str] = []
    for start in range(0, len(lengths), rows_per_block):
        block = lengths[start : start + rows_per_block]
        states = np.empty((len(block), width), dtype=np.uint8)
        draws = np.zeros((len(block), width - 1))
        for i, length in enumerate(block):
            states[i, 0] = rng.integers(4)
            draws[i, : length - 1] = rng.random(length - 1)
        for j in range(1, width):
            below = cumulative[states[:, j - 1]] <= draws[:, j - 1, None]
            states[:, j] = np.minimum(below.sum(axis=1), 3)
        letters = _LETTERS[states]
        sequences.extend(letters[i, :length].tobytes().decode() for i, length in enumerate(block))
    return sequences


def node_allocation(spec: SynthSpec) -> dict[HierLabel, int]:
    """Sample counts per node, in preorder, under the internal-label fraction."""
    taxonomy = spec.taxonomy
    is_leaf = [not kids for kids in taxonomy.child_ids[1:]]
    n_leaves = sum(is_leaf)
    total = spec.sequences_per_node * len(taxonomy)
    internal_total = round(spec.internal_label_fraction * total) if n_leaves < len(taxonomy) else 0
    leaf_counts = iter(_even_split(total - internal_total, n_leaves))
    internal_counts = iter(_even_split(internal_total, len(taxonomy) - n_leaves))
    return {
        node: next(leaf_counts if leaf else internal_counts)
        for node, leaf in zip(taxonomy.nodes(), is_leaf)
    }


def generate(spec: SynthSpec) -> list[Sequence]:
    """Deterministic labeled sequences, in taxonomy preorder."""
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
        residues = _sample_sequences(rng, chain, lengths)
        records.extend(
            Sequence(id=f"synth-{node}-{i:04d}", residues=r, label=node)
            for i, r in enumerate(residues)
        )
    return records
