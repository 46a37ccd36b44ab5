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

_LETTERS = bytes.maketrans(bytes(range(4)), b"ACGT")
_BLOCK_CELLS = 1 << 20  # cells of one block of float draws, and of one block of the walk
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


def _transition_codes(chain: np.ndarray, draws: np.ndarray) -> np.ndarray:
    """One uint8 code per draw: bits 2s..2s+1 hold the next state from state s.

    From state s, a draw walks to the count of row s's first three cumulative
    probabilities at or below it. That is the count of all four clamped to T,
    since a cumulative row never decreases; a row whose sum rounds below 1
    leaves a draw above its last entry, and the clamp walks it to T. The code
    depends only on the draw's rank, the count of the chain's (at most 12)
    distinct thresholds at or below it, so a table of at most 13 codes,
    indexed by rank, does the rest.
    """
    cumulative = np.cumsum(chain, axis=1)[:, :3]
    # sorted in Python: a first np.unique call maps about 1.5 MB of code pages
    thresholds = np.array(sorted(set(cumulative.ravel().tolist())))
    next_states = (cumulative[None] <= thresholds[:, None, None]).sum(axis=2)
    table = np.zeros(len(thresholds) + 1, dtype=np.uint8)
    table[1:] = (next_states << 2 * np.arange(4)).sum(axis=1)
    ranks = np.zeros(draws.shape, dtype=np.uint8)
    for threshold in thresholds:  # a pass per threshold beats a binary search per draw
        np.add(ranks, draws >= threshold, out=ranks)
    return table[ranks]


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


def _draw_codes(
    spec: SynthSpec, nodes: list[tuple[HierLabel, np.random.Generator, np.ndarray]], width: int
) -> np.ndarray:
    """A (width, rows) uint8 array: row 0 holds each sequence's first state,
    row j the code of its step j; the rows of all nodes, in preorder."""
    rng_base = np.random.default_rng([spec.seed, 3])
    base = rng_base.dirichlet([_DIRICHLET_ALPHA] * 4, size=4)
    random_parts: dict[tuple, np.ndarray] = {}
    walk = np.zeros((width, sum(len(lengths) for _, _, lengths in nodes)), dtype=np.uint8)
    row = 0
    for node, rng, lengths in nodes:
        chain = _node_chain(spec, base, random_parts, node)
        node_width = int(lengths.max())
        rows_per_block = max(1, _BLOCK_CELLS // node_width)
        for start in range(0, len(lengths), rows_per_block):
            block = lengths[start : start + rows_per_block]
            draws = np.zeros((len(block), node_width - 1))
            for i, length in enumerate(block):
                walk[0, row + i] = rng.integers(4)
                rng.random(out=draws[i, : length - 1])
            walk[1:node_width, row : row + len(block)] = _transition_codes(chain, draws).T
            row += len(block)
    return walk


def _walk(walk: np.ndarray, lengths: np.ndarray) -> list[str]:
    """The residues of every row, walked in place, all rows together."""
    width = len(walk)
    rows_per_block = max(1, _BLOCK_CELLS // width)
    residues: list[str] = []
    for start in range(0, len(lengths), rows_per_block):
        states = walk[:, start : start + rows_per_block]
        shifts = np.empty(states.shape[1], dtype=np.uint8)
        for j in range(1, width):
            np.left_shift(states[j - 1], 1, out=shifts)
            np.right_shift(states[j], shifts, out=states[j])
            np.bitwise_and(states[j], 3, out=states[j])
        # row by row: a text copy of the whole block would be as large as the walk
        block = lengths[start : start + rows_per_block].tolist()
        residues.extend(
            states[:n, i].tobytes().translate(_LETTERS).decode() for i, n in enumerate(block)
        )
    return residues


def generate(spec: SynthSpec) -> list[Sequence]:
    """Deterministic labeled sequences, in taxonomy preorder.

    The draws are taken per node, in preorder, from the node's own generator:
    the lengths, then per sequence the first base (``rng.integers(4)``) and
    ``length - 1`` uniforms, into a float block of at most ``_BLOCK_CELLS``
    cells of that node's rows. Each block becomes one byte of transition code
    per draw (``_transition_codes``). The rows of all nodes then advance
    together, one position per step, ``state = (code >> 2 * state) & 3``, in
    blocks of at most ``_BLOCK_CELLS`` cells.
    """
    lo, hi = spec.length_range
    nodes = []
    for node, count in node_allocation(spec).items():
        if count:
            rng = np.random.default_rng([spec.seed, 11, *node.path])
            nodes.append((node, rng, rng.integers(lo, hi + 1, size=count)))
    lengths = np.concatenate([node_lengths for _, _, node_lengths in nodes])
    residues = iter(_walk(_draw_codes(spec, nodes, int(lengths.max())), lengths))
    records: list[Sequence] = []
    for node, _, node_lengths in nodes:
        prefix = f"synth-{node}-"
        records.extend(
            Sequence(id=f"{prefix}{i:04d}", residues=next(residues), label=node)
            for i in range(len(node_lengths))
        )
    return records
