import hashlib
import io
import tracemalloc

import numpy as np
import pytest

from tehier import (
    KmerConfig,
    SvmConfig,
    SynthSpec,
    crossval_strategies,
    featurize_batch,
    generate,
    taxonomy_from_shape,
    wicker_taxonomy,
    write_fasta,
)
import tehier.synth
from tehier.synth import node_allocation

from oracles import generate_reference, sample_sequence_reference


def test_taxonomy_from_shape_counts():
    tax = taxonomy_from_shape([2, 4, 3, 5], seed=0)
    assert tax.classes_per_level() == [2, 4, 3, 5]
    assert taxonomy_from_shape([3], seed=1).classes_per_level() == [3]


def test_taxonomy_from_shape_deterministic():
    assert taxonomy_from_shape([2, 4, 3, 5], seed=7) == taxonomy_from_shape(
        [2, 4, 3, 5], seed=7
    )


def test_generation_deterministic():
    tax = taxonomy_from_shape([2, 2], seed=0)
    spec = SynthSpec(taxonomy=tax, sequences_per_node=10, length_range=(50, 80), seed=5)
    assert generate(spec) == generate(spec)
    other = SynthSpec(taxonomy=tax, sequences_per_node=10, length_range=(50, 80), seed=6)
    assert generate(other) != generate(spec)


def test_labels_cover_taxonomy_and_counts_match():
    tax = taxonomy_from_shape([2, 3, 4], seed=2)
    spec = SynthSpec(
        taxonomy=tax, sequences_per_node=20, length_range=(60, 60),
        internal_label_fraction=0.2, seed=1,
    )
    records = generate(spec)
    assert len(records) == 20 * len(tax.nodes())
    observed = {r.label for r in records}
    assert observed == set(tax.nodes())
    internal = sum(1 for r in records if tax.child_ids[tax.node_index[r.label.path]])
    assert internal / len(records) == pytest.approx(0.2, abs=0.01)
    assert node_allocation(spec) == {
        node: sum(1 for r in records if r.label == node) for node in tax.nodes()
    }


@pytest.mark.parametrize(
    "spec, digest, chars",
    [
        (
            SynthSpec(taxonomy_from_shape([2, 4, 3, 5], seed=0), seed=42),
            "61947a8c44cf6439791b7ff7a70d1b4da325898be352a0b40316af95434394a7",
            747_236,
        ),
        (
            SynthSpec(wicker_taxonomy(), sequences_per_node=5, length_range=(80, 120), seed=42),
            "4ddaa22931b36e6fad9756e96ad4ac93279b143fc57c1cf555ef11952c8cc5dd",
            26_418,
        ),
    ],
    ids=["desk", "wicker"],
)
def test_generated_fasta_is_pinned(spec, digest, chars):
    # the reference generator shares the allocation and the chains with the
    # package, so only a fixed digest catches a change in either
    sink = io.StringIO()
    write_fasta(generate(spec), sink)
    text = sink.getvalue()
    assert len(text) == chars
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_sequences_pass_validation_and_lengths():
    tax = taxonomy_from_shape([2, 2], seed=0)
    spec = SynthSpec(taxonomy=tax, sequences_per_node=15, length_range=(40, 90), seed=3)
    for record in generate(spec):  # Sequence.__post_init__ validates residues
        assert 40 <= len(record.residues) <= 90
        assert set(record.residues) <= set("ACGT")
        assert " " not in record.id


def test_zero_separability_shares_one_distribution():
    tax = taxonomy_from_shape([2], seed=0)
    spec = SynthSpec(
        taxonomy=tax, sequences_per_node=150, length_range=(400, 400),
        separability=0.0, internal_label_fraction=0.0, seed=9,
    )
    records = generate(spec)
    X = featurize_batch(records, KmerConfig())
    labels = [r.label for r in records]
    by_class = {
        label: X[[i for i, l in enumerate(labels) if l == label]].mean(axis=0)
        for label in set(labels)
    }
    means = list(by_class.values())
    # same chain for both classes: mean k-mer profiles nearly coincide
    assert np.abs(means[0] - means[1]).max() < 0.02


def test_full_separability_depth_two_is_learnable(rng):
    tax = taxonomy_from_shape([2, 4], seed=1)
    spec = SynthSpec(
        taxonomy=tax, sequences_per_node=100, length_range=(500, 500),
        separability=1.0, internal_label_fraction=0.15, seed=11,
    )
    records = generate(spec)
    X = featurize_batch(records, KmerConfig())
    labels = [r.label for r in records]
    result = crossval_strategies(X, labels, tax, SvmConfig(C=16.0, gamma=8.0), ("lcpnb",), k=5)
    assert result["lcpnb"].mean_hf >= 0.95


def test_spec_validation():
    tax = taxonomy_from_shape([2], seed=0)
    with pytest.raises(ValueError):
        SynthSpec(taxonomy=tax, sequences_per_node=-1)
    # no sequences make a FASTA that featurize refuses
    with pytest.raises(ValueError, match="sequences_per_node must be >= 1, got 0"):
        SynthSpec(taxonomy=tax, sequences_per_node=0)
    with pytest.raises(ValueError):
        SynthSpec(taxonomy=tax, length_range=(10, 5))
    with pytest.raises(ValueError):
        SynthSpec(taxonomy=tax, separability=1.5)
    with pytest.raises(ValueError):
        taxonomy_from_shape([])


@pytest.mark.parametrize("shape", [[1], [2, 2], [3, 1, 4], [2, 4, 3, 5]])
@pytest.mark.parametrize("length_range", [(1, 90), (1, 1), (37, 37), (1, 3), (1, 500)])
@pytest.mark.parametrize("separability", [0.0, 0.5, 1.0])
def test_generate_equals_one_sequence_at_a_time_reference(shape, length_range, separability):
    spec = SynthSpec(
        taxonomy=taxonomy_from_shape(shape, seed=3), sequences_per_node=5,
        length_range=length_range, separability=separability, seed=8,
    )
    assert generate(spec) == generate_reference(spec)


def test_lockstep_blocks_of_rows_equal_reference(monkeypatch):
    spec = SynthSpec(
        taxonomy=taxonomy_from_shape([2, 2], seed=0), sequences_per_node=9,
        length_range=(1, 60), seed=4,
    )
    expected = generate_reference(spec)
    for cells in (1, 59, 60, 61, 200):  # down to one row per block
        monkeypatch.setattr(tehier.synth, "_BLOCK_CELLS", cells)
        assert generate(spec) == expected


def test_one_sequence_per_node_equals_reference():
    # internal nodes draw no sequence under the internal-label fraction, so
    # the walk holds rows of nodes far apart in preorder side by side
    spec = SynthSpec(
        taxonomy=wicker_taxonomy(), sequences_per_node=1, length_range=(1, 200), seed=13,
    )
    assert 0 in node_allocation(spec).values()
    assert generate(spec) == generate_reference(spec)


def test_walk_blocks_across_node_boundaries_equal_reference(monkeypatch):
    spec = SynthSpec(
        taxonomy=taxonomy_from_shape([2, 4], seed=1), sequences_per_node=4,
        length_range=(30, 30), internal_label_fraction=0.0, seed=6,
    )
    counts = [count for count in node_allocation(spec).values() if count]
    assert counts == [6, 6, 6, 6]
    expected = generate_reference(spec)
    # blocks of 6 and 12 rows end on node boundaries; 5, 7 and 17 inside nodes
    for rows in (6, 12, 5, 7, 17):
        monkeypatch.setattr(tehier.synth, "_BLOCK_CELLS", rows * 30)
        assert generate(spec) == expected


def test_generate_peak_memory_on_the_desk_spec():
    # every row's float draws at once would take 1,400 x 499 x 8 = 5.6 MB
    spec = SynthSpec(taxonomy_from_shape([2, 4, 3, 5], seed=0), seed=42)
    generate(spec)
    tracemalloc.start()
    try:
        generate(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4_000_000


def test_draw_above_a_row_sum_below_one_walks_to_t(monkeypatch):
    # every row sums to 0.4, so each draw >= 0.4 finds no cumulative entry
    # above it; the one-at-a-time walk then indexes a fifth state and fails
    chain = np.full((4, 4), 0.1)
    with pytest.raises(IndexError):
        sample_sequence_reference(np.random.default_rng(5), chain, 30)
    monkeypatch.setattr(tehier.synth, "_node_chain", lambda *args: chain)
    spec = SynthSpec(
        taxonomy=taxonomy_from_shape([2], seed=0), sequences_per_node=3,
        length_range=(20, 30), seed=5,
    )
    records = iter(generate(spec))
    cumulative = np.cumsum(chain[0])
    for node, count in node_allocation(spec).items():  # replay each node's draws
        replay = np.random.default_rng([spec.seed, 11, *node.path])
        for length in replay.integers(20, 31, size=count):
            first = "ACGT"[replay.integers(4)]
            draws = replay.random(length - 1)
            steps = np.minimum(np.searchsorted(cumulative, draws, side="right"), 3)
            residues = next(records).residues
            assert residues == first + "".join("ACGT"[s] for s in steps)
            assert residues.count("T") > length // 3
