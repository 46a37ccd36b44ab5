import itertools

import numpy as np
import pytest

import tehier.kmers
from tehier import KmerConfig, canonical_feature_order, count_kmers, featurize, featurize_batch
from tehier.kmers import RAW_COUNTS, RELATIVE_FREQUENCY, _blocks, kmer_config_of

from oracles import (
    count_kmers_reference,
    featurize_reference,
    naive_feature_vector,
    valid_window_count,
)


def random_sequences(rng, count, max_len=2000, ambiguity=0.05):
    alphabet = np.array(list("ACGT"))
    out = []
    for _ in range(count):
        length = int(rng.integers(0, max_len + 1))
        chars = rng.choice(alphabet, size=length)
        mask = rng.random(length) < ambiguity
        chars[mask] = "N"
        out.append("".join(chars))
    return out


def test_canonical_order_k1():
    assert canonical_feature_order(KmerConfig(k_values=(1,))) == ["A", "C", "G", "T"]


def test_canonical_order_k2_prefix():
    order = canonical_feature_order(KmerConfig(k_values=(2,)))
    assert order[:5] == ["AA", "AC", "AG", "AT", "CA"]
    assert len(order) == 16


def test_canonical_order_default_block_offsets():
    order = canonical_feature_order()
    assert len(order) == 336
    assert order[0] == "AA"
    assert order[16] == "AAA"
    assert order[80] == "AAAA"


def test_config_validation():
    with pytest.raises(ValueError):
        KmerConfig(k_values=())
    with pytest.raises(ValueError):
        KmerConfig(k_values=(3, 2))
    with pytest.raises(ValueError):
        KmerConfig(k_values=(2, 2))
    with pytest.raises(ValueError):
        KmerConfig(k_values=(0,))
    with pytest.raises(ValueError):
        KmerConfig(k_values=(13,))
    with pytest.raises(ValueError):
        KmerConfig(normalization="z-score")


def _as_dict(counts, k):
    names = ["".join(p) for p in itertools.product("ACGT", repeat=k)]
    return {n: int(c) for n, c in zip(names, counts) if c}


def test_count_kmers_acgt():
    assert _as_dict(count_kmers("ACGT", 2), 2) == {"AC": 1, "CG": 1, "GT": 1}


def test_count_kmers_overlapping_windows():
    assert _as_dict(count_kmers("AAAA", 3), 3) == {"AAA": 2}


def test_count_kmers_skips_ambiguous_windows():
    assert _as_dict(count_kmers("ACGNT", 2), 2) == {"AC": 1, "CG": 1}


def test_count_kmers_short_sequence_is_zero():
    assert not count_kmers("AC", 3).any()
    assert not count_kmers("", 2).any()


def test_count_kmers_rejects_k_outside_the_index_width():
    for k in (0, 13):
        with pytest.raises(ValueError):
            count_kmers("ACGT", k)


def test_count_kmers_equals_per_sequence_reference():
    rng = np.random.default_rng(21)
    for residues in random_sequences(rng, 40, max_len=120) + ["", "ACG", "NNNN"]:
        for k in (1, 2, 5):
            counts = count_kmers(residues, k)
            assert counts.dtype == np.int64
            assert np.array_equal(counts, count_kmers_reference(residues, k))


def test_featurize_raw_counts_positions():
    config = KmerConfig(normalization=RAW_COUNTS)
    vector = featurize("ACGT", config)
    order = canonical_feature_order(config)
    hit = {order[i] for i in np.flatnonzero(vector)}
    assert hit == {"AC", "CG", "GT", "ACG", "CGT", "ACGT"}
    assert set(vector[np.flatnonzero(vector)]) == {1.0}


def test_featurize_relative_frequency():
    vector = featurize("ACGT", KmerConfig())
    order = canonical_feature_order()
    index = {name: i for i, name in enumerate(order)}
    for name in ("AC", "CG", "GT"):
        assert vector[index[name]] == pytest.approx(1 / 3)


def test_frequency_blocks_sum_to_one_or_zero():
    rng = np.random.default_rng(3)
    config = KmerConfig()
    for residues in random_sequences(rng, 60):
        vector = featurize(residues, config)
        for sl, k in zip(config.block_slices(), config.k_values):
            total = vector[sl].sum()
            assert total == pytest.approx(0.0, abs=1e-12) or total == pytest.approx(
                1.0, abs=1e-9
            )


def test_dimension_invariant_on_degenerate_inputs():
    for residues in ["", "N", "NNNN", "A"]:
        assert featurize(residues).shape == (336,)


def test_count_conservation_raw():
    rng = np.random.default_rng(4)
    config = KmerConfig(normalization=RAW_COUNTS)
    for residues in random_sequences(rng, 50, max_len=500):
        vector = featurize(residues, config)
        for sl, k in zip(config.block_slices(), config.k_values):
            assert vector[sl].sum() == valid_window_count(residues, k)


def test_matches_naive_oracle_on_random_sequences():
    rng = np.random.default_rng(12)
    config = KmerConfig()
    for residues in random_sequences(rng, 300, max_len=600):
        expected = naive_feature_vector(residues, config.k_values, "freq")
        assert np.allclose(featurize(residues, config), expected, atol=0, rtol=0)


def test_naive_oracle_on_fixed_500nt_sequence():
    rng = np.random.default_rng(99)
    residues = "".join(rng.choice(list("ACGT"), size=500))
    expected = naive_feature_vector(residues, (2, 3, 4), "freq")
    assert np.array_equal(featurize(residues), expected)


def test_featurize_batch_empty():
    assert featurize_batch([]).shape == (0, 336)


def test_featurize_batch_order_and_duplicates():
    batch = featurize_batch(["ACGT", "ACGT"])
    assert batch.shape == (2, 336)
    assert np.array_equal(batch[0], batch[1])


def test_featurize_batch_thread_count_independent():
    rng = np.random.default_rng(8)
    sequences = random_sequences(rng, 200, max_len=300)
    serial = featurize_batch(sequences, threads=1)
    threaded = featurize_batch(sequences, threads=8)
    assert np.array_equal(serial, threaded)


def _messy_sequences(rng, count, max_len):
    """ACGTN strings with lowercase, non-ASCII and a few empty or tiny ones."""
    alphabet = np.array(list("ACGTNacgtn") + ["\u00e9", "\u2192"])
    weights = np.array([20, 20, 20, 20, 4, 2, 2, 2, 2, 1, 1, 1]) / 95
    out = [
        "".join(rng.choice(alphabet, size=int(rng.integers(0, max_len + 1)), p=weights))
        for _ in range(count)
    ]
    return out + ["", "A", "AC", "ACGTA", "N", "ACGTACGTACGT"]


@pytest.mark.parametrize("normalization", [RAW_COUNTS, RELATIVE_FREQUENCY])
@pytest.mark.parametrize("k_values", [(2, 3, 4), (1, 5, 6), (1,), (6,), (1, 2, 3, 4, 5, 6)])
@pytest.mark.parametrize("threads", [1, 3])
def test_featurize_batch_bit_identical_to_references(normalization, k_values, threads):
    rng = np.random.default_rng(sum(k_values) + threads)
    sequences = _messy_sequences(rng, 60, 200)
    config = KmerConfig(k_values=k_values, normalization=normalization)
    batch = featurize_batch(sequences, config, threads=threads)
    per_sequence = np.vstack([featurize_reference(s, config) for s in sequences])
    assert np.array_equal(batch.view(np.uint64), per_sequence.view(np.uint64))
    for row, residues in zip(batch[::7], sequences[::7]):
        naive = naive_feature_vector(residues, k_values, normalization)
        assert np.array_equal(row.view(np.uint64), naive.view(np.uint64))


def test_row_blocks_cut_by_residue_count(monkeypatch):
    monkeypatch.setattr(tehier.kmers, "_BLOCK_RESIDUES", 50)
    assert list(_blocks([20, 30, 10, 120, 5, 0])) == [(0, 2), (2, 3), (3, 4), (4, 6)]
    assert list(_blocks([0, 0, 51])) == [(0, 3)]
    assert list(_blocks([])) == [(0, 0)]


@pytest.mark.parametrize("block_residues", [50, 100_000])
def test_block_edges_keep_rows_bit_identical(monkeypatch, block_residues):
    monkeypatch.setattr(tehier.kmers, "_BLOCK_RESIDUES", block_residues)
    rng = np.random.default_rng(block_residues)
    # with a 50-residue limit the second sequence ends exactly at the limit
    # and the fourth is longer than a whole block; with the default limit
    # the same holds at 100,000
    scale = block_residues / 50
    lengths = [int(20 * scale), int(30 * scale), int(10 * scale), int(120 * scale), 5, 0, 7]
    weights = [0.24] * 4 + [0.04]
    sequences = ["".join(rng.choice(list("ACGTN"), size=n, p=weights)) for n in lengths]
    config = KmerConfig()
    batch = featurize_batch(sequences, config)
    per_sequence = np.vstack([featurize_reference(s, config) for s in sequences])
    assert np.array_equal(batch.view(np.uint64), per_sequence.view(np.uint64))


@pytest.mark.parametrize(
    "width, k_values", [(4, (1,)), (16, (2,)), (20, (1, 2)), (80, (2, 3)), (336, (2, 3, 4))]
)
def test_kmer_config_of_reads_the_k_values_off_the_width(width, k_values):
    assert kmer_config_of(np.zeros((0, width))).k_values == k_values


@pytest.mark.parametrize("width", [0, 3, 17, 335])
def test_kmer_config_of_refuses_a_width_of_no_k_values(width):
    with pytest.raises(ValueError, match=f"{width} feature columns"):
        kmer_config_of(np.zeros((2, width)))


def test_kmer_config_of_tells_frequencies_from_counts():
    rng = np.random.default_rng(8)
    sequences = random_sequences(rng, 30, max_len=600) + ["", "NNNN"]  # two all-zero rows
    for norm in (RELATIVE_FREQUENCY, RAW_COUNTS):
        config = KmerConfig(k_values=(2, 3, 4), normalization=norm)
        assert kmer_config_of(featurize_batch(sequences, config)) == config
    # a raw row whose blocks all sum to 0 or 1 is also its frequency row
    single = featurize_batch(["AC"], KmerConfig(normalization=RAW_COUNTS))
    assert np.array_equal(single, featurize_batch(["AC"], KmerConfig()))
    assert kmer_config_of(single) == KmerConfig()
