import itertools

import numpy as np
import pytest

from tehier import KmerConfig, canonical_feature_order, count_kmers, featurize, featurize_batch
from tehier.kmers import RAW_COUNTS, RELATIVE_FREQUENCY

from oracles import naive_feature_vector, naive_kmer_counts, valid_window_count


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
