import io

import numpy as np
import pytest

from tehier import (
    FormatError,
    HierLabel,
    TaxonomyError,
    Taxonomy,
    read_taxonomy,
    wicker_taxonomy,
    write_taxonomy,
)

from conftest import hl
from oracles import ancestor_set


def test_build_closes_prefixes():
    tax = Taxonomy([hl("1.1.1"), hl("2.1")])
    expected = {hl("1"), hl("1.1"), hl("1.1.1"), hl("2"), hl("2.1")}
    assert set(tax.nodes()) == expected


def test_build_deduplicates():
    tax = Taxonomy([hl("1"), hl("1")])
    assert set(tax.nodes()) == {hl("1")}


def test_build_requires_labels():
    with pytest.raises(TaxonomyError):
        Taxonomy([])


def test_repbase_shaped_label_set_counts():
    # synthetic label set with the REPBASE corpus shape: 2 / 5 / 12 / 9 per level
    labels = [hl("1"), hl("2")]
    labels += [hl(f"1.{i}") for i in range(1, 5)] + [hl("2.1")]
    labels += [hl(f"1.1.{i}") for i in range(1, 9)] + [hl(f"1.2.{i}") for i in range(1, 5)]
    labels += [hl(f"1.1.1.{i}") for i in range(1, 10)]
    tax = Taxonomy(labels)
    assert tax.classes_per_level() == [2, 5, 12, 9]


def test_ancestor_ids():
    tax = Taxonomy([hl("1.1.1"), hl("2")])
    # preorder ids: root 0, 1 -> 1, 1.1 -> 2, 1.1.1 -> 3, 2 -> 4
    assert tax.ancestor_ids[tax.node_index[(1, 1, 1)]].tolist() == [0, 1, 2, 3]
    assert tax.ancestor_ids[tax.node_index[(2,)]].tolist() == [0, 4, -1, -1]
    assert len(tax) == 4 and hl("1.1") in tax and hl("9.9") not in tax


def test_wicker_bundled_taxonomy():
    tax = wicker_taxonomy()
    # full transcription: Class I orders/superfamilies at depths 2/3, the
    # Class II subclass tier pushes its superfamilies to depth 4
    assert tax.classes_per_level() == [2, 7, 21, 12]
    assert len(tax) == len(tax.nodes()) == 42
    assert tax.names[hl("1.1.1")] == "Copia"
    assert tax.max_depth == 4


def test_classes_per_level_small(small_taxonomy):
    assert small_taxonomy.classes_per_level() == [2, 1]


def test_children_sorted_and_leaf_queries(small_taxonomy):
    labels = small_taxonomy.node_labels
    assert [labels[c] for c in small_taxonomy.child_ids[0]] == [hl("1"), hl("2")]
    assert [labels[c] for c in small_taxonomy.child_ids[1]] == [hl("1.1")]
    assert small_taxonomy.parent_id.tolist() == [-1, 0, 1, 0]
    assert small_taxonomy.child_ids == [[1, 3], [2], [], []]


def test_prefix_closure_property_random_label_sets():
    rng = np.random.default_rng(2)
    for _ in range(200):
        labels = [
            HierLabel(tuple(int(c) for c in rng.integers(1, 4, size=rng.integers(1, 5))))
            for _ in range(int(rng.integers(1, 12)))
        ]
        tax = Taxonomy(labels)
        nodes = {node.path for node in tax.nodes()}
        assert nodes == set().union(*(ancestor_set(label.path) for label in labels))
        # ancestor ids: the root, then the node's prefixes, then the node
        for path in nodes:
            row = tax.ancestor_ids[tax.node_index[path]]
            assert [tax.node_labels[a].path for a in row[1 : len(path) + 1]] == sorted(
                ancestor_set(path)
            )
            assert row[0] == 0 and (row[len(path) + 1 :] == -1).all()
        assert len(tax) == len(nodes)


def test_taxonomy_file_round_trip():
    tax = Taxonomy([hl("1.1"), hl("1.2"), hl("2")])
    tax.names[hl("1.1")] = "Copia"
    sink = io.StringIO()
    write_taxonomy(tax, sink)
    loaded = read_taxonomy(io.StringIO(sink.getvalue()))
    assert loaded == tax
    assert loaded.names == {hl("1.1"): "Copia"}


def test_taxonomy_file_errors():
    with pytest.raises(FormatError):
        read_taxonomy(io.StringIO("# only a comment\n"))
    with pytest.raises(FormatError) as err:
        read_taxonomy(io.StringIO("1\n1.x\tBad\n"))
    assert "line 2" in str(err.value)


def test_taxonomy_equality_ignores_names():
    assert Taxonomy([hl("1")]) == Taxonomy([hl("1")], names={hl("1"): "x"})
