"""Rooted class-hierarchy trees, held as arrays of node ids.

A taxonomy is a set of hierarchy labels closed under prefixes: if ``1.1.1``
is a node then so are ``1.1`` and ``1``. The root is implicit (the empty
path) and is not a class.
"""

from __future__ import annotations

import importlib.resources
from typing import IO, Iterable

import numpy as np

from .errors import FormatError, TaxonomyError
from .labels import HierLabel, parse_label


class Taxonomy:
    """Immutable rooted tree of hierarchy labels, held as arrays of node ids.

    Id 0 is the implicit root and the nodes follow in preorder, which is
    label order, so a parent's id is smaller than its children's and
    siblings ascend. ``node_labels`` maps an id to its label (None for the
    root) and ``node_index`` a path tuple to its id; ``parent_id``,
    ``node_depth``, ``child_ids`` and ``ancestor_ids`` (row v, column d: v's
    ancestor at depth d, -1 below v) hold the tree.
    """

    def __init__(self, labels: Iterable[HierLabel], names: dict[HierLabel, str] | None = None):
        given = {label.path: label for label in labels}
        paths = sorted({path[:d] for path in given for d in range(1, len(path) + 1)})
        if not paths:
            raise TaxonomyError("taxonomy needs at least one node")
        self.names = dict(names or {})
        self.node_labels: list[HierLabel | None] = [None]
        self.node_labels += (given.get(p) or HierLabel(p) for p in paths)
        self.node_index = {path: i for i, path in enumerate([(), *paths])}
        self.parent_id = np.array([-1] + [self.node_index[p[:-1]] for p in paths])
        self.node_depth = np.array([0] + [len(p) for p in paths])
        self.child_ids: list[list[int]] = [[] for _ in self.node_labels]
        self.ancestor_ids = np.full((len(self.node_labels), self.max_depth + 1), -1)
        self.ancestor_ids[0, 0] = 0
        for v in range(1, len(self.node_labels)):
            self.child_ids[self.parent_id[v]].append(v)
            self.ancestor_ids[v] = self.ancestor_ids[self.parent_id[v]]
            self.ancestor_ids[v, self.node_depth[v]] = v

    def __contains__(self, label: HierLabel) -> bool:
        # a label's path is never the root's
        return isinstance(label, HierLabel) and label.path in self.node_index

    def __len__(self) -> int:
        return len(self.node_labels) - 1

    def ids(self, labels: list[HierLabel], what: str = "label") -> np.ndarray:
        """Node ids of ``labels``; TaxonomyError names the first unknown one."""
        ids = np.fromiter((self.node_index.get(l.path, 0) for l in labels), np.intp, len(labels))
        if not ids.all():  # a label's path is never the root's
            raise TaxonomyError(f"{what} {labels[int(ids.argmin())]} is not a taxonomy node")
        return ids

    def nodes(self) -> list[HierLabel]:
        """All nodes in preorder."""
        return self.node_labels[1:]

    @property
    def max_depth(self) -> int:
        return int(self.node_depth.max())

    def classes_per_level(self) -> list[int]:
        """Node counts by depth, index 0 = depth 1."""
        return np.bincount(self.node_depth[1:] - 1).tolist()

    def __eq__(self, other) -> bool:
        return isinstance(other, Taxonomy) and self.node_labels == other.node_labels

    def __repr__(self) -> str:
        per_level = "/".join(str(c) for c in self.classes_per_level())
        return f"Taxonomy({len(self)} nodes, {per_level} per level)"


def read_taxonomy(source: IO[str]) -> Taxonomy:
    """Read a taxonomy text file: one ``dot.path<TAB>name`` per line.

    The name is optional; blank lines and ``#`` comments are skipped.
    """
    labels: list[HierLabel] = []
    names: dict[HierLabel, str] = {}
    for lineno, raw in enumerate(source, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        token, _, name = line.partition("\t")
        try:
            label = parse_label(token)
        except FormatError as exc:
            raise FormatError(f"bad taxonomy node: {exc}", line=lineno) from None
        labels.append(label)
        if name.strip():
            names[label] = name.strip()
    if not labels:
        raise FormatError("taxonomy file contains no nodes")
    return Taxonomy(labels, names)


def load_taxonomy(path) -> Taxonomy:
    with open(path, "r", encoding="utf-8") as fh:
        return read_taxonomy(fh)


def write_taxonomy(taxonomy: Taxonomy, sink: IO[str]) -> None:
    for node in taxonomy.nodes():
        name = taxonomy.names.get(node, "")
        sink.write(f"{node}\t{name}\n" if name else f"{node}\n")


def wicker_taxonomy() -> Taxonomy:
    """The bundled transcription of Wicker's unified TE classification.

    Class I retrotransposons and Class II DNA transposons down to the
    superfamily level, with the Class II subclass tier in between, so Class I
    superfamilies sit at depth 3 and Class II superfamilies at depth 4.
    """
    resource = importlib.resources.files("tehier.data").joinpath("wicker.txt")
    with resource.open("r", encoding="utf-8") as fh:
        return read_taxonomy(fh)
