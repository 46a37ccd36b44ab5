"""FASTA and feature-CSV input and output; both formats round-trip exactly.

A FASTA header may carry a hierarchy label as its second token
(``>id 1.1.1``). A feature CSV has a header of canonical k-mer names, whose
count fixes the k values, and an optional trailing ``label`` column. The
readers take text, bytes, or an open text or binary stream, which they read
line by line.
"""

from __future__ import annotations

import csv
import functools
import itertools
import math
import re
from dataclasses import dataclass
from typing import IO, Iterable, Iterator

import numpy as np

from .errors import FormatError, LabelParseError
from .kmers import KmerConfig, canonical_feature_order, k_values_of
from .labels import HierLabel, parse_label, render_label

# Uppercase nucleotide alphabet: the four bases plus IUPAC ambiguity codes.
NUCLEOTIDE_ALPHABET = frozenset("ACGTNRYSWKMBDHV")
_RESIDUES = re.compile("[ACGTNRYSWKMBDHV]+")  # fullmatch: nonempty, in the alphabet

_FASTA_WRAP = 70
_CSV_BLOCK_CHARS = 1 << 20  # text of the data rows parsed per np.loadtxt call
_CSV_WRITE_BLOCK_ROWS = 128  # rows formatted per block by write_feature_csv


@dataclass(frozen=True)
class Sequence:
    """One nucleotide sequence with an optional hierarchy label."""

    id: str
    residues: str
    label: HierLabel | None = None

    def __post_init__(self):
        if self.id.split() != [self.id]:
            raise FormatError(f"sequence id {self.id!r} must be nonempty without whitespace")
        if not self.residues:
            raise FormatError(f"sequence {self.id!r} has no residues")
        if _RESIDUES.fullmatch(self.residues) is None:
            bad = set(self.residues) - NUCLEOTIDE_ALPHABET
            raise FormatError(
                f"sequence {self.id!r} contains illegal characters {sorted(bad)!r}"
            )


def _text_lines(source) -> Iterator[str]:
    """The lines of text, bytes or a text or binary stream, without line
    ends; a stream is read line by line."""
    if isinstance(source, (bytes, bytearray)):
        source = source.decode("utf-8")
    if isinstance(source, str):
        source = source.split("\n")
        if not source[-1]:
            source.pop()  # the empty text after a final newline is no line
    elif not hasattr(source, "read"):
        raise TypeError(f"cannot read lines from {type(source).__name__}")
    for line in source:
        if isinstance(line, (bytes, bytearray)):
            line = line.decode("utf-8")
        yield line.rstrip("\r\n")


def parse_fasta(source) -> list[Sequence]:
    """Sequence records from FASTA text, bytes or a readable stream.

    Bodies are joined and uppercased; a second header token is the label, one
    object per distinct token. Raises FormatError, with a line number where
    possible, for a structural problem and LabelParseError for a bad label.
    """
    parse = functools.cache(parse_label)
    records: list[Sequence] = []
    header_line = 0
    seq_id = None
    label: HierLabel | None = None
    body: list[str] = []

    def flush():
        if seq_id is None:
            return
        residues = "".join(body)
        if not residues:
            raise FormatError(f"record {seq_id!r} has no sequence lines", line=header_line)
        records.append(Sequence(id=seq_id, residues=residues, label=label))

    for lineno, line in enumerate(_text_lines(source), start=1):
        if not line.strip():
            continue
        if line.startswith(">"):
            flush()
            header_line = lineno
            tokens = line[1:].split()
            if not tokens:
                raise FormatError("header has no sequence id", line=lineno)
            seq_id = tokens[0]
            label = None
            if len(tokens) > 1:
                try:
                    label = parse(tokens[1])
                except LabelParseError as exc:
                    raise LabelParseError(
                        f"bad label token in header of {seq_id!r}: {exc}", line=lineno
                    ) from None
            body = []
        else:
            if seq_id is None:
                raise FormatError("sequence data before any '>' header", line=lineno)
            chunk = line.strip().upper()
            if _RESIDUES.fullmatch(chunk) is None:
                bad = set(chunk) - NUCLEOTIDE_ALPHABET
                raise FormatError(
                    f"illegal character(s) {sorted(bad)!r} in sequence {seq_id!r}",
                    line=lineno,
                )
            body.append(chunk)
    flush()
    if not records:
        raise FormatError("no sequences found in input")
    return records


def read_fasta(path) -> list[Sequence]:
    with open(path, "rb") as fh:
        return parse_fasta(fh)


def write_fasta(sequences: Iterable[Sequence], sink: IO[str]) -> None:
    """Write records so that parse_fasta reads back identical sequences."""
    for seq in sequences:
        header = f">{seq.id}"
        if seq.label is not None:
            header += f" {render_label(seq.label)}"
        sink.write(header + "\n")
        for start in range(0, len(seq.residues), _FASTA_WRAP):
            sink.write(seq.residues[start : start + _FASTA_WRAP] + "\n")


def save_fasta(sequences: Iterable[Sequence], path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        write_fasta(sequences, fh)


def read_feature_csv(source) -> tuple[np.ndarray, list[HierLabel | None]]:
    """(X, labels) of a feature CSV: an (n_rows, n_features) float matrix, and
    a label or None per row, one object per distinct label token.

    The header must name the canonical k-mers of the one k-mer set its width
    allows, then optionally ``label``. FormatError names the first bad row,
    and the column of a non-numeric, ``nan`` or ``inf`` value. Blocks of about
    1 MB of rows are parsed with ``np.loadtxt``, and a block it refuses row by
    row with ``float``, which accepts quoted cells; X grows in place, so no
    second copy of it is held.
    """
    lines = _text_lines(source)
    header = next(csv.reader(itertools.islice(lines, 1)), None)
    if header is None:
        raise FormatError("feature CSV is empty (missing header row)")

    labeled = bool(header) and header[-1].strip().lower() == "label"
    feature_names = header[:-1] if labeled else header
    try:
        expected = _feature_names(len(feature_names))
    except ValueError as exc:
        raise FormatError(f"header: {exc}", line=1) from None
    dim = len(expected)
    if feature_names != expected:
        mismatch = next(
            (i for i, (a, b) in enumerate(zip(feature_names, expected)) if a != b)
        )
        raise FormatError(
            f"feature column {mismatch + 1} is {feature_names[mismatch]!r}, "
            f"expected canonical k-mer {expected[mismatch]!r}",
            line=1,
        )

    numbered = ((lineno, line) for lineno, line in enumerate(lines, start=2) if line)
    parse = functools.cache(parse_label)
    X = np.empty((0, dim))
    labels: list[HierLabel | None] = []
    for rows in _line_blocks(numbered):
        block, block_labels = _parse_rows(rows, expected, labeled, parse)
        start = len(labels)
        labels.extend(block_labels)
        # X has no views, so resize() may grow it in place (realloc)
        X.resize((len(labels), dim), refcheck=False)
        X[start:] = block
    return X, labels


def _feature_names(width: int) -> list[str]:
    """The canonical k-mer names of the one k-mer set of ``width`` columns;
    ValueError for a width that is no such set."""
    return canonical_feature_order(KmerConfig(k_values_of(width)))


def _line_blocks(numbered: Iterator[tuple[int, str]]) -> Iterator[list[tuple[int, str]]]:
    """Consecutive (line number, line) lists of about ``_CSV_BLOCK_CHARS``."""
    block, size = [], 0
    for item in numbered:
        block.append(item)
        size += len(item[1])
        if size >= _CSV_BLOCK_CHARS:
            yield block
            block, size = [], 0
    if block:
        yield block


def _parse_rows(rows: list[tuple[int, str]], expected: list[str], labeled: bool, parse):
    """(matrix, labels) of one block of data rows, parsed as one matrix, or
    row by row when the fast path refuses the block."""
    dim = len(expected)
    try:
        texts = [line for _, line in rows]
        if any(line.count(",") != dim - 1 + labeled for line in texts):
            raise ValueError("a row has the wrong number of cells")
        X = np.loadtxt(texts, delimiter=",", usecols=range(dim), comments=None, ndmin=2)
        if X.shape != (len(rows), dim) or not np.isfinite(X).all():
            raise ValueError("a value is not a finite number")
        tokens = [line[line.rfind(",") + 1 :].strip() if labeled else "" for line in texts]
        labels = [parse(token) if token else None for token in tokens]
    except (ValueError, LabelParseError):
        parsed = [_parse_row(lineno, line, expected, labeled, parse) for lineno, line in rows]
        return np.array([vector for vector, _ in parsed]), [label for _, label in parsed]
    return X, labels


def _parse_row(lineno: int, line: str, expected: list[str], labeled: bool, parse):
    """One data row as (vector, label); FormatError names what is wrong."""
    dim = len(expected)
    row = next(csv.reader([line]))
    if len(row) != dim + labeled:
        raise FormatError(
            f"expected {dim} features, row has {len(row) - labeled}", line=lineno
        )
    vector = np.empty(dim)
    for col, cell in enumerate(row[:dim]):
        try:
            vector[col] = value = float(cell)
        except ValueError:
            value = None
        if value is None or not math.isfinite(value):
            kind = "non-numeric" if value is None else "non-finite"
            raise FormatError(
                f"{kind} feature value {cell!r} in column {col + 1} ({expected[col]!r})",
                line=lineno,
            )
    token = row[dim].strip() if labeled else ""
    try:
        return vector, parse(token) if token else None
    except LabelParseError as exc:
        raise LabelParseError(str(exc), line=lineno) from None


def write_feature_csv(
    records: Iterable[tuple[np.ndarray, HierLabel | None]], sink: IO[str]
) -> None:
    """Write feature vectors, with a ``label`` column if any record has one.

    The header is the canonical k-mer set of the vectors' width, as
    ``read_feature_csv`` reads it. Raises FormatError for no records, a first
    width that is no k-mer set, or a later vector of another width. Values are
    written as ``repr(float)``, so they read back bit for bit.
    """
    records = list(records)
    if not records:
        raise FormatError("no feature vectors to write")
    try:
        names = _feature_names(len(records[0][0]))
    except ValueError as exc:
        raise FormatError(f"first feature vector: {exc}") from None
    labeled = any(label is not None for _, label in records)
    for vector, _ in records:
        vector = np.asarray(vector, dtype=np.float64)
        if vector.shape != (len(names),):
            raise FormatError(
                f"vector has {vector.shape[0] if vector.ndim == 1 else vector.shape} "
                f"values, expected {len(names)}"
            )
    sink.write(",".join(names + ["label"] if labeled else names) + "\n")
    for start in range(0, len(records), _CSV_WRITE_BLOCK_ROWS):
        block = records[start : start + _CSV_WRITE_BLOCK_ROWS]
        bits = np.array([vector for vector, _ in block], dtype=np.float64).view(np.uint64)
        distinct, index = np.unique(bits, return_inverse=True)
        text = np.array([repr(v) for v in distinct.view(np.float64).tolist()], dtype=object)
        for row, (_, label) in zip(text[index.reshape(bits.shape)].tolist(), block):
            if labeled:
                row.append(render_label(label) if label is not None else "")
            sink.write(",".join(row) + "\n")
