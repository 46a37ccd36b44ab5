"""FASTA and feature-CSV input/output.

FASTA records may carry a hierarchy label as the second whitespace-delimited
header token (``>id 1.1.1``). Feature CSV files have a mandatory header of
canonical k-mer column names, one row per sequence, and an optional trailing
``label`` column. Both formats round-trip exactly.

The readers take text, bytes or an open text or binary stream; a stream is
read line by line. Each distinct label token is parsed once per read. The
feature-CSV writer formats every distinct float bit pattern of the matrix
once, and the reader parses each block of about 1 MB of rows as one matrix.
"""

from __future__ import annotations

import csv
import functools
import itertools
from dataclasses import dataclass
from typing import IO, Iterable, Iterator

import numpy as np

from .errors import FormatError, LabelParseError
from .kmers import KmerConfig, canonical_feature_order
from .labels import HierLabel, parse_label, render_label

# Uppercase nucleotide alphabet: the four bases plus IUPAC ambiguity codes.
NUCLEOTIDE_ALPHABET = frozenset("ACGTNRYSWKMBDHV")

_FASTA_WRAP = 70
_CSV_BLOCK_CHARS = 1 << 20  # text of the data rows parsed per np.loadtxt call


@dataclass(frozen=True)
class Sequence:
    """One nucleotide sequence with an optional hierarchy label."""

    id: str
    residues: str
    label: HierLabel | None = None

    def __post_init__(self):
        if not self.id or any(c.isspace() for c in self.id):
            raise FormatError(f"sequence id {self.id!r} must be nonempty without whitespace")
        if not self.residues:
            raise FormatError(f"sequence {self.id!r} has no residues")
        bad = set(self.residues) - NUCLEOTIDE_ALPHABET
        if bad:
            raise FormatError(
                f"sequence {self.id!r} contains illegal characters {sorted(bad)!r}"
            )


def _text_lines(source) -> Iterator[str]:
    """The lines of text, bytes or a text or binary stream, without line ends.

    A stream is read line by line, never whole; text is split on ``\n`` as
    ``readlines`` would split it.
    """
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
    """Parse FASTA text, bytes, or a readable stream into Sequence records.

    Multi-line bodies are concatenated, residues are uppercased, and a second
    header token is parsed as the record's hierarchy label; records with the
    same token share one label object. Line endings may be LF or CRLF. Raises
    FormatError (with a line number where possible) for structural problems
    and LabelParseError for bad label tokens.
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
            bad = set(chunk) - NUCLEOTIDE_ALPHABET
            if bad:
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


def read_feature_csv(
    source, config: KmerConfig | None = None
) -> tuple[np.ndarray, list[HierLabel | None]]:
    """Read a feature CSV into an (n_rows, n_features) matrix and a list of
    n_rows optional labels.

    The header must list the canonical k-mer names for ``config`` (default
    K=2,3,4), optionally followed by a ``label`` column. Raises FormatError
    with the offending row number for layout or numeric problems, including
    ``nan`` and ``inf`` values, which would poison every kernel of a node.

    The data rows are read in blocks of about 1 MB of text, so the text
    held at once stays bounded whatever the file size. Each block's numbers
    are parsed as one matrix (``np.loadtxt``, which rounds as ``float``
    does) and checked for finiteness once. A block that this fast path
    refuses is read again row by row with ``csv`` and ``float``, which
    either names the first bad row or accepts what ``float`` accepts (quoted
    cells, say); blocks are parsed in file order, so the first bad row of
    the file is the one reported. Each block is copied onto the end of the
    one result matrix, which grows in place (``ndarray.resize``), so no
    second copy of the matrix is ever held. Rows with the same label token
    share one label object.
    """
    config = config or KmerConfig()
    expected = canonical_feature_order(config)
    dim = len(expected)

    lines = _text_lines(source)
    header = next(csv.reader(itertools.islice(lines, 1)), None)
    if header is None:
        raise FormatError("feature CSV is empty (missing header row)")

    labeled = bool(header) and header[-1].strip().lower() == "label"
    feature_names = header[:-1] if labeled else header
    if len(feature_names) != dim:
        raise FormatError(
            f"expected {dim} features, header has {len(feature_names)}", line=1
        )
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
    try:
        vector = np.array([float(cell) for cell in row[:dim]], dtype=np.float64)
    except ValueError:
        bad = next(c for c in row[:dim] if not _is_number(c))
        raise FormatError(f"non-numeric feature value {bad!r}", line=lineno) from None
    finite = np.isfinite(vector)
    if not finite.all():
        col = int(np.argmin(finite))
        raise FormatError(
            f"non-finite feature value {row[col]!r} in column {col + 1} "
            f"({expected[col]!r})",
            line=lineno,
        )
    token = row[dim].strip() if labeled else ""
    try:
        return vector, parse(token) if token else None
    except LabelParseError as exc:
        raise LabelParseError(str(exc), line=lineno) from None


def _is_number(cell: str) -> bool:
    try:
        float(cell)
        return True
    except ValueError:
        return False


def write_feature_csv(
    records: Iterable[tuple[np.ndarray, HierLabel | None]],
    sink: IO[str],
    config: KmerConfig | None = None,
) -> None:
    """Write feature vectors (and labels, when any record carries one).

    Values are written with shortest round-trip float formatting
    (``repr(float)``), so reading the file back reproduces the vectors bit
    for bit. Each distinct bit pattern of the matrix is formatted once.
    """
    config = config or KmerConfig()
    names = canonical_feature_order(config)
    records = list(records)
    labeled = any(label is not None for _, label in records)
    vectors = [np.asarray(vector, dtype=np.float64) for vector, _ in records]
    for vector in vectors:
        if vector.shape != (len(names),):
            raise FormatError(
                f"vector has {vector.shape[0] if vector.ndim == 1 else vector.shape} "
                f"values, expected {len(names)}"
            )
    bits = np.array(vectors).reshape(len(vectors), len(names)).view(np.uint64)
    distinct = np.unique(bits)
    cells = np.array([repr(v) for v in distinct.view(np.float64).tolist()], dtype=object)
    sink.write(",".join(names + ["label"] if labeled else names) + "\n")
    for index, (_, label) in zip(np.searchsorted(distinct, bits), records):
        row = cells[index].tolist()
        if labeled:
            row.append(render_label(label) if label is not None else "")
        sink.write(",".join(row) + "\n")
