import io

import numpy as np
import pytest

from tehier import (
    FormatError,
    KmerConfig,
    LabelParseError,
    Sequence,
    parse_fasta,
    parse_label,
    read_feature_csv,
    write_fasta,
    write_feature_csv,
)
import tehier.sequence_io
from tehier.kmers import canonical_feature_order

from oracles import write_feature_csv_reference


def test_single_record_with_label():
    records = parse_fasta(">s1 1.1.1\nACGT")
    assert records == [Sequence(id="s1", residues="ACGT", label=parse_label("1.1.1"))]


def test_multiline_bodies_concatenate():
    records = parse_fasta(">s1\nAC\nGT\n>s2\nTTTT")
    assert [r.id for r in records] == ["s1", "s2"]
    assert records[0].residues == "ACGT"
    assert records[0].label is None


def test_illegal_character_names_line():
    with pytest.raises(FormatError) as err:
        parse_fasta(">s1\nACXG")
    assert "X" in str(err.value)
    assert "line 2" in str(err.value)


def test_lowercase_is_uppercased():
    assert parse_fasta(">s\nacgtn")[0].residues == "ACGTN"


def test_sequence_before_header_rejected():
    with pytest.raises(FormatError) as err:
        parse_fasta("ACGT\n>s1\nACGT")
    assert "line 1" in str(err.value)


def test_empty_input_rejected():
    with pytest.raises(FormatError):
        parse_fasta("")
    with pytest.raises(FormatError):
        parse_fasta("\n\n")


def test_malformed_label_token():
    with pytest.raises(LabelParseError):
        parse_fasta(">s1 1..2\nACGT")


def test_header_without_id_rejected():
    with pytest.raises(FormatError):
        parse_fasta(">\nACGT")


def test_record_with_no_body_rejected():
    with pytest.raises(FormatError):
        parse_fasta(">s1\n>s2\nACGT")


def test_crlf_and_trailing_newline_insensitive():
    unix = parse_fasta(">s1 1.2\nACGT\n")
    crlf = parse_fasta(">s1 1.2\r\nACGT\r\n")
    bare = parse_fasta(">s1 1.2\nACGT")
    assert unix == crlf == bare


def test_bytes_and_stream_sources():
    text = ">s1\nACGT\n"
    assert parse_fasta(text.encode()) == parse_fasta(io.StringIO(text)) == parse_fasta(text)


def test_fasta_round_trip():
    rng = np.random.default_rng(5)
    bases = np.array(list("ACGTN"))
    records = []
    for i in range(25):
        length = int(rng.integers(1, 400))
        residues = "".join(rng.choice(bases, size=length))
        label = parse_label("1.2.3") if i % 3 == 0 else None
        records.append(Sequence(id=f"seq{i}", residues=residues, label=label))
    sink = io.StringIO()
    write_fasta(records, sink)
    assert parse_fasta(sink.getvalue()) == records


def test_iupac_ambiguity_codes_accepted():
    record = parse_fasta(">s\nACGTRYSWKMBDHVN")[0]
    assert record.residues == "ACGTRYSWKMBDHVN"


# -- feature CSV ---------------------------------------------------------------


def _csv_text(rows, header=None):
    config = KmerConfig()
    header = header if header is not None else ",".join(canonical_feature_order(config))
    return "\n".join([header] + rows) + "\n"


def test_read_feature_csv_zero_row_with_label():
    text = _csv_text(
        [",".join(["0"] * 336) + ",1"],
        header=",".join(canonical_feature_order(KmerConfig())) + ",label",
    )
    X, labels = read_feature_csv(text)
    assert X.shape == (1, 336)
    assert not X.any()
    assert labels == [parse_label("1")]


def test_read_feature_csv_wrong_column_count():
    text = _csv_text([",".join(["0"] * 335)], header=",".join(["f"] * 335))
    with pytest.raises(FormatError) as err:
        read_feature_csv(text)
    assert "expected 336 features" in str(err.value)


def test_read_feature_csv_wrong_row_width():
    good_header = ",".join(canonical_feature_order(KmerConfig()))
    text = good_header + "\n" + ",".join(["0"] * 335) + "\n"
    with pytest.raises(FormatError) as err:
        read_feature_csv(text)
    assert "line 2" in str(err.value)


def test_read_feature_csv_header_only_gives_empty_list():
    X, labels = read_feature_csv(_csv_text([]))
    assert X.shape == (0, 336) and labels == []


def test_read_feature_csv_rejects_non_numeric():
    text = _csv_text([",".join(["0"] * 335 + ["oops"])])
    with pytest.raises(FormatError) as err:
        read_feature_csv(text)
    assert "oops" in str(err.value)


@pytest.mark.parametrize("cell", ["nan", "inf", "-Infinity"])
def test_read_feature_csv_rejects_non_finite(cell):
    names = canonical_feature_order(KmerConfig())
    row = ["0"] * 336
    row[4] = cell
    text = _csv_text([",".join(["0"] * 336), ",".join(row)])
    with pytest.raises(FormatError) as err:
        read_feature_csv(text)
    message = str(err.value)
    assert err.value.line == 3
    assert f"column 5 ({names[4]!r})" in message
    assert repr(cell) in message


def test_read_feature_csv_rejects_wrong_column_names():
    header = ",".join(reversed(canonical_feature_order(KmerConfig())))
    with pytest.raises(FormatError):
        read_feature_csv(_csv_text([], header=header))


def test_feature_csv_round_trip_exact():
    rng = np.random.default_rng(11)
    records = [
        (rng.random(336), parse_label("1.2") if i % 2 else None) for i in range(7)
    ]
    sink = io.StringIO()
    write_feature_csv(records, sink)
    X, labels = read_feature_csv(sink.getvalue())
    assert X.shape == (len(records), 336)
    for (v1, l1), v2, l2 in zip(records, X, labels):
        assert np.array_equal(v1, v2)  # bit-exact via repr round-trip
        assert l1 == l2


def test_feature_csv_without_labels_has_no_label_column():
    sink = io.StringIO()
    write_feature_csv([(np.zeros(336), None)], sink)
    header = sink.getvalue().splitlines()[0]
    assert not header.endswith("label")


@pytest.mark.parametrize("labels", ["all", "some", "none"])
def test_feature_csv_writer_bytes_equal_reference(labels):
    rng = np.random.default_rng(29)
    X = rng.random((40, 336)) * rng.choice([1e-3, 1.0, 1e3], size=(40, 336))
    X[rng.random(X.shape) < 0.3] = 0.0
    specials = [-0.0, 5e-324, -2.5e-310, 2.2250738585072014e-308, 1e300, -1e300, 0.1, 1 / 3]
    for value in specials:
        X[rng.integers(40), rng.integers(336)] = value
    pick = {"all": lambda i: True, "some": lambda i: i % 3 == 0, "none": lambda i: False}[labels]
    records = [(X[i], parse_label(f"{i % 4 + 1}.2") if pick(i) else None) for i in range(40)]
    ours, reference = io.StringIO(), io.StringIO()
    write_feature_csv(records, ours)
    write_feature_csv_reference(records, reference)
    assert ours.getvalue() == reference.getvalue()
    loaded, loaded_labels = read_feature_csv(ours.getvalue())
    assert loaded.tobytes() == X.tobytes()
    assert loaded_labels == [l for _, l in records]


def test_feature_csv_writer_rejects_wrong_width():
    with pytest.raises(FormatError, match="expected 336"):
        write_feature_csv([(np.zeros(336), None), (np.zeros(335), None)], io.StringIO())


def test_read_feature_csv_sources_line_ends_and_shared_labels(tmp_path):
    names = canonical_feature_order(KmerConfig())
    row = ",".join(["0.25"] * 336)
    text = ",".join(names) + ",label\n" + f"{row},1.2\n\n{row},1.2\n{row},\n"
    path = tmp_path / "f.csv"
    path.write_bytes(text.replace("\n", "\r\n").encode())
    with open(path, "rb") as binary, open(path, encoding="utf-8") as textfile:
        crlf = text.replace("\n", "\r\n")
        sources = [text, text.encode(), io.StringIO(text), crlf, binary, textfile]
        results = [read_feature_csv(source) for source in sources]
    for X, labels in results:
        assert labels == [parse_label("1.2"), parse_label("1.2"), None]
        assert np.array_equal(X, np.full((3, 336), 0.25))
        assert labels[0] is labels[1]


def test_read_feature_csv_accepts_what_float_accepts():
    # quoted cells and digit separators fall back to the row-by-row reader
    row = ['"0.5"', "1_0"] + ["0"] * 334
    (vector,), (label,) = read_feature_csv(_csv_text([",".join(row)]))
    assert vector[:3].tolist() == [0.5, 10.0, 0.0] and label is None


def test_read_feature_csv_reports_the_first_bad_row():
    header = ",".join(canonical_feature_order(KmerConfig())) + ",label"
    good = ",".join(["0"] * 336)
    rows = [good + ",1", good + ",1..2", good.replace("0", "inf", 1) + ",1", good + ",x"]
    with pytest.raises(LabelParseError) as err:
        read_feature_csv(_csv_text(rows, header=header))
    assert err.value.line == 3
    with pytest.raises(FormatError, match="non-finite") as err:
        read_feature_csv(_csv_text(rows[2:], header=header))
    assert err.value.line == 2


def test_fasta_records_share_label_objects():
    records = parse_fasta(">a 1.2\nAC\n>b 1.2\nGT\n")
    assert records[0].label is records[1].label == parse_label("1.2")


@pytest.mark.parametrize("block_chars", [1, 2000, 5000])
def test_read_feature_csv_blocks_equal_one_matrix(monkeypatch, rng, block_chars):
    X = rng.random((13, 336))
    X[4] = 0.0
    labels = [parse_label("1.2"), None, parse_label("2")] * 4 + [parse_label("1.2")]
    sink = io.StringIO()
    write_feature_csv(list(zip(X, labels)), sink)
    whole, whole_labels = read_feature_csv(sink.getvalue())
    monkeypatch.setattr(tehier.sequence_io, "_CSV_BLOCK_CHARS", block_chars)
    blocked, blocked_labels = read_feature_csv(io.StringIO(sink.getvalue()))
    assert blocked.flags.c_contiguous and blocked.flags.owndata
    assert np.array_equal(blocked.view(np.uint64), X.view(np.uint64))
    assert np.array_equal(whole.view(np.uint64), X.view(np.uint64))
    assert blocked_labels == whole_labels == labels
    assert blocked_labels[0] is blocked_labels[-1]


def test_read_feature_csv_first_bad_row_across_blocks(monkeypatch):
    header = ",".join(canonical_feature_order(KmerConfig())) + ",label"
    good = ",".join(["0"] * 336) + ",1"
    bad_label = ",".join(["0"] * 336) + ",1..2"
    bad_value = ",".join(["nan"] + ["0"] * 335) + ",1"
    # a block holds about three rows: the bad value (line 6) is in a later
    # block than the bad label (line 4) of the same file
    monkeypatch.setattr(tehier.sequence_io, "_CSV_BLOCK_CHARS", 2 * len(good) + 1)
    text = _csv_text([good, good, bad_label, good, bad_value, good], header=header)
    with pytest.raises(LabelParseError) as err:
        read_feature_csv(text)
    assert err.value.line == 4
    text = _csv_text([good, good, good, good, bad_value, bad_label], header=header)
    with pytest.raises(FormatError, match="non-finite") as err:
        read_feature_csv(text)
    assert err.value.line == 6
