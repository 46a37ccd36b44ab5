import argparse
import csv
import json
from pathlib import Path

import numpy as np
import pytest

import tehier.cli
from tehier import (
    KmerConfig, LogRegConfig, NumericError, SvmConfig, Taxonomy, featurize_batch, read_fasta,
    load_model_file, parse_label, render_label, save_model_file, train_hier, wicker_taxonomy,
    write_feature_csv,
)
from tehier.cli import build_parser, main

SUBCOMMANDS = ["synth", "featurize", "train", "predict", "evaluate", "cv", "gridsearch", "compare"]
WICKER = Path(tehier.cli.__file__).parent / "data" / "wicker.txt"


def run(args) -> int:
    return main([str(a) for a in args])


@pytest.fixture
def workspace(tmp_path):
    """A small synthetic dataset shared by the CLI tests."""
    fasta = tmp_path / "data.fasta"
    features = tmp_path / "data.csv"
    assert run(["synth", "--shape", "2,2", "--per-node", "15", "--length", "150",
                "--seed", "7", "--out", fasta]) == 0
    assert run(["featurize", fasta, "--out", features, "--seed", "7"]) == 0
    return tmp_path


def test_featurize_output_shape(workspace):
    lines = (workspace / "data.csv").read_text().splitlines()
    assert len(lines) == 1 + 60
    header = lines[0].split(",")
    assert len(header) == 337
    assert header[-1] == "label"
    assert header[0] == "AA"


def test_featurize_unlabeled_fasta_has_no_label_column(tmp_path):
    fasta = tmp_path / "plain.fasta"
    fasta.write_text(">a\nACGTACGT\n>b\nGGTTCCAA\n")
    out = tmp_path / "plain.csv"
    assert run(["featurize", fasta, "--out", out]) == 0
    assert len(out.read_text().splitlines()[0].split(",")) == 336


def test_featurize_empty_fasta_fails(tmp_path):
    fasta = tmp_path / "empty.fasta"
    fasta.write_text("")
    assert run(["featurize", fasta, "--out", tmp_path / "x.csv"]) == 2


def test_train_predict_evaluate_pipeline(workspace, capsys):
    model = workspace / "model.json"
    pred = workspace / "pred.csv"
    assert run(["train", workspace / "data.csv", "--base", "svm", "--C", "8",
                "--gamma", "4", "--seed", "7", "--out", model]) == 0
    assert run(["predict", workspace / "data.fasta", "--model", model,
                "--strategy", "lcpnb", "--out", pred]) == 0
    assert run(["evaluate", pred, workspace / "data.fasta"]) == 0
    out = capsys.readouterr().out
    assert "hF: 1.000000" in out  # training-set predictions on separable data


def test_train_rejects_non_finite_features(workspace, tmp_path, capsys):
    lines = (workspace / "data.csv").read_text().splitlines()
    cells = lines[3].split(",")
    cells[7] = "nan"
    lines[3] = ",".join(cells)
    bad = tmp_path / "bad.csv"
    bad.write_text("\n".join(lines) + "\n")
    assert run(["train", bad, "--base", "svm", "--out", tmp_path / "m.json"]) == 2
    err = capsys.readouterr().err
    assert "line 4" in err and "column 8" in err


def test_predict_feature_width_mismatch(workspace, tmp_path):
    model = tmp_path / "narrow.json"
    narrow = tmp_path / "narrow.csv"
    assert run(["featurize", workspace / "data.fasta", "--kmers", "2",
                "--out", narrow]) == 0
    assert run(["train", narrow, "--base", "logreg", "--out", model]) == 0
    # 336-wide features against a 16-feature model: data error
    assert run(["predict", workspace / "data.csv", "--model", model,
                "--out", tmp_path / "p.csv"]) == 2


def test_raw_count_model_predicts_the_same_from_fasta_and_from_csv(workspace, tmp_path):
    # the model's fingerprint is read off the training CSV, so predict
    # featurizes the FASTA as raw counts too
    raw, model = tmp_path / "raw.csv", tmp_path / "raw.json"
    assert run(["featurize", workspace / "data.fasta", "--norm", "raw", "--out", raw]) == 0
    assert run(["train", raw, "--C", "16", "--gamma", "0.0001", "--out", model]) == 0
    assert json.loads(model.read_text())["kmer_config"]["normalization"] == "raw"
    labels = []
    for source in (workspace / "data.fasta", raw):
        pred = tmp_path / "pred.csv"
        assert run(["predict", source, "--model", model, "--out", pred]) == 0
        labels.append([line.split(",")[1] for line in pred.read_text().splitlines()[1:]])
    assert len(labels[0]) == 60 and labels[0] == labels[1]


def test_predict_refuses_a_fasta_for_a_model_without_a_featurization(workspace, tmp_path, capsys):
    # 335 columns are no set of k-mer blocks, so the model records no
    # featurization and cannot say how to featurize a FASTA
    records = read_fasta(workspace / "data.fasta")
    X = featurize_batch(records, KmerConfig(normalization="raw"))[:, 1:]
    model_path = tmp_path / "bare.json"
    labels = [r.label for r in records]
    model = train_hier(X, labels, Taxonomy(labels), SvmConfig(C=16.0, gamma=1e-4))
    assert model.kmer_config is None
    save_model_file(model, model_path)
    assert run(["predict", workspace / "data.fasta", "--model", model_path,
                "--out", tmp_path / "p.csv"]) == 2
    err = capsys.readouterr().err
    assert "records no k-mer featurization" in err and "feature CSV" in err


@pytest.fixture
def normalizations(workspace, tmp_path):
    """A freq and a raw feature CSV of the same 60 sequences, each with the
    model that `train` makes of it."""
    paths = {}
    for norm, gamma in (("freq", "8"), ("raw", "0.0001")):
        csv, model = tmp_path / f"{norm}.csv", tmp_path / f"{norm}.json"
        assert run(["featurize", workspace / "data.fasta", "--norm", norm, "--out", csv]) == 0
        assert run(["train", csv, "--C", "16", "--gamma", gamma, "--out", model]) == 0
        paths[norm] = (csv, model)
    return paths


@pytest.mark.parametrize("query, trained", [("freq", "raw"), ("raw", "freq")])
def test_predict_refuses_a_csv_of_the_other_normalization(
    normalizations, tmp_path, capsys, query, trained
):
    assert run(["predict", normalizations[query][0], "--model", normalizations[trained][1],
                "--out", tmp_path / "p.csv"]) == 2
    err = capsys.readouterr().err
    assert f"'{query}' features" in err and f"'{trained}' features" in err
    assert not (tmp_path / "p.csv").exists()


@pytest.mark.parametrize("norm", ["freq", "raw"])
def test_predict_takes_a_csv_of_the_model_normalization(normalizations, tmp_path, norm):
    csv, model = normalizations[norm]
    pred = tmp_path / "p.csv"
    assert run(["predict", csv, "--model", model, "--out", pred]) == 0
    assert len(pred.read_text().splitlines()) == 1 + 60


def test_predict_takes_rows_that_fit_both_normalizations(normalizations, tmp_path):
    # rows whose entries are whole numbers and whose k-blocks sum to 0 or 1
    # are the same vector in both modes
    header = normalizations["freq"][0].read_text().splitlines()[0].split(",")[:-1]
    rows = [[0] * len(header) for _ in range(3)]
    rows[1][0] = rows[1][16] = rows[1][80] = 1
    both = tmp_path / "both.csv"
    both.write_text("\n".join(",".join(map(str, r)) for r in [header, *rows]) + "\n")
    for norm in ("freq", "raw"):
        assert run(["predict", both, "--model", normalizations[norm][1],
                    "--out", tmp_path / f"{norm}.csv"]) == 0


def test_rows_of_no_k_mer_features_train_a_model_that_predicts_them(workspace, tmp_path, capsys):
    # 16 columns of normal draws: the width of k = 2, but neither frequencies
    # nor whole-number counts, so the model records no featurization
    rng = np.random.default_rng(0)
    labels = [parse_label(t) for t in ("1.1", "1.2", "2")] * 10
    draws, model = tmp_path / "z.csv", tmp_path / "z.json"
    with open(draws, "w", encoding="utf-8", newline="") as fh:
        write_feature_csv([(rng.normal(size=16), label) for label in labels], fh)
    assert run(["train", draws, "--base", "logreg", "--out", model]) == 0
    assert json.loads(model.read_text())["kmer_config"] is None
    assert run(["predict", draws, "--model", model, "--out", tmp_path / "p.csv"]) == 0
    # a model of 'freq' rows names what the draws hold
    narrow, freq_model = tmp_path / "narrow.csv", tmp_path / "narrow.json"
    assert run(["featurize", workspace / "data.fasta", "--kmers", "2", "--out", narrow]) == 0
    assert run(["train", narrow, "--base", "logreg", "--out", freq_model]) == 0
    capsys.readouterr()
    assert run(["predict", draws, "--model", freq_model, "--out", tmp_path / "q.csv"]) == 2
    assert "the rows hold neither 'freq' nor 'raw' features" in capsys.readouterr().err
    assert not (tmp_path / "q.csv").exists()


def test_train_records_the_k_values_of_its_csv(workspace, tmp_path):
    narrow, model = tmp_path / "narrow.csv", tmp_path / "narrow.json"
    assert run(["featurize", workspace / "data.fasta", "--kmers", "2", "--out", narrow]) == 0
    assert run(["train", narrow, "--base", "logreg", "--out", model]) == 0
    # the file holds the normalization; the 16-column width gives k = 2
    assert json.loads(model.read_text())["kmer_config"] == {"normalization": "freq"}
    assert load_model_file(model).kmer_config == KmerConfig((2,), "freq")


@pytest.mark.parametrize("flag", [["--kmers", "2,3,4"], ["--norm", "freq"]])
def test_only_featurize_takes_the_featurization_flags(workspace, tmp_path, flag):
    assert run(["featurize", workspace / "data.fasta", *flag, "--out", tmp_path / "f.csv"]) == 0
    for command in ("train", "cv", "gridsearch", "compare"):
        argv = [command, workspace / "data.csv", *flag, "--out", tmp_path / "x"]
        assert run(argv) == 1, command


def test_compare_refuses_an_unknown_base_before_any_fold(workspace, capsys):
    out = workspace / "compare.csv"
    assert run(["compare", workspace / "data.csv", "--bases", "svm,forest", "--folds", "3",
                "--out", out]) == 2
    captured = capsys.readouterr()
    assert captured.out == "seed: 0\n"
    assert captured.err == "error: unknown base classifier 'forest'\n"
    assert not out.exists()


@pytest.mark.parametrize("flag, names, error", [
    ("--bases", "svm,svm", "base classifier 'svm' given twice"),
    ("--strategies", "lcpnb,lcpnb", "strategy 'lcpnb' given twice"),
])
def test_compare_refuses_a_name_given_twice(workspace, capsys, flag, names, error):
    out = workspace / "compare.csv"
    assert run(["compare", workspace / "data.csv", flag, names, "--folds", "3",
                "--out", out]) == 1
    assert capsys.readouterr().err == f"error: {error}\n"
    assert not out.exists()


def test_evaluate_identical_files_perfect(workspace, tmp_path, capsys):
    model = tmp_path / "m.json"
    pred = tmp_path / "p.csv"
    assert run(["train", workspace / "data.csv", "--base", "logreg", "--out", model]) == 0
    assert run(["predict", workspace / "data.fasta", "--model", model, "--out", pred]) == 0
    assert run(["evaluate", pred, pred]) == 0
    assert "hF: 1.000000" in capsys.readouterr().out


def test_evaluate_refuses_an_id_given_twice_in_a_csv(tmp_path, capsys):
    truth, pred = tmp_path / "truth.csv", tmp_path / "pred.csv"
    truth.write_text("id,label\na,1.1\nb,1.2\n\na,2.1\n")
    pred.write_text("id,predicted_label\na,1.1\nb,1.2\n")
    assert run(["evaluate", pred, truth]) == 2
    assert capsys.readouterr().err == f"error: line 5: {truth}: id 'a' is given twice\n"
    assert run(["evaluate", truth, pred]) == 2  # the predictions are read the same way


def test_evaluate_refuses_an_id_given_twice_in_a_fasta(tmp_path, capsys):
    truth, pred = tmp_path / "truth.fasta", tmp_path / "pred.csv"
    truth.write_text(">a 1.1\nACGT\nACGT\n\n>b 1.2\nACGT\n>a 2.1\nACGT\n")
    pred.write_text("id,predicted_label\na,1.1\nb,1.2\n")
    assert run(["evaluate", pred, truth]) == 2
    assert capsys.readouterr().err == f"error: line 7: {truth}: id 'a' is given twice\n"


def test_evaluate_refuses_predicted_ids_the_truth_file_lacks(tmp_path, capsys):
    truth, pred = tmp_path / "truth.csv", tmp_path / "pred.csv"
    truth.write_text("id,label\na,1.1\nb,1.2\n")
    pred.write_text("id,predicted_label\na,1.1\nb,1.2\nz,7.7.7\n")
    assert run(["evaluate", pred, truth]) == 2
    captured = capsys.readouterr()
    assert "hF" not in captured.out
    assert captured.err == (
        "error: 1 ids in the predictions file are not in the truth file (first: z)\n"
    )


def test_cv_report_structure(workspace):
    report = workspace / "cv.csv"
    assert run(["cv", workspace / "data.csv", "--base", "logreg", "--folds", "5",
                "--seed", "1", "--out", report]) == 0
    lines = report.read_text().splitlines()
    assert lines[0].startswith("fold,strategy,base,hP,hR,hF,hF_L1")
    assert len(lines) == 1 + 5 + 1  # folds + mean row
    assert lines[-1].startswith("mean,")


def test_cv_too_many_folds_fails(workspace):
    assert run(["cv", workspace / "data.csv", "--folds", "999"]) != 0


@pytest.mark.parametrize(
    "folds, message",
    [(1, "--folds must be at least 2, got 1"), (500, "--folds 500 exceeds the 60 labeled rows")],
    ids=["folds-1", "folds-500"],
)
def test_gridsearch_refuses_an_impossible_fold_count_as_cv_does(workspace, capsys, folds, message):
    for command in ("cv", "gridsearch", "compare"):
        assert run([command, workspace / "data.csv", "--folds", folds]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n"
        assert captured.out == "seed: 0\n"  # no fold, grid cell or base ran


def test_gridsearch_report_and_selection(workspace, capsys):
    report = workspace / "grid.csv"
    grid_file = workspace / "grid.json"
    grid_file.write_text(json.dumps({"c_values": [1.0, 8.0], "gamma_values": [2.0]}))
    assert run(["gridsearch", workspace / "data.csv", "--grid", grid_file,
                "--folds", "3", "--seed", "2", "--out", report]) == 0
    lines = report.read_text().splitlines()
    assert lines[0] == "C,gamma,mean_hF,std_hF,status"
    assert len(lines) == 3
    assert "selected C=" in capsys.readouterr().out


@pytest.mark.parametrize("text, error", [
    ('{"c_values": [1, NaN], "gamma_values": [1]}', "C must be finite and positive, got nan"),
    ('{"c_values": [1], "gamma_values": [1e400]}', "gamma must be finite and positive, got inf"),
])
def test_gridsearch_refuses_a_non_finite_grid_value_before_any_cell(
    workspace, monkeypatch, capsys, text, error
):
    assert_grid_file_refused(workspace, monkeypatch, capsys, text, error)


@pytest.mark.parametrize("text, error", [
    ('{"c_values": [1, 4, 1], "gamma_values": [2]}', "grid C value 1.0 given twice"),
    ('{"c_values": [1], "gamma_values": [2, 2.0]}', "grid gamma value 2.0 given twice"),
])
def test_gridsearch_refuses_a_grid_value_given_twice_before_any_cell(
    workspace, monkeypatch, capsys, text, error
):
    assert_grid_file_refused(workspace, monkeypatch, capsys, text, error)


def assert_grid_file_refused(workspace, monkeypatch, capsys, text, error):
    """``gridsearch`` on a grid file of ``text`` exits 2 with ``error`` and
    cross-validates nothing."""
    cells = []
    monkeypatch.setattr(tehier.gridsearch, "crossval", lambda *a, **kw: cells.append((a, kw)))
    grid_file, report = workspace / "grid.json", workspace / "grid.csv"
    grid_file.write_text(text)
    argv = ["gridsearch", workspace / "data.csv", "--grid", grid_file, "--folds", "3",
            "--out", report]
    assert run(argv) == 2
    assert capsys.readouterr().err == f"error: {error}\n"
    assert cells == [] and not report.exists()


def test_gridsearch_reports_why_a_cell_failed(workspace, monkeypatch, capsys):
    crossval = tehier.gridsearch.crossval

    def failing_below(limit):
        def stub(X, labels, taxonomy, configs, *args, **kwargs):
            outcomes = crossval(X, labels, taxonomy, configs, *args, **kwargs)
            return [
                NumericError(f"stub failure, C={config.C:g}") if config.C < limit else outcome
                for config, outcome in zip(configs, outcomes)
            ]

        return stub

    grid_file, report = workspace / "grid.json", workspace / "grid.csv"
    grid_file.write_text(json.dumps({"c_values": [1.0, 8.0], "gamma_values": [2.0]}))
    argv = ["gridsearch", workspace / "data.csv", "--grid", grid_file, "--folds", "3",
            "--out", report]
    monkeypatch.setattr(tehier.gridsearch, "crossval", failing_below(2.0))
    assert run(argv) == 0
    rows = list(csv.reader(report.read_text().splitlines()))
    assert [row[4] for row in rows[1:]] == ["failed: stub failure, C=1", "ok"]
    assert rows[1][2:4] == ["NA", "NA"]
    assert "(1 failed)" in capsys.readouterr().out
    monkeypatch.setattr(tehier.gridsearch, "crossval", failing_below(100.0))
    assert run(argv) == 3
    assert capsys.readouterr().err == "error: no viable cell: every grid cell failed\n"
    rows = list(csv.reader(report.read_text().splitlines()))
    assert [row[4] for row in rows[1:]] == ["failed: stub failure, C=1", "failed: stub failure, C=8"]


def test_predict_output_reads_back_with_a_comma_or_quote_in_an_id(workspace, tmp_path, capsys):
    text = (workspace / "data.fasta").read_text()
    for old, new in (("synth-1.1-0000", "synth,1.1-0000"), ("synth-1.1-0001", 'synth"1.1-0001')):
        assert f">{old} " in text
        text = text.replace(f">{old} ", f">{new} ")
    fasta, model, pred = tmp_path / "odd.fa", tmp_path / "m.json", tmp_path / "p.csv"
    fasta.write_text(text)
    assert run(["train", workspace / "data.csv", "--C", "16", "--gamma", "8", "--out", model]) == 0
    assert run(["predict", fasta, "--model", model, "--out", pred]) == 0
    lines = pred.read_text().splitlines()
    assert '"synth,1.1-0000",1.1' in lines and '"synth""1.1-0001",1.1' in lines
    capsys.readouterr()
    assert run(["evaluate", pred, fasta]) == 0
    assert "hF: 1.000000" in capsys.readouterr().out


def test_compare_emits_all_pairs(workspace):
    out = workspace / "compare.csv"
    assert run(["compare", workspace / "data.csv", "--folds", "3", "--C", "8",
                "--gamma", "4", "--seed", "3", "--out", out]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "base,strategy,hF_mean,hF_std,status"
    combos = {tuple(l.split(",")[:2]) for l in lines[1:]}
    assert combos == {
        ("svm", "nllcpn"), ("svm", "lcpnb"), ("logreg", "nllcpn"), ("logreg", "lcpnb"),
    }
    for line in lines[1:]:
        hf = float(line.split(",")[2])
        assert 0.0 <= hf <= 1.0


@pytest.mark.parametrize("flag, value", [
    ("--C", "nan"), ("--C", "inf"), ("--gamma", "nan"), ("--gamma", "inf"),
])
@pytest.mark.parametrize("command", ["train", "compare"])
def test_a_non_finite_c_or_gamma_exits_one_and_writes_nothing(
    workspace, capsys, command, flag, value
):
    out = workspace / "out"
    assert run([command, workspace / "data.csv", flag, value, "--out", out]) == 1
    name = flag.lstrip("-")
    assert capsys.readouterr().err == f"error: {name} must be finite and positive, got {value}\n"
    assert not out.exists()


def test_threads_below_one_exits_two_and_writes_nothing(workspace, capsys):
    data, model = workspace / "data.csv", workspace / "m.json"
    assert run(["train", data, "--base", "logreg", "--out", model]) == 0
    inputs = {
        "featurize": [workspace / "data.fasta"],
        "train": [data],
        "predict": [data, "--model", model],
        "cv": [data],
        "gridsearch": [data],
        "compare": [data],
    }
    (commands,) = (a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    takes_threads = {
        name for name, parser in commands.choices.items()
        if any("--threads" in action.option_strings for action in parser._actions)
    }
    assert takes_threads == set(inputs)
    for command, args in inputs.items():
        for threads in ("0", "-1"):
            out = workspace / f"{command}.out"
            capsys.readouterr()
            assert run([command, *args, "--threads", threads, "--out", out]) == 2, command
            assert capsys.readouterr().err == f"error: --threads must be at least 1, got {threads}\n"
            assert not out.exists(), command


def test_usage_errors_exit_one():
    assert run(["nosuchcommand"]) == 1
    assert run(["synth"]) == 1  # missing required --out


@pytest.mark.parametrize("per_node", ["0", "-3"])
def test_synth_of_no_sequences_per_node_exits_one_and_writes_nothing(tmp_path, capsys, per_node):
    out = tmp_path / "s.fa"
    assert run(["synth", "--shape", "2", "--per-node", per_node, "--out", out]) == 1
    assert capsys.readouterr().err == f"error: sequences_per_node must be >= 1, got {per_node}\n"
    assert not out.exists()


@pytest.mark.parametrize("flag, value, form", [
    ("--length", ":500", "N or MIN:MAX"),
    ("--length", "500:", "N or MIN:MAX"),
    ("--length", "1:2:3", "N or MIN:MAX"),
    ("--shape", "2,x", "N,N,... class counts"),
    ("--shape", "", "N,N,... class counts"),
])
def test_synth_names_the_flag_it_cannot_parse(tmp_path, capsys, flag, value, form):
    out = tmp_path / "s.fa"
    assert run(["synth", flag, value, "--out", out]) == 1
    assert capsys.readouterr().err == f"error: {flag} must be {form}, got {value!r}\n"
    assert not out.exists()


@pytest.mark.parametrize("argv, prog", [
    (["nosuchcommand"], "tehier"),
    (["train"], "tehier train"),
    (["train", "d.csv", "--out", "m.json", "--nosuch"], "tehier"),
    (["synth", "--out", "s.fa", "--per-node", "x"], "tehier synth"),
], ids=["command", "no-input", "unknown-option", "bad-int"])
def test_a_usage_error_prints_the_usage_and_one_error_line(argv, prog, capsys):
    assert run(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    usage, error = captured.err[:-1].rsplit("\n", 1)
    assert usage.startswith(f"usage: {prog}") and "error:" not in usage
    assert error.startswith(f"{prog}: error: ")
    if prog == "tehier":
        assert usage + "\n" == build_parser().format_usage()


@pytest.mark.parametrize("command", SUBCOMMANDS)
def test_help_exits_zero_with_empty_stderr(command, capsys):
    assert main([command, "-h"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out.startswith(f"usage: tehier {command}")


def test_wicker_hierarchy_through_the_cli(tmp_path):
    fasta, feats, model, pred = (tmp_path / n for n in ("w.fa", "w.csv", "m.json", "p.csv"))
    assert run(["synth", "--taxonomy", WICKER, "--per-node", "4", "--length", "120",
                "--seed", "3", "--out", fasta]) == 0
    assert run(["featurize", fasta, "--out", feats]) == 0
    assert run(["train", feats, "--taxonomy", WICKER, "--C", "8", "--gamma", "4",
                "--out", model]) == 0
    assert run(["predict", fasta, "--model", model, "--out", pred]) == 0
    wicker = wicker_taxonomy()
    nodes = {render_label(label) for label in wicker.nodes()}
    predicted = [line.split(",")[1] for line in pred.read_text().splitlines()[1:]]
    assert len(predicted) == len(read_fasta(fasta))
    assert set(predicted) <= nodes
    names = {render_label(label): name for label, name in wicker.names.items()}
    saved = {entry["path"]: entry["name"] for entry in json.loads(model.read_text())["taxonomy"]}
    assert saved == {path: names.get(path, "") for path in nodes}
    assert "Copia" in saved.values()


def test_compare_writes_a_failed_row_per_strategy_for_a_failing_base(
    workspace, monkeypatch, capsys
):
    crossval = tehier.cli.crossval_strategies

    def logreg_fails(X, labels, taxonomy, config, **kwargs):
        if isinstance(config, LogRegConfig):
            raise NumericError("stub failure")
        return crossval(X, labels, taxonomy, config, **kwargs)

    monkeypatch.setattr(tehier.cli, "crossval_strategies", logreg_fails)
    out = workspace / "compare.csv"
    assert run(["compare", workspace / "data.csv", "--bases", "svm,logreg", "--folds", "3",
                "--C", "8", "--gamma", "4", "--out", out]) == 0
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    assert [(r[0], r[1], r[4]) for r in rows] == [
        ("svm", "nllcpn", "ok"), ("svm", "lcpnb", "ok"),
        ("logreg", "nllcpn", "failed: stub failure"), ("logreg", "lcpnb", "failed: stub failure"),
    ]
    assert all(0.0 <= float(r[2]) <= 1.0 for r in rows[:2])
    assert all(r[2:4] == ["NA", "NA"] for r in rows[2:])
    assert "logreg" not in capsys.readouterr().out


def test_seed_echoed(workspace, capsys):
    run(["featurize", workspace / "data.fasta", "--out", workspace / "echo.csv",
         "--seed", "42"])
    assert "seed: 42" in capsys.readouterr().out


def _digest(path: Path) -> bytes:
    return path.read_bytes()


def test_outputs_byte_identical_across_reruns_and_threads(tmp_path):
    outputs = {}
    for run_dir, threads in (("a", "1"), ("b", "1"), ("c", "8")):
        base = tmp_path / run_dir
        base.mkdir()
        fasta, feats = base / "d.fasta", base / "d.csv"
        model, pred = base / "m.json", base / "p.csv"
        cv, grid, cmp_ = base / "cv.csv", base / "g.csv", base / "c.csv"
        assert run(["synth", "--shape", "2,2", "--per-node", "12", "--length",
                    "100:140", "--seed", "9", "--out", fasta]) == 0
        assert run(["featurize", fasta, "--threads", threads, "--out", feats]) == 0
        assert run(["train", feats, "--base", "svm", "--C", "4", "--gamma", "4",
                    "--seed", "9", "--threads", threads, "--out", model]) == 0
        assert run(["predict", fasta, "--model", model, "--threads", threads,
                    "--out", pred]) == 0
        assert run(["cv", feats, "--base", "logreg", "--folds", "3", "--seed", "9",
                    "--threads", threads, "--out", cv]) == 0
        grid_file = base / "grid.json"
        grid_file.write_text(json.dumps({"c_values": [2.0], "gamma_values": [1.0, 4.0]}))
        assert run(["gridsearch", feats, "--grid", grid_file, "--folds", "3",
                    "--seed", "9", "--threads", threads, "--out", grid]) == 0
        assert run(["compare", feats, "--folds", "3", "--C", "4", "--gamma", "4",
                    "--seed", "9", "--threads", threads, "--out", cmp_]) == 0
        outputs[run_dir] = [
            _digest(p) for p in (fasta, feats, model, pred, cv, grid, cmp_)
        ]
    assert outputs["a"] == outputs["b"]  # rerun, same seed
    assert outputs["a"] == outputs["c"]  # different thread count


@pytest.mark.parametrize("error", [OSError, AttributeError])
def test_commands_run_without_malloc_trim(tmp_path, monkeypatch, error):
    """Each command first returns free heap memory with glibc's malloc_trim;
    without that C library, or without the function, it runs all the same."""
    def no_malloc_trim(*args, **kwargs):
        raise error("no malloc_trim")

    monkeypatch.setattr(tehier.cli.ctypes, "CDLL", no_malloc_trim)
    out = tmp_path / "data.fasta"
    assert run(["synth", "--shape", "2", "--per-node", "2", "--length", "50",
                "--seed", "1", "--out", out]) == 0
    assert out.read_text().count(">") == 4
