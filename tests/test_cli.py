import json
from pathlib import Path

import pytest

import tehier.cli
from tehier.cli import main


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
    assert run(["train", narrow, "--kmers", "2", "--base", "logreg",
                "--out", model]) == 0
    # 336-wide features against a 16-feature model: data error
    assert run(["predict", workspace / "data.csv", "--model", model,
                "--out", tmp_path / "p.csv"]) == 2


def test_evaluate_identical_files_perfect(workspace, tmp_path, capsys):
    model = tmp_path / "m.json"
    pred = tmp_path / "p.csv"
    assert run(["train", workspace / "data.csv", "--base", "logreg", "--out", model]) == 0
    assert run(["predict", workspace / "data.fasta", "--model", model, "--out", pred]) == 0
    assert run(["evaluate", pred, pred]) == 0
    assert "hF: 1.000000" in capsys.readouterr().out


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


def test_usage_errors_exit_one():
    assert run(["nosuchcommand"]) == 1
    assert run(["synth"]) == 1  # missing required --out


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
