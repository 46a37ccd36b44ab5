"""The three benchmark workloads: inputs from a seed, one pass of CLI steps,
and the checks on what the pass wrote.

Each workload is a closed loop with one caller: ``run_pass`` invokes
``tehier.cli.main`` in-process, one subcommand after the other, and times
each call. The program sees only the FASTA or feature-CSV files that
``setup`` wrote from ``tehier.synth`` output. ``check`` reads the pass's
output files afterwards, outside every timed region.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import tehier.cli
import tehier.kmers
import tehier.synth
from tehier.errors import LabelParseError
from tehier.labels import parse_label
from tehier.metrics import hier_metrics, stratified_kfold
from tehier.sequence_io import save_fasta, write_feature_csv

STRATEGIES = ("nllcpn", "lcpnb")

# The synth seed draws every class's Markov chain, so it sets how hard the
# problem is: across synth seeds 1-6 the annotate-large training time ranged
# over 2x. It is therefore part of the workload's definition, and the
# workload seed draws the sample instead: row order, query split and CV
# folds. 42 is the acceptance fixture's synth seed.
SYNTH_SEED = 42

# The acceptance fixture: 14 nodes x 100 sequences of 500 bp, 1,400 x 336.
DESK_SHAPE = [2, 4, 3, 5]
DESK_PER_NODE = 100
DESK_LENGTH = 500
DESK_SEPARABILITY = 0.9


class Checks:
    """Counts attempted operations and keeps a message per failed one."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def expect(self, ok: bool, message: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(message)
        return ok


@dataclass
class Pass:
    """What one pass left behind: per-step seconds, CLI stdout, files."""

    times: dict[str, float] = field(default_factory=dict)
    stdout: dict[str, str] = field(default_factory=dict)
    exit_codes: dict[str, int] = field(default_factory=dict)
    stderr: dict[str, str] = field(default_factory=dict)
    outputs: list[Path] = field(default_factory=list)
    # filled by Workload.check
    hf: dict[str, float] = field(default_factory=dict)
    values: dict[str, float] = field(default_factory=dict)

    @property
    def pipeline_s(self) -> float:
        return sum(self.times.values())


def digest(paths: list[Path]) -> str:
    """One hash over the files' names and bytes; a missing file hashes as such."""
    h = hashlib.sha256()
    for path in paths:
        h.update(path.name.encode())
        h.update(path.read_bytes() if path.exists() else b"\0missing")
    return h.hexdigest()


def read_rows(path: Path) -> list[dict[str, str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


class Workload:
    name = ""
    hf_floor = {s: 0.0 for s in STRATEGIES}

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.dir = workdir
        self.taxonomy = tehier.synth.taxonomy_from_shape(DESK_SHAPE, seed=0)

    @property
    def inputs(self) -> list[Path]:
        raise NotImplementedError

    def setup(self) -> None:
        raise NotImplementedError

    def run_pass(self) -> Pass:
        raise NotImplementedError

    def check(self, result: Pass, checks: Checks) -> None:
        for step, code in result.exit_codes.items():
            checks.expect(
                code == 0, f"tehier {step} exited {code}: {result.stderr[step].strip()}"
            )

    def _invoke(self, result: Pass, step: str, timer: str, argv: list[str]) -> None:
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = tehier.cli.main([*argv, "--seed", str(self.seed)])
        result.times[timer] = result.times.get(timer, 0.0) + time.perf_counter() - start
        result.stdout[step] = out.getvalue()
        result.stderr[step] = err.getvalue()
        result.exit_codes[step] = code

    def _generate(self, per_node: int, length: int, separability: float):
        spec = tehier.synth.SynthSpec(
            taxonomy=self.taxonomy,
            sequences_per_node=per_node,
            length_range=(length, length),
            separability=separability,
            seed=SYNTH_SEED,
        )
        return tehier.synth.generate(spec)

    def _check_hf_floor(self, result: Pass, checks: Checks) -> None:
        for strategy in STRATEGIES:
            hf = result.hf.get(strategy)
            checks.expect(
                hf is not None and hf >= self.hf_floor[strategy],
                f"{strategy} hF {hf} is below the floor {self.hf_floor[strategy]}",
            )

    def _check_compare(self, result: Pass, checks: Checks, path: Path, base: str) -> None:
        rows = read_rows(path) if path.exists() else []
        for strategy in STRATEGIES:
            row = next(
                (r for r in rows if r["base"] == base and r["strategy"] == strategy), None
            )
            if checks.expect(
                row is not None and row["status"] == "ok",
                f"compare has no ok row for {base}+{strategy}: {row}",
            ):
                result.hf[strategy] = float(row["hF_mean"])
        self._check_hf_floor(result, checks)


class _DeskWorkload(Workload):
    """Inputs: the desk corpus as one labeled feature CSV."""

    @property
    def csv(self) -> Path:
        return self.dir / "desk.csv"

    @property
    def inputs(self) -> list[Path]:
        return [self.csv]

    def setup(self) -> None:
        records = self._generate(DESK_PER_NODE, DESK_LENGTH, DESK_SEPARABILITY)
        X = tehier.kmers.featurize_batch(records)
        order = np.random.default_rng(self.seed).permutation(len(records))
        with open(self.csv, "w", encoding="utf-8", newline="") as fh:
            write_feature_csv([(X[i], records[i].label) for i in order], fh)


class TuneDesk(_DeskWorkload):
    """The paper's tuning experiment: desk grid, then 10-fold SVM compare."""

    name = "tune-desk"
    hf_floor = {"nllcpn": 0.99, "lcpnb": 0.99}

    def run_pass(self) -> Pass:
        result = Pass()
        grid = self.dir / "grid.csv"
        compare = self.dir / "compare.csv"
        for path in (grid, compare):
            path.unlink(missing_ok=True)
        self._invoke(result, "gridsearch", "tune_s", [
            "gridsearch", str(self.csv), "--grid", "desk", "--folds", "3",
            "--threads", "2", "--out", str(grid),
        ])
        result.outputs = [grid, compare]
        selected = self._selected(grid)
        if selected is None:  # check() reports the missing grid and compare
            return result
        C, gamma = selected
        self._invoke(result, "compare", "cv_s", [
            "compare", str(self.csv), "--bases", "svm", "--strategies", ",".join(STRATEGIES),
            "--folds", "10", "--threads", "2", "--C", repr(C), "--gamma", repr(gamma),
            "--out", str(compare),
        ])
        return result

    @staticmethod
    def _selected(grid: Path) -> tuple[float, float] | None:
        """The grid's choice: highest mean hF, first in lattice order."""
        best = None
        for row in read_rows(grid) if grid.exists() else []:
            if row["status"] == "ok" and (best is None or float(row["mean_hF"]) > best[0]):
                best = (float(row["mean_hF"]), float(row["C"]), float(row["gamma"]))
        return best[1:] if best else None

    def check(self, result: Pass, checks: Checks) -> None:
        super().check(result, checks)
        grid, compare = result.outputs
        cells = read_rows(grid) if grid.exists() else []
        checks.expect(len(cells) == 9, f"desk grid has {len(cells)} cells, not 9")
        failed = 0
        for cell in cells:
            ok = checks.expect(
                cell["status"] == "ok", f"grid cell C={cell['C']} gamma={cell['gamma']} failed"
            )
            failed += not ok
        result.values["cells_failed"] = failed
        selected = self._selected(grid)
        if checks.expect(selected is not None, "the grid selected no cell"):
            C, gamma = selected
            result.values["selected_C"], result.values["selected_gamma"] = C, gamma
            checks.expect(
                f"selected C={C:g} gamma={gamma:g}" in result.stdout["gridsearch"],
                f"gridsearch did not report the selected cell C={C:g} gamma={gamma:g}",
            )
        self._check_compare(result, checks, compare, "svm")


class BaselineLogreg(_DeskWorkload):
    """The paper's comparison baseline: 10-fold logistic regression."""

    name = "baseline-logreg"
    hf_floor = {"nllcpn": 0.97, "lcpnb": 0.97}

    def run_pass(self) -> Pass:
        result = Pass()
        compare = self.dir / "compare.csv"
        compare.unlink(missing_ok=True)
        self._invoke(result, "compare", "cv_s", [
            "compare", str(self.csv), "--bases", "logreg",
            "--strategies", ",".join(STRATEGIES), "--folds", "10", "--threads", "1",
            "--out", str(compare),
        ])
        result.outputs = [compare]
        return result

    def check(self, result: Pass, checks: Checks) -> None:
        super().check(result, checks)
        self._check_compare(result, checks, result.outputs[0], "logreg")


class AnnotateLarge(Workload):
    """The annotation user's path on a training split above the full-Gram
    limit, so the root SVM uses the LRU column cache."""

    name = "annotate-large"
    hf_floor = {"nllcpn": 0.95, "lcpnb": 0.95}
    PER_NODE = 350
    LENGTH = 250
    # 0.7 rather than 0.5 halves a pass (about 7 s instead of 12.5 s on a
    # 2-vCPU VM), so a run holds several passes to take the median of
    SEPARABILITY = 0.7
    QUERY_FOLDS = 7  # one fold is the query set, the other six train
    C, GAMMA = "16", "8"

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        self.query_ids: list[str] = []
        self.truth: dict[str, object] = {}
        self.train_ids: set[str] = set()

    @property
    def inputs(self) -> list[Path]:
        return [self.dir / "train.fa", self.dir / "query.fa"]

    def setup(self) -> None:
        # one generate call split by folds: a second synth seed would draw
        # different Markov chains, i.e. distribution shift
        records = self._generate(self.PER_NODE, self.LENGTH, self.SEPARABILITY)
        plan = stratified_kfold([r.label for r in records], self.QUERY_FOLDS, self.seed)
        query_rows = set(plan.test_indices(0))
        order = np.random.default_rng(self.seed).permutation(len(records))
        train = [records[i] for i in order if i not in query_rows]
        query = [records[i] for i in order if i in query_rows]
        save_fasta(train, self.inputs[0])
        save_fasta(query, self.inputs[1])
        self.train_ids = {r.id for r in train}
        self.query_ids = [r.id for r in query]
        self.truth = {r.id: r.label for r in query}

    def run_pass(self) -> Pass:
        result = Pass()
        train_fa, query_fa = self.inputs
        features = self.dir / "train.csv"
        model = self.dir / "model.json"
        predictions = [self.dir / f"predicted-{s}.csv" for s in STRATEGIES]
        evaluations = [self.dir / f"evaluated-{s}.csv" for s in STRATEGIES]
        outputs = [features, model, *predictions, *evaluations]
        for path in outputs:
            path.unlink(missing_ok=True)
        self._invoke(result, "featurize", "train_s", [
            "featurize", str(train_fa), "--out", str(features), "--threads", "1",
        ])
        self._invoke(result, "train", "train_s", [
            "train", str(features), "--C", self.C, "--gamma", self.GAMMA,
            "--out", str(model), "--threads", "1",
        ])
        for strategy, out in zip(STRATEGIES, predictions):
            self._invoke(result, f"predict-{strategy}", "predict_s", [
                "predict", str(query_fa), "--model", str(model), "--strategy", strategy,
                "--out", str(out), "--threads", "1",
            ])
        for strategy, pred, out in zip(STRATEGIES, predictions, evaluations):
            self._invoke(result, f"evaluate-{strategy}", "evaluate_s", [
                "evaluate", str(pred), str(query_fa), "--out", str(out),
            ])
        result.outputs = outputs
        return result

    def check(self, result: Pass, checks: Checks) -> None:
        super().check(result, checks)
        features, model, *rest = result.outputs
        predictions, evaluations = rest[: len(STRATEGIES)], rest[len(STRATEGIES):]
        checks.expect(
            not self.train_ids & set(self.query_ids), "training and query ids overlap"
        )
        checks.expect(len(self.train_ids) > 4000, "training split is not above 4,000 rows")
        result.values["model_bytes"] = model.stat().st_size if model.exists() else 0
        result.values["classify_seqs_per_s"] = (
            len(STRATEGIES) * len(self.query_ids) / result.times["predict_s"]
        )
        for strategy, pred, evaluated in zip(STRATEGIES, predictions, evaluations):
            rows = read_rows(pred) if pred.exists() else []
            ids = [r["id"] for r in rows]
            one_row_each = checks.expect(
                len(ids) == len(self.query_ids) and set(ids) == set(self.query_ids),
                f"{pred.name} does not hold exactly one row per query id",
            )
            labels, strays = [], []
            for row in rows:
                try:
                    label = parse_label(row["predicted_label"])
                except LabelParseError:
                    label = None
                if label in self.taxonomy:
                    labels.append((row["id"], label))
                else:
                    strays.append(row["predicted_label"])
            all_nodes = checks.expect(
                not strays,
                f"{pred.name}: {len(strays)} predicted labels are not taxonomy nodes "
                f"(first: {strays[0] if strays else None!r})",
            )
            if not (one_row_each and all_nodes):
                continue
            own = hier_metrics([(p, self.truth[i]) for i, p in labels], self.taxonomy)
            reported = read_rows(evaluated) if evaluated.exists() else [{}]
            checks.expect(
                reported[0].get("hF") == repr(own.hf),
                f"evaluate {strategy} hF {reported[0].get('hF')} != recomputed {own.hf!r}",
            )
            result.hf[strategy] = own.hf
        self._check_hf_floor(result, checks)


WORKLOADS = {w.name: w for w in (TuneDesk, AnnotateLarge, BaselineLogreg)}
