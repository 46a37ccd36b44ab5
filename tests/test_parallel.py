"""The process-based task runner: results in index order, the caller as one
of the workers, bounded process counts, and worker failures that look like
serial ones (same type, message, ``.line`` and CLI exit code)."""

import multiprocessing
import os
import signal
import time

import pytest

import tehier.metrics
import tehier.parallel
from tehier import DegenerateDataError, FormatError
from tehier.cli import main
from tehier.errors import WorkerError
from tehier.parallel import run_tasks

needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(), reason="needs the fork start method"
)


@pytest.fixture
def two_cpus(monkeypatch):
    """Let run_tasks fork one child whatever the machine has."""
    monkeypatch.setattr(os, "cpu_count", lambda: 2)


@pytest.fixture
def forks(monkeypatch):
    """Counts the processes run_tasks starts (counted in the caller only)."""
    started = []
    fork = os.fork

    def counting():
        started.append(1)
        return fork()

    monkeypatch.setattr(os, "fork", counting)
    return started


@pytest.fixture
def deadline():
    """Fail a test that is still running after 60 s instead of hanging."""

    def expire(signum, frame):
        raise TimeoutError("run_tasks did not return within 60 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(60)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def _hold_task_zero(i):
    """Keep the caller on task 0 long enough for the child to claim task 1."""
    time.sleep(0.5 if i == 0 else 0.01)


def _slow_pid(i):
    _hold_task_zero(i)
    return i, os.getpid()


@pytest.mark.parametrize("workers", [1, 2, 4, 16])
def test_results_in_index_order_for_any_worker_count(deadline, workers):
    assert run_tasks(lambda i: i * i, 23, workers) == [i * i for i in range(23)]


def test_no_tasks_and_one_task():
    assert run_tasks(lambda i: i, 0, 4) == []
    assert run_tasks(lambda i: i + 1, 1, 4) == [1]


@needs_fork
def test_caller_runs_task_zero_and_shares_the_rest(two_cpus, deadline):
    out = run_tasks(_slow_pid, 6, 2)
    assert [i for i, _ in out] == list(range(6))
    assert out[0][1] == os.getpid()
    assert len({pid for _, pid in out}) == 2


@needs_fork
@pytest.mark.parametrize(
    "cpus, workers, n, expected",
    [(3, 8, 10, 2), (3, 2, 10, 1), (8, 8, 3, 2), (3, 8, 1, 0), (3, 1, 10, 0),
     (1, 8, 10, 0), (None, 8, 10, 0), (3, 0, 10, 0), (3, -2, 10, 0)],
)
def test_never_more_processes_than_cpus_tasks_or_workers(
    monkeypatch, forks, deadline, cpus, workers, n, expected
):
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    assert run_tasks(lambda i: -i, n, workers) == [-i for i in range(n)]
    assert len(forks) == expected


@needs_fork
def test_calls_inside_a_task_run_serially(two_cpus, forks, deadline):
    def outer(i):
        return {pid for _, pid in run_tasks(_slow_pid, 3, 4)}, os.getpid()

    out = run_tasks(outer, 4, 2)
    assert len(forks) == 1
    assert all(inner == {pid} for inner, pid in out)


def _fail_after_task_zero(make_error):
    def task(i):
        _hold_task_zero(i)
        if i:
            raise make_error(i)
        return i

    return task


@needs_fork
@pytest.mark.parametrize(
    "make_error",
    [
        lambda i: FormatError(f"bad value in task {i}", line=10 + i),
        lambda i: DegenerateDataError(f"task {i} has one class"),
        lambda i: ValueError(f"task {i}"),
    ],
)
def test_worker_error_matches_serial_error(two_cpus, deadline, make_error):
    task = _fail_after_task_zero(make_error)
    with pytest.raises(Exception) as serial:
        run_tasks(task, 5, 1)
    with pytest.raises(Exception) as forked:
        run_tasks(task, 5, 2)
    # task 1 is the lowest failure; the child claims it while the caller runs task 0
    assert isinstance(forked.value.__cause__, tehier.parallel._RemoteTraceback)
    assert type(forked.value) is type(serial.value)
    assert str(forked.value) == str(serial.value) == str(make_error(1))
    assert getattr(forked.value, "line", None) == getattr(serial.value, "line", None)


@needs_fork
def test_failure_in_the_caller_wins_when_its_index_is_lowest(two_cpus, deadline):
    def task(i):
        _hold_task_zero(i)
        raise FormatError(f"task {i}", line=i)

    with pytest.raises(FormatError) as caught:
        run_tasks(task, 4, 2)
    assert caught.value.line == 0
    assert caught.value.__cause__ is None


@needs_fork
def test_lowest_index_failure_wins_over_an_earlier_one(two_cpus, deadline):
    # the child fails task 1 after the caller has already failed tasks 2 and 3
    def task(i):
        _hold_task_zero(i)
        if i == 1:
            time.sleep(1.0)
        if i:
            raise FormatError(f"task {i}", line=i)

    with pytest.raises(FormatError) as caught:
        run_tasks(task, 4, 2)
    assert caught.value.line == 1


@needs_fork
def test_dead_worker_raises_promptly(two_cpus, deadline):
    caller = os.getpid()

    def task(i):
        if os.getpid() != caller:
            os._exit(7)
        _hold_task_zero(i)
        return i

    start = time.perf_counter()
    with pytest.raises(WorkerError, match="exited with code 7"):
        run_tasks(task, 6, 2)
    assert time.perf_counter() - start < 10


@needs_fork
def test_result_that_cannot_be_pickled_is_a_worker_error(two_cpus, deadline):
    def task(i):
        _hold_task_zero(i)
        return lambda: i

    with pytest.raises(WorkerError, match="task 1 could not be sent back"):
        run_tasks(task, 3, 2)


@needs_fork
@pytest.mark.parametrize(
    "make_error, code",
    [
        (lambda rows: FormatError(f"fold of {rows} rows", line=rows), 2),
        (lambda rows: DegenerateDataError(f"fold of {rows} rows"), 3),
    ],
)
def test_cli_exit_code_and_message_match_serial(
    tmp_path, monkeypatch, capsys, two_cpus, deadline, make_error, code
):
    fasta, features = tmp_path / "d.fasta", tmp_path / "d.csv"
    assert main(["synth", "--shape", "2,2", "--per-node", "10", "--length", "80",
                 "--seed", "3", "--out", str(fasta)]) == 0
    assert main(["featurize", str(fasta), "--out", str(features)]) == 0
    capsys.readouterr()

    caller = os.getpid()
    original = tehier.metrics.train_hier
    calls = []

    def first_fold_only(X, labels, *args, **kwargs):
        # the caller's first call (fold 0) trains; fold 1, run by a child at
        # --threads 2 and by the caller at --threads 1, fails
        calls.append(1)
        if os.getpid() == caller and len(calls) == 1:
            time.sleep(0.5)
            return original(X, labels, *args, **kwargs)
        raise make_error(len(labels))

    outcomes = []
    for threads in ("1", "2"):
        calls.clear()
        monkeypatch.setattr(tehier.metrics, "train_hier", first_fold_only)
        status = main(["cv", str(features), "--base", "logreg", "--folds", "4",
                       "--threads", threads])
        outcomes.append((status, capsys.readouterr().err))
    assert outcomes[0] == outcomes[1]
    assert outcomes[0][0] == code
    assert "fold of" in outcomes[0][1]


@pytest.mark.parametrize(
    "command",
    [["featurize", "x.fasta", "--out", "x.csv"], ["train", "x.csv", "--out", "m.json"],
     ["predict", "x.csv", "--model", "m.json", "--out", "p.csv"], ["cv", "x.csv"],
     ["gridsearch", "x.csv"], ["compare", "x.csv"]],
)
@pytest.mark.parametrize("threads", ["0", "-3"])
def test_threads_below_one_exit_2_naming_the_flag(capsys, command, threads):
    assert main(command + ["--threads", threads]) == 2
    err = capsys.readouterr().err
    assert "--threads" in err and threads in err
