"""The one task runner behind every ``threads=`` argument.

``run_tasks(fn, n, workers)`` returns ``[fn(0), ..., fn(n - 1)]``. With more
than one worker it forks ``min(workers, n, os.cpu_count()) - 1`` child
processes and the calling process works as well, so Python loops such as
SMO run in parallel instead of taking turns under the GIL. Every worker
claims the next task index from one shared counter, which balances uneven
tasks; the caller always runs task 0, so every function the tasks call also
runs in the calling process. A child keeps its results and sends them back
through a pipe once the counter runs out.

The outcome does not depend on the worker count: results come back in index
order, and when tasks fail every task still runs and the failure with the
lowest index is raised with its own type and attributes, as a serial loop
over the same tasks would raise it first. A child that dies before sending
its results raises ``WorkerError``. A call made inside a task runs serially,
so workers never fork, and without the ``fork`` start method every call
runs serially in the caller.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import signal
import traceback

from .errors import WorkerError

_in_worker = False


class _RemoteTraceback(Exception):
    """The formatted traceback of a task that failed in a child process."""

    def __str__(self):
        return self.args[0]


def _run(fn, i: int):
    """(True, fn(i)), or (False, (exception, formatted traceback))."""
    try:
        return True, fn(i)
    except Exception as exc:
        return False, (exc, traceback.format_exc())


def _claim(counter, n: int) -> int | None:
    with counter.get_lock():
        i = counter.value
        counter.value = i + 1
    return i if i < n else None


def _child(fn, n: int, counter, conn) -> None:
    """Run claimed tasks, send their pickled outcomes, and exit; never returns."""
    global _in_worker
    _in_worker = True
    code = 1
    try:
        sent = []
        while (i := _claim(counter, n)) is not None:
            ok, value = _run(fn, i)
            try:
                payload = pickle.dumps((i, ok, value))
                if not ok:
                    pickle.loads(payload)  # the exception must rebuild in the caller too
                sent.append(payload)
            except Exception as exc:  # a result or exception that does not pickle
                error = WorkerError(f"task {i} could not be sent back from its worker: {exc!r}")
                sent.append(pickle.dumps((i, False, (error, traceback.format_exc()))))
        conn.send(sent)
        code = 0
    finally:
        os._exit(code)


def run_tasks(fn, n: int, workers: int) -> list:
    """``[fn(i) for i in range(n)]``, spread over up to ``workers`` processes."""
    global _in_worker
    processes = min(workers, n, os.cpu_count() or 1)
    if processes <= 1 or _in_worker or "fork" not in multiprocessing.get_all_start_methods():
        return [fn(i) for i in range(n)]

    context = multiprocessing.get_context("fork")
    counter = context.Value("q", 1)  # task 0 is the caller's
    children: dict[int, object] = {}
    outcomes = {}
    try:
        for _ in range(processes - 1):
            reader, writer = context.Pipe(duplex=False)
            pid = os.fork()
            if pid == 0:
                _child(fn, n, counter, writer)
            writer.close()
            children[pid] = reader
        _in_worker = True
        try:
            i = 0
            while i is not None:
                outcomes[i] = _run(fn, i)
                i = _claim(counter, n)
        finally:
            _in_worker = False
        for pid in list(children):
            with children[pid] as reader:
                try:
                    sent = reader.recv()
                except EOFError:
                    sent = None
            _, status = os.waitpid(pid, 0)
            del children[pid]
            if sent is None:
                code = os.waitstatus_to_exitcode(status)
                raise WorkerError(
                    f"worker process {pid} exited with code {code} before returning its results"
                )
            for payload in sent:
                i, ok, value = pickle.loads(payload)
                if not ok:
                    value[0].__cause__ = _RemoteTraceback(value[1])
                outcomes[i] = ok, value
    finally:
        for pid, reader in children.items():
            reader.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)

    for ok, value in (outcomes[i] for i in range(n)):
        if not ok:
            raise value[0]
    return [outcomes[i][1] for i in range(n)]
