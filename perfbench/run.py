"""Run one benchmark workload for one seed and print its metrics.

    python3 perfbench/run.py --workload tune-desk --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the benchmark imports ``tehier``
from ``src/`` of that checkout and refuses to run without it. Every line
but the last is for people; the last is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
Scratch files go to ``.perfbench_work/`` in the checkout and are removed
on exit.
"""

import os

# One BLAS thread, set before numpy loads: unpinned OpenBLAS threads fight
# the program's own worker threads and spread timings far beyond the bounds.
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_THREADS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 3

END_TO_END_UNITS = {
    "setup_s": "s",
    "pipeline_s": "s",
    "hf_nllcpn": "1",
    "hf_lcpnb": "1",
    "peak_rss_mb": "MB",
}


def git_sha() -> str:
    """The checkout's commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    import numpy

    try:
        openblas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
    except (KeyError, TypeError, ValueError):
        openblas = "unknown"
    return {
        **BLAS_THREADS,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "openblas": openblas,
        "git_sha": git_sha(),
    }


def run_untraced(workload, checks, seconds: float):
    from workloads import digest

    setup_times, input_digests = [], set()
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        workload.setup()
        setup_times.append(time.perf_counter() - start)
        input_digests.add(digest(workload.inputs))
    checks.expect(len(input_digests) == 1, "set-up wrote different inputs for one seed")

    passes = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        gc.collect()  # the last pass's garbage is not this pass's time
        result = workload.run_pass()
        workload.check(result, checks)
        passes.append(result)
    return setup_times, passes


def run_traced(workload, checks, seconds: float):
    """One untraced round, then traced rounds (set-up plus pass) until
    ``seconds`` have passed; per-layer figures are per traced round."""
    from spans import Tracer, required_spans_missing
    from workloads import digest

    workload.setup()
    reference = workload.run_pass()
    workload.check(reference, checks)
    expected = digest(reference.outputs)

    tracer = Tracer()
    traced = []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        tracer.install()
        try:
            workload.setup()
            result = workload.run_pass()
        finally:
            tracer.uninstall()
        workload.check(result, checks)
        checks.expect(
            digest(result.outputs) == expected,
            "traced and untraced passes wrote different outputs",
        )
        traced.append(result)
    for name in sorted(tracer.unpatched):
        checks.expect(False, f"cannot trace {name}: it no longer exists")
    for name in required_spans_missing(tracer, workload.name):
        checks.expect(False, f"span {name} never fired on {workload.name}")
    return reference, traced, tracer


def end_to_end(setup_times, passes) -> dict[str, float]:
    metrics = {
        "setup_s": statistics.median(setup_times),
        "pipeline_s": statistics.median(p.pipeline_s for p in passes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    for strategy in ("nllcpn", "lcpnb"):
        metrics[f"hf_{strategy}"] = statistics.median(p.hf.get(strategy, 0.0) for p in passes)
    return metrics


def step_report(passes) -> list[tuple[str, float, str]]:
    """Workload-specific step figures, medians over passes (printed only)."""
    units = {
        "tune_s": "s", "cv_s": "s", "train_s": "s", "predict_s": "s", "evaluate_s": "s",
        "classify_seqs_per_s": "seq/s", "model_bytes": "B",
        "selected_C": "1", "selected_gamma": "1",
    }
    rows = []
    for key, unit in units.items():
        values = [p.times.get(key, p.values.get(key)) for p in passes]
        if values and all(v is not None for v in values):
            rows.append((key, statistics.median(values), unit))
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "tehier" / "__init__.py").is_file():
        print(f"error: no tehier sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import tehier

    if Path(tehier.__file__).resolve().parent != SRC / "tehier":
        print(f"error: imported tehier from {tehier.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS, Checks

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2

    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed, workdir)
    checks = Checks()
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} "
          f"trace {args.trace}")
    print("env " + json.dumps(environment(), sort_keys=True))
    try:
        if args.trace:
            from spans import PER_LAYER_UNITS, layer_metrics

            reference, traced, tracer = run_traced(workload, checks, args.seconds)
            metrics = layer_metrics(tracer, reference, traced)
            units = PER_LAYER_UNITS
            print(f"traced rounds: {len(traced)}")
        else:
            setup_times, passes = run_untraced(workload, checks, args.seconds)
            metrics = end_to_end(setup_times, passes)
            units = END_TO_END_UNITS
            print(f"passes: {len(passes)}; setups: {len(setup_times)}")
            print("  pass_s " + " ".join(f"{p.pipeline_s:.3f}" for p in passes))
            print("  setup_s " + " ".join(f"{t:.3f}" for t in setup_times))
            for key, value, unit in step_report(passes):
                print(f"  {key:<24} {value:>16.6g} {unit}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()  # only when no other run is using it

    failed = len(checks.failures)
    for message in checks.failures:
        print(f"FAILED: {message}")
    for key, unit in units.items():
        print(f"{key:<36} {metrics[key]:>16.6g} {unit}")
    print(f"{'failed_ops':<36} {failed / checks.attempted:>16.6g} ratio "
          f"({failed} of {checks.attempted})")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": checks.attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
