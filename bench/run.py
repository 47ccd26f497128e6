#!/usr/bin/env python3
"""Benchmark command for lbcalc.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload of `workloads.py` in this process, on one thread, with
lbcalc imported from the checkout's `src` and from nowhere else.  With
`--trace 0` it reports the end-to-end metrics; with `--trace 1` it wraps
lbcalc's layers (see `tracing.py`) and reports the per-layer metrics.  The
last line of standard output is one JSON object; everything else goes to
standard error.  Results and spans are also written under `bench/out/`.
"""

import os

# The BLAS pools read these when numpy loads; every run pins them to one
# thread, and `check_blas` confirms that the pools obey.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import collections
import contextlib
import ctypes
import gc
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
CHECKOUT = HERE.parent
SRC = CHECKOUT / "src"
OUT = HERE / "out"

ROUNDS = 16          # runs of each measured task; its time is the best of them
PROBE_EVERY = 4      # a set-up probe before every fourth round, and one after the last
WARMUP_TASKS = 2     # untimed tasks before the measured phase
HARD_LIMIT_S = 130.0  # the measured phase ends by about here, whatever --seconds says

# end-to-end metrics (untraced runs) and their units
END_TO_END = {"setup_s": "s", "tasks_per_s": "1/s", "task_p50_ms": "ms", "peak_rss_mb": "MB"}
# per-layer count metrics: the traced labels whose calls they add up
COUNTS = {
    "words.evaluation_plan.calls": ("words.evaluation_plan",),
    "words.apply_plan.calls": ("words.apply_plan",),
    "matrices.bch.calls": ("matrices.bch",),
    "matrices.commutator.calls": ("matrices.commutator",),
    "matrices.mat_exp.calls": ("matrices.mat_exp",),
    "dirichlet.bch_series.calls": ("dirichlet.bch_series",),
    "dirichlet.bracket.calls": ("dirichlet.bracket",),
    "dirichlet.norm_s.calls": ("dirichlet.norm_s",),
    "dirichlet.series_built": ("dirichlet.DirichletSeries.__init__", "dirichlet.sum_series"),
    "series.spaces_built": ("series.SeriesSpace.__init__",),
    "series.mul.calls": ("series.SeriesSpace.mul",),
    "series.substitute.calls": ("series.SeriesSpace.substitute",),
    "series.evaluate.calls": ("series.SeriesSpace.evaluate",),
    "germs.germs_built": ("germs.Germ.__init__",),
    "germs.invert.calls": ("germs.invert",),
    "germs.compose.calls": ("germs.compose",),
    "germs.compose_derivative.calls": ("germs.compose_derivative",),
    "estimates.verify_bounded_series.calls": ("estimates.verify_bounded_series",),
    "estimates.contour_coefficients": ("estimates.cauchy_directional_coefficient",),
    "estimates.point_evaluations": ("estimates.AnalyticSample.__call__",),
    "limits.verify_certificate.calls": ("limits.verify_certificate",),
    "limits.samples": ("limits.MatrixSteps.combine", "limits.DirichletSteps.combine",
                       "limits.GermSteps.combine"),
    "sampling.draws": ("sampling.random_matrix", "sampling.random_series", "sampling.random_germ"),
}
# per-layer self-time metrics: a whole layer, or one function's spans
SELF_TIMES = {
    "words.self_s": ("layer", "words"),
    "matrices.self_s": ("layer", "matrices"),
    "dirichlet.self_s": ("layer", "dirichlet"),
    "dirichlet.bch_series.self_s": ("function", "dirichlet.bch_series"),
    "series.self_s": ("layer", "series"),
    "germs.self_s": ("layer", "germs"),
    "estimates.self_s": ("layer", "estimates"),
    "limits.self_s": ("layer", "limits"),
    "sampling.self_s": ("layer", "sampling"),
    "bench.self_s": ("layer", "bench"),
}
# set-up metrics: what the set-up builds, counted once per run
SETUP_COUNTS = {
    "setup.spaces_built": "series.spaces_built",
    "setup.evaluation_plan.calls": "words.evaluation_plan.calls",
}


def refuse(message: str):
    print(f"bench: refusing to run: {message}", file=sys.stderr)
    sys.exit(2)


def import_lbcalc():
    """Import lbcalc from the checkout's src, and refuse any other copy."""
    if not (SRC / "lbcalc" / "__init__.py").is_file():
        refuse(f"no lbcalc sources under {SRC}")
    sys.path.insert(0, str(SRC))
    try:
        import lbcalc
    except ImportError as exc:
        refuse(f"lbcalc does not import: {exc}")
    where = Path(lbcalc.__file__).resolve()
    if SRC not in where.parents:
        refuse(f"lbcalc resolved to {where}, outside {SRC}")
    return lbcalc


def blas_pools() -> dict:
    """Thread count of every OpenBLAS or MKL library mapped into this process."""
    symbols = ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
               "openblas_get_num_threads64_", "openblas_get_num_threads", "MKL_Get_Max_Threads")
    pools = {}
    with open("/proc/self/maps") as maps:
        paths = {line.split()[-1] for line in maps if "/" in line}
    for path in sorted(paths):
        name = os.path.basename(path).lower()
        if "openblas" not in name and "mkl_rt" not in name:
            continue
        lib = ctypes.CDLL(path)
        pools[path] = None
        for sym in symbols:
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                pools[path] = fn()
                break
    return pools


def check_blas():
    pools = blas_pools()
    if not pools:
        refuse("found no BLAS library whose thread pool can be checked")
    loose = {p: n for p, n in pools.items() if n != 1}
    if loose:
        refuse(f"BLAS pools not pinned to one thread: {loose}")


def host_line() -> str:
    import numpy
    import scipy

    return (f"bench: host {platform.node()} ({platform.machine()}), "
            f"{os.cpu_count()} CPUs, {len(os.sched_getaffinity(0))} usable, "
            f"Python {platform.python_version()}, numpy {numpy.__version__}, scipy {scipy.__version__}")


def setup_probe(workload: str) -> float:
    """Seconds from the start of a fresh process to the end of its set-up.

    The probe runs while this process waits, never next to a timed task.
    """
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe", "--workload", workload],
        cwd=CHECKOUT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    try:
        line = proc.stdout.readline()
        t1 = time.perf_counter()
        _, err = proc.communicate(timeout=60)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        refuse("a set-up probe did not finish within 60 s")
    if proc.returncode != 0 or line.strip() != "ready":
        refuse(f"a set-up probe failed: {err.strip()[-500:]}")
    return t1 - t0


def task_rng(seed: int, workload: str, index: int):
    """Inputs of measured task `index`; warm-up tasks take negative indices."""
    import numpy as np

    tag = sum(workload.encode())  # keeps the workloads' streams apart
    phase, index = (0, -1 - index) if index < 0 else (1, index)
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, tag, phase, index])))


def layer_totals(tracer) -> dict:
    """Every per-layer value, summed over all spans so far."""
    ids = {name: i for i, name in enumerate(tracer.names)}
    out = {name: sum(tracer.calls[ids[lab]] for lab in labels if lab in ids) for name, labels in COUNTS.items()}
    for name, (kind, key) in SELF_TIMES.items():
        out[name] = tracer.layer_self_s(key) if kind == "layer" else tracer.fn_self_s(key)
    return out


def layer_metrics(since: dict, now: dict, task_runs: int, at_setup: dict) -> dict:
    """Per-layer metrics: the work between two totals per task run, plus the set-up counts."""
    metrics = {}
    for name in list(COUNTS) + list(SELF_TIMES):
        unit = "s" if name in SELF_TIMES else "count"
        metrics[name] = {"value": (now[name] - since[name]) / task_runs, "unit": unit}
    for name, total in SETUP_COUNTS.items():
        metrics[name] = {"value": at_setup[total], "unit": "count"}
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not args.seconds > 0:
        parser.error("--seconds must be positive")

    lbcalc = import_lbcalc()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; known: {', '.join(workloads.WORKLOADS)}")
    work = workloads.WORKLOADS[args.workload]()
    if args.setup_probe:
        work.setup()
        print("ready", flush=True)
        return 0

    print(host_line(), file=sys.stderr)
    check_blas()
    setup_times = []
    probe = (lambda: None) if args.trace else (lambda: setup_times.append(setup_probe(args.workload)))

    tracer = None
    span = lambda name: contextlib.nullcontext()  # noqa: E731
    pause = contextlib.nullcontext
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install(lbcalc)
        span, pause = tracer.bench_span, tracer.pause

    t0 = time.perf_counter()
    with span("setup"):
        work.setup()
    own_setup = time.perf_counter() - t0
    at_setup = layer_totals(tracer) if tracer else None
    derived = collections.Counter()
    problems = []
    errors = []

    def one_task(index, check=True):
        """Seconds of the task's timed part, or None if it raised or failed its check."""
        with span("task"):
            inputs = work.draw(task_rng(args.seed, args.workload, index))
            start = time.perf_counter()
            try:
                outputs = work.run(inputs)
            except Exception as exc:  # an operation that fails counts as failed
                errors.append(f"{type(exc).__name__}: {exc}")
                return None
            elapsed = time.perf_counter() - start
            found = []
            if check:
                with pause():
                    found = work.check(inputs, outputs)
            work.tally(inputs, outputs, derived)
        problems.extend(found)
        return None if found else elapsed

    warm_ok = all(one_task(-1 - i) is not None for i in range(WARMUP_TASKS))
    derived.clear()
    at_measure = layer_totals(tracer) if tracer else None
    gc.collect()
    # ROUNDS rounds over the same tasks.  The first draws new tasks until
    # their timed parts add up to its share of --seconds, and checks each
    # result; the others run each task again on the same inputs.  A task's
    # time is the best of its runs.  Load from elsewhere on the host comes
    # and goes, and a quiet spell as long as one round gives every task one
    # unslowed run.  The set-up probes are spread over the run the same way.
    rounds = []
    start = time.perf_counter()
    for r in range(ROUNDS):
        if r % PROBE_EVERY == 0:
            probe()
        if r == 0:
            times = []
            round_start = time.perf_counter()
            while not times or (sum(t for t in times if t) < args.seconds / ROUNDS
                                and time.perf_counter() - round_start < HARD_LIMIT_S / ROUNDS):
                times.append(one_task(len(times)))
        else:
            times = [one_task(i, check=False) for i in range(len(rounds[0]))]
        rounds.append(times)
    probe()
    wall = time.perf_counter() - start
    attempted = len(rounds[0])
    durations = [min(runs) for runs in zip(*rounds) if None not in runs]
    failed = attempted - len(durations)

    for line in (problems + errors)[:10]:
        print(f"bench: {line}", file=sys.stderr)
    correct = warm_ok and not problems
    if tracer:
        now = layer_totals(tracer)
        for name, want in sorted(derived.items()):
            if now[name] - at_measure[name] != want:
                correct = False
                print(f"bench: traced {name} = {now[name] - at_measure[name]}, inputs imply {want}",
                      file=sys.stderr)
        metrics = layer_metrics(at_measure, now, ROUNDS * attempted, at_setup)
    else:
        values = {
            "setup_s": min(setup_times),
            "tasks_per_s": len(durations) / sum(durations) if durations else 0.0,
            "task_p50_ms": 1e3 * statistics.median(durations) if durations else 0.0,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
    result = {"correct": bool(correct), "attempted": attempted, "failed": failed, "metrics": metrics}

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(OUT / f"{stem}.json", "w") as fh:
        json.dump({**result, "host": host_line(), "setup_probes_s": setup_times,
                   "own_setup_s": own_setup, "measured_wall_s": wall,
                   "task_s": durations, "round_s": rounds,
                   "problems": problems[:100], "errors": errors[:100],
                   "derived_counts": dict(derived)}, fh, indent=1)
    if tracer:
        tracer.write(OUT / f"{stem}.spans")
    print(f"bench: {attempted} tasks x {ROUNDS} rounds ({failed} failed) in {wall:.1f} s, "
          f"set-up {own_setup:.3f} s here, probes {[round(t, 3) for t in setup_times]}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
