"""Campaign benchmark for d2dpa: per-op latency on three workloads, with
per-module spans from a traced run.

Run from anywhere; the package is imported from ``src/`` next to this
directory, single-threaded:

    python3 perfbench/run.py --workload campaign_fig4a --seed 1 --seconds 30 --trace 0

Workloads (one op each):
  campaign_fig4a      one trial of ``run_campaign`` at the paper's default
                      (K=20, D=5, uniform pair distance up to 100 m, eta=-110 dB)
  campaign_far_pairs  the same with eta=-130 dB and pairs fixed at 200 m
  assign_dense        ``hungarian_max`` on one D=32 x K=64 rate table built
                      in set-up

Seeds: 1 is the default seed and 2 the holdout seed a claimed gain must also
hold on.  Neither is special to the program.

``--trace 0`` runs WARMUP_OPS untimed ops, then ops in a closed loop (one op
at a time) for ``--seconds`` and at least MIN_OPS ops, and reports the
end-to-end metrics:
  op_ms_p50, op_ms_p95  median and 95th percentile of the op times
  ops_per_s             ops completed per second of op time
  setup_s               median of SETUP_SAMPLES set-ups, each from the start
                        of this script (imports included) to the end of
                        set-up; one in this process and the rest in child
                        processes
  peak_rss_mb           peak resident memory of this process (getrusage)

Times are given at a reference host speed.  A shared host's speed drifts by
tens of percent for seconds to minutes at a time (a fixed trial took 33 to
52 ms over five minutes on a 2-vCPU Intel Xeon VM), which no run length
averages away.  So between ops, and before and after each workload
set-up, the benchmark times ``reference_loop``, a fixed pure-Python and
numpy loop that uses nothing of the program, and scales each wall time by
REFERENCE_LOOP_S over the mean time of the loops just before and just after
it (the host's speed changes within seconds, so only the nearest loops
track it).  A change to the program moves the scaled times as it moves
wall times; host drift moves the loop too and cancels.  The unscaled
wall-clock medians and the host speed (REFERENCE_LOOP_S over the median
loop time) are printed and kept in the result file.

``--trace 1`` runs a fixed number of ops (TRACE_OPS_PER_SECOND x --seconds),
each once untraced and once traced, and reports the per-layer metrics of
tracing.py (wall-clock, unscaled) plus the tracing overhead.  Traced and
untraced outputs must be identical.  Spans go to
perfbench/runs/<workload>.spans.jsonl.gz.

Every op's output is checked (see workloads.py), warm-up ops included.  A
failed op (an exception or a non-finite total) or a wrong output makes the
run exit 1 with ``"correct": false`` and no metrics.  The last stdout line is
the JSON result; the same result, with the environment, is written to
perfbench/runs/.
"""

import time

T0 = time.perf_counter()

import os  # noqa: E402

# One thread everywhere: set before numpy is imported.
for _var in (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RUNS_DIR = BENCH_DIR / "runs"

MIN_OPS = 200  # leaves at least 10 ops beyond p95
WARMUP_OPS = 3
MAX_MEASURE_S = 120.0  # keeps a run well inside its time limit
SETUP_SAMPLES = 3
TRACE_OPS_PER_SECOND = 10

# Typical time of one reference_loop on a 2-vCPU Intel Xeon VM with Python
# 3.11 and numpy 2.4 (2.4 to 4.3 ms as its host's load changed); scaled
# times are times at this loop speed.
REFERENCE_LOOP_S = 4.2e-3
# The host speed before or after a set-up is taken from this many loops.
SETUP_LOOPS = 15


def import_program():
    """Import d2dpa from this checkout's src/, never from anywhere else."""
    if not (SRC / "d2dpa" / "__init__.py").is_file():
        raise ImportError(f"no d2dpa package under {SRC}")
    sys.path.insert(0, str(SRC))
    import d2dpa

    if SRC.resolve() not in Path(d2dpa.__file__).resolve().parents:
        raise ImportError(f"d2dpa was imported from {d2dpa.__file__}, not from {SRC}")
    return d2dpa


def kernel_backend() -> str:
    """The no-SIC FD kernel in use: "compiled" or "python"."""
    try:
        from d2dpa import _fast
    except ImportError:
        return "python"
    return _fast.BACKEND


def environment() -> dict:
    import numpy
    import scipy

    commit = None
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True
            )
            commit = proc.stdout.strip() or None
        except OSError:  # no git: the source digest still identifies the code
            pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "d2dpa").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((l.split(":", 1)[1].strip() for l in f if l.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "backend": kernel_backend(),
        "D2DPA_PURE": os.environ.get("D2DPA_PURE", ""),
    }


def reference_loop() -> float:
    """Seconds for a fixed loop of Python float arithmetic and small numpy
    calls, the kind of work a trial does; it uses nothing of the program."""
    import numpy as np

    gc.disable()
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(20000):
        acc += (i * 0.5) % 7.0
    a = np.arange(64.0)
    for _ in range(300):
        a = np.sqrt(a + acc)
    elapsed = time.perf_counter() - t0
    gc.enable()
    return elapsed


def host_speed() -> float:
    """REFERENCE_LOOP_S over the median of SETUP_LOOPS loop times."""
    reference_loop()  # first call: numpy's lazy set-up
    return REFERENCE_LOOP_S / statistics.median(reference_loop() for _ in range(SETUP_LOOPS))


def timed_setup(workload, seed: int) -> tuple[float, float]:
    """Set the workload up; return the seconds from the start of this script
    to the end of set-up, leaving out the speed loops, and the mean host
    speed just before and just after the workload's own set-up."""
    imports = time.perf_counter() - T0
    speed_before = host_speed()
    t0 = time.perf_counter()
    workload.setup(seed)
    seconds = imports + time.perf_counter() - t0
    return seconds, (speed_before + host_speed()) / 2


def run_op(workload, item):
    """Run one op; return (seconds, result, failure message or None)."""
    t0 = time.perf_counter()
    try:
        result = workload.run(item)
    except Exception as exc:  # an op that raises counts as failed, the run goes on
        return time.perf_counter() - t0, None, f"{type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - t0
    return elapsed, result, workload.failure(result)


def child_setup_seconds(args) -> float:
    cmd = [
        sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0", "--setup-only",
    ]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=150)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up child failed ({proc.returncode}): {proc.stderr.strip()}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    return out["setup_s"], out["speed"]


def measure(args, workload, problems: list[str]):
    """Untraced closed loop; returns (metrics, attempted, failed, wall-clock notes)."""
    setups = [timed_setup(workload, args.seed)]
    times: list[float] = []
    scaled: list[float] = []
    loops: list[float] = []
    failed = 0
    loop = reference_loop()
    for i, item in enumerate(workload.inputs()):
        elapsed, result, failure = run_op(workload, item)
        loop_before, loop = loop, reference_loop()
        if failure is None:
            failure = workload.mismatch(item, result)
        else:
            failed += 1
        if failure is not None:
            problems.append(failure)
        if i < WARMUP_OPS:
            start = time.perf_counter()
            continue
        times.append(elapsed)
        scaled.append(elapsed * REFERENCE_LOOP_S / ((loop_before + loop) / 2))
        loops.append(loop)
        wall = time.perf_counter() - start
        if (wall >= args.seconds and len(times) >= MIN_OPS) or wall >= MAX_MEASURE_S:
            break
    print(f"{args.workload} seed {args.seed}: {WARMUP_OPS} warm-up and {len(times)} timed ops "
          f"in {wall:.2f} s, {failed} failed")
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    setups += [child_setup_seconds(args) for _ in range(SETUP_SAMPLES - 1)]
    n = len(times)
    metrics = {
        "op_ms_p50": (statistics.median(scaled) * 1e3, "ms", n),
        "op_ms_p95": (statistics.quantiles(scaled, n=20, method="inclusive")[18] * 1e3, "ms", n),
        "ops_per_s": (n / sum(scaled), "1/s", n),
        "setup_s": (statistics.median(t * speed for t, speed in setups), "s", len(setups)),
        "peak_rss_mb": (peak_rss_mb, "MB", 1),
    }
    wall_clock = {
        "op_ms_p50": statistics.median(times) * 1e3,
        "ops_per_s": n / sum(times),
        "setup_s": statistics.median(t for t, _ in setups),
        "host_speed": REFERENCE_LOOP_S / statistics.median(loops),
    }
    return metrics, WARMUP_OPS + n, failed, wall_clock


def measure_traced(args, workload, problems: list[str]):
    """Each op untraced then traced; returns (metrics, attempted, failed)."""
    from tracing import Tracer

    tracer = Tracer()
    with tracer.installed():
        workload.setup(args.seed)
    n_ops = max(1, round(TRACE_OPS_PER_SECOND * args.seconds))
    plain = traced = 0.0
    failed = 0
    items = workload.inputs()
    for i in range(n_ops):
        item = next(items)
        t_plain, r_plain, failure = run_op(workload, item)
        tracer.op = i
        with tracer.installed():
            t_traced, r_traced, failure_traced = run_op(workload, item)
        tracer.op = -1
        plain += t_plain
        traced += t_traced
        failure = failure or failure_traced
        if failure is not None:
            failed += 1
        elif workload.summary(r_plain) != workload.summary(r_traced):
            failure = f"op {i}: traced output {workload.summary(r_traced)} != untraced {workload.summary(r_plain)}"
        else:
            failure = workload.mismatch(item, r_plain)
        if failure is not None:
            problems.append(failure)
    metrics = {
        name: (value, unit, n_ops)
        for name, (value, unit) in tracer.layer_metrics(n_ops, workload.setup_units).items()
    }
    metrics["fdnosic.compiled_backend"] = (float(kernel_backend() == "compiled"), "bool", 1)
    metrics["trace.overhead_share"] = (traced / plain - 1.0, "ratio", n_ops)
    op_spans = sum(span[4] >= 0 for span in tracer.spans)
    metrics["trace.spans_per_op"] = (op_spans / n_ops, "spans", n_ops)
    RUNS_DIR.mkdir(exist_ok=True)
    spans_path = RUNS_DIR / f"{args.workload}.spans.jsonl.gz"
    tracer.write(spans_path, {"workload": args.workload, "seed": args.seed, "ops": n_ops})
    print(f"{args.workload} seed {args.seed}: {n_ops} ops traced, {len(tracer.spans)} spans "
          f"written to {spans_path.relative_to(ROOT)}; untraced {plain:.2f} s, traced {traced:.2f} s")
    if tracer.missing:
        print(f"not found, so not traced: {', '.join(tracer.missing)}")
    return metrics, n_ops, failed, {}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    try:
        import_program()
    except ImportError as exc:
        print(f"error: cannot import the program: {exc}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(BENCH_DIR))
    import workloads

    if args.workload not in workloads.NAMES:
        print(f"error: unknown workload {args.workload!r}; choose from {workloads.NAMES}", file=sys.stderr)
        return 2
    workload = workloads.make(args.workload)
    if args.setup_only:
        setup_s, speed = timed_setup(workload, args.seed)
        print(json.dumps({"setup_s": setup_s, "speed": speed}))
        return 0
    problems: list[str] = []
    if args.trace:
        metrics, attempted, failed, wall_clock = measure_traced(args, workload, problems)
    else:
        metrics, attempted, failed, wall_clock = measure(args, workload, problems)
    env = environment()
    correct = not problems
    for problem in problems[:20]:
        print(f"FAIL {problem}", file=sys.stderr)
    if correct:
        for name, (value, unit, n) in metrics.items():
            print(f"  {name:40s} {value:14.6g} {unit:9s} n={n}")
    print(f"  {'failed_ops':40s} {failed:>8d}/{attempted:<5d}")
    if wall_clock:
        print("unscaled " + " ".join(f"{k} {v:.6g}" for k, v in wall_clock.items()))
    print("env " + json.dumps(env, sort_keys=True))
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()} if correct else {},
    }
    RUNS_DIR.mkdir(exist_ok=True)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "env": env, **result, "samples": {k: n for k, (_, _, n) in metrics.items()},
        "unscaled": wall_clock,
    }
    (RUNS_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n"
    )
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
