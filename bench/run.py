"""qhm benchmark: one workload per process, closed loop, one client.

Usage (from the root of a checkout):

    python3 bench/run.py --workload solve-r27 --seed 1 --seconds 20 --trace 0

Workloads: solve-r27, ym-ladder, identity-checks (see workloads.py).

With --trace 0 the run measures the end-to-end metrics:
  setup_s      median over fresh interpreters of import qhm + the ramp table
               + the first build_R on a refinement-9 grid
  op_s_p50     median wall time of one operation
  peak_rss_mb  ru_maxrss of this process
With --trace 1 it alternates untraced and span-traced operations on the same
seeds and reports per-layer calls, self time, computed output bytes, the
tracemalloc peak per operation and the tracing overhead.

Every run prints failed_frac (failed checks over attempted checks, the known
seed failures included) and its provenance, then one JSON line with
correct / attempted / failed (operations) and the metrics.  An operation
fails when it raises or when a check outside its workload's known seed
failures fails; an exception counts as a failure of every check in it.
"""

import os

# Pin BLAS/OpenMP pools before numpy is imported, here and in the children.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import tracemalloc  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import ramp_table  # noqa: E402
from spans import FUNCTIONS, OUT_MB, Tracer  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build"
SETUP_REPEATS = 5


def op_seed(seed: int, i: int) -> int:
    return int(np.random.SeedSequence([seed, i]).generate_state(1)[0])


def setup_once() -> float:
    """Wall time of one fresh interpreter doing the set-up (setup_probe.py).

    No timeout: waiting with one makes subprocess poll in steps of up to
    50 ms, which would quantize the measurement.
    """
    t0 = time.perf_counter()
    subprocess.run([sys.executable, str(BENCH_DIR / "setup_probe.py"),
                    str(ROOT), str(BUILD_DIR)],
                   check=True, stdin=subprocess.DEVNULL)
    return time.perf_counter() - t0


class Gate:
    """Counts operations and checks against one workload's known failures."""

    def __init__(self, seed_failures):
        self.seed_failures = seed_failures
        self.ops = self.failed_ops = 0
        self.checks = self.failed_checks = 0
        self.last_check_count = 1
        self.unexpected = set()

    def run(self, op, seed: int, scratch: str) -> float:
        """Run one operation, gate it and return its wall time."""
        self.ops += 1
        t0 = time.perf_counter()
        try:
            checks = op(seed, scratch)
        except Exception as exc:  # an op that raises fails all its checks
            elapsed = time.perf_counter() - t0
            print(f"op seed {seed} raised {type(exc).__name__}: {exc}",
                  file=sys.stderr)
            self.failed_ops += 1
            self.checks += self.last_check_count
            self.failed_checks += self.last_check_count
            self.unexpected.add(f"exception {type(exc).__name__}")
            return elapsed
        elapsed = time.perf_counter() - t0
        self.last_check_count = len(checks)
        failed = {name for name, ok in checks if not ok}
        self.checks += len(checks)
        self.failed_checks += len(failed)
        if failed - self.seed_failures:
            self.failed_ops += 1
            self.unexpected |= failed - self.seed_failures
        return elapsed

    @property
    def failed_frac(self) -> float:
        return self.failed_checks / max(self.checks, 1)


def run_untraced(op, gate, seed, seconds, scratch) -> list:
    times = []
    start = time.perf_counter()
    i = 1
    while not times or time.perf_counter() - start < seconds:
        times.append(gate.run(op, op_seed(seed, i), scratch))
        i += 1
    return times


def run_traced(op, gate, seed, seconds, scratch, replay):
    """Per seed: an untraced op, a span-traced op and a tracemalloc op.

    The untraced and span-traced ops alternate in order; the memory op runs
    last with ramp values replayed (see ramp_table.Replay).
    """
    tracer = Tracer()
    plain, traced, peaks = [], [], []
    start = time.perf_counter()
    i = 1
    while not traced or time.perf_counter() - start < seconds:
        s = op_seed(seed, i)
        for with_spans in ((False, True) if i % 2 else (True, False)):
            if not with_spans:
                plain.append(gate.run(op, s, scratch))
                continue
            tracer.begin_op(s)
            try:
                traced.append(gate.run(op, s, scratch))
            finally:
                tracer.end_op()
        replay.serving = True
        tracemalloc.start()
        try:
            gate.run(op, s, scratch)
            peaks.append(tracemalloc.get_traced_memory()[1] / 1e6)
        finally:
            tracemalloc.stop()
            replay.serving = False
        i += 1
    return tracer, plain, traced, peaks


def layer_metrics(tracer, plain, traced, peaks, gate) -> dict:
    summaries = [tracer.summarize(op) for op in tracer.ops]
    first = summaries[0]
    metrics = {}
    for name in FUNCTIONS:
        metrics[f"{name}.calls"] = (first[name][0], "count")
        metrics[f"{name}.self_s"] = (
            statistics.median(s[name][1] for s in summaries), "s")
    for name in OUT_MB:
        idx = FUNCTIONS.index(name)
        metrics[f"{name}.out_mb"] = (
            tracer.ops[0]["out_bytes"][idx] / 1e6, "MB_computed")
    metrics["mem.traced_peak_mb"] = (statistics.median(peaks), "MB")
    metrics["trace.overhead_frac"] = (
        statistics.median(traced) / statistics.median(plain) - 1, "frac")
    metrics["gate.failed_frac"] = (gate.failed_frac, "frac")
    return metrics


def write_spans(tracer, workload: str, seed: int) -> Path:
    path = BUILD_DIR / "spans" / f"{workload}-seed{seed}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"functions": FUNCTIONS,
                   "fields": ["function", "start_s", "end_s", "parent"],
                   "ops": [{"seed": op["seed"], "spans": op["spans"]}
                           for op in tracer.ops]}, fh)
    return path


def git_sha():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10,
                             stdin=subprocess.DEVNULL)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "qhm" / "cli.py").is_file():
        print(f"no qhm sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from qhm import cli
    from workloads import WORKLOADS

    if Path(cli.__file__).resolve().parent != ROOT / "src" / "qhm":
        print(f"imported qhm from {cli.__file__}, not this checkout",
              file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]

    BUILD_DIR.mkdir(exist_ok=True)
    # Untimed first set-up: it builds the ramp-table cache if that is stale,
    # so the symbolic build never runs in this process or in a timed one.
    setup_once()
    replay = ramp_table.Replay() if args.trace else None
    ramp = ramp_table.install(BUILD_DIR, replay)
    setup = [setup_once() for _ in range(0 if args.trace else SETUP_REPEATS)]

    gate = Gate(workload.seed_failures)
    scratch = tempfile.mkdtemp(prefix="run-", dir=BUILD_DIR)
    self_test_ok = True
    try:
        gate.run(workload.op, op_seed(args.seed, 0), scratch)  # warm-up
        if workload.self_test is not None:
            self_test_ok = workload.self_test(op_seed(args.seed, 0), scratch)
            print(f"gate self-test {'passed' if self_test_ok else 'FAILED'}")
        if args.trace:
            tracer, plain, traced, peaks = run_traced(
                workload.op, gate, args.seed, args.seconds, scratch, replay)
        else:
            times = run_untraced(workload.op, gate, args.seed, args.seconds,
                                 scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    if args.trace:
        metrics = layer_metrics(tracer, plain, traced, peaks, gate)
        spans_path = write_spans(tracer, args.workload, args.seed)
        if tracer.missing:
            print(f"not found, reported as 0: {', '.join(tracer.missing)}",
                  file=sys.stderr)
        print(f"{len(traced)} traced and {len(plain)} untraced ops; "
              f"spans in {spans_path.relative_to(ROOT)}")
    else:
        metrics = {
            "setup_s": (statistics.median(setup), "s"),
            "op_s_p50": (statistics.median(times), "s"),
            "peak_rss_mb": (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "MB"),
        }
        print(f"setup_s samples: {', '.join(f'{t:.4f}' for t in setup)}")
        print(f"op_s_p50 over {len(times)} ops (+1 warm-up)")

    for name, (value, unit) in metrics.items():
        print(f"{name:<48} {value:>14.6g} {unit}")
    print(f"failed_frac {gate.failed_checks}/{gate.checks} = "
          f"{gate.failed_frac:.6g} (checks; known seed failures: "
          f"{', '.join(sorted(workload.seed_failures)) or 'none'})")
    if gate.unexpected:
        print(f"unexpected failures: {', '.join(sorted(gate.unexpected))}")
    provenance = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": np.__version__,
        "git_sha": git_sha(),
        "threads": {v: os.environ[v] for v in THREAD_VARS},
        "ramp_table": ramp,
    }
    print(f"provenance {json.dumps(provenance, sort_keys=True)}")
    result = {
        "correct": gate.failed_ops == 0 and self_test_ok,
        "attempted": gate.ops,
        "failed": gate.failed_ops,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
