"""Benchmark launcher: one workload per process, or every workload in turn.

    python3 bench/run.py --workload {train,classify,explain,all} \
        --seed N --seconds S --trace {0,1} [--tiny]

Run it from the repository root. It imports ``toxiclass`` from ``src/``
beside this directory and nowhere else, so it fails, without printing a
result, when that source is missing. The last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``:
the end-to-end metrics with ``--trace 0`` and the per-layer metrics with
``--trace 1``. The exit code is 0 only when every output check passed.
"""

import os
import sys

# One BLAS thread, set before numpy is first imported: on a 2-core machine
# the default thread count changes per-layer timings several times over.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import reference  # noqa: E402
import spans  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
# set up at least this often, and for at least SETUP_MIN_S
SETUP_REPEATS = 5
SETUP_MIN_S = 4.0
NAMES = ("train", "classify", "explain")
# the end-to-end metrics every workload reports, with their units
END_TO_END = {"setup_s": "s", "peak_rss_mb": "MB", "wall_s": "s",
              "binary_ms": "ms", "multilabel_ms": "ms"}


def import_package():
    """Import ``toxiclass`` from this checkout's ``src/``; exit non-zero otherwise."""
    pkg = SRC / "toxiclass"
    if not (pkg / "__init__.py").is_file():
        sys.exit(f"bench: no package source at {pkg}")
    sys.path.insert(0, str(SRC))
    import toxiclass

    if Path(toxiclass.__file__).resolve().parent != pkg.resolve():
        sys.exit(f"bench: imported toxiclass from {toxiclass.__file__}, not {pkg}")


def blas_threads():
    """Threads the loaded OpenBLAS will use, asked from the library itself."""
    import ctypes
    import glob

    import numpy as np

    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(glob.glob(str(libdir / "*openblas*.so*"))):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment() -> dict:
    import numpy as np

    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": blas_threads(),
        "cpu_count": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _metric(value, unit):
    return {"value": value, "unit": unit}


class Runs:
    """Timings, output digests and failures of the operations run so far."""

    def __init__(self, workload, state, tracer=None, ref=None):
        self.ops = workload.ops(state)
        self.independent = workload.independent
        self.tracer = tracer
        self.ref = ref
        self.times = {op.key: [] for op in self.ops}
        self.intervals = {op.key: [] for op in self.ops}  # (start, end) of each time
        self.digests = {}
        self.failures = []
        self.attempted = 0

    def run(self, op) -> None:
        self.attempted += 1
        span = self.tracer.span("op") if self.tracer else contextlib.nullcontext()
        t0, ref0 = time.perf_counter(), self.ref.spent if self.ref else 0.0
        try:
            with span:
                result = op.run()
            t1, ref_s = time.perf_counter(), self.ref.spent - ref0 if self.ref else 0.0
            self.times[op.key].append(t1 - t0 - ref_s)
            self.intervals[op.key].append((t0, t1))
            outputs = op.check(result)
        except Exception as exc:  # a failed check or a crash fails the operation
            self.failures.append(f"{op.key}: {type(exc).__name__}: {exc}")
            return
        if self.digests.setdefault(op.key, outputs) != outputs:
            self.failures.append(f"{op.key}: outputs differ from its first run")

    def measure(self, deadline: float, whole_passes: bool = False) -> None:
        """One full pass, then more operations, in order, while the next one
        is expected to end by ``deadline``; if the operations are
        independent, skipping any that is not, until none is. With
        ``whole_passes``, while the next whole pass is expected to end by
        then."""
        n = len(self.ops)
        for i in itertools.count():
            op = self.ops[i % n]
            if i >= n:
                left = deadline - time.perf_counter()
                if whole_passes:
                    if i % n == 0 and self.pass_s() > left:
                        return
                elif min(self.times[op.key], default=0.0) > left:
                    if not self.independent or self.shortest_s() > left:
                        return
                    continue
            self.run(op)

    def shortest_s(self) -> float:
        return min((min(ts) for ts in self.times.values() if ts), default=0.0)

    def pass_s(self) -> float:
        """Time of one pass: the sum of each operation's best time."""
        return sum(min(ts) for ts in self.times.values() if ts)

    def digest(self) -> str:
        return hashlib.sha256("".join(self.digests.get(op.key, "-")
                                      for op in self.ops).encode()).hexdigest()


def run_untraced(workload, sizes, seed, seconds, work):
    """Set up several times, then run operations for ``seconds``, with the
    reference kernel ticking throughout; times are scaled to its nominal
    speed, and the kernel's own time is taken out of them."""
    setup, ref = [], reference.Reference()
    ref.start()
    try:
        while len(setup) < SETUP_REPEATS or sum(t for t, _, _ in setup) < SETUP_MIN_S:
            shutil.rmtree(work, ignore_errors=True)
            t0, ref0 = time.perf_counter(), ref.spent
            state = workload.setup(work, sizes, seed)
            t1 = time.perf_counter()
            setup.append((t1 - t0 - (ref.spent - ref0), t0, t1))
        runs = Runs(workload, state, ref=ref)
        runs.measure(time.perf_counter() + seconds)
    finally:
        ref.stop()
    metrics, detail = {}, {}
    if not runs.failures:
        # the workload's own metrics are all times, so they are computed
        # again from times scaled to the nominal speed
        values, detail, failures = workload.metrics(state, runs.times)
        runs.failures += failures
        scaled = {k: [ref.scaled(t, *iv) for t, iv in zip(ts, runs.intervals[k])]
                  for k, ts in runs.times.items()}
        scaled_values = workload.metrics(state, scaled)[0]
        detail.update({
            "setup_raw_s": (statistics.median(t for t, _, _ in setup), "s"),
            "setup_repeats": (len(setup), "count"),
            "ref_ms": (ref.mean_s() * 1e3, "ms"),
            "ref_calls": (len(ref.times), "count"),
        })
        detail.update({f"{k}_raw": (v, END_TO_END[k]) for k, v in values.items()})
        metrics = {"setup_s": _metric(statistics.median(ref.scaled(*s) for s in setup), "s"),
                   "peak_rss_mb": _metric(peak_rss_mb(), "MB")}
        metrics.update({k: _metric(v, END_TO_END[k]) for k, v in scaled_values.items()})
    return runs, metrics, detail


def run_traced(workload, sizes, seed, seconds, work):
    """One untraced reference pass, then whole traced passes for ``seconds``."""
    state = workload.setup(work, sizes, seed)
    deadline = time.perf_counter() + seconds
    reference = Runs(workload, state)
    reference.measure(deadline=0.0)
    tracer = spans.Tracer()
    runs = Runs(workload, state, tracer)
    tracer.install()
    try:
        runs.measure(deadline, whole_passes=True)
    finally:
        tracer.uninstall()
    runs.failures += reference.failures
    runs.attempted += reference.attempted
    if reference.digest() != runs.digest():
        runs.failures.append("traced outputs differ from untraced ones")
    OUT.mkdir(exist_ok=True)
    trace_path = OUT / f"spans-{workload.name}-seed{seed}.jsonl"
    tracer.write(trace_path)
    passes = max(1, min(len(ts) for ts in runs.times.values()))
    # one pass each way: the untraced one right before the first traced one
    untraced_s = reference.pass_s()
    traced_s = sum(ts[0] for ts in runs.times.values() if ts)
    values = spans.per_layer_metrics(tracer.spans, tracer.extra, passes,
                                     traced_s / untraced_s)
    metrics = {k: _metric(values[k], unit) for k, unit in spans.per_layer_names().items()}
    detail = {"traced_passes": (passes, "count"),
              "untraced_pass_s": (untraced_s, "s"),
              "traced_pass_s": (traced_s, "s"),
              "spans_file": (str(trace_path.relative_to(ROOT)), "path")}
    return runs, metrics, detail


def run_one(args) -> int:
    import_package()
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    sizes = workloads.TINY if args.tiny else workloads.PAPER
    print("env " + json.dumps(environment(), sort_keys=True), flush=True)
    work = OUT / f"work-{args.workload}-{os.getpid()}"
    runner = run_traced if args.trace else run_untraced
    try:
        runs, metrics, detail = runner(workload, sizes, args.seed, args.seconds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    detail["ops_attempted"] = (runs.attempted, "count")
    detail["ops_failed"] = (len(runs.failures), "count")
    for name, (value, unit) in detail.items():
        print(f"{args.workload}.{name} {value} {unit}")
    for name, m in metrics.items():
        print(f"{args.workload}.{name} {m['value']} {m['unit']}")
    print(f"{args.workload}.digest {runs.digest()}")
    for failure in runs.failures[:20]:
        print(f"FAILED: {failure}")
    expected = spans.per_layer_names() if args.trace else END_TO_END
    correct = not runs.failures and set(metrics) == set(expected)
    print(json.dumps({"correct": correct, "attempted": runs.attempted,
                      "failed": len(runs.failures), "metrics": metrics}))
    return 0 if correct else 1


def run_all(args) -> int:
    """Every workload in its own process, one after the other."""
    results, code = {}, 0
    for name in NAMES:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)] + (["--tiny"] if args.tiny else [])
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, cwd=ROOT)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        code = code or proc.returncode
        results[name] = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    ok = all(r is not None and r["correct"] for r in results.values())
    print(json.dumps({
        "correct": ok and code == 0,
        "attempted": sum(r["attempted"] for r in results.values() if r),
        "failed": sum(r["failed"] for r in results.values() if r),
        "metrics": {f"{w}.{k}": v for w, r in results.items() if r
                    for k, v in r["metrics"].items()},
    }))
    return code if code else (0 if ok else 1)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*NAMES, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny model and corpus sizes, to test the harness")
    args = parser.parse_args(argv)
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
