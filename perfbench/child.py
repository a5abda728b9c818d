"""One workload in its own fresh process; run.py starts it.

Prints one JSON line.  With ``--setup-only`` it holds only ``setup_s``, the
time from just before ``import mixlearn`` to the end of set-up.  Otherwise it
runs whole rounds of ops, closed loop with one client, until ``--seconds``
have passed and at least MIN_OPS ops are done, and reports the end-to-end
metrics; with ``--trace 1`` it then sets up again and runs one more round
under the tracer, and reports the per-layer metrics instead; the tracing
overhead compares that round with the last untraced one.
"""

import argparse
import ctypes
import json
import os
import platform
import resource
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# p90 needs at least ten ops beyond it; trace runs report no p90
MIN_OPS = 100

START = time.perf_counter()
sys.path.insert(0, str(ROOT / "src"))
import mixlearn  # noqa: E402

if not Path(mixlearn.__file__).resolve().is_relative_to(ROOT / "src"):
    sys.exit(f"mixlearn was imported from {mixlearn.__file__}, not from {ROOT / 'src'}")

import tracer  # noqa: E402
import workloads  # noqa: E402


def openblas_threads():
    """OpenBLAS's own thread count, read from the library numpy loaded."""
    import numpy

    libs = Path(numpy.__file__).parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(handle, symbol):
                return getattr(handle, symbol)()
    return "unknown"


def environment(seed):
    import numpy

    return {
        "seed": seed,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "openblas_threads": openblas_threads(),
        "MIXLEARN_THREADS": os.environ.get("MIXLEARN_THREADS", "unset (1)"),
    }


def run_round(ops, latencies, failures, root=None):
    """Runs each op once; returns the round's wall time."""
    round_start = time.perf_counter()
    for index, (run, check) in enumerate(ops):
        start = time.perf_counter()
        try:
            if root is None:
                output = run()
            else:
                with root("op", index):
                    output = run()
        except mixlearn.MixlearnError:
            ok = False
        else:
            ok = check(output)
        latencies.append(time.perf_counter() - start)
        failures.append(not ok)
    return time.perf_counter() - round_start


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.SETUPS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--smoke", action="store_true",
                        help="one round per phase, for the smoke test")
    args = parser.parse_args()
    setup = workloads.SETUPS[args.workload]

    scratch = ROOT / ".perfbench_run"
    scratch.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as tmpdir:
        ops = setup(args.seed, tmpdir)
        setup_s = time.perf_counter() - START
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return

        latencies, failures, round_walls = [], [], []
        timed_start = time.perf_counter()
        while True:
            round_walls.append(run_round(ops, latencies, failures))
            elapsed = time.perf_counter() - timed_start
            enough = args.trace or len(latencies) >= MIN_OPS
            if args.smoke or (elapsed >= args.seconds and enough):
                break
        result = {"env": environment(args.seed)}

        if args.trace:
            trace = tracer.Tracer()
            trace.install()
            try:
                with trace.root("setup", "setup"):
                    ops = setup(args.seed, tmpdir)
                traced_wall = run_round(ops, [], failures, trace.root)
            finally:
                trace.uninstall()
            spans_path = scratch / f"spans-{args.workload}-seed{args.seed}.jsonl"
            trace.write(spans_path)
            result["spans"] = str(spans_path.relative_to(ROOT))
            # against the untraced round just before, the nearest in time
            result["metrics"] = trace.metrics(traced_wall / round_walls[-1] - 1.0)
        else:
            p90 = statistics.quantiles(latencies, n=10)[8]
            result["beyond_p90"] = sum(lat > p90 for lat in latencies)
            result["info"] = {
                "ops_per_s": {"value": len(latencies) / elapsed, "unit": "1/s"},
                "op_s_p50": {"value": statistics.median(latencies), "unit": "s"},
            }
            result["metrics"] = {
                "op_s_p90": {"value": p90, "unit": "s"},
                "setup_s": {"value": setup_s, "unit": "s"},
                "ok_ratio": {"value": 1.0 - sum(failures) / len(failures), "unit": "ratio"},
                "peak_rss_mb": {
                    "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                    "unit": "MB",
                },
            }
    result.update(attempted=len(failures), failed=sum(failures))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
