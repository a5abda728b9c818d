"""Measure the memory and wall time of ``sample`` at 10^6 draws per family.

For one k = 2 uniform mixture of each family, this records the tracemalloc
peak of one ``sample(spec, 10**6, seed=1)`` call, after one untraced call
of the same size (lazy imports and thread pools), and the median wall time
of seven further calls with tracing off.
Each source tree is measured in a fresh process, so two trees, such as a
parent commit and a change, can be compared side by side:

    git archive <parent> src | tar -x -C /tmp/parent
    PYTHONPATH=src python scripts/sampling_memory.py BENCH_sampling.json \\
        parent=/tmp/parent/src change=src

With no label=DIR argument it measures ``change=src`` alone.
"""

import json
import os
import platform
import statistics
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction

COUNT = 10**6
REPEATS = 7


def _specs():
    from mixlearn import Family, ParameterGrid, SharedParams, uniform_spec

    def spec(family, step, lo, hi, indices, **shared):
        return uniform_spec(ParameterGrid(family, step, lo, hi), indices, SharedParams(**shared))

    return [
        spec(Family.POISSON, 1, 0, 8, (1, 4)),
        spec(Family.BINOMIAL_P, Fraction(1, 2), 0, 2, (1, 2), n=10),
        spec(Family.GEOMETRIC_P, Fraction(1, 4), 1, 4, (1, 3)),
        spec(Family.GEOMETRIC_U, Fraction(1), 0, 3, (0, 2)),
        spec(Family.GAUSSIAN, 1, 0, 4, (0, 3), sigma=1.0),
        spec(Family.CHI_SQUARED, 1, 1, 5, (2, 5)),
        spec(Family.NEG_BINOMIAL, 1, 1, 4, (1, 3), p=Fraction(1, 3)),
    ]


def measure() -> list:
    """Per family: traced peak (MB) and median wall time (s) in this process."""
    from mixlearn import sample

    rows = []
    for spec in _specs():
        sample(spec, COUNT, seed=1)  # lazy imports outside the trace
        tracemalloc.start()
        try:
            sample(spec, COUNT, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        walls = []
        for _ in range(REPEATS):
            t0 = time.perf_counter()
            sample(spec, COUNT, seed=1)
            walls.append(time.perf_counter() - t0)
        rows.append({
            "family": spec.family.value, "indices": list(spec.indices), "count": COUNT,
            "traced_peak_mb": round(peak / 2**20, 2),
            "median_wall_s": round(statistics.median(walls), 5),
        })
    return rows


def main() -> None:
    if sys.argv[1:] == ["--child"]:
        json.dump(measure(), sys.stdout)
        return
    args = sys.argv[1:]
    path = args.pop(0) if args and "=" not in args[0] else "BENCH_sampling.json"
    trees = dict(arg.split("=", 1) for arg in args) or {"change": "src"}
    results = {}
    for label, src in trees.items():
        env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
        out = subprocess.run([sys.executable, os.path.abspath(__file__), "--child"], env=env,
                             check=True, capture_output=True, text=True).stdout
        results[label] = json.loads(out)
        for row in results[label]:
            print(f"{label} {row['family']}: peak {row['traced_peak_mb']} MB, "
                  f"median {row['median_wall_s'] * 1e3:.2f} ms", flush=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({
            "measure": f"tracemalloc peak of one sample(spec, {COUNT}) call and the median "
                       f"wall time of {REPEATS} calls, per k = 2 uniform mixture",
            "python": platform.python_version(),
            "numpy": __import__("numpy").__version__,
            "machine": platform.machine(),
            "cpus": os.cpu_count(),
            "trees": results,
        }, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
