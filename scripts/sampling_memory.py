"""Measure the memory and wall time of ``sample`` at 10^6 draws per family,
and of the estimator that reads them, and check the memory against its
bound.

For one k = 2 uniform mixture of each family (two for Poisson, at low and
at higher rates), a fresh process records the tracemalloc peak of one
``sample(spec, 10**6, seed=1)`` call, after one untraced call of the same
size (lazy imports and thread pools), the bound ``sample_bytes(spec,
10**6)`` that ``sample`` is refused by, and the wall times of seven further
calls with tracing off.  For a discrete family it also records the traced
peak while the estimator of its algebraic route (``estimate_pmf`` for
geometric-p, ``estimate_moments`` otherwise, both to order ``ORDER``) reads
that call's dataset, the dataset included.  The script exits with status
1, after writing its file, when a traced peak exceeds its bound by more
than ``SLACK`` bytes of fixed-size scratch: ``sample_bytes`` for a draw,
the dataset's bytes for an estimator.  Two source trees, such as a
parent commit and a change, can be compared side by side:

    git archive <parent> src | tar -x -C /tmp/parent
    PYTHONPATH=src python scripts/sampling_memory.py BENCH_sampling.json \\
        parent=/tmp/parent/src change=src

The trees take turns family by family, in reversed order every other round,
and each family is measured in ``ROUNDS`` rounds, so a drift in host speed
lands on both trees instead of reading as a change.  A row reports the
largest traced peak and the median wall time over all rounds, with each
round's median beside it.  With no label=DIR argument it measures
``change=src`` alone.
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
ROUNDS = 3
#: fixed-size scratch a draw may hold beyond ``sample_bytes``, and an
#: estimator beyond its dataset (as in tests/test_sampling.py)
SLACK = 3 * 2**20
#: the highest moment or pmf entry an estimator computes
ORDER = 4


#: (family, grid step, lowest index, highest index, indices, shared params)
SPECS = [
    ("poisson", 1, 0, 8, (1, 4), {}),
    # the rates of a Poisson MDE run at the grid size its table cap allows
    ("poisson", 1, 0, 24, (7, 19), {}),
    # p = 1/2 and p = 1: the p = 1 component's rows are all n
    ("binomial-p", Fraction(1, 2), 0, 2, (1, 2), {"n": 10}),
    # p = 1/4 and 3/4: no endpoint, so every row counts its n uniforms
    ("binomial-p", Fraction(1, 4), 0, 4, (1, 3), {"n": 10}),
    # p = 0 and p = 1: every component is constant, so no draws are held
    ("binomial-p", Fraction(1, 8), 0, 8, (0, 8), {"n": 10}),
    ("geometric-p", Fraction(1, 4), 1, 4, (1, 3), {}),
    # p = 1/4 and p = 1: the p = 1 component is 0 over 0 runs beside a kernel
    ("geometric-p", Fraction(1, 4), 1, 4, (1, 4), {}),
    ("geometric-u", Fraction(1), 0, 3, (0, 2), {}),
    # p = 1 and p near 2**-20: nearly half the draws pass the histogram's
    # 2**16 bins, most of them distinct, so the estimator's bound is gated on
    # values that spill past the histogram
    ("geometric-u", Fraction(1), 0, 2**20, (0, 2**20), {}),
    ("gaussian", 1, 0, 4, (0, 3), {"sigma": 1.0}),
    ("chi-squared", 1, 1, 5, (2, 5), {}),
    ("neg-binomial", 1, 1, 4, (1, 3), {"p": Fraction(1, 3)}),
]


def measure(family: int) -> dict:
    """Traced peaks of the draw and of its estimator, if any, the bound and
    the dataset's size (bytes), and wall times (s) of the ``family``-th spec
    in this process."""
    from mixlearn import (Family, ParameterGrid, SharedParams, estimate_moments, estimate_pmf,
                          sample, uniform_spec)
    from mixlearn.grids import DISCRETE_FAMILIES
    from mixlearn.sampling import sample_bytes

    name, step, lo, hi, indices, shared = SPECS[family]
    spec = uniform_spec(ParameterGrid(Family(name), step, lo, hi), indices, SharedParams(**shared))
    estimate = (None if spec.family not in DISCRETE_FAMILIES
                else estimate_pmf if spec.family is Family.GEOMETRIC_P else estimate_moments)
    data = sample(spec, COUNT, seed=1)  # lazy imports outside the trace
    if estimate:
        estimate(data, ORDER)
    del data
    estimate_peak = None
    tracemalloc.start()
    try:
        data = sample(spec, COUNT, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
        if estimate:
            tracemalloc.reset_peak()  # to the dataset, which the estimator reads
            estimate(data, ORDER)
            estimate_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    walls = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        sample(spec, COUNT, seed=1)
        walls.append(time.perf_counter() - t0)
    return {"peak": peak, "bound": sample_bytes(spec, COUNT), "walls": walls,
            "estimator": estimate and estimate.__name__, "estimate_peak": estimate_peak,
            "dataset": data.values.nbytes}


def main() -> None:
    if sys.argv[1:2] == ["--child"]:
        json.dump(measure(int(sys.argv[2])), sys.stdout)
        return
    args = sys.argv[1:]
    path = args.pop(0) if args and "=" not in args[0] else "BENCH_sampling.json"
    trees = dict(arg.split("=", 1) for arg in args) or {"change": "src"}
    runs = {(label, i): [] for label in trees for i in range(len(SPECS))}
    for r in range(ROUNDS):
        for i in range(len(SPECS)):
            for label in (list(trees) if r % 2 == 0 else list(trees)[::-1]):
                env = dict(os.environ, PYTHONPATH=os.path.abspath(trees[label]))
                out = subprocess.run(
                    [sys.executable, os.path.abspath(__file__), "--child", str(i)],
                    env=env, check=True, capture_output=True, text=True).stdout
                runs[label, i].append(json.loads(out))
    results = {}
    over = []
    for label in trees:
        results[label] = []
        for i, (name, _, _, _, indices, _) in enumerate(SPECS):
            rounds = runs[label, i]
            peak, bound = max(m["peak"] for m in rounds), rounds[0]["bound"]
            if peak > bound + SLACK:
                over.append(f"{label} {name} {tuple(indices)}: traced peak {peak} bytes "
                            f"exceeds sample_bytes {bound} + {SLACK}")
            row = {
                "family": name, "indices": list(indices), "count": COUNT,
                "traced_peak_mb": round(peak / 2**20, 2),
                "sample_bytes_mb": round(bound / 2**20, 2),
                "median_wall_s": round(statistics.median(
                    w for m in rounds for w in m["walls"]), 5),
                "round_median_wall_s": [round(statistics.median(m["walls"]), 5)
                                        for m in rounds],
            }
            estimator, dataset = rounds[0]["estimator"], rounds[0]["dataset"]
            if estimator:
                estimate_peak = max(m["estimate_peak"] for m in rounds)
                if estimate_peak > dataset + SLACK:
                    over.append(f"{label} {name} {tuple(indices)}: {estimator} traced peak "
                                f"{estimate_peak} bytes exceeds its dataset {dataset} + {SLACK}")
                row.update(estimator=estimator,
                           estimator_traced_peak_mb=round(estimate_peak / 2**20, 2),
                           dataset_mb=round(dataset / 2**20, 2))
            results[label].append(row)
            print(f"{label} {row['family']} {tuple(indices)}: peak {row['traced_peak_mb']} MB "
                  f"of {row['sample_bytes_mb']} MB bound, "
                  f"median {row['median_wall_s'] * 1e3:.2f} ms" + (
                      f"; {estimator} peak {row['estimator_traced_peak_mb']} MB "
                      f"over a {row['dataset_mb']} MB dataset" if estimator else ""), flush=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({
            "measure": f"tracemalloc peak of one sample(spec, {COUNT}) call beside its "
                       f"sample_bytes bound, and the median wall time of {REPEATS} calls in "
                       f"each of {ROUNDS} rounds, per k = 2 uniform mixture, the trees taking "
                       "turns family by family; for a discrete family, the tracemalloc peak "
                       f"of its estimator to order {ORDER} on that call's dataset, the "
                       "dataset included",
            "python": platform.python_version(),
            "numpy": __import__("numpy").__version__,
            "machine": platform.machine(),
            "cpus": os.cpu_count(),
            "trees": results,
        }, fh, indent=1)
        fh.write("\n")
    if over:
        sys.exit("\n".join(over))


if __name__ == "__main__":
    main()
