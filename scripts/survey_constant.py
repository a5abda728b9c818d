"""Measure the constant c of the separation law on Poisson grids.

The analytic route rests on distinct k-sparse Poisson mixtures with rates
<= N staying at least k^-1 exp(-c N^(1/3)) apart in TV.  This runs
``separation_survey`` on the grid {0..N} at its default L and tolerance for
k = 2, N = 5..35 and k = 3, N = 5..15, and writes each survey's pair count,
wall time, least certified TV (``min_tv_lo``), implied c and least
characteristic-function lower bound (``min_charfn_bound``) to a JSON file.

    PYTHONPATH=src python scripts/survey_constant.py [BENCH_survey.json]
"""

import json
import os
import platform
import sys
import time

import numpy as np

from mixlearn import Family, ParameterGrid, SharedParams, separation_survey

RUNS = [(2, N) for N in range(5, 36)] + [(3, N) for N in range(5, 16)]


def main() -> None:
    path = sys.argv[1] if len(sys.argv) > 1 else "BENCH_survey.json"
    surveys = []
    for k, N in RUNS:
        grid = ParameterGrid(Family.POISSON, 1, 0, N)
        t0 = time.perf_counter()
        summary = separation_survey(Family.POISSON, SharedParams(), grid, k)
        wall = time.perf_counter() - t0
        surveys.append({
            "family": Family.POISSON.value, "k": k, "N": N,
            "pairs": len(summary.rows), "L": summary.L, "tol": 1e-9,
            "wall_s": round(wall, 4),
            "min_tv_lo": summary.min_tv_lo,
            "implied_constant": summary.implied_constant,
            "min_charfn_bound": min(r.charfn_bound for r in summary.rows),
        })
        print(f"k={k} N={N} pairs={len(summary.rows)} {wall:.2f}s "
              f"min_tv_lo={summary.min_tv_lo:.6g} c={summary.implied_constant:.4f}",
              flush=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({
            "claim": "min TV >= k^-1 exp(-c N^(1/3)) over distinct k-sparse "
                     "Poisson mixtures with rates in {0..N}",
            "python": platform.python_version(),
            "numpy": np.__version__,
            "machine": platform.machine(),
            "cpus": os.cpu_count(),
            "surveys": surveys,
        }, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
