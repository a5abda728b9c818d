"""The four benchmark workloads.

Each ``setup_*`` function takes the workload seed and a scratch directory and
returns one round of ops: a list of ``(run, check)`` pairs, where ``run()``
does the op and ``check(output)`` says whether its output is correct.  A run
repeats whole rounds, so every op input recurs equally often and the share of
failed ops depends on the seed alone.  Ops look mixlearn functions up through
module attributes at call time, so the tracer's wrappers see them.

Why these workloads:

* ``algebraic``: the moment and pmf routes.  Sampling and exact power sums
  take most of an op; Scheffe, TV and file code does not run.  The binomial
  sampler's 10^6 x 10 float matrix sets peak memory.  Three routes in equal
  shares put p50 and p90 inside different routes' latency bands.
* ``mde-discrete``: Poisson minimum-distance estimation with the 630 Scheffe
  sets built once in set-up, as ``run_experiment`` does; the discrete
  Scheffe path carries the load.
* ``simulate-learn``: the ``mixlearn simulate`` then ``mixlearn learn`` flow
  through a dataset file.  The only workload for the CLI, file I/O and the
  continuous Scheffe path; the CLI rebuilds the Scheffe sets in every op, so
  work moved into set-up does not help here.
* ``sweeps``: exhaustive verification (identifiability, Littlewood arc
  maxima, the exact oracle round trip, TV certificates).  Sampling does no
  work, and the seed does not change the inputs.
"""

from __future__ import annotations

import ast
import contextlib
import io
import os
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import mixlearn as mx
import mixlearn.cli
import mixlearn.fileio
from mixlearn.littlewood import all_coefficient_rows

ROOT = Path(__file__).resolve().parent.parent


def _recovers(truth):
    return lambda result: result.recovered == truth


def setup_algebraic(seed, tmpdir):
    binomial = mx.ParameterGrid(mx.Family.BINOMIAL_P, Fraction(1, 2), 0, 2)
    geometric_u = mx.ParameterGrid(mx.Family.GEOMETRIC_U, Fraction(1), 0, 3)
    geometric_p = mx.ParameterGrid(mx.Family.GEOMETRIC_P, Fraction(1, 4), 1, 4)
    routes = (
        (mx.uniform_spec(binomial, (1, 2), mx.SharedParams(n=10)), (1, 2),
         lambda data: mx.learn_binomial_moments(data, 10, Fraction(1, 2), 2)),
        (mx.uniform_spec(geometric_u, (0, 2)), (0, 2),
         lambda data: mx.learn_geometric(data, geometric_u, 2, "moments")),
        (mx.uniform_spec(geometric_p, (1, 3)), (1, 3),
         lambda data: mx.learn_geometric(data, geometric_p, 2, "pmf")),
    )

    def op(stream):
        spec, truth, learn = routes[stream % len(routes)]
        return (lambda: learn(mx.sample(spec, 10**6, seed, stream)), _recovers(truth))

    return [op(stream) for stream in range(24)]


def setup_mde_discrete(seed, tmpdir):
    grid = mx.ParameterGrid(mx.Family.POISSON, 1, 0, 8)
    spec = mx.uniform_spec(grid, (1, 4))
    precomputed = mx.precompute_mde(mx.candidate_family(grid, 2))

    def op(stream):
        def run():
            data = mx.sample(spec, 50_000, seed, stream)
            return mx.learn_mde(data, mx.Family.POISSON, grid, 2, precomputed=precomputed)
        return run, _recovers((1, 4))

    return [op(stream) for stream in range(20)]


def setup_simulate_learn(seed, tmpdir):
    grid = mx.ParameterGrid(mx.Family.GAUSSIAN, 1, 0, 2)
    spec_path = os.path.join(tmpdir, "spec.txt")
    data_path = os.path.join(tmpdir, "data.txt")
    mixlearn.fileio.write_spec(
        spec_path, mx.uniform_spec(grid, (0, 2), mx.SharedParams(sigma=1.0)))
    learn = ["learn", "--method", "mde", "--family", "gaussian", "--k", "2",
             "--data", data_path, "--max-index", "2", "--sigma", "1.0",
             "--truth", "0,2"]

    def op(stream):
        simulate = ["simulate", "--spec", spec_path, "--samples", "50000",
                    "--seed", str(seed), "--stream", str(stream), "--out", data_path]

        def run():
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                codes = (mixlearn.cli.cli_dispatch(simulate),
                         mixlearn.cli.cli_dispatch(learn))
            return codes, out.getvalue()

        def check(output):
            codes, text = output
            return codes == (0, 0) and "success=true" in text.splitlines()

        return run, check

    return [op(stream) for stream in range(12)]


def littlewood_snapshot():
    """LITTLEWOOD_SNAPSHOT as frozen in the acceptance suite, read without
    importing the test module."""
    tree = ast.parse((ROOT / "tests" / "test_acceptance.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            getattr(t, "id", None) == "LITTLEWOOD_SNAPSHOT" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise LookupError("LITTLEWOOD_SNAPSHOT not found in tests/test_acceptance.py")


def _theorem_holds(report):
    return report.T_minimal <= report.T_theorem and (
        report.collision is None or report.collision[2] < report.T_theorem
    )


def setup_sweeps(seed, tmpdir):
    rows = all_coefficient_rows(10)  # a subset of the length-12 frozen sweep
    snapshot = littlewood_snapshot()
    oracle_grid = mx.ParameterGrid(mx.Family.BINOMIAL_P, Fraction(1, 8), 0, 8)
    poisson = mx.ParameterGrid(mx.Family.POISSON, 1, 0, 5)
    gaussian = mx.ParameterGrid(mx.Family.GAUSSIAN, 1, 0, 4)
    sigma = mx.SharedParams(sigma=1.0)
    tv_pairs = (
        (mx.uniform_spec(poisson, (1, 4)), mx.uniform_spec(poisson, (2, 3))),
        (mx.uniform_spec(gaussian, (0, 3), sigma), mx.uniform_spec(gaussian, (1, 2), sigma)),
    )

    subsets = (
        lambda: (mx.verify_identifiability(14, mode="sets"),
                 mx.verify_identifiability(8, mode="sets")),
        lambda reports: all(map(_theorem_holds, reports)) and reports[1].T_minimal == 3,
    )
    multisets = (
        lambda: mx.verify_identifiability(7, q=3, mode="multisets"),
        _theorem_holds,
    )

    def littlewood(L):
        return (lambda: float(mx.arc_max_batch(rows, L, resolution=512).min()),
                lambda minimum: minimum >= snapshot[L])

    def oracle_round_trip():
        results = []
        for idx in combinations(oracle_grid.indices(), 2):
            spec = mx.uniform_spec(oracle_grid, idx, mx.SharedParams(n=32))
            results.append(mx.learn_binomial_moments(
                None, 32, Fraction(1, 8), 2, oracle_spec=spec, truth=idx))
        return results

    oracle = (oracle_round_trip, lambda results: all(r.exact_match for r in results))

    def certificates():
        return [(mx.tv_exact(a, b), mx.tv_lower_bound_charfn(a, b, L=1.0))
                for a, b in tv_pairs]

    tv = (certificates,
          lambda pairs: all(cert.value <= interval.hi + 1e-12 for interval, cert in pairs))

    ops = []
    for L in (1.0, 2.0, 3.0):
        ops += [subsets, multisets, littlewood(L), oracle, tv]
    return ops


SETUPS = {
    "algebraic": setup_algebraic,
    "mde-discrete": setup_mde_discrete,
    "simulate-learn": setup_simulate_learn,
    "sweeps": setup_sweeps,
}
