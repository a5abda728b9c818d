"""Acceptance suite: eleven end-to-end criteria, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines as they
complete.  Statistical criteria use frozen seeds; the thresholds were set by
simulation before freezing and every run is bit-reproducible.
"""

import cmath
import math
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

import mixlearn as mx
from mixlearn.littlewood import all_coefficient_rows, arc_max_batch
from mixlearn.powersums import power_sum_signature
from mixlearn.tv import g_transform

# np.trapezoid is NumPy >= 2.0 and np.trapz is gone from 2.4 on
trapezoid = getattr(np, "trapezoid", None) or np.trapz

# minimum grid-evaluated arc maximum over all nonzero {-1,0,1} vectors of
# length <= 12, from the one-time exhaustive sweep (scripts/littlewood_oracle.py,
# resolution 4096): 1.0, 1.0, 0.7380174...; frozen with a safety margin that
# the coarser regression grid still clears.
LITTLEWOOD_SNAPSHOT = {1.0: 0.9999999, 2.0: 0.9999999, 3.0: 0.738}


def _report(num: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"criterion {num:02d} {name}: {status}{suffix}")
    assert ok, f"criterion {num} {name} failed{suffix}"


def test_criterion_01_exact_pipeline_round_trip():
    failures = 0
    total = 0
    for m in range(2, 9):  # p-grids 0, 1/m, ..., 1 with m + 1 <= 9 points
        eps = Fraction(1, m)
        grid = mx.ParameterGrid(mx.Family.BINOMIAL_P, eps, 0, m)
        shared = mx.SharedParams(n=8)
        for k in (1, 2, 3):
            for idx in combinations(grid.indices(), k):
                spec = mx.uniform_spec(grid, idx, shared)
                r = mx.learn_binomial_moments(
                    None, 8, eps, k, oracle_spec=spec, truth=idx, T=k
                )
                total += 1
                failures += not r.exact_match
    for m in (1, 2, 4):  # u-grids over 9 indices
        grid = mx.ParameterGrid(mx.Family.GEOMETRIC_U, Fraction(1, m), 0, 8)
        for k in (1, 2, 3):
            for idx in combinations(grid.indices(), k):
                spec = mx.uniform_spec(grid, idx)
                r = mx.learn_geometric(
                    None, grid, k, "moments", oracle_spec=spec, truth=idx, T=k
                )
                total += 1
                failures += not r.exact_match
    _report(1, "exact-pipeline-round-trip", failures == 0,
            f"{total - failures}/{total} exact")


def test_criterion_02_subset_identifiability():
    collisions = []
    for n in range(1, 17):
        report = mx.verify_identifiability(n, mode="sets")
        if report.T_minimal > report.T_theorem or (
            report.collision is not None
            and report.collision[2] >= report.T_theorem
        ):
            collisions.append(n)
    _report(2, "subset-identifiability", not collisions,
            f"n up to 16, collisions at {collisions or 'none'}")


def test_criterion_03_multiset_identifiability():
    collisions = []
    for n in range(1, 9):
        report = mx.verify_identifiability(n, q=3, mode="multisets")
        if report.T_minimal > report.T_theorem or (
            report.collision is not None
            and report.collision[2] >= report.T_theorem
        ):
            collisions.append(n)
    _report(3, "multiset-identifiability", not collisions,
            f"n up to 8 at q=3, collisions at {collisions or 'none'}")


def test_criterion_04_prouhet_tightness():
    a, b = (0, 3, 5, 6), (1, 2, 4, 7)
    sig_a = power_sum_signature(a, 3)
    sig_b = power_sum_signature(b, 3)
    shared = sig_a[:3] == sig_b[:3] == (4, 14, 70)
    differs = (sig_a[3], sig_b[3]) == (368, 416)
    report = mx.verify_identifiability(8, mode="sets")
    _report(4, "prouhet-tightness", shared and differs and report.T_minimal >= 3,
            f"m_3 = {sig_a[3]} vs {sig_b[3]}, T_minimal = {report.T_minimal}")


def test_criterion_05_tv_ordering_chain():
    grid = mx.ParameterGrid(mx.Family.POISSON, 1, 0, 5)
    subsets = list(combinations(range(6), 2))
    violations = 0
    pairs = 0
    for ia, ib in combinations(range(len(subsets)), 2):
        a = mx.uniform_spec(grid, subsets[ia])
        b = mx.uniform_spec(grid, subsets[ib])
        interval = mx.tv_exact(a, b)
        cert = mx.tv_lower_bound_charfn(a, b, L=1.0)
        pairs += 1
        violations += not cert.value <= interval.hi + 1e-12
    self_spec = mx.uniform_spec(grid, (1, 4))
    self_ok = mx.tv_exact(self_spec, self_spec).hi <= 1e-9
    _report(5, "tv-ordering-chain", violations == 0 and self_ok,
            f"{pairs} pairs, {violations} violations")


def test_criterion_06_g_transform_identities():
    worst = 0.0
    # Gaussian: numeric integral of the density against e^(itx)
    for mu in range(5):
        for t in (0.1, 0.3, 0.7, 1.0, 1.5):
            g = g_transform(mx.Family.GAUSSIAN, mx.SharedParams(sigma=1.0), t)
            xs = np.linspace(mu - 12.0, mu + 12.0, 200_001)
            dens = np.exp(-0.5 * (xs - mu) ** 2) / math.sqrt(2.0 * math.pi)
            total = trapezoid(dens * np.exp(1j * t * xs), xs)
            worst = max(worst, abs(total - g.expected(mu)))
    # Poisson: truncated pmf sum
    for lam in range(1, 6):
        for t in (0.1, 0.3, 0.7, 1.0, 1.5):
            g = g_transform(mx.Family.POISSON, mx.SharedParams(), t)
            total = sum(
                math.exp(-lam + x * math.log(lam) - math.lgamma(x + 1))
                * g.evaluate(x)
                for x in range(120)
            )
            worst = max(worst, abs(total - g.expected(lam)))
    # chi-squared: integral after x = y^2, which removes the dof-1 singularity
    for dof in range(1, 6):
        for t in (0.05, 0.1, 0.2, 0.3, 0.5):
            g = g_transform(mx.Family.CHI_SQUARED, mx.SharedParams(), t)
            s = 0.5 - 0.5 * cmath.exp(-2j * t)
            ys = np.linspace(1e-12, 40.0, 400_001)
            integrand = (
                2.0 * ys ** (dof - 1)
                * np.exp(-(0.5 - s) * ys**2)
                / (2 ** (dof / 2.0) * math.gamma(dof / 2.0))
            )
            total = trapezoid(integrand, ys)
            worst = max(worst, abs(total - g.expected(dof)))
    # negative binomial: truncated sum inside the convergence arc |p w_t| < 1
    p = 0.5
    for r in range(1, 6):
        for t in (0.1, 0.3, 0.5, 0.7, 0.9):
            g = g_transform(mx.Family.NEG_BINOMIAL,
                            mx.SharedParams(p=Fraction(1, 2)), t)
            total = sum(
                math.comb(x + r - 1, x) * (1 - p) ** r * p**x * g.evaluate(x)
                for x in range(600)
            )
            worst = max(worst, abs(total - g.expected(r)))
    _report(6, "g-transform-identities", worst <= 1e-6,
            f"worst deviation {worst:.2e}")


def test_criterion_07_littlewood_regression():
    rows = all_coefficient_rows(12)
    ok = True
    details = []
    for L, snapshot in LITTLEWOOD_SNAPSHOT.items():
        minimum = float(arc_max_batch(rows, L, resolution=512).min())
        details.append(f"L={L:g}: {minimum:.6f} >= {snapshot}")
        ok = ok and minimum >= snapshot
    _report(7, "littlewood-regression", ok, "; ".join(details))


def test_criterion_08_sampled_binomial_learning():
    eps = Fraction(1, 2)
    grid = mx.ParameterGrid(mx.Family.BINOMIAL_P, eps, 0, 2)
    spec = mx.uniform_spec(grid, (1, 2), mx.SharedParams(n=10))
    successes = 0
    for trial in range(20):
        data = mx.sample(spec, 10**6, seed=123, stream=trial)
        try:
            r = mx.learn_binomial_moments(data, 10, eps, 2, truth=(1, 2))
            successes += bool(r.exact_match)
        except mx.MixlearnError:
            pass
    _report(8, "sampled-binomial-learning", successes >= 18,
            f"{successes}/20 exact recoveries")


def test_criterion_09_poisson_mde():
    grid = mx.ParameterGrid(mx.Family.POISSON, 1, 0, 5)
    spec = mx.uniform_spec(grid, (1, 4))
    candidates = mx.candidate_family(grid, 2)
    pre = mx.precompute_mde(candidates)
    successes = 0
    for trial in range(20):
        data = mx.sample(spec, 50_000, seed=321, stream=trial)
        r = mx.learn_mde(data, mx.Family.POISSON, grid, 2,
                         precomputed=pre, truth=(1, 4))
        successes += bool(r.exact_match)
    _report(9, "poisson-mde", successes >= 19,
            f"{successes}/20 exact recoveries over {len(candidates)} candidates")


def test_criterion_10_gaussian_mde():
    grid = mx.ParameterGrid(mx.Family.GAUSSIAN, 1, 0, 4)
    shared = mx.SharedParams(sigma=1.0)
    spec = mx.uniform_spec(grid, (0, 3), shared)
    candidates = mx.candidate_family(grid, 2, shared)
    pre = mx.precompute_mde(candidates)
    successes = 0
    for trial in range(20):
        data = mx.sample(spec, 100_000, seed=555, stream=trial)
        r = mx.learn_mde(data, mx.Family.GAUSSIAN, grid, 2, shared,
                         precomputed=pre, truth=(0, 3))
        successes += bool(r.exact_match)
    _report(10, "gaussian-mde", successes >= 18,
            f"{successes}/20 exact recoveries")


def test_criterion_11_planner_fidelity():
    checks = []

    def chebyshev_binomial(n, eps, k, T, ell):
        gamma = eps**ell / (2 * k)
        return math.ceil(gamma**-2 * n ** (2 * ell) * 9 ** (1 + T - ell))

    grid = mx.ParameterGrid(mx.Family.BINOMIAL_P, Fraction(1, 2), 0, 2)
    plan = mx.plan_samples(mx.Family.BINOMIAL_P, 2, grid,
                           mx.SharedParams(n=10), 2, "chebyshev")
    checks.append(plan.per_moment[0].samples == 518_400)
    checks.append(
        plan.per_moment[1].samples == chebyshev_binomial(10, Fraction(1, 2), 2, 2, 2)
    )
    grid1 = mx.ParameterGrid(mx.Family.BINOMIAL_P, Fraction(1), 0, 1)
    plan1 = mx.plan_samples(mx.Family.BINOMIAL_P, 1, grid1,
                            mx.SharedParams(n=5), 1, "chebyshev")
    checks.append(plan1.per_moment[0].samples == 4 * 25 * 9)

    def chebyshev_geometric(p_min, eps, k, T, ell):
        gamma = eps**ell / (2 * k)
        return math.ceil(
            2 * gamma**-2 * (4 * ell / p_min) ** (2 * ell + 1) * 9 ** (1 + T - ell)
        )

    ugrid = mx.ParameterGrid(mx.Family.GEOMETRIC_U, Fraction(1, 2), 0, 4)
    uplan = mx.plan_samples(mx.Family.GEOMETRIC_U, 2, ugrid,
                            mx.SharedParams(), 2, "chebyshev")
    p_min = Fraction(1, 3)
    for ell in (1, 2):
        checks.append(
            uplan.per_moment[ell - 1].samples
            == chebyshev_geometric(p_min, Fraction(1, 2), 2, 2, ell)
        )
    ugrid1 = mx.ParameterGrid(mx.Family.GEOMETRIC_U, Fraction(1), 0, 1)
    uplan1 = mx.plan_samples(mx.Family.GEOMETRIC_U, 1, ugrid1,
                             mx.SharedParams(), 1, "chebyshev")
    checks.append(uplan1.per_moment[0].samples == 2 * 4 * 8**3 * 9)

    def chernoff_pmf(eps, k, T, ell):
        gamma = eps ** (ell + 1) / (2 * k)
        return math.ceil(
            3 * float(gamma) ** -2 * math.log(2 * 9 ** (1 + T - ell))
        )

    pgrid = mx.ParameterGrid(mx.Family.GEOMETRIC_P, Fraction(1, 4), 0, 4)
    pplan = mx.plan_samples(mx.Family.GEOMETRIC_P, 2, pgrid,
                            mx.SharedParams(), 2, "chernoff")
    for ell in (0, 1, 2):
        checks.append(
            pplan.per_moment[ell].samples == chernoff_pmf(Fraction(1, 4), 2, 2, ell)
        )
    _report(11, "planner-fidelity", all(checks),
            f"{sum(checks)}/{len(checks)} instances exact")
