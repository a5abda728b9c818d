import csv
import io
import math
import tracemalloc
from fractions import Fraction
from itertools import combinations, combinations_with_replacement

import pytest
from hypothesis import given, settings, strategies as st

from mixlearn import (
    AmbiguityError,
    CapExceededError,
    ContractError,
    DegeneracyError,
    Family,
    MomentInconsistencyError,
    ParameterGrid,
    SharedParams,
    log_of_theorem_bound,
    mixture_moment_exact,
    moments_to_power_sums,
    newton_to_elementary,
    pmf_to_power_sums,
    power_sum_signature,
    reconstruct_multiset,
    uniform_spec,
    verify_identifiability,
)
from mixlearn.polynomials import compose_affine, moment_polynomial
from mixlearn.powersums import (
    ENUMERATION_CAP,
    IdentifiabilityReport,
    PowerSumVector,
    _digit_multiplicities,
    _object_at,
    _positional_power_sums,
    _refine,
    _signature_csv,
    _solve_coefficients,
)
import numpy as np


def test_power_sum_signature():
    assert power_sum_signature((1, 4), 3) == (2, 5, 17, 65)
    assert power_sum_signature((), 2) == (0, 0, 0)


@given(st.lists(st.integers(min_value=0, max_value=9), min_size=1, max_size=4))
def test_newton_round_trip(multiset):
    k = len(multiset)
    m = PowerSumVector(power_sum_signature(sorted(multiset), k))
    e = newton_to_elementary(m)
    # elementary symmetric values match the direct expansion
    for ell in range(1, k + 1):
        direct = sum(
            math.prod(c) for c in combinations(sorted(multiset), ell)
        )
        assert e[ell - 1] == direct
    assert reconstruct_multiset(m, range(0, 10)) == tuple(sorted(multiset))


@given(st.lists(st.integers(min_value=0, max_value=9), min_size=1, max_size=4),
       st.integers(min_value=0, max_value=100))
def test_reconstruction_permutation_invariance(multiset, seed):
    import random

    shuffled = list(multiset)
    random.Random(seed).shuffle(shuffled)
    k = len(multiset)
    a = PowerSumVector(power_sum_signature(multiset, k))
    b = PowerSumVector(power_sum_signature(shuffled, k))
    assert a == b
    assert reconstruct_multiset(a, range(0, 10)) == tuple(sorted(multiset))


def test_moments_to_power_sums_binomial_exact():
    grid = ParameterGrid(Family.BINOMIAL_P, Fraction(1, 2), 0, 2)
    shared = SharedParams(n=10)
    spec = uniform_spec(grid, (1, 2), shared)
    moments = [mixture_moment_exact(spec, ell) for ell in range(4)]
    psums, residuals = moments_to_power_sums(
        moments, Family.BINOMIAL_P, shared, grid, 2
    )
    assert psums.values == (2, 3, 5, 9)
    assert all(r == 0 for r in residuals)


def test_moments_to_power_sums_geometric_u_exact():
    grid = ParameterGrid(Family.GEOMETRIC_U, Fraction(1, 2), 0, 6)
    spec = uniform_spec(grid, (0, 2, 5))
    moments = [mixture_moment_exact(spec, ell) for ell in range(4)]
    psums, _ = moments_to_power_sums(
        moments, Family.GEOMETRIC_U, SharedParams(), grid, 3
    )
    assert psums.values == (3, 7, 29, 133)


def test_moments_to_power_sums_rejects_inconsistency():
    grid = ParameterGrid(Family.BINOMIAL_P, Fraction(1, 2), 0, 2)
    shared = SharedParams(n=10)
    spec = uniform_spec(grid, (1, 2), shared)
    moments = [mixture_moment_exact(spec, ell) for ell in range(4)]
    # shift m_2 by k * delta / ((n)_2 eps^2) = 2 * (7/2) / 22.5 ~ 0.31 > 1/4
    moments[2] += Fraction(7, 2)
    with pytest.raises(MomentInconsistencyError):
        moments_to_power_sums(moments, Family.BINOMIAL_P, shared, grid, 2)


def test_moments_to_power_sums_truncates_high_orders_when_asked():
    grid = ParameterGrid(Family.BINOMIAL_P, Fraction(1, 2), 0, 2)
    shared = SharedParams(n=10)
    spec = uniform_spec(grid, (1, 2), shared)
    moments = [mixture_moment_exact(spec, ell) for ell in range(4)]
    # shift m_3 by k * delta / ((n)_3 eps^3) = 2 * 18 / 90 = 0.4 > 1/4
    moments[3] += 18
    psums, _ = moments_to_power_sums(
        moments, Family.BINOMIAL_P, shared, grid, 2, truncate_after=2
    )
    assert psums.values == (2, 3, 5)  # order 3 dropped, not fatal


def test_moments_to_power_sums_degenerate_trial_count():
    grid = ParameterGrid(Family.BINOMIAL_P, Fraction(1, 2), 0, 2)
    with pytest.raises(DegeneracyError):
        moments_to_power_sums(
            [Fraction(1)] * 5, Family.BINOMIAL_P, SharedParams(n=3), grid, 2
        )


def test_pmf_to_power_sums_exact():
    from mixlearn import mixture_pmf_exact

    grid = ParameterGrid(Family.GEOMETRIC_P, Fraction(1, 4), 0, 4)
    spec = uniform_spec(grid, (1, 3))
    probs = [mixture_pmf_exact(spec, x) for x in range(3)]
    psums, _ = pmf_to_power_sums(probs, grid, 2)
    assert psums.values == (2, 4, 10, 28)


def _geometric_p_probs():
    from mixlearn import mixture_pmf_exact

    grid = ParameterGrid(Family.GEOMETRIC_P, Fraction(1, 4), 0, 4)
    spec = uniform_spec(grid, (1, 3))
    return grid, [mixture_pmf_exact(spec, x) for x in range(3)]


def test_pmf_to_power_sums_truncates_high_orders_when_asked():
    grid, probs = _geometric_p_probs()
    # shift m_3 by k * delta / eps^3 = 2 * (1/320) * 64 = 0.4 > 1/4
    probs[2] += Fraction(1, 320)
    psums, residuals = pmf_to_power_sums(probs, grid, 2, truncate_after=2)
    assert psums.values == (2, 4, 10)  # order 3 dropped, not fatal
    assert len(residuals) == 3


def test_pmf_to_power_sums_rejects_inconsistency():
    grid, probs = _geometric_p_probs()
    probs[2] += Fraction(1, 320)
    with pytest.raises(MomentInconsistencyError):
        pmf_to_power_sums(probs, grid, 2)


def test_moments_to_power_sums_rejects_the_pmf_family():
    grid, probs = _geometric_p_probs()
    with pytest.raises(ContractError):
        moments_to_power_sums(
            [Fraction(1)] + probs, Family.GEOMETRIC_P, SharedParams(), grid, 2
        )


def test_small_T_falls_back_to_search_and_detects_ambiguity():
    # Prouhet pair: m_0..m_2 identical for {0,3,5,6} and {1,2,4,7}
    m = PowerSumVector((4, 14, 70))
    with pytest.raises(AmbiguityError) as exc:
        reconstruct_multiset(m, range(0, 8))
    witnesses = set(exc.value.witnesses)
    assert (0, 3, 5, 6) in witnesses and (1, 2, 4, 7) in witnesses


def test_small_T_unique_solution_found():
    m = PowerSumVector((3, 3))  # k=3 summing to 3 over {1}
    assert reconstruct_multiset(m, range(1, 2)) == (1, 1, 1)


def test_theorem_bounds():
    assert log_of_theorem_bound(1, mode="sets") == 4
    assert log_of_theorem_bound(4, mode="sets") == 8
    assert log_of_theorem_bound(8, mode="sets") == 12
    expected = math.ceil(2 * math.sqrt(24 * math.log(24)))
    assert log_of_theorem_bound(8, q=3, mode="multisets") == expected


def test_identifiability_report_names_its_collision():
    assert verify_identifiability(8, T=2).to_report() == (
        "n=8\nq=2\nmode=sets\nobjects=256\nT_theorem=12\nT_minimal=3\n"
        "collision_at_order=2 a=[0, 4, 5] b=[1, 2, 6]\n"
        "note=multiset bound uses the natural logarithm\n"
    )


def test_verify_identifiability_trivial_case():
    report = verify_identifiability(1, mode="sets")
    assert report.T_minimal == 1
    assert report.collision is None
    assert report.object_count == 2


def test_verify_identifiability_prouhet():
    report = verify_identifiability(8, mode="sets")
    assert report.T_minimal >= 3
    assert report.object_count == 256


def test_verify_identifiability_truncated_run_reports_collision():
    report = verify_identifiability(8, mode="sets", T=2)
    assert report.collision is not None
    a, b, order = report.collision
    assert order == 2
    assert power_sum_signature(a, 2) == power_sum_signature(b, 2)


def test_verify_identifiability_multisets_small():
    report = verify_identifiability(4, q=3, mode="multisets")
    assert report.collision is None
    assert report.T_minimal <= report.T_theorem
    assert report.object_count == 3**4


def test_exhaustive_brute_force_matches_signatures():
    # every multiset of size <= 3 over {0..5} reconstructs from k+0 sums
    domain = range(0, 6)
    for k in (1, 2, 3):
        for multiset in combinations_with_replacement(domain, k):
            m = PowerSumVector(power_sum_signature(multiset, k))
            assert reconstruct_multiset(m, domain) == multiset


def test_solve_coefficients_are_shared_integer_compositions():
    shared = SharedParams(n=12)
    den, d = _solve_coefficients(Family.BINOMIAL_P, shared, 0, Fraction(1, 8), 5)
    assert isinstance(d, tuple) and all(type(c) is int for c in d)
    assert [Fraction(c, den) for c in d] == compose_affine(
        moment_polynomial(Family.BINOMIAL_P, shared, 5), 0, Fraction(1, 8))
    assert _solve_coefficients(Family.BINOMIAL_P, shared, 0, Fraction(1, 8), 5)[1] is d


def _reference_objects(n, q, mode):
    """Every object as a tuple, subsets by size in ``combinations`` order,
    multisets in q-ary order."""
    if mode == "sets":
        return [obj for size in range(n + 1) for obj in combinations(range(n), size)]
    objects = [()]
    for v in range(n):
        objects = [obj + (v,) * mult for obj in objects for mult in range(q)]
    return objects


def _reference_identifiability(n, q=2, mode="sets", T=None):
    """The dict-keyed sweep the array refinement replaced: Python tuples in
    ``combinations`` / q-ary order, grouped by size, then split order by
    order on ``sum(v**order)``."""
    T_theorem = log_of_theorem_bound(n, q, mode)
    T_max = T if T is not None else T_theorem
    objects = _reference_objects(n, q, mode)
    groups = {}
    for i, obj in enumerate(objects):
        groups.setdefault((len(obj),), []).append(i)

    def witness(grps):
        for members in grps.values():
            if len(members) > 1:
                return objects[members[0]], objects[members[1]]
        return None

    T_minimal = None
    collision = None
    order = 0
    while order < T_max:
        order += 1
        nxt = {}
        for key, members in groups.items():
            if len(members) == 1:
                nxt[key] = members
                continue
            for i in members:
                sig = key + (sum(v**order for v in objects[i]),)
                nxt.setdefault(sig, []).append(i)
        groups = nxt
        if order == T_theorem - 1:
            pair = witness(groups)
            if pair is not None:
                collision = (pair[0], pair[1], order)
        if T_minimal is None and all(len(v) == 1 for v in groups.values()):
            T_minimal = order
    if T_minimal is None:
        pair = witness(groups)
        if pair is not None:
            collision = (pair[0], pair[1], T_max)
        T_minimal = T_max + 1
    return IdentifiabilityReport(
        n=n, q=q, mode=mode, T_theorem=T_theorem, T_minimal=max(1, T_minimal),
        collision=collision, object_count=len(objects),
    )


IDENTIFIABILITY_CASES = (
    [(n, 2, "sets") for n in range(1, 13)]
    + [(n, q, "multisets") for q in (2, 3, 4) for n in range(1, 7)]
)


@pytest.mark.parametrize("n, q, mode", IDENTIFIABILITY_CASES)
def test_verify_identifiability_matches_the_dict_reference(n, q, mode):
    for T in (None, 1, 2, 3, 4, 5, 6):
        assert verify_identifiability(n, q, mode, T) == _reference_identifiability(
            n, q, mode, T)


@pytest.mark.parametrize("n, q, mode", IDENTIFIABILITY_CASES + [
    (0, 2, "sets"), (14, 2, "sets"), (7, 3, "multisets"), (5, 4, "multisets")])
def test_objects_in_order_follow_the_reference_order(n, q, mode):
    # the audit CSV's lines, as csv.writer writes the reference rows
    buf = io.StringIO()
    csv.writer(buf).writerows(
        (" ".join(map(str, obj)), " ".join(map(str, power_sum_signature(obj, 3))))
        for obj in _reference_objects(n, q, mode))
    assert "".join(_signature_csv(n, q, mode, 3)) == buf.getvalue()


def test_positional_power_sums_past_the_int64_limit():
    n, ell = 12, 18  # 11**18 * 12 > 2**63
    mults = _digit_multiplicities(n, 2, "sets")
    positions = np.array([0, 1, 2**11, 2**12 - 2])
    sums = _positional_power_sums(n, mults, ell, positions)
    assert all(type(s) is int for s in sums)
    assert list(sums) == [
        power_sum_signature(_object_at(n, mults, int(p)), ell)[ell] for p in positions]
    # the int64 path agrees with the signature below the limit
    sums = _positional_power_sums(n, mults, 12, np.arange(2**n))
    assert [int(s) for s in sums] == [
        power_sum_signature(_object_at(n, mults, p), 12)[12] for p in range(2**n)]


def test_refine_splits_by_values_too_wide_for_an_int64_key():
    positions = np.arange(6, dtype=np.int32)
    groups = np.array([0, 0, 0, 1, 1, 1])
    small = np.array([5, 7, 5, 2, 2, 9])
    wide = [2**70 + int(v) for v in small]  # Python ints, as past the int64 limit
    for values in (np.array(wide, dtype=object), np.array([2**62, 0, 2**62, 1, 1, 3])):
        kept, ids = _refine(positions, groups, values)
        assert sorted(zip(ids.tolist(), kept.tolist())) == [(0, 0), (0, 2), (1, 3), (1, 4)]


@pytest.mark.parametrize("n, q, mode", [
    (ENUMERATION_CAP.bit_length(), 2, "sets"),
    (12, 4, "multisets"),
    (10**9, 2, "sets"),
])
def test_over_cap_sweep_raises_before_allocating(n, q, mode):
    tracemalloc.start()
    try:
        with pytest.raises(CapExceededError):
            verify_identifiability(n, q, mode)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20
