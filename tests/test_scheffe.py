import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from mixlearn import (
    CapExceededError,
    ContractError,
    DomainError,
    Family,
    FamilyMismatchError,
    MdeResult,
    ParameterGrid,
    SampleDataset,
    ScheffeSet,
    SharedParams,
    candidate_family,
    empirical_measure,
    mde_select,
    pmf_or_pdf,
    precompute_mde,
    sample,
    scheffe_set,
    set_probability,
    uniform_spec,
)
from mixlearn import tv
from mixlearn.distributions import cdf
from mixlearn.grids import DISCRETE_FAMILIES
from mixlearn.scheffe import MDE_TABLE_CAP, TIE_ULPS, _interval_set, _set_x_max


# The per-item definitions the table routines replaced, kept as the
# reference they must match bit for bit.

def _reference_scheffe_set(a, b, x_max=None, provenance=None):
    """Discrete sets point by point; continuous sets share the crossing and
    probe body of ``scheffe_set``, which has no second implementation."""
    if a.family is not b.family or a.shared != b.shared:
        raise FamilyMismatchError("Scheffe sets need matching families")
    if a.family in DISCRETE_FAMILIES:
        if x_max is None:
            x_max = max(_set_x_max(a), _set_x_max(b))
        pts = tuple(
            x for x in range(x_max + 1) if pmf_or_pdf(a, x) >= pmf_or_pdf(b, x)
        )
        return ScheffeSet(kind="discrete", points=pts, x_max=x_max,
                          provenance=provenance)
    return _interval_set(a, b, provenance)


def _reference_empirical_measure(data, s):
    """Exact fraction of the samples falling in the set."""
    if len(data) == 0:
        raise DomainError("empty dataset")
    vals = data.values
    if s.kind == "discrete":
        if not s.points:
            return Fraction(0)
        lut = np.zeros(s.x_max + 1, dtype=bool)
        lut[list(s.points)] = True
        in_range = vals <= s.x_max
        hits = int(lut[vals[in_range]].sum())
        return Fraction(hits, len(data))
    hits = 0
    xs = np.sort(vals)
    for lo, hi in s.intervals:
        hits += int(np.searchsorted(xs, hi, side="right")
                    - np.searchsorted(xs, lo, side="left"))
    return Fraction(hits, len(data))


def _reference_set_probability(spec, s):
    """The pmf summed in point order, or a sum of CDF differences in
    interval order, by a plain left-to-right float loop."""
    total = 0.0
    if s.kind == "discrete":
        for x in s.points:
            total += pmf_or_pdf(spec, x)
        return total
    for lo, hi in s.intervals:
        hi_v = 1.0 if math.isinf(hi) else cdf(spec, hi)
        lo_v = 0.0 if math.isinf(lo) else cdf(spec, lo)
        total += hi_v - lo_v
    return total


def _poisson(indices, max_index=5):
    return uniform_spec(ParameterGrid(Family.POISSON, 1, 0, max_index), indices)


def _gaussian(indices, sigma=1.0):
    grid = ParameterGrid(Family.GAUSSIAN, 1, 0, 4)
    return uniform_spec(grid, indices, SharedParams(sigma=sigma))


def test_discrete_scheffe_set_pointwise_definition():
    a, b = _poisson((1, 4)), _poisson((2, 3))
    s = scheffe_set(a, b)
    for x in range(s.x_max + 1):
        inside = pmf_or_pdf(a, x) >= pmf_or_pdf(b, x)
        assert (x in s.points) == inside


def test_continuous_scheffe_set_single_crossing():
    a, b = _gaussian((0,)), _gaussian((3,))
    s = scheffe_set(a, b)
    assert s.kind == "intervals"
    assert len(s.intervals) == 1
    lo, hi = s.intervals[0]
    assert math.isinf(lo) and lo < 0
    assert hi == pytest.approx(1.5, abs=1e-6)


def test_identical_candidates_full_support_set():
    a = _gaussian((0, 3))
    s = scheffe_set(a, a)
    assert s.intervals == ((-math.inf, math.inf),)


def test_set_probability_discrete_and_complement():
    a, b = _poisson((1, 4)), _poisson((2, 3))
    s = scheffe_set(a, b)
    pa, pb = set_probability(a, s), set_probability(b, s)
    # by construction P_a(A) - P_b(A) equals the TV up to truncation
    assert pa >= pb
    assert 0.0 <= pa <= 1.0


def test_set_probability_continuous_matches_cdf():
    a, b = _gaussian((0,)), _gaussian((3,))
    s = scheffe_set(a, b)
    assert set_probability(a, s) == pytest.approx(cdf(a, 1.5), abs=1e-9)


def test_empirical_measure_exact_fraction():
    data = SampleDataset(Family.POISSON, np.array([0, 1, 1, 5, 9]))
    a, b = _poisson((1, 4)), _poisson((2, 3))
    s = scheffe_set(a, b)
    mass = empirical_measure(data, s)
    direct = Fraction(
        sum(1 for v in [0, 1, 1, 5, 9] if v <= s.x_max and v in s.points), 5
    )
    assert mass == direct


def test_empirical_measure_intervals():
    data = SampleDataset(Family.GAUSSIAN, np.array([-1.0, 0.2, 1.4, 1.6, 9.0]))
    s = scheffe_set(_gaussian((0,)), _gaussian((3,)))
    assert empirical_measure(data, s) == Fraction(3, 5)


def test_candidate_family_lexicographic_and_cap():
    grid = ParameterGrid(Family.POISSON, 1, 0, 5)
    cands = candidate_family(grid, 2)
    assert len(cands) == 15
    assert cands[0].indices == (0, 1)
    assert cands[-1].indices == (4, 5)
    with pytest.raises(CapExceededError):
        candidate_family(ParameterGrid(Family.POISSON, 1, 0, 400), 3, cap=100)


def test_mde_oracle_mode_selects_truth():
    grid = ParameterGrid(Family.POISSON, 1, 0, 5)
    cands = candidate_family(grid, 2)
    truth = _poisson((1, 4))
    result = mde_select(cands, truth=truth)
    assert cands[result.winner].indices == (1, 4)
    assert result.delta == pytest.approx(0.0, abs=1e-12)


def test_mde_sampled_mode_with_precompute():
    grid = ParameterGrid(Family.POISSON, 1, 0, 5)
    cands = candidate_family(grid, 2)
    pre = precompute_mde(cands)
    truth = _poisson((1, 4))
    data = sample(truth, 50_000, seed=41)
    r1 = mde_select(cands, data=data, precomputed=pre)
    r2 = mde_select(cands, data=data)
    assert cands[r1.winner].indices == (1, 4)
    assert r1.winner == r2.winner
    assert r1.delta == pytest.approx(r2.delta)


def test_mde_requires_exactly_one_of_data_and_truth():
    grid = ParameterGrid(Family.POISSON, 1, 0, 5)
    cands = candidate_family(grid, 2)
    with pytest.raises(ContractError):
        mde_select(cands)


def test_mde_guarantee_factor_on_perturbed_truth():
    # winner's distance to the sampling distribution is within 4*Delta + 3/m
    # of the best candidate (here truth is in the family, Delta ~ 0)
    grid = ParameterGrid(Family.POISSON, 1, 0, 5)
    cands = candidate_family(grid, 2)
    truth = _poisson((1, 4))
    m = 50_000
    data = sample(truth, m, seed=97)
    result = mde_select(cands, data=data)
    assert result.delta <= 4 * 0.0 + 3.0 * math.sqrt(math.log(len(cands)) / m)


def test_gaussian_mde_oracle():
    grid = ParameterGrid(Family.GAUSSIAN, 1, 0, 4)
    shared = SharedParams(sigma=1.0)
    cands = candidate_family(grid, 2, shared)
    result = mde_select(cands, truth=uniform_spec(grid, (0, 3), shared))
    assert cands[result.winner].indices == (0, 3)


def _reference_mde(candidates, data, x_max=None):
    """MDE from the per-set definitions, one set and one candidate at a time."""
    sets = [
        _reference_scheffe_set(candidates[i], candidates[j], x_max=x_max, provenance=(i, j))
        for i in range(len(candidates)) for j in range(i + 1, len(candidates))
    ]
    probs = np.array([[_reference_set_probability(c, s) for s in sets] for c in candidates])
    emp = np.array([float(_reference_empirical_measure(data, s)) for s in sets])
    scores = np.abs(probs - emp[None, :]).max(axis=1)
    order = sorted(range(len(candidates)),
                   key=lambda i: (scores[i], candidates[i].indices))
    assert scores[order[0]] < scores[order[1]]  # no near ties on these inputs
    return sets, probs, MdeResult(
        winner=order[0], delta=float(scores[order[0]]),
        scores=tuple(float(s) for s in scores), tie_broken=False, sets=tuple(sets),
    )


def test_table_mde_matches_per_set_reference_discrete():
    cands = candidate_family(ParameterGrid(Family.POISSON, 1, 0, 5), 2)
    sets, probs = precompute_mde(cands)
    x_max = sets[0].x_max
    # rate-30 component: most samples lie above x_max and fall in no set
    data = sample(uniform_spec(ParameterGrid(Family.POISSON, 1, 0, 30), (2, 30)),
                  5000, seed=3)
    assert data.values.max() > x_max
    ref_sets, ref_probs, ref = _reference_mde(cands, data, x_max)
    assert sets == ref_sets
    assert np.array_equal(probs, ref_probs)
    assert mde_select(cands, data=data, precomputed=(sets, probs)) == ref
    assert mde_select(cands, data=data) == ref


def test_table_mde_matches_per_set_reference_continuous():
    grid = ParameterGrid(Family.GAUSSIAN, 1, 0, 3)
    shared = SharedParams(sigma=1.0)
    cands = candidate_family(grid, 2, shared)
    data = sample(uniform_spec(grid, (0, 3), shared), 20_000, seed=8)
    sets, probs = precompute_mde(cands)
    ref_sets, ref_probs, ref = _reference_mde(cands, data)
    assert sets == ref_sets
    assert np.array_equal(probs, ref_probs)
    assert mde_select(cands, data=data, precomputed=(sets, probs)) == ref


def test_table_mde_accepts_unsigned_discrete_data():
    cands = candidate_family(ParameterGrid(Family.POISSON, 1, 0, 5), 2)
    sets, probs = precompute_mde(cands)
    data = sample(_poisson((1, 4)), 2000, seed=5)
    unsigned = SampleDataset(Family.POISSON, data.values.astype(np.uint64))
    assert unsigned.values.dtype == np.uint64
    assert (mde_select(cands, data=unsigned, precomputed=(sets, probs))
            == mde_select(cands, data=data, precomputed=(sets, probs)))


ORACLE_FAMILIES = {
    Family.POISSON: (ParameterGrid(Family.POISSON, 1, 0, 5), SharedParams()),
    Family.NEG_BINOMIAL: (ParameterGrid(Family.NEG_BINOMIAL, 1, 1, 5),
                          SharedParams(p=Fraction(1, 3))),
    Family.GAUSSIAN: (ParameterGrid(Family.GAUSSIAN, 1, 0, 3), SharedParams(sigma=1.0)),
    Family.CHI_SQUARED: (ParameterGrid(Family.CHI_SQUARED, 1, 2, 5), SharedParams()),
}


@pytest.mark.parametrize("family", sorted(ORACLE_FAMILIES, key=lambda f: f.value))
def test_oracle_mde_matches_per_set_reference(family):
    grid, shared = ORACLE_FAMILIES[family]
    cands = candidate_family(grid, 2, shared)
    sets, probs = precompute_mde(cands)
    for i, j in [(0, 1), (2, len(cands) - 1)]:
        assert (scheffe_set(cands[i], cands[j], provenance=(i, j))
                == _reference_scheffe_set(cands[i], cands[j], provenance=(i, j)))
    for truth in cands:
        emp = np.array([_reference_set_probability(truth, s) for s in sets])
        scores = np.abs(probs - emp[None, :]).max(axis=1)
        result = mde_select(cands, truth=truth, precomputed=(sets, probs))
        assert repr(result.scores) == repr(tuple(float(x) for x in scores))
        assert cands[result.winner] == truth and result.delta == 0.0
        for s in sets[:10]:
            assert repr(set_probability(truth, s)) == repr(_reference_set_probability(truth, s))


def test_empirical_measure_matches_reference_on_unsigned_and_large_values():
    cands = candidate_family(ParameterGrid(Family.POISSON, 1, 0, 5), 2)
    sets, _ = precompute_mde(cands)
    # rate-30 component: most samples lie above x_max
    data = sample(uniform_spec(ParameterGrid(Family.POISSON, 1, 0, 30), (2, 30)),
                  3000, seed=11)
    assert data.values.max() > sets[0].x_max
    unsigned = SampleDataset(Family.POISSON, data.values.astype(np.uint64))
    assert unsigned.values.dtype == np.uint64
    for values in (data, unsigned):
        for s in sets:
            assert empirical_measure(values, s) == _reference_empirical_measure(values, s)


def test_mde_refuses_a_dataset_of_another_family():
    poisson = candidate_family(ParameterGrid(Family.POISSON, 1, 0, 2), 2)
    gaussian = candidate_family(ParameterGrid(Family.GAUSSIAN, 1, 0, 4), 2,
                                SharedParams(sigma=1.0))
    poisson_data = sample(_poisson((1, 2)), 2000, seed=1)
    # nonnegative, so the discrete histogram would take it
    gaussian_data = SampleDataset(Family.GAUSSIAN,
                                  np.abs(sample(_gaussian((1, 2)), 2000, seed=1).values))
    negbin_data = SampleDataset(Family.NEG_BINOMIAL, poisson_data.values)
    # without the family check each of these returned a winner
    for cands, data in ((poisson, gaussian_data), (gaussian, poisson_data),
                        (poisson, negbin_data)):
        with pytest.raises(DomainError, match="dataset family"):
            mde_select(cands, data=data)
    # sets of the other kind, handed in as a precomputed table
    with pytest.raises(DomainError, match="another kind"):
        mde_select(poisson, data=poisson_data, precomputed=precompute_mde(gaussian[:3]))


def test_mde_refuses_a_truth_of_another_family():
    poisson = candidate_family(ParameterGrid(Family.POISSON, 1, 0, 2), 2)
    gaussian = candidate_family(ParameterGrid(Family.GAUSSIAN, 1, 0, 4), 2,
                                SharedParams(sigma=1.0))
    negbin = uniform_spec(ParameterGrid(Family.NEG_BINOMIAL, 1, 1, 3), (1, 2),
                          SharedParams(p=Fraction(1, 3)))
    for cands, truth in ((poisson, negbin), (poisson, _gaussian((1, 2))),
                         (gaussian, _gaussian((1, 2), sigma=0.5))):
        with pytest.raises(FamilyMismatchError):
            mde_select(cands, truth=truth)


def test_set_measures_refuse_the_other_kind_of_set():
    discrete = scheffe_set(_poisson((1, 4)), _poisson((2, 3)))
    intervals = scheffe_set(_gaussian((0,)), _gaussian((3,)))
    # without the kind checks the first returned 0.379 and the third raised
    # a bare IndexError
    with pytest.raises(FamilyMismatchError):
        set_probability(_gaussian((0, 3)), discrete)
    with pytest.raises(FamilyMismatchError):
        set_probability(_poisson((1, 4)), intervals)
    with pytest.raises(DomainError):
        empirical_measure(sample(_gaussian((0, 3)), 100, seed=2), discrete)
    with pytest.raises(DomainError):
        empirical_measure(sample(_poisson((1, 4)), 100, seed=2), intervals)


def test_discrete_sets_are_bounded(monkeypatch):
    assert ScheffeSet(kind="discrete", points=(0, 3), x_max=3).points == (0, 3)
    for points, x_max in (((), -1), ((0, 4), 3), ((-1, 2), 3)):
        with pytest.raises(DomainError):
            ScheffeSet(kind="discrete", points=points, x_max=x_max)
    a, b = _poisson((1, 4)), _poisson((2, 3))
    with pytest.raises(DomainError):
        scheffe_set(a, b, x_max=-3)
    with pytest.raises(DomainError):
        tv.mass_table([a, b], -1)
    calls = []
    monkeypatch.setattr(tv, "pmf_or_pdf",
                        lambda spec, x: calls.append(x) or pmf_or_pdf(spec, x))
    with pytest.raises(CapExceededError):
        scheffe_set(a, b, x_max=tv.MASS_TABLE_CAP)
    assert calls == []
    assert scheffe_set(a, b, x_max=3) == _reference_scheffe_set(a, b, x_max=3)
    assert len(calls) == 8


def test_mde_scores_one_ulp_apart_tie_by_index_order():
    cands = candidate_family(ParameterGrid(Family.POISSON, 1, 0, 5), 2)
    sets, _ = precompute_mde(cands)
    # every sample lies above x_max, so every empirical set measure is 0 and
    # each candidate's score is the largest entry of its probability row
    data = SampleDataset(Family.POISSON, np.array([1000, 1000]))
    probs = np.full((len(cands), len(sets)), 0.5)
    probs[7] = 0.25                         # candidate (1, 4)
    probs[2] = np.nextafter(0.25, 1.0)      # candidate (0, 3): one ulp more
    result = mde_select(cands, data=data, precomputed=(sets, probs))
    assert cands[result.winner].indices == (0, 3)
    assert result.tie_broken
    assert result.delta == result.scores[result.winner] == np.nextafter(0.25, 1.0)
    # beyond the tolerance the lower score wins outright
    probs[2] = 0.25 + 2 * TIE_ULPS * np.finfo(float).eps
    result = mde_select(cands, data=data, precomputed=(sets, probs))
    assert cands[result.winner].indices == (1, 4)
    assert not result.tie_broken
    assert result.delta == 0.25


def test_chi_squared_precompute_probes_inside_the_support():
    grid = ParameterGrid(Family.CHI_SQUARED, 1, 2, 6)
    candidates = candidate_family(grid, 2)
    sets, probs = precompute_mde(candidates)
    assert len(sets) == 45 and probs.shape == (10, 45)
    # some first crossing lies below 1, where the old probe c1 - 1 left [0, inf)
    assert min(s.intervals[0][1] for s in sets if s.intervals) < 1.0
    for s in sets:
        a, b = (candidates[i] for i in s.provenance)
        crossings = sorted({e for iv in s.intervals for e in iv if math.isfinite(e)})
        edges = [0.0] + crossings + [crossings[-1] + 2.0 if crossings else 1.0]
        for lo, hi in zip(edges, edges[1:]):
            mid = 0.5 * (lo + hi)
            inside = any(l <= mid <= h for l, h in s.intervals)
            assert inside == (pmf_or_pdf(a, mid) >= pmf_or_pdf(b, mid))


def test_binomial_scheffe_sets_stop_at_trial_count():
    grid = ParameterGrid(Family.BINOMIAL_P, Fraction(1, 4), 0, 4)
    candidates = candidate_family(grid, 2, SharedParams(n=10))
    sets, probs = precompute_mde(candidates)
    assert all(s.x_max == 10 for s in sets)
    pair = scheffe_set(candidates[0], candidates[1], provenance=(0, 1))
    assert pair == sets[0]
    assert np.array_equal(probs[:, 0], [set_probability(c, pair) for c in candidates])
    spec = uniform_spec(grid, (1, 3), SharedParams(n=10))
    result = mde_select(candidates, data=sample(spec, 20_000, seed=4), precomputed=(sets, probs))
    assert candidates[result.winner].indices == (1, 3)


def test_precompute_refuses_an_oversize_table_before_building_it():
    # 322 candidates fill 16,641,282 of the 2**24 entries; 323 make 16,796,969
    assert 322 * (322 * 321 // 2) <= MDE_TABLE_CAP < 323 * (323 * 322 // 2)
    candidates = candidate_family(ParameterGrid(Family.POISSON, 1, 0, 322), 1)
    assert len(candidates) == 323
    tracemalloc.start()
    try:
        with pytest.raises(CapExceededError, match="323 candidates"):
            precompute_mde(candidates)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20  # the 52,003 pairs alone would take several MB
