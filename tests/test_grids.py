import pickle
from fractions import Fraction

import numpy as np
import pytest

from mixlearn import (
    DomainError,
    ContractError,
    Family,
    MixtureSpec,
    ParameterGrid,
    SharedParams,
    uniform_spec,
)


def test_binomial_p_grid_values():
    grid = ParameterGrid(Family.BINOMIAL_P, Fraction(1, 2), 0, 2)
    assert [grid.value(i) for i in grid.indices()] == [
        Fraction(0), Fraction(1, 2), Fraction(1)
    ]
    assert grid.size == 3
    assert grid.inverse_step_integral


def test_geometric_u_grid_values():
    grid = ParameterGrid(Family.GEOMETRIC_U, Fraction(1, 4), 0, 8)
    assert grid.value(0) == 1
    assert grid.value(4) == 2
    assert grid.value(8) == 3


def test_unit_step_families_reject_other_steps():
    with pytest.raises(DomainError):
        ParameterGrid(Family.POISSON, Fraction(1, 2), 0, 5)
    grid = ParameterGrid(Family.POISSON, 1, 0, 5)
    assert grid.value(3) == 3


def test_probability_grid_cannot_exceed_one():
    with pytest.raises(DomainError):
        ParameterGrid(Family.BINOMIAL_P, Fraction(1, 2), 0, 3)


def test_chi_squared_grid_starts_at_one():
    with pytest.raises(DomainError):
        ParameterGrid(Family.CHI_SQUARED, 1, 0, 4)
    grid = ParameterGrid(Family.CHI_SQUARED, 1, 1, 4)
    assert grid.min_index == 1


def test_gaussian_grid_allows_negative_indices():
    grid = ParameterGrid(Family.GAUSSIAN, Fraction(1, 2), -3, 3)
    assert grid.value(-2) == -1


def test_index_out_of_range():
    grid = ParameterGrid(Family.POISSON, 1, 0, 5)
    with pytest.raises(DomainError):
        grid.value(6)


def test_spec_sorts_indices_and_defaults_uniform_weights():
    grid = ParameterGrid(Family.POISSON, 1, 0, 5)
    spec = MixtureSpec(grid=grid, indices=(4, 1))
    assert spec.indices == (1, 4)
    assert spec.weights == (Fraction(1, 2), Fraction(1, 2))
    assert spec.k == 2


def test_spec_sorts_weights_with_their_indices():
    grid = ParameterGrid(Family.POISSON, 1, 0, 5)
    spec = MixtureSpec(grid=grid, indices=(4, 1),
                       weights=(Fraction(9, 10), Fraction(1, 10)))
    assert spec.indices == (1, 4)
    assert spec.weights == (Fraction(1, 10), Fraction(9, 10))
    assert spec.components()[1] == (Fraction(9, 10), Fraction(4))


def test_spec_weights_must_sum_to_one_exactly():
    grid = ParameterGrid(Family.POISSON, 1, 0, 5)
    with pytest.raises(DomainError):
        MixtureSpec(grid=grid, indices=(1, 4),
                    weights=(Fraction(1, 3), Fraction(1, 3)))
    spec = MixtureSpec(grid=grid, indices=(1, 4),
                       weights=(Fraction(1, 3), Fraction(2, 3)))
    assert sum(spec.weights) == 1


def test_analytic_families_require_distinct_indices():
    grid = ParameterGrid(Family.POISSON, 1, 0, 5)
    with pytest.raises(DomainError):
        MixtureSpec(grid=grid, indices=(2, 2))
    # algebraic families allow multisets
    bgrid = ParameterGrid(Family.BINOMIAL_P, Fraction(1, 2), 0, 2)
    spec = MixtureSpec(grid=bgrid, indices=(1, 1), shared=SharedParams(n=4))
    assert spec.indices == (1, 1)


def test_required_shared_parameters():
    bgrid = ParameterGrid(Family.BINOMIAL_P, Fraction(1, 2), 0, 2)
    with pytest.raises(ContractError):
        uniform_spec(bgrid, (1,))
    ggrid = ParameterGrid(Family.GAUSSIAN, 1, 0, 4)
    with pytest.raises(ContractError):
        uniform_spec(ggrid, (0, 3))
    nbgrid = ParameterGrid(Family.NEG_BINOMIAL, 1, 1, 4)
    with pytest.raises(ContractError):
        uniform_spec(nbgrid, (1, 2))


def test_shared_param_validation():
    with pytest.raises(DomainError):
        SharedParams(sigma=-1.0)
    with pytest.raises(DomainError):
        SharedParams(p=Fraction(3, 2))
    with pytest.raises(DomainError):
        SharedParams(n=0)


@pytest.mark.parametrize("n", [2.5, 2.0, Fraction(2), "2"])
def test_shared_trial_count_must_be_an_integer(n):
    # a float count once reached math.perm and the sampler as a TypeError
    with pytest.raises(DomainError, match="trial count must be an integer"):
        SharedParams(n=n)


def test_shared_trial_count_is_kept_as_int():
    shared = SharedParams(n=np.int64(10))
    assert type(shared.n) is int and shared == SharedParams(n=10)


@pytest.mark.parametrize("sigma", [float("nan"), float("inf"), -float("inf")])
def test_shared_sigma_must_be_finite(sigma):
    with pytest.raises(DomainError):
        SharedParams(sigma=sigma)


def test_spec_values_and_components():
    grid = ParameterGrid(Family.BINOMIAL_P, Fraction(1, 2), 0, 2)
    spec = uniform_spec(grid, (1, 2), SharedParams(n=10))
    assert spec.values() == (Fraction(1, 2), Fraction(1))
    assert spec.components() == [
        (Fraction(1, 2), Fraction(1, 2)),
        (Fraction(1, 2), Fraction(1)),
    ]


def test_spec_pickles_and_compares_the_same_before_and_after_components():
    grid = ParameterGrid(Family.GAUSSIAN, Fraction(1, 2), 0, 6)
    spec = uniform_spec(grid, (1, 5), SharedParams(sigma=1.0))
    fresh = pickle.dumps(spec)
    assert pickle.loads(fresh) == spec
    assert spec.components() == [(Fraction(1, 2), Fraction(1, 2)), (Fraction(1, 2), Fraction(5, 2))]
    assert spec.values() is spec.values()  # built once per spec
    assert pickle.dumps(spec) == fresh
    again = pickle.loads(pickle.dumps(spec))
    assert again == spec and hash(again) == hash(spec)
    assert again.components() == spec.components()
    assert spec == uniform_spec(grid, (1, 5), SharedParams(sigma=1.0))
