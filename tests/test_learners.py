import math
import os
import sys
import threading
import time
from fractions import Fraction
from itertools import combinations

import pytest

from mixlearn import (
    CapExceededError,
    ContractError,
    candidate_family,
    DomainError,
    ExperimentConfig,
    MixlearnError,
    Family,
    ParameterGrid,
    SharedParams,
    learn_binomial_moments,
    learn_geometric,
    learn_mde,
    mde_sample_size,
    run_experiment,
    sample,
    uniform_spec,
)
from mixlearn import learners, sampling
from mixlearn.learners import moments_order_binomial, moments_order_geometric_u
from mixlearn.powersums import log_of_theorem_bound


def gaussian_grid_from_data(data, eps, sigma):
    """Reference: the bounded index range inferred from the data, min/max
    widened by 4 sigma."""
    lo = math.floor((float(data.values.min()) - 4.0 * sigma) / float(eps))
    hi = math.ceil((float(data.values.max()) + 4.0 * sigma) / float(eps))
    return ParameterGrid(Family.GAUSSIAN, Fraction(eps), lo, hi)


def test_default_moment_orders():
    # ceil(4 / sqrt(1/2)) = ceil(4 sqrt 2) = 6
    assert moments_order_binomial(Fraction(1, 2), 2) == 6
    assert moments_order_binomial(Fraction(1, 4), 2) == 8
    assert moments_order_binomial(Fraction(1, 2), 8) == 8  # k dominates
    # ceil(4 sqrt 5) = 9
    assert moments_order_geometric_u(5, 2) == 9
    assert moments_order_geometric_u(1, 6) == 6


def _least_square_at_least(num, den):
    """Reference: the least T with T^2 >= num / den, counted up from 0."""
    T = 0
    while T * T * den < num:
        T += 1
    return T


def test_order_rules_are_the_least_T_with_T_squared_at_least_16n():
    squares = [m * m + d for m in (31, 32, 1000, 4096) for d in (-1, 0, 1)]
    for n in list(range(1, 1100)) + squares:
        T = _least_square_at_least(16 * n, 1)
        assert log_of_theorem_bound(n) == T, n
        assert moments_order_geometric_u(n, 1) == T, n
        assert moments_order_geometric_u(n, T + 1) == T + 1, n
    epsilons = [Fraction(e) for e in ("1", "1/2", "2/5", "1/3", "1/4", "1/8", "1/16")]
    orders = [4, 6, 7, 7, 8, 12, 16]
    for eps, T in zip(epsilons, orders):
        assert T == _least_square_at_least(16 * eps.denominator, eps.numerator)
        assert moments_order_binomial(eps, 1) == T
        grid = ParameterGrid(Family.BINOMIAL_P, eps, 0, int(1 / eps))
        oracle = uniform_spec(grid, (1,), SharedParams(n=16))
        result = learn_binomial_moments(None, 16, eps, 1, oracle_spec=oracle, truth=(1,))
        assert result.exact_match and result.diagnostics["T"] == T, eps
    for n in (1, 4, 5, 9, 16):
        grid = ParameterGrid(Family.GEOMETRIC_U, Fraction(1), 0, n)
        oracle = uniform_spec(grid, (1,))
        result = learn_geometric(None, grid, 1, "moments", oracle_spec=oracle, truth=(1,))
        assert result.exact_match
        assert result.diagnostics["T"] == _least_square_at_least(16 * n, 1), n


def test_binomial_oracle_round_trip():
    eps = Fraction(1, 4)
    grid = ParameterGrid(Family.BINOMIAL_P, eps, 0, 4)
    shared = SharedParams(n=8)
    spec = uniform_spec(grid, (1, 3), shared)
    result = learn_binomial_moments(
        None, 8, eps, 2, oracle_spec=spec, truth=(1, 3), T=2
    )
    assert result.recovered == (1, 3)
    assert result.exact_match is True
    assert result.diagnostics["max_solve_residual"] == 0.0


def test_binomial_learner_requires_enough_trials():
    with pytest.raises(DomainError):
        learn_binomial_moments(None, 3, Fraction(1, 2), 2,
                               oracle_spec=None, T=6)


def test_binomial_sampled_recovery():
    eps = Fraction(1, 2)
    grid = ParameterGrid(Family.BINOMIAL_P, eps, 0, 2)
    spec = uniform_spec(grid, (1, 2), SharedParams(n=10))
    data = sample(spec, 10**6, seed=2024)
    result = learn_binomial_moments(data, 10, eps, 2, truth=(1, 2))
    assert result.recovered == (1, 2)


def test_geometric_u_oracle_round_trip_with_multiplicity():
    grid = ParameterGrid(Family.GEOMETRIC_U, Fraction(1, 2), 0, 6)
    spec = uniform_spec(grid, (0, 2, 2))
    result = learn_geometric(
        None, grid, 3, "moments", oracle_spec=spec, truth=(0, 2, 2), T=3
    )
    assert result.recovered == (0, 2, 2)


def test_geometric_pmf_oracle_round_trip():
    grid = ParameterGrid(Family.GEOMETRIC_P, Fraction(1, 4), 0, 4)
    spec = uniform_spec(grid, (1, 3))
    result = learn_geometric(
        None, grid, 2, "pmf", oracle_spec=spec, truth=(1, 3), T=2
    )
    assert result.recovered == (1, 3)
    assert result.method == "pmf"


def test_geometric_pmf_sampled_recovery():
    grid = ParameterGrid(Family.GEOMETRIC_P, Fraction(1, 4), 0, 4)
    spec = uniform_spec(grid, (1, 3))
    data = sample(spec, 500_000, seed=1312)
    result = learn_geometric(data, grid, 2, "pmf", truth=(1, 3))
    assert result.recovered == (1, 3)


def test_pmf_default_order_follows_the_binomial_rule():
    for den in (2, 4, 8):
        eps = Fraction(1, den)
        grid = ParameterGrid(Family.GEOMETRIC_P, eps, 0, den)
        spec = uniform_spec(grid, (1, den))
        result = learn_geometric(None, grid, 2, "pmf", oracle_spec=spec, truth=(1, den))
        assert result.exact_match is True
        assert result.diagnostics["T"] == moments_order_binomial(eps, 2)


@pytest.mark.parametrize("k", [0, -1])
def test_component_count_below_one_is_domain_error(k):
    bgrid = ParameterGrid(Family.BINOMIAL_P, Fraction(1, 2), 0, 2)
    bspec = uniform_spec(bgrid, (1, 2), SharedParams(n=10))
    with pytest.raises(DomainError):
        learn_binomial_moments(None, 10, Fraction(1, 2), k, oracle_spec=bspec)
    ugrid = ParameterGrid(Family.GEOMETRIC_U, Fraction(1), 0, 3)
    with pytest.raises(DomainError):
        learn_geometric(None, ugrid, k, "moments", oracle_spec=uniform_spec(ugrid, (0, 2)))
    pgrid = ParameterGrid(Family.GEOMETRIC_P, Fraction(1, 4), 0, 4)
    with pytest.raises(DomainError):
        learn_geometric(None, pgrid, k, "pmf", oracle_spec=uniform_spec(pgrid, (1, 3)))
    with pytest.raises(DomainError):
        candidate_family(ParameterGrid(Family.POISSON, 1, 0, 5), k)


def test_zero_step_is_domain_error():
    grid = ParameterGrid(Family.BINOMIAL_P, Fraction(1, 2), 0, 2)
    data = sample(uniform_spec(grid, (1, 2), SharedParams(n=10)), 100, seed=1)
    with pytest.raises(DomainError):
        learn_binomial_moments(data, 10, Fraction(0), 2)


def test_geometric_variant_grid_mismatch():
    ugrid = ParameterGrid(Family.GEOMETRIC_U, Fraction(1, 2), 0, 6)
    with pytest.raises(ContractError):
        learn_geometric(None, ugrid, 2, "pmf",
                        oracle_spec=uniform_spec(ugrid, (0, 2)))


def test_mde_learner_oracle_and_sampled():
    grid = ParameterGrid(Family.POISSON, 1, 0, 5)
    truth = uniform_spec(grid, (1, 4))
    oracle = learn_mde(None, Family.POISSON, grid, 2,
                       oracle_spec=truth, truth=(1, 4))
    assert oracle.recovered == (1, 4)
    data = sample(truth, 50_000, seed=303)
    sampled = learn_mde(data, Family.POISSON, grid, 2, truth=(1, 4))
    assert sampled.recovered == (1, 4)
    assert sampled.diagnostics["candidates"] == 15


def test_mde_learner_rejects_algebraic_families():
    grid = ParameterGrid(Family.BINOMIAL_P, Fraction(1, 2), 0, 2)
    with pytest.raises(ContractError):
        learn_mde(None, Family.BINOMIAL_P, grid, 2, SharedParams(n=10))


def test_gaussian_grid_from_data():
    grid = ParameterGrid(Family.GAUSSIAN, 1, 0, 4)
    spec = uniform_spec(grid, (0, 3), SharedParams(sigma=1.0))
    data = sample(spec, 10_000, seed=77)
    inferred = gaussian_grid_from_data(data, Fraction(1), 1.0)
    assert inferred.min_index <= 0
    assert inferred.max_index >= 3


def test_mde_sample_size_formula():
    import math

    assert mde_sample_size(15, 0.1) == math.ceil(8 * math.log(15) / 0.01)
    with pytest.raises(DomainError):
        mde_sample_size(15, 0.0)


def _poisson_config(trials=4, oracle=False):
    return ExperimentConfig(
        family=Family.POISSON,
        method="mde",
        eps=Fraction(1),
        min_index=0,
        max_index=5,
        k=2,
        truth=(1, 4),
        samples=20_000,
        trials=trials,
        seed=11,
        oracle=oracle,
    )


@pytest.mark.parametrize("samples, error", [(10**13, CapExceededError), (0, DomainError)])
def test_run_experiment_refuses_a_sample_count_before_the_precompute(monkeypatch, samples,
                                                                     error):
    calls = []
    monkeypatch.setattr(learners, "precompute_mde", lambda cands: calls.append(cands))
    config = ExperimentConfig(family=Family.POISSON, method="mde", eps=Fraction(1),
                              min_index=0, max_index=20, k=2, truth=(1, 4),
                              samples=samples, trials=2, seed=1)
    with pytest.raises(error):
        run_experiment(config)
    assert calls == []


def test_run_experiment_deterministic():
    report1 = run_experiment(_poisson_config())
    report2 = run_experiment(_poisson_config())
    assert [r.recovered for r in report1.rows] == [
        r.recovered for r in report2.rows
    ]
    assert report1.successes == report2.successes
    assert report1.trials == 4
    assert all(r.seed == 11 for r in report1.rows)


def test_run_experiment_oracle_mode_all_success():
    report = run_experiment(_poisson_config(trials=2, oracle=True))
    assert report.successes == 2


def _at_one_and_two_cpus(monkeypatch, config):
    """The reports of ``config`` run with 1 and with 2 CPUs, so on 1 and on
    up to 2 trial threads."""
    reports = []
    for cpus in (1, 2):
        monkeypatch.setattr(sampling, "_sampling_threads", cpus)
        reports.append(run_experiment(config))
    return reports


def test_run_experiment_parallel_matches_serial(monkeypatch):
    serial, parallel = _at_one_and_two_cpus(monkeypatch, _poisson_config())
    assert parallel.rows == serial.rows


def test_failed_trials_are_rows_in_pool_workers_too(monkeypatch):
    config = ExperimentConfig(
        family=Family.BINOMIAL_P, method="moments", eps=Fraction(1, 4), min_index=0,
        max_index=4, k=2, truth=(1, 2), samples=1000, trials=6, seed=1, n=10,
    )
    serial, parallel = _at_one_and_two_cpus(monkeypatch, config)
    assert {row.error for row in serial.rows} == {None, "MomentInconsistencyError"}
    assert serial.successes == sum(row.error is None for row in serial.rows)
    # in a repr a NaN score equals itself
    assert repr(parallel.rows) == repr(serial.rows)


def test_oracle_rows_do_not_depend_on_the_trial_threads(monkeypatch):
    serial, parallel = _at_one_and_two_cpus(monkeypatch, _poisson_config(trials=6, oracle=True))
    assert parallel.rows == serial.rows
    assert parallel.successes == 6


def test_an_experiment_of_no_trials_reports_no_rows():
    report = run_experiment(_poisson_config(trials=0))
    assert (report.rows, report.successes) == ((), 0)


def test_eight_trial_threads_switching_often_keep_the_serial_rows(monkeypatch):
    # the trials share the MDE tables; more threads than a CI runner's cores
    config = _poisson_config(trials=8)
    monkeypatch.setattr(sampling, "_sampling_threads", 1)
    serial = run_experiment(config)
    monkeypatch.setattr(sampling, "_sampling_threads", 8)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        rows = run_experiment(config).rows
    finally:
        sys.setswitchinterval(interval)
    assert rows == serial.rows


def test_an_aborting_trial_raises_the_error_a_serial_run_raises(monkeypatch):
    started = []

    def sample_or_abort(spec, count, seed, stream=0):
        started.append(stream)
        # trial 2 aborts before trial 1 does, but trial 1's error is the one
        # a serial run meets first
        time.sleep(0.05 if stream == 1 else 0.005)
        if stream in (1, 2):
            raise DomainError(f"trial {stream} aborts")
        return sample(spec, count, seed, stream)

    monkeypatch.setattr(learners, "sample", sample_or_abort)
    threads = threading.active_count()
    for cpus in (1, 2):
        monkeypatch.setattr(sampling, "_sampling_threads", cpus)
        started.clear()
        with pytest.raises(DomainError, match="^trial 1 aborts$"):
            run_experiment(_poisson_config(trials=40))
        assert len(started) < 40  # the trials not yet started were cancelled
        assert threading.active_count() == threads


def test_an_experiment_past_half_the_sample_cap_runs_one_trial_at_a_time(monkeypatch):
    config = _poisson_config()
    held = sampling.sample_bytes(config.truth_spec(), config.samples)
    idents = []
    run_trial = learners._run_trial

    def slow_trial(*args):
        idents.append(threading.get_ident())
        time.sleep(0.02)  # so that a second trial thread would take a trial
        return run_trial(*args)

    monkeypatch.setattr(learners, "_run_trial", slow_trial)
    monkeypatch.setattr(sampling, "_sampling_threads", 2)
    reports = []
    for cap, threads in [(2 * held - 1, 1), (2 * held, 2)]:
        monkeypatch.setattr(sampling, "SAMPLE_CAP", cap)
        idents.clear()
        reports.append(run_experiment(config))
        assert len(set(idents)) == threads
    assert reports[0].rows == reports[1].rows


def test_run_experiment_binomial_moments():
    config = ExperimentConfig(
        family=Family.BINOMIAL_P,
        method="moments",
        eps=Fraction(1, 2),
        min_index=0,
        max_index=2,
        k=2,
        truth=(1, 2),
        samples=10**6,
        trials=2,
        seed=5,
        n=10,
    )
    report = run_experiment(config)
    assert report.successes == 2


def test_binomial_moments_stay_on_the_declared_grid():
    eps = Fraction(1, 2)
    spec = uniform_spec(ParameterGrid(Family.BINOMIAL_P, eps, 0, 2), (0, 2),
                        SharedParams(n=10))
    narrow = ParameterGrid(Family.BINOMIAL_P, eps, 1, 2)
    with pytest.raises(MixlearnError):
        learn_binomial_moments(None, 10, eps, 2, oracle_spec=spec, grid=narrow)
    default = ParameterGrid(Family.BINOMIAL_P, eps, 0, 2)
    assert learn_binomial_moments(None, 10, eps, 2, oracle_spec=spec, grid=default) == \
        learn_binomial_moments(None, 10, eps, 2, oracle_spec=spec)


def test_binomial_moments_grid_must_match_the_step():
    with pytest.raises(ContractError):
        learn_binomial_moments(None, 10, Fraction(1, 2), 2,
                               grid=ParameterGrid(Family.BINOMIAL_P, Fraction(1, 4), 0, 4))


def test_run_experiment_refuses_an_unsupported_pair_before_any_work(monkeypatch):
    import mixlearn.learners as learners

    def forbidden(*args, **kwargs):
        raise AssertionError("ran before the route check")

    monkeypatch.setattr(learners, "precompute_mde", forbidden)
    monkeypatch.setattr(learners, "sample", forbidden)
    config = ExperimentConfig(
        family=Family.BINOMIAL_P, method="mde", eps=Fraction(1, 4), min_index=0,
        max_index=4, k=2, truth=(1, 3), samples=100_000, trials=2, seed=1, n=10,
    )
    with pytest.raises(ContractError):
        run_experiment(config)


@pytest.mark.parametrize("change, match", [
    ({"trials": -3}, "trials must be nonnegative"),
    # k = 3 with two true indices used to learn three and report 0/2
    ({"k": 3}, "k=3 disagrees with 2 true indices"),
    ({"truth": (1, 2, 4)}, "k=2 disagrees with 3 true indices"),
])
def test_run_experiment_refuses_a_bad_config_before_any_work(monkeypatch, change, match):
    def forbidden(*args, **kwargs):
        raise AssertionError("ran before the config check")

    monkeypatch.setattr(learners, "precompute_mde", forbidden)
    monkeypatch.setattr(learners, "sample", forbidden)
    config = _poisson_config(trials=2)
    for method in ("mde", "moments"):
        fields = dict(vars(config), method=method, **change)
        if method == "moments":
            fields.update(family=Family.BINOMIAL_P, eps=Fraction(1, 4), max_index=4, n=10)
        with pytest.raises(DomainError, match=match):
            run_experiment(ExperimentConfig(**fields))


def test_run_experiment_refuses_a_rate_over_the_cap_before_any_work(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("ran before the rate check")

    # 20,001 grid points would make about 2e8 candidates
    monkeypatch.setattr(learners, "_candidates", forbidden)
    monkeypatch.setattr(learners, "precompute_mde", forbidden)
    monkeypatch.setattr(learners, "sample", forbidden)
    config = ExperimentConfig(
        family=Family.POISSON, method="mde", eps=Fraction(1), min_index=0,
        max_index=20_000, k=2, truth=(1, 20_000), samples=1, trials=6, seed=0,
    )
    with pytest.raises(ContractError, match="capped at rate"):
        run_experiment(config)


def test_run_experiment_refuses_a_trial_count_over_the_cap_before_any_work(monkeypatch):
    # trials=10**11 used to queue one future per trial before the first ended
    def forbidden(*args, **kwargs):
        raise AssertionError("ran before the trials check")

    monkeypatch.setattr(learners, "_candidates", forbidden)
    monkeypatch.setattr(learners, "precompute_mde", forbidden)
    monkeypatch.setattr(learners, "sample", forbidden)
    for trials in (learners._TRIAL_CAP + 1, 10**11):
        with pytest.raises(CapExceededError, match=f"{trials} trials exceed the cap"):
            run_experiment(_poisson_config(trials=trials))


def test_a_negative_order_is_refused_before_any_estimate(monkeypatch):
    # T = -1 used to end in an IndexError after the estimate
    def forbidden(*args, **kwargs):
        raise AssertionError("estimated before the order check")

    monkeypatch.setattr(learners, "estimate_moments", forbidden)
    monkeypatch.setattr(learners, "estimate_pmf", forbidden)
    eps = Fraction(1, 4)
    spec = uniform_spec(ParameterGrid(Family.BINOMIAL_P, eps, 0, 4), (1, 3), SharedParams(n=8))
    data = sample(spec, 1000, seed=1)
    with pytest.raises(DomainError, match="T must be nonnegative, got -1"):
        learn_binomial_moments(data, 8, eps, 2, T=-1)
    grid = ParameterGrid(Family.GEOMETRIC_P, eps, 0, 4)
    with pytest.raises(DomainError, match="T must be nonnegative, got -1"):
        learn_geometric(None, grid, 2, "pmf", oracle_spec=uniform_spec(grid, (1, 3)), T=-1)
