"""The (method, family) route table behind ``learn`` and ``mixlearn learn``."""

from fractions import Fraction

import pytest

from mixlearn import (
    ContractError,
    Family,
    ParameterGrid,
    SharedParams,
    learn,
    learn_binomial_moments,
    learn_geometric,
    learn_mde,
    uniform_spec,
)
from mixlearn.cli import cli_dispatch
from mixlearn.learners import ROUTES

# one valid grid, shared parameters, truth and CLI grid flags per family
CASES = {
    Family.GAUSSIAN: (ParameterGrid(Family.GAUSSIAN, 1, 0, 3), SharedParams(sigma=1.0),
                      (0, 2), ["--max-index", "3", "--sigma", "1"]),
    Family.POISSON: (ParameterGrid(Family.POISSON, 1, 0, 5), SharedParams(),
                     (1, 4), ["--max-index", "5"]),
    Family.BINOMIAL_P: (ParameterGrid(Family.BINOMIAL_P, Fraction(1, 2), 0, 2),
                        SharedParams(n=10), (1, 2),
                        ["--eps", "1/2", "--max-index", "2", "--n", "10"]),
    Family.GEOMETRIC_P: (ParameterGrid(Family.GEOMETRIC_P, Fraction(1, 4), 0, 4),
                         SharedParams(), (1, 3), ["--eps", "1/4", "--max-index", "4"]),
    Family.GEOMETRIC_U: (ParameterGrid(Family.GEOMETRIC_U, 1, 0, 3), SharedParams(),
                         (0, 2), ["--max-index", "3"]),
    Family.CHI_SQUARED: (ParameterGrid(Family.CHI_SQUARED, 1, 2, 4), SharedParams(),
                         (2, 4), ["--min-index", "2", "--max-index", "4"]),
    Family.NEG_BINOMIAL: (ParameterGrid(Family.NEG_BINOMIAL, 1, 1, 4),
                          SharedParams(p=Fraction(1, 2)), (1, 3),
                          ["--max-index", "4", "--p", "1/2"]),
}


def _public(method, grid, shared, **kw):
    """The public learner each supported pair stands for."""
    family = grid.family
    if (method, family) == ("moments", Family.BINOMIAL_P):
        return learn_binomial_moments(None, shared.n, grid.step, 2, **kw)
    if (method, family) in (("moments", Family.GEOMETRIC_U), ("pmf", Family.GEOMETRIC_P)):
        return learn_geometric(None, grid, 2, method, **kw)
    if method == "mde" and family in (Family.GAUSSIAN, Family.POISSON,
                                      Family.CHI_SQUARED, Family.NEG_BINOMIAL):
        return learn_mde(None, family, grid, 2, shared, **kw)
    return None


def test_route_table_order():
    assert list(dict.fromkeys(method for method, _ in ROUTES)) == ["moments", "pmf", "mde"]
    assert len(ROUTES) == 7


@pytest.mark.parametrize("family", list(Family), ids=lambda f: f.value)
@pytest.mark.parametrize("method", ["moments", "pmf", "mde"])
def test_learn_matches_public_learner_or_refuses(tmp_path, capsys, method, family):
    grid, shared, truth, flags = CASES[family]
    oracle = dict(oracle_spec=uniform_spec(grid, truth, shared), truth=truth)
    expected = _public(method, grid, shared, **oracle)
    assert ((method, family) in ROUTES) == (expected is not None)
    if expected is not None:
        assert learn(method, None, grid, 2, shared, **oracle) == expected
        assert expected.exact_match is True
        return
    with pytest.raises(ContractError):
        learn(method, None, grid, 2, shared, **oracle)
    data = tmp_path / "data.txt"
    data.write_text(f"# family={family.value}\n1\n2\n")
    rc = cli_dispatch(["learn", "--method", method, "--family", family.value,
                       "--k", "2", "--data", str(data), *flags])
    assert rc == 2
    assert "does not apply" in capsys.readouterr().err


def test_binomial_moments_without_trial_count_is_contract_error():
    grid, shared, truth, _ = CASES[Family.BINOMIAL_P]
    spec = uniform_spec(grid, truth, shared)
    with pytest.raises(ContractError):
        learn_binomial_moments(None, None, grid.step, 2, oracle_spec=spec)


@pytest.mark.parametrize("family, flag", [
    (Family.BINOMIAL_P, "--n"), (Family.GAUSSIAN, "--sigma"), (Family.NEG_BINOMIAL, "--p"),
])
def test_missing_shared_parameter_exit_code(tmp_path, capsys, family, flag):
    _, _, _, flags = CASES[family]
    at = flags.index(flag)
    data = tmp_path / "data.txt"
    data.write_text(f"# family={family.value}\n1\n2\n")
    method = "moments" if family is Family.BINOMIAL_P else "mde"
    rc = cli_dispatch(["learn", "--method", method, "--family", family.value,
                       "--k", "2", "--data", str(data), *flags[:at], *flags[at + 2:]])
    assert rc == 1
    assert "error:" in capsys.readouterr().err
