from fractions import Fraction

import numpy as np
import pytest

from mixlearn import (
    DomainError,
    ExperimentConfig,
    Family,
    ParameterGrid,
    ParseError,
    SampleDataset,
    SharedParams,
    sample,
    uniform_spec,
)
from mixlearn.fileio import (
    config_from_text,
    config_to_text,
    format_rational,
    parse_key_values,
    parse_rational,
    read_dataset,
    read_spec,
    spec_from_text,
    spec_to_text,
    write_dataset,
    write_spec,
)


def test_rational_round_trip():
    for f in (Fraction(1, 2), Fraction(-3, 7), Fraction(5), Fraction(0)):
        assert parse_rational(format_rational(f)) == f
    assert parse_rational("0.25") == Fraction(1, 4)
    with pytest.raises(ParseError):
        parse_rational("1/0")
    with pytest.raises(ParseError):
        parse_rational("abc")


def test_key_value_parsing_and_errors():
    kv = parse_key_values("# comment\nfamily=poisson\n\nk=2\n")
    assert kv == {"family": "poisson", "k": "2"}
    with pytest.raises(ParseError) as exc:
        parse_key_values("family=poisson\nbroken line\n")
    assert exc.value.line == 2


def test_spec_text_round_trip():
    grid = ParameterGrid(Family.BINOMIAL_P, Fraction(1, 2), 0, 2)
    spec = uniform_spec(grid, (1, 2), SharedParams(n=10))
    again = spec_from_text(spec_to_text(spec))
    assert again == spec


def test_spec_round_trip_preserves_exact_weights():
    grid = ParameterGrid(Family.GEOMETRIC_U, Fraction(1, 3), 0, 6)
    from mixlearn import MixtureSpec

    spec = MixtureSpec(grid=grid, indices=(0, 2),
                       weights=(Fraction(1, 3), Fraction(2, 3)))
    again = spec_from_text(spec_to_text(spec))
    assert again.weights == (Fraction(1, 3), Fraction(2, 3))
    assert again.grid.step == Fraction(1, 3)


def test_spec_text_with_unsorted_indices_keeps_weights_paired():
    text = "family=poisson\nindices=4,1\nweights=9/10,1/10\nmin_index=0\nmax_index=5\n"
    spec = spec_from_text(text)
    assert spec.indices == (1, 4)
    assert spec.weights == (Fraction(1, 10), Fraction(9, 10))


def test_spec_k_consistency_check():
    text = "family=poisson\nk=3\nindices=1,4\nmin_index=0\nmax_index=5\n"
    with pytest.raises(ParseError):
        spec_from_text(text)


def test_spec_file_round_trip(tmp_path):
    grid = ParameterGrid(Family.GAUSSIAN, 1, 0, 4)
    spec = uniform_spec(grid, (0, 3), SharedParams(sigma=1.5))
    path = tmp_path / "spec.txt"
    write_spec(path, spec)
    assert read_spec(path) == spec


def test_dataset_round_trip_discrete(tmp_path):
    grid = ParameterGrid(Family.POISSON, 1, 0, 5)
    spec = uniform_spec(grid, (1, 4))
    data = sample(spec, 500, seed=9)
    data = SampleDataset(
        family=data.family, values=data.values, seed=9,
        spec_text=spec_to_text(spec),
    )
    path = tmp_path / "data.txt"
    write_dataset(path, data)
    again = read_dataset(path)
    assert again.family is Family.POISSON
    assert again.seed == 9
    assert np.array_equal(again.values, data.values)
    assert again.values.dtype.kind == "i"
    assert "indices=1,4" in again.spec_text


def test_dataset_round_trip_continuous(tmp_path):
    grid = ParameterGrid(Family.GAUSSIAN, 1, 0, 4)
    spec = uniform_spec(grid, (0, 3), SharedParams(sigma=1.0))
    data = sample(spec, 200, seed=3)
    path = tmp_path / "data.txt"
    write_dataset(path, data)
    again = read_dataset(path)
    assert np.array_equal(again.values, data.values)  # repr round trip is exact


def test_dataset_parse_error_carries_line_number(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("# family=poisson\n1\nnot-a-number\n")
    with pytest.raises(ParseError) as exc:
        read_dataset(path)
    assert exc.value.line == 3


def test_dataset_value_beyond_int64_is_parse_error(tmp_path):
    path = tmp_path / "wide.txt"
    path.write_text(f"# family=poisson\n1\n{2**63}\n2\n")
    with pytest.raises(ParseError) as exc:
        read_dataset(path)
    assert exc.value.line == 3


def test_dataset_keeps_integers_beyond_float_precision(tmp_path):
    path = tmp_path / "big.txt"
    path.write_text(f"# family=poisson\n9007199254740993\n{2**63 - 1}\n0\n")
    values = read_dataset(path).values
    assert values.dtype == np.int64
    assert values.tolist() == [2**53 + 1, 2**63 - 1, 0]
    # a continuous family reads the same lines as floats
    path.write_text(f"# family=gaussian\n9007199254740993\n{2**63}\n")
    assert read_dataset(path).values.tolist() == [2.0**53, 2.0**63]


def test_dataset_requires_family_header(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("1\n2\n")
    with pytest.raises(ParseError):
        read_dataset(path)


def test_config_round_trip():
    config = ExperimentConfig(
        family=Family.BINOMIAL_P,
        method="moments",
        eps=Fraction(1, 2),
        min_index=0,
        max_index=2,
        k=2,
        truth=(1, 2),
        samples=1000,
        trials=3,
        seed=42,
        n=10,
    )
    assert config_from_text(config_to_text(config)) == config


def test_config_missing_key():
    with pytest.raises(ParseError):
        config_from_text("family=poisson\nmethod=mde\n")


SPEC_TEXT = "family=binomial-p\nk=2\neps=1/2\nmin_index=0\nmax_index=2\nindices=1,2\nn=10\n"


@pytest.mark.parametrize("key, bad", [
    ("indices", "1,x"), ("indices", ""), ("min_index", "x"), ("max_index", "x"),
    ("n", "x"), ("k", "x"), ("sigma", "x"),
])
def test_spec_malformed_number_names_the_key(key, bad):
    lines = [ln for ln in SPEC_TEXT.splitlines() if not ln.startswith(key + "=")]
    text = "\n".join(lines + [f"{key}={bad}"]) + "\n"
    with pytest.raises(ParseError) as exc:
        spec_from_text(text)
    assert repr(key) in str(exc.value)


def test_spec_nan_sigma_is_domain_error():
    from mixlearn import DomainError

    text = "family=gaussian\nindices=0,2\nsigma=nan\n"
    with pytest.raises(DomainError):
        spec_from_text(text)


@pytest.mark.parametrize("key", [
    "min_index", "max_index", "k", "truth", "samples", "trials", "seed", "n", "sigma",
])
def test_config_malformed_number_names_the_key(key):
    text = ("family=binomial-p\nmethod=moments\neps=1/2\nmin_index=0\n"
            "max_index=2\nk=2\ntruth=1,2\nsamples=10\ntrials=1\nseed=1\n"
            "n=10\nsigma=1.0\n")
    lines = [ln for ln in text.splitlines() if not ln.startswith(key + "=")]
    with pytest.raises(ParseError) as exc:
        config_from_text("\n".join(lines + [f"{key}=1,x"]) + "\n")
    assert repr(key) in str(exc.value)


@pytest.mark.parametrize("line", ["1e19", "-1e19", "9.007199254740993e15"])
def test_float_written_discrete_value_beyond_float_precision_is_domain_error(tmp_path, line):
    # a float line has already lost the exact value; refuse it before the
    # int64 cast wraps or rounds it
    path = tmp_path / "wide.txt"
    path.write_text(f"# family=poisson\n1\n{line}\n")
    with pytest.raises(DomainError, match="2\\*\\*53"):
        read_dataset(path)


@pytest.mark.parametrize("value", [2.0**53, -(2.0**63), np.inf])
def test_discrete_float_array_beyond_float_precision_is_domain_error(value):
    with pytest.raises(DomainError):
        SampleDataset(Family.POISSON, np.array([1.0, value]))
    assert SampleDataset(Family.POISSON, np.array([2.0**53 - 1])).values.tolist() == [2**53 - 1]
