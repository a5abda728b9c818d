import hashlib
import math
from fractions import Fraction
from typing import List, Optional, Union

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

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
from mixlearn.grids import DISCRETE_FAMILIES
from mixlearn.fileio import (
    _BLOCK_LINES,
    _parse_family,
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


def test_oracle_config_round_trip():
    config = ExperimentConfig(
        family=Family.POISSON, method="mde", eps=Fraction(1), min_index=0, max_index=5,
        k=2, truth=(1, 4), samples=0, trials=2, seed=3, oracle=True,
    )
    text = config_to_text(config)
    assert text.endswith("seed=3\noracle=true\n")
    assert config_from_text(text) == config


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


def _reference_read_dataset(path) -> SampleDataset:
    """The per-line reader the block reader replaced: every line through
    ``float``, integers of magnitude 2**53 or more kept as exact ints, and
    the dtype chosen once the whole file is read."""
    family: Optional[Family] = None
    seed: Optional[int] = None
    spec_lines: List[str] = []
    values: List[Union[float, int]] = []
    all_integral = True
    wide_line: Optional[int] = None  # first integral value outside int64
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            if line.startswith("#"):
                body = line[1:].strip()
                if body.startswith("family="):
                    family = _parse_family(body[len("family="):], line=lineno)
                elif body.startswith("seed="):
                    try:
                        seed = int(body[len("seed="):])
                    except ValueError:
                        raise ParseError(f"invalid seed {body!r}", line=lineno)
                elif body.startswith("spec:"):
                    spec_lines.append(body[len("spec:"):])
                continue
            try:
                v = float(line)
            except ValueError:
                raise ParseError(f"invalid value {line!r}", line=lineno)
            if not math.isfinite(v):
                raise ParseError(f"non-finite value {line!r}", line=lineno)
            if v != int(v) or "." in line or "e" in line or "E" in line:
                all_integral = False
            elif not -(2**53) < v < 2**53:
                # float() rounds integers of this size; keep the exact value
                v = int(line)
                if wide_line is None and not -(2**63) <= v < 2**63:
                    wide_line = lineno
            values.append(v)
    if family is None:
        raise ParseError("dataset is missing the '# family=…' header")
    if family in DISCRETE_FAMILIES and all_integral:
        if wide_line is not None:
            raise ParseError("value does not fit a 64-bit integer", line=wide_line)
        arr = np.array(values, dtype=np.int64)
    else:
        arr = np.array(values, dtype=np.float64)
    spec_text = "\n".join(spec_lines) if spec_lines else None
    return SampleDataset(family=family, values=arr, seed=seed, spec_text=spec_text)


def _outcome(read, path):
    """What ``read(path)`` gives: the dataset's fields with its values as
    bytes, or the error's type, message and line."""
    try:
        data = read(path)
    except Exception as exc:  # compared, not swallowed
        return ("error", type(exc), str(exc), getattr(exc, "line", None))
    values = data.values
    return (data.family, data.seed, data.spec_text, values.dtype, values.tobytes())


_SPECIAL_LINES = [
    "", "   ", "\t", "#", "# a note", "# seed=5", "# seed=x", "# spec:k=2",
    "# family=poisson", "# family=gaussian", "# family=bogus",
    "0", "-0", "-0.0", "1.0", "1e3", "1E3", "2.5", "-7", "+4", " 12 ", "1_000",
    str(2**53), str(-(2**53)), str(2**53 + 1), str(-(2**53) - 1),
    str(2**63 - 1), str(-(2**63)), str(2**63), str(-(2**63) - 1), str(2**64),
    "9.007199254740993e15", "1e19", "-1e19", "1e400",
    "nan", "inf", "-inf", "Infinity", "abc", "1,5", "0x10", "1 2", "--1", "\u0661\u0662",
]

_line = st.one_of(st.sampled_from(_SPECIAL_LINES),
                  st.text(alphabet="0123456789.eE+-# _xn\t", max_size=6))


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    header=st.lists(st.sampled_from([
        "# family=poisson", "# family=binomial-p", "# family=gaussian",
        "# family=chi-squared", "# seed=3", "# spec:indices=1,4", "",
    ]), max_size=4),
    filler=st.sampled_from(["ints", "floats"]),
    seed=st.integers(0, 2**16),
    extra=st.integers(1, _BLOCK_LINES),
    inserts=st.lists(st.tuples(st.floats(0, 1), _line), max_size=6),
    near_boundary=st.lists(st.tuples(st.sampled_from([1, 2]), st.integers(-2, 1), _line),
                           max_size=3),
    crlf=st.booleans(),
)
def test_block_reader_matches_the_per_line_reference(
        tmp_path_factory, header, filler, seed, extra, inserts, near_boundary, crlf):
    # bodies of two blocks and more, with odd lines anywhere and at the edges
    rng = np.random.default_rng(seed)
    n = 2 * _BLOCK_LINES + extra
    if filler == "ints":
        body = [str(v) for v in rng.integers(0, 20, n).tolist()]
    else:
        body = [repr(v) for v in rng.normal(0.0, 3.0, n).tolist()]
    for where, line in inserts:
        body.insert(int(where * len(body)), line)
    for block, offset, line in near_boundary:
        body.insert(block * _BLOCK_LINES + offset, line)
    end = "\r\n" if crlf else "\n"
    path = tmp_path_factory.mktemp("fuzz") / "data.txt"
    path.write_bytes("".join(line + end for line in header + body).encode("utf-8"))
    assert _outcome(read_dataset, path) == _outcome(_reference_read_dataset, path)


@pytest.mark.parametrize("family, filler, bad, message", [
    ("poisson", "3", "x1", "invalid value 'x1'"),
    ("poisson", "3", "nan", "non-finite value 'nan'"),
    ("poisson", "3", str(2**63), "value does not fit a 64-bit integer"),
    ("gaussian", "0.5", "x1", "invalid value 'x1'"),
    ("gaussian", "0.5", "-inf", "non-finite value '-inf'"),
    ("gaussian", "0.5", "1e400", "non-finite value '1e400'"),
])
def test_bad_value_past_the_first_block_keeps_its_line_number(
        tmp_path, family, filler, bad, message):
    lines = [f"# family={family}", "# seed=1"] + [filler] * 30_000
    lines[20_000 - 1] = bad
    path = tmp_path / "data.txt"
    path.write_text("\n".join(lines) + "\n")
    assert 20_000 > _BLOCK_LINES + 2
    with pytest.raises(ParseError) as exc:
        read_dataset(path)
    assert exc.value.line == 20_000
    assert message in str(exc.value)


def test_block_reader_keeps_integers_and_negative_zero_exact(tmp_path):
    # a per-line block (a comment) holding exact ints, then bulk blocks
    path = tmp_path / "data.txt"
    body = ["# note", str(2**53 + 1), "-0"] + ["5"] * (2 * _BLOCK_LINES)
    path.write_text("# family=poisson\n" + "\n".join(body) + "\n")
    values = read_dataset(path).values
    assert values.dtype == np.int64 and values[:3].tolist() == [2**53 + 1, 0, 5]
    path.write_text("# family=gaussian\n" + "\n".join(body) + "\n")
    values = read_dataset(path).values
    assert values.dtype == np.float64
    assert values[:2].tolist() == [2.0**53, 0.0] and math.copysign(1.0, values[1]) == -1.0


#: sha256 of ``write_dataset`` files from ``mixlearn simulate``'s layout:
#: 20,000 values at seed 11, stream 3, so the body spans several blocks.
GOLDEN_DATASETS = {
    "poisson": "eb1349492d4954da371375811734b2021b19cdd72ef4cbf3ca0f2a6c77c3a907",
    "gaussian": "d6f43be8d9aa1c5d6542d91a9ccd04b47776f693e9f4310cab6eb6c492c7e8ee",
}


@pytest.mark.parametrize("spec", [
    uniform_spec(ParameterGrid(Family.POISSON, 1, 0, 8), (1, 4)),
    uniform_spec(ParameterGrid(Family.GAUSSIAN, 1, 0, 2), (0, 2), SharedParams(sigma=1.0)),
], ids=lambda spec: spec.family.value)
def test_written_dataset_bytes_are_frozen(tmp_path, spec):
    data = sample(spec, 20_000, 11, 3)
    data = SampleDataset(family=data.family, values=data.values, seed=11,
                         spec_text=spec_to_text(spec))
    path = tmp_path / "data.txt"
    write_dataset(path, data)
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digest == GOLDEN_DATASETS[spec.family.value]
    again = read_dataset(path)
    assert again.values.dtype == data.values.dtype
    assert again.values.tobytes() == data.values.tobytes()
