import contextlib
import csv
import io
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mixlearn.cli import cli_dispatch
from mixlearn.fileio import read_dataset

BINOMIAL_SPEC = """\
family=binomial-p
k=2
eps=1/2
min_index=0
max_index=2
indices=1,2
n=10
"""

POISSON_SPEC_A = """\
family=poisson
indices=1,4
min_index=0
max_index=5
"""

POISSON_SPEC_B = """\
family=poisson
indices=2,3
min_index=0
max_index=5
"""


@pytest.fixture
def spec_file(tmp_path):
    path = tmp_path / "spec.txt"
    path.write_text(BINOMIAL_SPEC)
    return path


def test_simulate_then_learn_round_trip(tmp_path, spec_file, capsys):
    data_path = tmp_path / "data.txt"
    rc = cli_dispatch([
        "simulate", "--spec", str(spec_file), "--samples", "200000",
        "--seed", "42", "--out", str(data_path),
    ])
    assert rc == 0
    data = read_dataset(data_path)
    assert len(data) == 200000
    rc = cli_dispatch([
        "learn", "--method", "moments", "--family", "binomial-p",
        "--k", "2", "--data", str(data_path), "--eps", "1/2",
        "--max-index", "2", "--n", "10", "--truth", "1,2",
    ])
    out = capsys.readouterr().out
    assert rc == 0
    assert "recovered=1,2" in out
    assert "success=true" in out


def test_simulate_is_reproducible(tmp_path, spec_file):
    p1, p2 = tmp_path / "a.txt", tmp_path / "b.txt"
    for p in (p1, p2):
        assert cli_dispatch([
            "simulate", "--spec", str(spec_file), "--samples", "500",
            "--seed", "7", "--out", str(p),
        ]) == 0
    assert np.array_equal(read_dataset(p1).values, read_dataset(p2).values)


def test_simulate_family_cross_check(tmp_path, spec_file, capsys):
    rc = cli_dispatch([
        "simulate", "--family", "poisson", "--spec", str(spec_file),
        "--samples", "10", "--seed", "1", "--out", str(tmp_path / "x.txt"),
    ])
    assert rc == 2  # usage error with a one-line reason
    assert "error:" in capsys.readouterr().err


def test_plan_samples_output(capsys):
    rc = cli_dispatch([
        "plan-samples", "--family", "binomial-p", "--k", "2", "--T", "2",
        "--scheme", "chebyshev", "--eps", "1/2", "--max-index", "2",
        "--n", "10",
    ])
    out = capsys.readouterr().out
    assert rc == 0
    assert "t=518400" in out


def test_verify_identifiability_with_csv(tmp_path, capsys):
    audit = tmp_path / "audit.csv"
    rc = cli_dispatch([
        "verify-identifiability", "--n", "4", "--mode", "sets",
        "--csv", str(audit),
    ])
    out = capsys.readouterr().out
    assert rc == 0
    assert "T_minimal=" in out
    with open(audit) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["object", "signature"]
    assert len(rows) == 1 + 2**4


def test_tv_exact_and_bound(tmp_path, capsys):
    a = tmp_path / "a.txt"
    b = tmp_path / "b.txt"
    a.write_text(POISSON_SPEC_A)
    b.write_text(POISSON_SPEC_B)
    rc = cli_dispatch(["tv", "exact", "--spec-a", str(a), "--spec-b", str(b)])
    out = capsys.readouterr().out
    assert rc == 0
    tv_hi = float([l for l in out.splitlines() if l.startswith("tv_hi=")][0][6:])
    rc = cli_dispatch([
        "tv", "bound", "--spec-a", str(a), "--spec-b", str(b), "--L", "1",
    ])
    out = capsys.readouterr().out
    assert rc == 0
    value = float([l for l in out.splitlines() if l.startswith("value=")][0][6:])
    assert value <= tv_hi + 1e-12


def test_tv_exact_large_binomial(tmp_path, capsys):
    # C(2000, x) overflows a float: the pmf must switch to log space
    a = tmp_path / "a.txt"
    b = tmp_path / "b.txt"
    spec = "family=binomial-p\neps=1/4\nmin_index=0\nmax_index=4\nn=2000\nindices={}\n"
    a.write_text(spec.format("1"))
    b.write_text(spec.format("2"))
    rc = cli_dispatch(["tv", "exact", "--spec-a", str(a), "--spec-b", str(b)])
    out = capsys.readouterr().out
    assert rc == 0
    values = dict(line.split("=", 1) for line in out.splitlines())
    assert 0.0 <= float(values["tv_lo"]) <= float(values["tv_hi"]) <= 1.0
    assert float(values["tv_hi"]) > 0.99  # p = 1/4 vs 1/2 at n = 2000


def test_tv_littlewood(capsys):
    rc = cli_dispatch([
        "tv", "littlewood", "--coeffs", "1,1,1,1", "--L", "2",
    ])
    out = capsys.readouterr().out
    assert rc == 0
    assert "arc_max=4.0" in out


def test_tv_littlewood_bad_coeffs(capsys):
    rc = cli_dispatch(["tv", "littlewood", "--coeffs", "1,2", "--L", "2"])
    assert rc == 1  # domain error: coefficient outside {-1,0,1}


def test_tv_survey_csv(tmp_path, capsys):
    out_csv = tmp_path / "survey.csv"
    rc = cli_dispatch([
        "tv", "survey", "--family", "poisson", "--k", "2",
        "--max-index", "3", "--out", str(out_csv),
    ])
    assert rc == 0
    with open(out_csv) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["pair_a", "pair_b", "tv_lo", "tv_hi",
                       "charfn_bound", "witness_t"]
    assert len(rows) == 1 + 15


def test_experiment_end_to_end(tmp_path, capsys):
    config = tmp_path / "config.txt"
    config.write_text(
        "family=poisson\nmethod=mde\neps=1\nmin_index=0\nmax_index=5\n"
        "k=2\ntruth=1,4\nsamples=20000\ntrials=3\nseed=99\n"
    )
    out_dir = tmp_path / "out"
    rc = cli_dispatch([
        "experiment", "--config", str(config), "--out", str(out_dir),
    ])
    assert rc == 0
    with open(out_dir / "trials.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["trial", "seed", "recovered", "success",
                       "delta_or_residual"]
    assert len(rows) == 4
    summary = (out_dir / "summary.txt").read_text()
    assert summary.startswith("successes=")


def test_usage_error_exit_code():
    assert cli_dispatch(["learn", "--method", "bogus", "--family",
                         "poisson", "--k", "2", "--data", "x",
                         "--max-index", "5"]) == 2


def test_domain_error_exit_code(tmp_path, capsys):
    missing = tmp_path / "missing.txt"
    rc = cli_dispatch([
        "learn", "--method", "mde", "--family", "poisson", "--k", "2",
        "--data", str(missing), "--max-index", "5",
    ])
    assert rc == 1


def test_unknown_subcommand_is_usage_error():
    assert cli_dispatch(["frobnicate"]) == 2


@pytest.mark.parametrize("bad", ["inf", "nan", "-inf"])
def test_non_finite_dataset_value_exit_code(tmp_path, capsys, bad):
    data = tmp_path / "data.txt"
    data.write_text(f"# family=poisson\n1\n{bad}\n2\n")
    rc = cli_dispatch([
        "learn", "--method", "mde", "--family", "poisson", "--k", "2",
        "--data", str(data), "--max-index", "5",
    ])
    assert rc == 1
    assert "line 3" in capsys.readouterr().err


def _learn(data, *extra):
    return cli_dispatch(["learn", "--data", str(data), *extra])


@pytest.mark.parametrize("route", [
    ["--method", "moments", "--family", "binomial-p", "--eps", "1/2",
     "--max-index", "2", "--n", "10"],
    ["--method", "moments", "--family", "geometric-u", "--max-index", "3"],
    ["--method", "pmf", "--family", "geometric-p", "--eps", "1/4",
     "--max-index", "4"],
    ["--method", "mde", "--family", "poisson", "--max-index", "5"],
])
@pytest.mark.parametrize("k", ["0", "-1"])
def test_component_count_below_one_exit_code(tmp_path, capsys, route, k):
    data = tmp_path / "data.txt"
    family = route[route.index("--family") + 1]
    data.write_text(f"# family={family}\n1\n2\n3\n1\n")
    assert _learn(data, "--k", k, *route) == 1
    assert "k must be at least 1" in capsys.readouterr().err


@pytest.mark.parametrize("sigma", ["nan", "inf"])
def test_non_finite_sigma_exit_code(tmp_path, capsys, sigma):
    data = tmp_path / "data.txt"
    data.write_text("# family=gaussian\n0.5\n1.5\n")
    rc = _learn(data, "--method", "mde", "--family", "gaussian", "--k", "2",
                "--max-index", "3", "--sigma", sigma)
    assert rc == 1
    assert "sigma" in capsys.readouterr().err


def test_wide_dataset_value_exit_code(tmp_path, capsys):
    data = tmp_path / "data.txt"
    data.write_text(f"# family=poisson\n1\n{10**20}\n")
    rc = _learn(data, "--method", "mde", "--family", "poisson", "--k", "2",
                "--max-index", "5")
    assert rc == 1
    assert "line 3" in capsys.readouterr().err


def test_dataset_of_another_family_exit_code(tmp_path, capsys):
    data = tmp_path / "data.txt"
    data.write_text("# family=gaussian\n-3\n")
    rc = _learn(data, "--method", "mde", "--family", "poisson", "--k", "1",
                "--max-index", "5")
    assert rc == 1
    assert "disagrees" in capsys.readouterr().err


def test_malformed_truth_is_usage_error(tmp_path):
    data = tmp_path / "data.txt"
    data.write_text("# family=poisson\n1\n4\n")
    rc = _learn(data, "--method", "mde", "--family", "poisson", "--k", "2",
                "--max-index", "5", "--truth", "1,x")
    assert rc == 2


# --- property test: whatever the arguments and files, cli_dispatch returns an
# exit code and lets no exception escape.

FAMILIES = ["gaussian", "poisson", "binomial-p", "geometric-p", "geometric-u",
            "chi-squared", "neg-binomial"]
# valid `learn` flags per family; the property test overrides a few of them
BASE_FLAGS = {
    "gaussian": {"--max-index": "3", "--sigma": "1"},
    "poisson": {"--max-index": "5"},
    "binomial-p": {"--eps": "1/2", "--max-index": "2", "--n": "10"},
    "geometric-p": {"--eps": "1/4", "--max-index": "4"},
    "geometric-u": {"--max-index": "3"},
    "chi-squared": {"--min-index": "2", "--max-index": "4"},
    "neg-binomial": {"--max-index": "4", "--p": "1/2"},
}
FLAG_VALUES = {
    "--eps": ["1", "1/2", "1/4", "2/5", "0", "3"],
    "--min-index": ["-1", "0", "1", "3"],
    "--max-index": ["-1", "0", "1", "5"],
    "--n": ["-1", "0", "2", "10"],
    "--sigma": ["1", "0.5", "nan", "inf", "-1", "0"],
    "--p": ["1/2", "0", "1"],
}
# method and family drawn together: every route, and some that do not exist
routes = st.one_of(
    st.sampled_from([
        ("moments", "binomial-p"), ("moments", "geometric-u"), ("pmf", "geometric-p"),
        ("mde", "poisson"), ("mde", "gaussian"), ("mde", "chi-squared"),
        ("mde", "neg-binomial"),
    ]),
    st.tuples(st.sampled_from(["moments", "pmf", "mde"]), st.sampled_from(FAMILIES)),
)
flag_overrides = st.lists(
    st.sampled_from(sorted(FLAG_VALUES)).flatmap(
        lambda flag: st.tuples(st.just(flag), st.sampled_from(FLAG_VALUES[flag]))),
    max_size=2,
).map(dict)
# the header family (None: the learned family), ordinary values, and
# possibly one line that a dataset should not hold
dataset = st.tuples(
    st.one_of(st.none(), st.sampled_from(FAMILIES)),
    st.lists(st.sampled_from(["0", "1", "2", "3", "4"]), max_size=12),
    st.lists(st.sampled_from(["inf", "nan", str(2**63), "-3", "1.5",
                              str(2**53 + 1), "0.25", "x"]), max_size=1),
)
# one valid spec per family; the property test overrides a few of its keys
BASE_SPECS = {
    "gaussian": {"indices": "0,2", "sigma": "1"},
    "poisson": {"indices": "1,4"},
    "binomial-p": {"eps": "1/2", "min_index": "0", "max_index": "2",
                   "indices": "1,2", "n": "10"},
    "geometric-p": {"eps": "1/4", "max_index": "4", "indices": "1,3"},
    "geometric-u": {"indices": "0,2"},
    "chi-squared": {"indices": "2,4"},
    "neg-binomial": {"indices": "1,3", "p": "1/2"},
}
spec_overrides = st.dictionaries(
    st.sampled_from(["family", "eps", "indices", "min_index", "max_index",
                     "n", "sigma", "k", "weights", "p"]),
    st.sampled_from(["", "x", "0", "1", "2", "1/2", "1,2", "1,x", "nan", "inf",
                     "-1", "poisson", "binomial-p", "gaussian", "geometric-u"]),
    max_size=3,
)


def _dispatch_quietly(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        return cli_dispatch(argv)


@settings(max_examples=150, deadline=None)
@given(route=routes, k=st.integers(-1, 3), overrides=flag_overrides, data=dataset)
def test_learn_never_escapes(route, k, overrides, data):
    method, family = route
    header, values, odd = data
    flags = {**BASE_FLAGS[family], **overrides}
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "data.txt")
        with open(path, "w") as fh:
            fh.write(f"# family={header or family}\n")
            fh.write("".join(v + "\n" for v in values + odd))
        argv = ["learn", "--method", method, "--family", family, "--k", str(k),
                "--data", path]
        rc = _dispatch_quietly(argv + [x for item in flags.items() for x in item])
    assert rc in (0, 1, 2)


@settings(max_examples=100, deadline=None)
@given(family=st.sampled_from(FAMILIES), overrides=spec_overrides,
       samples=st.integers(1, 20), seed=st.integers(-1, 3))
def test_simulate_never_escapes(family, overrides, samples, seed):
    kv = {"family": family, **BASE_SPECS[family], **overrides}
    with tempfile.TemporaryDirectory() as tmp:
        spec = os.path.join(tmp, "spec.txt")
        with open(spec, "w") as fh:
            fh.write("".join(f"{key}={val}\n" for key, val in kv.items()))
        rc = _dispatch_quietly([
            "simulate", "--spec", spec, "--samples", str(samples),
            "--seed", str(seed), "--out", os.path.join(tmp, "out.txt"),
        ])
    assert rc in (0, 1, 2)


@pytest.mark.parametrize("line", ["1e19", "9.007199254740993e15"])
def test_float_written_wide_dataset_value_exit_code(tmp_path, capsys, line):
    data = tmp_path / "data.txt"
    data.write_text(f"# family=poisson\n1\n{line}\n")
    rc = _learn(data, "--method", "mde", "--family", "poisson", "--k", "2",
                "--max-index", "5")
    assert rc == 1
    assert "2**53" in capsys.readouterr().err
