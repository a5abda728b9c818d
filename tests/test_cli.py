import contextlib
import csv
import hashlib
import io
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mixlearn import cli, learners
from mixlearn.cli import cli_dispatch
from mixlearn.distributions import pmf_or_pdf
from mixlearn.fileio import read_dataset, read_spec
from mixlearn.tv import CHARFN_GRID_CAP

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


@pytest.mark.parametrize("k", ["0", "-2"])
def test_plan_samples_refuses_k_below_one(capsys, k):
    # k = 0 used to end in a ZeroDivisionError traceback, and k = -2 to print
    # gamma=-1/4 and exit 0
    rc = cli_dispatch([
        "plan-samples", "--family", "geometric-u", "--k", k, "--T", "2",
        "--scheme", "chebyshev", "--max-index", "3",
    ])
    out, err = capsys.readouterr()
    assert rc == 1 and out == ""
    assert err == f"error: k must be at least 1, got {k}\n"


@pytest.mark.parametrize("flags", [
    ["--T", "300"],
    ["--T", "400"],
    ["--T", "2", "--delta", "1/" + "1" + "0" * 400],
])
def test_plan_samples_past_the_float_range_exits_1(capsys, flags):
    # these ended in OverflowError and ZeroDivisionError tracebacks
    rc = cli_dispatch([
        "plan-samples", "--family", "geometric-p", "--k", "2", "--scheme", "chernoff",
        "--eps", "1/4", "--max-index", "4", *flags,
    ])
    out, err = capsys.readouterr()
    assert rc == 1 and out == ""
    assert err.startswith("error: the chernoff bound at order ")


@pytest.mark.parametrize("flags, reason", [
    (["--samples", "0"], "error: --samples must be positive"),
    (["--samples", "5", "--family", "nope"], "argument --family: unknown family 'nope'"),
])
def test_simulate_refuses_bad_flags_with_exit_2(tmp_path, spec_file, capsys, flags, reason):
    out_path = tmp_path / "x.txt"
    rc = cli_dispatch(["simulate", "--spec", str(spec_file), "--seed", "1",
                       "--out", str(out_path), *flags])
    assert rc == 2
    assert reason in capsys.readouterr().err
    assert not out_path.exists()


def test_a_rational_flag_of_zero_denominator_exits_2(capsys):
    rc = cli_dispatch([
        "plan-samples", "--family", "binomial-p", "--k", "2", "--T", "2",
        "--scheme", "chebyshev", "--eps", "1/0", "--max-index", "2", "--n", "10",
    ])
    assert rc == 2
    assert "argument --eps: invalid rational '1/0'" in capsys.readouterr().err


def test_verify_identifiability_prints_the_collision(capsys):
    assert cli_dispatch(["verify-identifiability", "--n", "8", "--T", "2"]) == 0
    assert capsys.readouterr().out == (
        "n=8\nq=2\nmode=sets\nobjects=256\nT_theorem=12\nT_minimal=3\n"
        "collision_at_order=2 a=[0, 4, 5] b=[1, 2, 6]\n"
        "note=multiset bound uses the natural logarithm\n"
    )


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


@pytest.mark.parametrize("args, digest", [
    (["--n", "12"], "4aae7112a3c63e49b29491bc87cd8de8db58b5a98ce905e61bd110a6296fd107"),
    (["--n", "6", "--q", "3", "--mode", "multisets"],
     "cc57d8f8fd634b92cd8f753ab3e8d7ff693a50c8ec415196c6e8c1d59678802c"),
    # order 16 passes the int64 limit, so its sums are exact Python ints
    (["--n", "16"], "43490630c4dcda92b141fd04ada2bcba9d1f675a0e418edd5a446f529536fbb9"),
    (["--n", "10", "--T", "4"],
     "d06439bab67f8738f73424541488c8760295b978e893c4061e4d0fb08d27bcbc"),
])
def test_verify_identifiability_csv_is_frozen(tmp_path, capsys, args, digest):
    # sha256 of the files written with one power_sum_signature per object
    audit = tmp_path / "audit.csv"
    assert cli_dispatch(["verify-identifiability", *args, "--csv", str(audit)]) == 0
    assert hashlib.sha256(audit.read_bytes()).hexdigest() == digest


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


@pytest.mark.parametrize("tol", ["1e-308", "1e-320", "5e-324"])
def test_tv_exact_at_tolerances_near_the_float_floor(tmp_path, capsys, tol):
    # the tail bound's a^(2r-1) leaves the float range at these tolerances
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    a.write_text(POISSON_SPEC_A)
    b.write_text(POISSON_SPEC_B)
    rc = cli_dispatch(["tv", "exact", "--spec-a", str(a), "--spec-b", str(b),
                       "--tol", tol])
    out, err = capsys.readouterr()
    if rc == 0:
        values = dict(line.split("=", 1) for line in out.splitlines())
        assert 0.0 < float(values["tail_bound"]) <= float(tol)
        assert 0.0 <= float(values["tv_lo"]) <= float(values["tv_hi"]) <= 1.0
    else:
        assert rc in (1, 2) and "error:" in err


def test_tv_exact_poisson_rates_past_the_certificate_range(tmp_path, capsys):
    # E[4^X] = exp(3 lambda) passes the float range for lambda = 300; the
    # tail bound is taken from its log, 3 lambda
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    a.write_text("family=poisson\nindices=300\nmax_index=310\n")
    b.write_text("family=poisson\nindices=310\nmax_index=310\n")
    rc = cli_dispatch(["tv", "exact", "--spec-a", str(a), "--spec-b", str(b)])
    assert rc == 0
    values = dict(line.split("=", 1) for line in capsys.readouterr().out.splitlines())
    lo, hi = float(values["tv_lo"]), float(values["tv_hi"])
    assert 0.0 < lo <= hi <= 1.0 and hi - lo <= 1e-9
    spec_a, spec_b = read_spec(a), read_spec(b)
    total = 0.0  # left to right
    for x in range(int(values["x_max"])):
        total += abs(pmf_or_pdf(spec_a, x) - pmf_or_pdf(spec_b, x))
    assert lo == 0.5 * total


def test_tv_exact_past_the_mass_table_cap_exit_code(tmp_path, capsys):
    # lambda = 10^6 truncates near r = 2.16 * 10^6: two mass rows pass the cap
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    a.write_text("family=poisson\nindices=1000000\nmax_index=1000000\n")
    b.write_text("family=poisson\nindices=999999\nmax_index=1000000\n")
    rc = cli_dispatch(["tv", "exact", "--spec-a", str(a), "--spec-b", str(b)])
    err = capsys.readouterr().err
    assert rc == 1 and "error:" in err and "mass table exceeds the cap" in err


def test_tv_exact_past_the_crossing_scan_cap_exit_code(tmp_path, capsys):
    # a scan of sigma / 100 steps over 0..10^4 at sigma = 10^-6: about 10^12 points
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    spec = "family=gaussian\nsigma=1e-6\nmin_index=0\nmax_index=10000\nindices={}\n"
    a.write_text(spec.format(0))
    b.write_text(spec.format(10_000))
    rc = cli_dispatch(["tv", "exact", "--spec-a", str(a), "--spec-b", str(b)])
    err = capsys.readouterr().err
    assert rc == 1 and "error:" in err and "crossing scan" in err


def test_dispatch_answers_as_a_fresh_parser_does(tmp_path, capsys, monkeypatch):
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    a.write_text(POISSON_SPEC_A)
    b.write_text(POISSON_SPEC_B)
    pair = ["--spec-a", str(a), "--spec-b", str(b)]
    runs = [
        ["tv", "exact", *pair],
        ["plan-samples", "--family", "binomial-p", "--k", "2", "--T", "2",
         "--scheme", "chebyshev", "--eps", "1/2", "--max-index", "2", "--n", "10"],
        ["tv", "bound", *pair, "--L", "1"],
        ["verify-identifiability", "--n", "5"],
        ["tv", "bound", *pair, "--L", "0"],
        ["learn", "--family", "poisson"],
        ["tv", "exact", *pair, "--tol", "1e-3"],
        ["verify-identifiability", "--n", "4", "--mode", "multisets", "--q", "3"],
    ]

    def run_all():
        results = []
        for argv in runs:
            rc = cli_dispatch(argv)
            results.append((rc, *capsys.readouterr()))
        return results

    shared = run_all()
    assert cli._parser() is cli._parser()
    monkeypatch.setattr(cli, "_parser", cli.build_parser)  # a new parser per call
    assert run_all() == shared
    assert [rc for rc, _, _ in shared] == [0, 0, 0, 0, 1, 2, 0, 0]


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


def test_tv_exact_large_negative_binomial(tmp_path, capsys):
    # C(x + 1099, x) overflows a float from x = 292 on: the pmf must switch
    # to log space
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    spec = "family=neg-binomial\nmin_index=1\nmax_index=1101\np=1/2\nindices={}\n"
    a.write_text(spec.format("1100"))
    b.write_text(spec.format("1101"))
    rc = cli_dispatch(["tv", "exact", "--spec-a", str(a), "--spec-b", str(b)])
    values = dict(line.split("=", 1) for line in capsys.readouterr().out.splitlines())
    assert rc == 0
    lo, hi = float(values["tv_lo"]), float(values["tv_hi"])
    assert 0.0 < lo <= hi <= 1.0 and hi - lo <= 1e-9
    assert int(values["x_max"]) > 292


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


def _experiment(tmp_path, text):
    config = tmp_path / "config.txt"
    config.write_text(text)
    rc = cli_dispatch(["experiment", "--config", str(config), "--out", str(tmp_path / "out")])
    return rc, tmp_path / "out"


def test_experiment_without_failed_trials_writes_the_same_table(tmp_path, capsys):
    rc, out_dir = _experiment(
        tmp_path,
        "family=binomial-p\nmethod=moments\neps=1/2\nmin_index=0\nmax_index=2\nk=2\n"
        "truth=1,2\nsamples=200000\ntrials=3\nseed=5\nn=10\n",
    )
    assert rc == 0
    # sha256 of the table written before failed trials became rows
    assert hashlib.sha256((out_dir / "trials.csv").read_bytes()).hexdigest() == \
        "24f6eb0a1c49b5e77cb5138350aa4c4c0b8df5d485e2ae0c799920a43fe6eb9b"
    assert "errors=" not in capsys.readouterr().out


def test_experiment_records_a_trial_off_the_lattice_as_a_failed_row(tmp_path, capsys):
    # at 1,000 samples some trials' power sums round off the lattice; this
    # config used to abort with "power sum m_2 = 95/18 is 0.278 from an
    # integer (tolerance 1/4)" and write nothing
    rc, out_dir = _experiment(
        tmp_path,
        "family=binomial-p\nmethod=moments\neps=1/4\nmin_index=0\nmax_index=4\nk=2\n"
        "truth=1,2\nsamples=1000\ntrials=20\nseed=1\nn=10\n",
    )
    assert rc == 0
    with open(out_dir / "trials.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["trial", "seed", "recovered", "success", "delta_or_residual", "error"]
    assert [row[0] for row in rows[1:]] == [str(t) for t in range(20)]
    failed = [row for row in rows[1:] if row[5]]
    assert failed
    assert all(row[2:] == ["", "0", "nan", "MomentInconsistencyError"] for row in failed)
    assert all(row[2] == "1 2" and row[3] == "1" for row in rows[1:] if not row[5])
    assert f"errors={len(failed)} " in capsys.readouterr().out


@pytest.mark.parametrize("line, message", [
    ("trials=-3", "trials must be nonnegative, got -3"),
    ("k=3", "k=3 disagrees with 2 true indices"),
])
def test_experiment_refuses_a_bad_config(tmp_path, capsys, line, message):
    # trials=-3 used to exit 0 with successes=0/-3, and k=3 beside truth=1,4
    # to learn three indices and report successes=0/2
    base = {"family": "poisson", "method": "mde", "eps": "1", "min_index": "0",
            "max_index": "5", "k": "2", "truth": "1,4", "samples": "2000",
            "trials": "2", "seed": "1"}
    key, value = line.split("=")
    text = "".join(f"{f}={value if f == key else v}\n" for f, v in base.items())
    rc, out_dir = _experiment(tmp_path, text)
    out, err = capsys.readouterr()
    assert rc == 1 and out == ""
    assert err == f"error: {message}\n"
    assert not out_dir.exists()


def test_sample_count_past_the_cap_exit_code(tmp_path, spec_file, capsys):
    rc = cli_dispatch(["simulate", "--spec", str(spec_file), "--samples", str(10**13),
                       "--seed", "1", "--out", str(tmp_path / "data.txt")])
    assert rc == 1
    assert "over the cap" in capsys.readouterr().err
    # a cap error in a trial aborts the experiment
    rc, out_dir = _experiment(
        tmp_path,
        "family=binomial-p\nmethod=moments\neps=1/2\nmin_index=0\nmax_index=2\nk=2\n"
        f"truth=1,2\nsamples={10**13}\ntrials=2\nseed=5\nn=10\n",
    )
    assert rc == 1
    assert not out_dir.exists()


def test_experiment_past_the_sample_cap_exits_before_the_precompute(tmp_path, monkeypatch,
                                                                     capsys):
    calls = []
    monkeypatch.setattr(learners, "precompute_mde", lambda cands: calls.append(cands))
    rc, out_dir = _experiment(
        tmp_path,
        "family=poisson\nmethod=mde\neps=1\nmin_index=0\nmax_index=20\nk=2\n"
        f"truth=1,4\nsamples={10**13}\ntrials=2\nseed=1\n",
    )
    assert rc == 1
    assert "over the cap" in capsys.readouterr().err
    assert calls == []
    assert not out_dir.exists()


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


def test_oversize_mde_table_exit_code(tmp_path, capsys):
    # 323 candidates are over precompute_mde's table cap
    data = tmp_path / "data.txt"
    data.write_text("# family=poisson\n1\n4\n")
    rc = _learn(data, "--method", "mde", "--family", "poisson", "--k", "1",
                "--max-index", "322")
    assert rc == 1
    assert "over the cap" in capsys.readouterr().err


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


def test_binomial_moments_respect_the_declared_index_range(tmp_path, capsys):
    spec = tmp_path / "spec.txt"
    spec.write_text(BINOMIAL_SPEC.replace("indices=1,2", "indices=0,2"))
    data = tmp_path / "data.txt"
    assert cli_dispatch(["simulate", "--spec", str(spec), "--samples", "200000",
                         "--seed", "1", "--out", str(data)]) == 0
    route = ["--method", "moments", "--family", "binomial-p", "--k", "2",
             "--eps", "1/2", "--n", "10", "--truth", "0,2"]
    assert _learn(data, *route, "--max-index", "2") == 0
    assert "recovered=0,2" in capsys.readouterr().out
    assert _learn(data, *route, "--min-index", "1", "--max-index", "2") == 1
    assert "recovered=0,2" not in capsys.readouterr().out


@pytest.mark.parametrize("arc", [["--L", "1e-300"], ["--L", "1", "--resolution", "100000000"]])
def test_tv_littlewood_oversized_grid_exit_code(capsys, arc):
    assert cli_dispatch(["tv", "littlewood", "--coeffs", "1,-1", *arc]) == 1
    assert "exceed" in capsys.readouterr().err


def test_learn_mde_chi_squared_with_a_dof_one_candidate(tmp_path, capsys):
    # the default chi-squared grid starts at dof 1, whose density diverges at 0
    spec = tmp_path / "spec.txt"
    spec.write_text("family=chi-squared\nindices=1,4\nmin_index=1\nmax_index=5\n")
    data = tmp_path / "data.txt"
    assert cli_dispatch(["simulate", "--spec", str(spec), "--samples", "20000",
                         "--seed", "1", "--out", str(data)]) == 0
    assert _learn(data, "--method", "mde", "--family", "chi-squared", "--k", "2",
                  "--max-index", "5", "--truth", "1,4") == 0
    out = capsys.readouterr().out
    assert "recovered=1,4" in out
    assert "success=true" in out


@pytest.mark.parametrize("argv", [
    ["bound", "--L", "0"],
    ["bound", "--L", "-1"],
    ["bound", "--L", "nan"],
    ["bound", "--L", "inf"],
    ["bound", "--L", "1", "--grid-points", str(CHARFN_GRID_CAP + 1)],
    ["exact", "--tol", "inf"],
    ["exact", "--tol", "nan"],
    ["survey", "--k", "2", "--max-index", "5", "--L", "0"],
    ["survey", "--k", "2", "--max-index", "5", "--L", "nan"],
    ["survey", "--k", "-1", "--max-index", "5"],
    ["survey", "--k", "0", "--max-index", "5"],
    ["survey", "--k", "6", "--max-index", "5"],
    ["survey", "--k", "7", "--max-index", "5"],
    ["survey", "--k", "1", "--max-index", "0"],
])
def test_tv_bad_input_exit_code(tmp_path, capsys, argv):
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    a.write_text(POISSON_SPEC_A)
    b.write_text(POISSON_SPEC_B)
    command, flags = argv[0], argv[1:]
    if command == "survey":
        flags += ["--family", "poisson", "--out", str(tmp_path / "s.csv")]
    else:
        flags += ["--spec-a", str(a), "--spec-b", str(b)]
    assert cli_dispatch(["tv", command, *flags]) == 1
    assert "error:" in capsys.readouterr().err


# analytic-family specs on grids up to index 8 (dof 1 included); the survey
# flags keep its grids to at most 4 points, so each example stays quick
TV_FAMILIES = ["gaussian", "poisson", "chi-squared", "neg-binomial"]
TV_SPECS = st.sampled_from(TV_FAMILIES).flatmap(
    lambda family: st.tuples(
        st.just(family),
        st.lists(st.integers(1, 8), min_size=1, max_size=3, unique=True),
        st.integers(1, 8),
    )
)
TV_SHARED = {"gaussian": "sigma=1\n", "neg-binomial": "p=1/2\n"}
TV_FLAGS = {
    "--L": ["0", "-1", "nan", "inf", "1e-300", "1"],
    "--tol": ["0", "-1", "nan", "inf", "1e-6"],
    "--k": [str(k) for k in range(-1, 10)],
    "--grid-points": ["0", "2", "3", str(CHARFN_GRID_CAP + 1)],
}
TV_COMMAND_FLAGS = {
    "exact": ["--tol"],
    "bound": ["--L", "--grid-points"],
    "survey": ["--L", "--k"],
    "littlewood": ["--L"],
}
# the flags each subcommand needs, before overrides
TV_DEFAULTS = {"exact": {}, "bound": {"--L": "1"}, "survey": {"--k": "2"},
               "littlewood": {"--L": "2"}}
tv_overrides = st.lists(
    st.sampled_from(sorted(TV_FLAGS)).flatmap(
        lambda flag: st.tuples(st.just(flag), st.sampled_from(TV_FLAGS[flag]))),
    max_size=3,
).map(dict)


def _tv_spec_text(family, indices, max_index):
    return (f"family={family}\nindices={','.join(map(str, indices))}\n"
            f"max_index={max_index}\n{TV_SHARED.get(family, '')}")


@settings(max_examples=100, deadline=None)
@given(command=st.sampled_from(sorted(TV_COMMAND_FLAGS)), spec_a=TV_SPECS,
       spec_b=TV_SPECS, survey_max=st.integers(0, 3), overrides=tv_overrides,
       coeffs=st.sampled_from(["1,-1", "1,0,1", "0", "1,2", "1,x"]))
def test_tv_never_escapes(command, spec_a, spec_b, survey_max, overrides, coeffs):
    flags = {**TV_DEFAULTS[command],
             **{f: v for f, v in overrides.items() if f in TV_COMMAND_FLAGS[command]}}
    with tempfile.TemporaryDirectory() as tmp:
        if command in ("exact", "bound"):
            for name, spec in (("--spec-a", spec_a), ("--spec-b", spec_b)):
                path = os.path.join(tmp, name[2:] + ".txt")
                with open(path, "w") as fh:
                    fh.write(_tv_spec_text(*spec))
                flags[name] = path
        elif command == "survey":
            family = spec_a[0]
            flags.update({"--family": family, "--max-index": str(survey_max),
                          "--out": os.path.join(tmp, "survey.csv")})
            if family in TV_SHARED:
                key, value = TV_SHARED[family].strip().split("=")
                flags["--" + key] = value
        else:
            flags["--coeffs"] = coeffs
        argv = ["tv", command, *[x for item in flags.items() for x in item]]
        rc = _dispatch_quietly(argv)
    assert rc in (0, 1, 2)
