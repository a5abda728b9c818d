"""Command-line interface.

Exit codes: 0 on success, 1 on a domain/contract error, 2 on a usage error.
Numeric flags accept exact rationals written as ``num/den``.
"""

from __future__ import annotations

import argparse
import functools
import sys
from fractions import Fraction
from typing import List, Optional, Sequence

from .errors import MixlearnError, ParseError, UsageError
from .fileio import (
    format_rational,
    parse_rational,
    read_config,
    read_dataset,
    read_spec,
    write_csv,
    write_dataset,
    write_report,
    report_summary_line,
    spec_to_text,
)
from .grids import Family, ParameterGrid, SharedParams
from .learners import (  # perfbench/tracer.py wraps the learn_* names of this module
    ROUTES,
    learn,
    learn_binomial_moments,
    learn_geometric,
    learn_mde,
    run_experiment,
)
from .littlewood import LittlewoodPoly, littlewood_arc_max
from .moments import plan_samples
from .powersums import _signature_csv, verify_identifiability
from .sampling import sample
from .tv import separation_survey, tv_exact, tv_lower_bound_charfn


def _rational(text: str) -> Fraction:
    try:
        return parse_rational(text)
    except ParseError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _family(text: str) -> Family:
    try:
        return Family(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"unknown family {text!r}")


def _add_grid_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--eps", type=_rational, default=Fraction(1))
    p.add_argument("--min-index", type=int, default=None)
    p.add_argument("--max-index", type=int, required=True)
    p.add_argument("--n", type=int, default=None, help="shared binomial trials")
    p.add_argument("--sigma", type=float, default=None, help="shared gaussian sigma")
    p.add_argument("--p", type=_rational, default=None,
                   help="shared negative-binomial p")


def _grid_from_args(args) -> ParameterGrid:
    min_index = args.min_index
    if min_index is None:
        min_index = 1 if args.family in (Family.CHI_SQUARED, Family.NEG_BINOMIAL) else 0
    return ParameterGrid(args.family, Fraction(args.eps), min_index, args.max_index)


def _shared_from_args(args) -> SharedParams:
    return SharedParams(n=args.n, sigma=args.sigma, p=args.p)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mixlearn",
        description="Exact parameter learning for discretized mixture models.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="draw a reproducible dataset")
    sim.add_argument("--family", type=_family, default=None,
                     help="cross-check against the spec file")
    sim.add_argument("--spec", required=True, help="mixture spec file")
    sim.add_argument("--samples", type=int, required=True)
    sim.add_argument("--seed", type=int, required=True)
    sim.add_argument("--stream", type=int, default=0)
    sim.add_argument("--out", required=True)

    learn = sub.add_parser("learn", help="recover mixture parameters from data")
    learn.add_argument("--method", choices=list(dict.fromkeys(m for m, _ in ROUTES)),
                       required=True)
    learn.add_argument("--family", type=_family, required=True)
    learn.add_argument("--k", type=int, required=True)
    learn.add_argument("--data", required=True)
    learn.add_argument("--truth", default=None,
                       help="comma-separated true indices, for a success flag")
    _add_grid_flags(learn)

    plan = sub.add_parser("plan-samples", help="per-moment sample-size plan")
    plan.add_argument("--family", type=_family, required=True)
    plan.add_argument("--k", type=int, required=True)
    plan.add_argument("--T", type=int, required=True)
    plan.add_argument("--scheme", choices=["chebyshev", "chernoff"], required=True)
    plan.add_argument("--delta", type=_rational, default=None,
                      help="uniform per-moment failure probability override")
    _add_grid_flags(plan)

    vid = sub.add_parser("verify-identifiability",
                         help="exhaustive power-sum separation check")
    vid.add_argument("--n", type=int, required=True)
    vid.add_argument("--q", type=int, default=2)
    vid.add_argument("--mode", choices=["sets", "multisets"], default="sets")
    vid.add_argument("--T", type=int, default=None)
    vid.add_argument("--csv", default=None,
                     help="optional (object, signature) audit CSV path")

    tv = sub.add_parser("tv", help="total-variation certificates")
    tvsub = tv.add_subparsers(dest="tv_command", required=True)

    tve = tvsub.add_parser("exact", help="two-sided TV interval")
    tve.add_argument("--spec-a", required=True)
    tve.add_argument("--spec-b", required=True)
    tve.add_argument("--tol", type=float, default=1e-9)

    tvb = tvsub.add_parser("bound", help="characteristic-function lower bound")
    tvb.add_argument("--spec-a", required=True)
    tvb.add_argument("--spec-b", required=True)
    tvb.add_argument("--L", type=float, required=True)
    tvb.add_argument("--grid-points", type=int, default=1024)

    tvl = tvsub.add_parser("littlewood", help="arc maximum of a {-1,0,1} polynomial")
    tvl.add_argument("--coeffs", required=True,
                     help="comma-separated coefficients, constant term first")
    tvl.add_argument("--L", type=float, required=True)
    tvl.add_argument("--resolution", type=int, default=256)

    tvs = tvsub.add_parser("survey", help="pairwise separation survey CSV")
    tvs.add_argument("--family", type=_family, required=True)
    tvs.add_argument("--k", type=int, required=True)
    tvs.add_argument("--L", type=float, default=None)
    tvs.add_argument("--out", required=True)
    _add_grid_flags(tvs)

    exp = sub.add_parser("experiment", help="seeded multi-trial experiment")
    exp.add_argument("--config", required=True)
    exp.add_argument("--out", required=True)

    return parser


def _cmd_simulate(args) -> int:
    spec = read_spec(args.spec)
    if args.family is not None and spec.family is not args.family:
        raise UsageError(
            f"--family {args.family.value} disagrees with spec "
            f"family {spec.family.value}"
        )
    if args.samples < 1:
        raise UsageError("--samples must be positive")
    data = sample(spec, args.samples, args.seed, stream=args.stream)
    data = type(data)(
        family=data.family, values=data.values, seed=args.seed,
        spec_text=spec_to_text(spec),
    )
    write_dataset(args.out, data)
    print(f"wrote {args.samples} samples to {args.out}")
    return 0


def _cmd_learn(args) -> int:
    data = read_dataset(args.data)
    grid = _grid_from_args(args)
    truth = None
    if args.truth:
        try:
            truth = tuple(int(s) for s in args.truth.split(","))
        except ValueError:
            raise UsageError(f"invalid --truth list {args.truth!r}")
    if (args.method, args.family) not in ROUTES:
        raise UsageError(
            f"method {args.method!r} does not apply to family {args.family.value}"
        )
    result = learn(args.method, data, grid, args.k, _shared_from_args(args), truth=truth)
    print(f"recovered={','.join(str(i) for i in result.recovered)}")
    for key, val in sorted(result.diagnostics.items()):
        print(f"{key}={val}")
    if result.exact_match is not None:
        print(f"success={'true' if result.exact_match else 'false'}")
    return 0


def _cmd_plan_samples(args) -> int:
    plan = plan_samples(
        args.family, args.k, _grid_from_args(args), _shared_from_args(args),
        args.T, args.scheme, uniform_delta=args.delta,
    )
    sys.stdout.write(plan.to_report())
    return 0


def _cmd_verify_identifiability(args) -> int:
    report = verify_identifiability(args.n, args.q, args.mode, args.T)
    sys.stdout.write(report.to_report())
    if args.csv:
        T = args.T if args.T is not None else report.T_theorem
        with open(args.csv, "w", encoding="utf-8", newline="") as fh:
            fh.write("object,signature\r\n")
            fh.writelines(_signature_csv(args.n, args.q, args.mode, T))
    return 0


def _cmd_tv(args) -> int:
    if args.tv_command == "exact":
        interval = tv_exact(read_spec(args.spec_a), read_spec(args.spec_b), args.tol)
        print(f"tv_lo={interval.lo!r}")
        print(f"tv_hi={interval.hi!r}")
        print(f"x_max={interval.x_max!r}")
        print(f"tail_bound={interval.tail_bound!r}")
        return 0
    if args.tv_command == "bound":
        cert = tv_lower_bound_charfn(
            read_spec(args.spec_a), read_spec(args.spec_b),
            args.L, args.grid_points,
        )
        print(f"method={cert.method}")
        print(f"witness_t={cert.witness_t!r}")
        print(f"value={cert.value!r}")
        print(f"L={cert.L!r}")
        return 0
    if args.tv_command == "littlewood":
        try:
            coeffs = tuple(int(s) for s in args.coeffs.split(","))
        except ValueError:
            raise UsageError(f"invalid coefficient list {args.coeffs!r}")
        t_star, value = littlewood_arc_max(
            LittlewoodPoly(coeffs), args.L, args.resolution
        )
        print(f"t_star={t_star!r}")
        print(f"arc_max={value!r}")
        return 0
    if args.tv_command == "survey":
        summary = separation_survey(
            args.family, _shared_from_args(args), _grid_from_args(args),
            args.k, L=args.L,
        )
        write_csv(
            args.out,
            ["pair_a", "pair_b", "tv_lo", "tv_hi", "charfn_bound", "witness_t"],
            [
                (
                    " ".join(str(i) for i in r.pair_a),
                    " ".join(str(i) for i in r.pair_b),
                    repr(r.tv_lo), repr(r.tv_hi),
                    repr(r.charfn_bound), repr(r.witness_t),
                )
                for r in summary.rows
            ],
        )
        print(f"pairs={len(summary.rows)}")
        print(f"min_tv_lo={summary.min_tv_lo!r}")
        print(f"implied_constant={summary.implied_constant!r}")
        return 0
    raise UsageError(f"unknown tv subcommand {args.tv_command!r}")


def _cmd_experiment(args) -> int:
    config = read_config(args.config)
    report = run_experiment(config)
    csv_path = write_report(args.out, report)
    print(report_summary_line(report))
    print(f"wrote {csv_path}")
    return 0


_DISPATCH = {
    "simulate": _cmd_simulate,
    "learn": _cmd_learn,
    "plan-samples": _cmd_plan_samples,
    "verify-identifiability": _cmd_verify_identifiability,
    "tv": _cmd_tv,
    "experiment": _cmd_experiment,
}


# parse_args returns a fresh namespace on every call, so one parser serves
# the whole process
_parser = functools.lru_cache(maxsize=None)(build_parser)


def cli_dispatch(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _DISPATCH[args.command](args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (MixlearnError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(cli_dispatch())


if __name__ == "__main__":
    main()
