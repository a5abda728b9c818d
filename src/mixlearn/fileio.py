"""Text-file formats: datasets, mixture specs, experiment configs, CSV.

Datasets are one value per line with ``#`` metadata comments; everything
structured is flat ``key=value`` text with rationals written as ``num/den``
so round trips preserve exact values.
"""

from __future__ import annotations

import csv
import io
import math
from fractions import Fraction
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from .errors import ParseError
from .grids import (
    DISCRETE_FAMILIES,
    Family,
    MixtureSpec,
    ParameterGrid,
    SharedParams,
)
from .learners import ExperimentConfig, ExperimentReport
from .sampling import SampleDataset

PathLike = Union[str, Path]


def format_rational(value: Fraction) -> str:
    value = Fraction(value)
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def parse_rational(text: str, line: Optional[int] = None) -> Fraction:
    """Parse ``num/den`` or a plain integer/decimal as an exact Fraction."""
    text = text.strip()
    try:
        if "/" in text:
            num, den = text.split("/")
            return Fraction(int(num), int(den))
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ParseError(f"invalid rational {text!r}", line=line)


def _parse_family(text: str, line: Optional[int] = None) -> Family:
    try:
        return Family(text.strip())
    except ValueError:
        raise ParseError(f"unknown family {text.strip()!r}", line=line)


# ---------------------------------------------------------------------------
# datasets


def write_dataset(path: PathLike, data: SampleDataset) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# family={data.family.value}\n")
        if data.seed is not None:
            fh.write(f"# seed={data.seed}\n")
        if data.spec_text is not None:
            for line in data.spec_text.strip().splitlines():
                fh.write(f"# spec:{line}\n")
        if data.values.dtype.kind in "iu":
            for v in data.values:
                fh.write(f"{int(v)}\n")
        else:
            for v in data.values:
                fh.write(f"{float(v)!r}\n")


def read_dataset(path: PathLike) -> SampleDataset:
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


# ---------------------------------------------------------------------------
# key-value blocks


def parse_key_values(text: str) -> Dict[str, str]:
    """Flat ``key=value`` lines; blank lines and '#' comments ignored."""
    out: Dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ParseError(f"expected key=value, got {line!r}", line=lineno)
        key, value = line.split("=", 1)
        out[key.strip()] = value.strip()
    return out


def _require(kv: Dict[str, str], key: str) -> str:
    if key not in kv:
        raise ParseError(f"missing required key {key!r}")
    return kv[key]


def _number(kv: Dict[str, str], key: str, kind=int):
    """``kv[key]`` parsed by ``kind`` (int or float); a ParseError naming
    the key if it is missing or malformed."""
    text = _require(kv, key)
    try:
        return kind(text)
    except ValueError:
        raise ParseError(f"invalid {kind.__name__} for {key!r}: {text!r}")


def _index_list(kv: Dict[str, str], key: str) -> Tuple[int, ...]:
    """Comma-separated integers; at least one."""
    text = _require(kv, key)
    try:
        out = tuple(int(s) for s in text.split(",") if s.strip())
    except ValueError:
        raise ParseError(f"invalid integer list for {key!r}: {text!r}")
    if not out:
        raise ParseError(f"{key!r} lists no indices")
    return out


def _shared_lines(owner) -> List[str]:
    """``n``, ``sigma`` and ``p`` lines for the shared parameters that
    ``owner`` (a SharedParams or an ExperimentConfig) sets."""
    lines = []
    if owner.n is not None:
        lines.append(f"n={owner.n}")
    if owner.sigma is not None:
        lines.append(f"sigma={owner.sigma!r}")
    if owner.p is not None:
        lines.append(f"p={format_rational(owner.p)}")
    return lines


def _shared_fields(kv: Dict[str, str]) -> Dict[str, object]:
    """``n``, ``sigma`` and ``p`` parsed from ``kv``; None where absent."""
    return {
        "n": _number(kv, "n") if "n" in kv else None,
        "sigma": _number(kv, "sigma", float) if "sigma" in kv else None,
        "p": parse_rational(kv["p"]) if "p" in kv else None,
    }


# ---------------------------------------------------------------------------
# mixture specs


def spec_to_text(spec: MixtureSpec) -> str:
    lines = [
        f"family={spec.family.value}",
        f"k={spec.k}",
        f"eps={format_rational(spec.grid.step)}",
        f"min_index={spec.grid.min_index}",
        f"max_index={spec.grid.max_index}",
        f"indices={','.join(str(i) for i in spec.indices)}",
        f"weights={','.join(format_rational(w) for w in spec.weights)}",
        *_shared_lines(spec.shared),
    ]
    return "\n".join(lines) + "\n"


def spec_from_text(text: str) -> MixtureSpec:
    kv = parse_key_values(text)
    family = _parse_family(_require(kv, "family"))
    eps = parse_rational(kv.get("eps", "1"))
    indices = _index_list(kv, "indices")
    min_index = _number(kv, "min_index") if "min_index" in kv else min(indices)
    max_index = _number(kv, "max_index") if "max_index" in kv else max(indices)
    grid = ParameterGrid(family, eps, min_index, max_index)
    weights = ()
    if "weights" in kv and kv["weights"]:
        weights = tuple(parse_rational(s) for s in kv["weights"].split(","))
    shared = SharedParams(**_shared_fields(kv))
    spec = MixtureSpec(grid=grid, indices=indices, weights=weights, shared=shared)
    if "k" in kv and _number(kv, "k") != spec.k:
        raise ParseError(f"k={kv['k']} disagrees with {spec.k} indices")
    return spec


def write_spec(path: PathLike, spec: MixtureSpec) -> None:
    Path(path).write_text(spec_to_text(spec), encoding="utf-8")


def read_spec(path: PathLike) -> MixtureSpec:
    return spec_from_text(Path(path).read_text(encoding="utf-8"))


# ---------------------------------------------------------------------------
# experiment configs and reports


def config_from_text(text: str) -> ExperimentConfig:
    kv = parse_key_values(text)
    family = _parse_family(_require(kv, "family"))
    return ExperimentConfig(
        family=family,
        method=_require(kv, "method"),
        eps=parse_rational(kv.get("eps", "1")),
        min_index=_number(kv, "min_index"),
        max_index=_number(kv, "max_index"),
        k=_number(kv, "k"),
        truth=_index_list(kv, "truth"),
        samples=_number(kv, "samples"),
        trials=_number(kv, "trials"),
        seed=_number(kv, "seed"),
        **_shared_fields(kv),
        oracle=kv.get("oracle", "false").lower() in ("1", "true", "yes"),
    )


def config_to_text(config: ExperimentConfig) -> str:
    lines = [
        f"family={config.family.value}",
        f"method={config.method}",
        f"eps={format_rational(config.eps)}",
        f"min_index={config.min_index}",
        f"max_index={config.max_index}",
        f"k={config.k}",
        f"truth={','.join(str(i) for i in config.truth)}",
        f"samples={config.samples}",
        f"trials={config.trials}",
        f"seed={config.seed}",
        *_shared_lines(config),
    ]
    if config.oracle:
        lines.append("oracle=true")
    return "\n".join(lines) + "\n"


def read_config(path: PathLike) -> ExperimentConfig:
    return config_from_text(Path(path).read_text(encoding="utf-8"))


def write_config(path: PathLike, config: ExperimentConfig) -> None:
    Path(path).write_text(config_to_text(config), encoding="utf-8")


def write_csv(path: PathLike, header: Sequence[str],
              rows: Iterable[Sequence[object]]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def report_to_csv(report: ExperimentReport) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["trial", "seed", "recovered", "success", "delta_or_residual"])
    for row in report.rows:
        writer.writerow([
            row.trial,
            row.seed,
            " ".join(str(i) for i in row.recovered),
            int(row.success),
            repr(row.delta_or_residual),
        ])
    return buf.getvalue()


def report_summary_line(report: ExperimentReport) -> str:
    return (
        f"successes={report.successes}/{report.trials}"
        f" wall_clock={report.wall_clock:.2f}s"
    )


def write_report(out_dir: PathLike, report: ExperimentReport) -> Path:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "trials.csv").write_text(report_to_csv(report), encoding="utf-8")
    (out / "summary.txt").write_text(
        report_summary_line(report) + "\n", encoding="utf-8"
    )
    (out / "config.txt").write_text(config_to_text(report.config), encoding="utf-8")
    return out / "trials.csv"
