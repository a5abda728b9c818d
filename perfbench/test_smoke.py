"""Smoke test of the benchmark itself, one round per workload.

    python3 -m pytest perfbench/test_smoke.py
"""

import collections
import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import tracer  # noqa: E402
from run import WORKLOADS  # noqa: E402


def _benchmark(trace):
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--seed", "7",
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=600, check=True,
    )
    return [json.loads(line) for line in done.stdout.splitlines() if line.startswith("{")]


@pytest.fixture(scope="module")
def spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metrics_match_benchmark_json(spec, trace, section):
    expected = {m["name"]: m["unit"] for m in spec[section]}
    results = _benchmark(trace)
    assert len(results) == len(WORKLOADS)
    for result in results:
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0
        assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    if trace:
        for workload in WORKLOADS:
            _check_spans(ROOT / ".perfbench_run" / f"spans-{workload}-seed7.jsonl")


def test_benchmark_json_lists_tracer_metrics(spec):
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        tuple(m) for m in tracer.PER_LAYER
    ]


def test_wrapped_names_resolve():
    for names in [*tracer.SPANS.values(), *tracer.COUNTERS.values()]:
        for name in names:
            module, attr = tracer.resolve(name)
            assert callable(getattr(module, attr))


def _check_spans(path):
    """Within each op span, the self times of all spans below it sum to no
    more than the op's duration."""
    spans = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
    spans = [s for s in spans if "name" in s]
    children = collections.defaultdict(list)
    for index, span in enumerate(spans):
        if span["parent"] is not None:
            children[span["parent"]].append(index)
            assert spans[span["parent"]]["op"] == span["op"]
    ops = [i for i, s in enumerate(spans) if s["name"] == "op"]
    assert ops
    for root in ops:
        below, stack = 0.0, list(children[root])
        while stack:
            index = stack.pop()
            below += spans[index]["self_s"]
            stack += children[index]
        assert below <= spans[root]["end"] - spans[root]["start"]
