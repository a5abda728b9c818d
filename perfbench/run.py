"""mixlearn benchmark: closed-loop workloads, one client, one fresh process each.

    python3 perfbench/run.py [--workload NAME] --seed N --seconds S --trace 0|1

Run from a checkout that holds ``src/mixlearn``; without ``--workload`` every
workload runs in turn.  Each workload runs in its own process (child.py), so
its peak memory and import time are its own.  Set-up is timed in
SETUP_RUNS fresh processes and ``setup_s`` is their median.

With ``--trace 0`` the end-to-end metrics are printed and gated: ``op_s_p90``
(op latency at p90, with at least ten ops beyond it), ``setup_s``,
``ok_ratio`` (ops with a correct output over ops attempted, i.e.
1 - fail_ratio) and ``peak_rss_mb``.  ``ops_per_s`` and ``op_s_p50`` are
printed in parentheses but not gated: on a shared 2-vCPU virtual machine the
host switched between speed regimes about 1.5x apart for tens of seconds at a
time, which moved means and medians between runs far more than p90.  With
``--trace 1`` the per-layer metrics of tracer.PER_LAYER are printed, from one
traced set-up plus one traced round; spans go to ``.perfbench_run/``.  The
last line of output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; ``correct`` is false if any op failed.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("algebraic", "mde-discrete", "simulate-learn", "sweeps")
SETUP_RUNS = 3
# one workload's run, every child included, must end within 180 s
WORKLOAD_TIMEOUT_S = 170


def child(args, deadline, *extra):
    argv = [sys.executable, str(HERE / "child.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds), *extra]
    done = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=max(deadline - time.monotonic(), 1))
    if done.returncode != 0:
        raise RuntimeError(f"{args.workload} exited with code {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def run_workload(args):
    deadline = time.monotonic() + WORKLOAD_TIMEOUT_S
    extra = ["--smoke"] if args.smoke else []
    if args.trace:
        return child(args, deadline, "--trace", "1", *extra)
    setups = [child(args, deadline, "--setup-only")["setup_s"]
              for _ in range(0 if args.smoke else SETUP_RUNS - 1)]
    result = child(args, deadline, *extra)
    setups.append(result["metrics"]["setup_s"]["value"])
    result["metrics"]["setup_s"]["value"] = statistics.median(setups)
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="one round and one set-up per workload; not a measurement")
    args = parser.parse_args()
    if not (ROOT / "src" / "mixlearn" / "__init__.py").is_file():
        sys.exit(f"no mixlearn sources under {ROOT / 'src'}")

    for name in [args.workload] if args.workload else WORKLOADS:
        args.workload = name
        result = run_workload(args)
        env = " ".join(f"{k}={v}" for k, v in result["env"].items())
        print(f"workload={name} {env}")
        failed, attempted = result["failed"], result["attempted"]
        ops = f"ops={attempted} failed={failed} fail_ratio={failed / attempted!r}"
        if "beyond_p90" in result:
            ops += f" beyond_p90={result['beyond_p90']}"
        if "spans" in result:
            ops += f" spans={result['spans']}"
        print(ops)
        for metric, m in result.get("info", {}).items():
            print(f"  ({metric} = {m['value']!r} {m['unit']})")
        for metric, m in result["metrics"].items():
            print(f"  {metric} = {m['value']!r} {m['unit']}")
        print(json.dumps({"correct": failed == 0, "attempted": attempted,
                          "failed": failed, "metrics": result["metrics"]}), flush=True)


if __name__ == "__main__":
    main()
