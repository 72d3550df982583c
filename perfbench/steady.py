"""Run the benchmark repeatedly and report how steady each metric is.

Run from the repository root::

    python3 perfbench/steady.py --runs 10 --workloads paper-cold,costing-warm

Each run of each workload is a fresh ``perfbench/run.py`` process, so
peak memory and lazy imports never leak from one workload into the next.
Workloads are interleaved (round ``i`` starts at workload ``i``), and
run ``i`` uses seed ``--seed-base + i``, as a sweep over seeds would.

For every workload, end-to-end metric and set it prints the median, the
quartiles and the spread ``(q3 - q1) / median`` next to the metric's
bound from ``BENCHMARK.json``.  With ``--sets 2`` the whole schedule runs
twice and the second set's median is also compared with the first's.
It exits 1 if any spread or drift is wider than its bound.  The
last line is a JSON object with every value measured.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int) -> dict:
    """One untraced benchmark process; its parsed result line."""
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if done.returncode != 0:
        raise RuntimeError(
            f"{workload} seed {seed} exited {done.returncode}:\n{done.stderr}"
        )
    return json.loads(done.stdout.strip().splitlines()[-1])


def spread(values):
    """(median, q1, q3, (q3 - q1) / median)."""
    median = statistics.median(values)
    if len(values) < 2:
        return median, median, median, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median if median else float("inf")


def run_set(workloads, runs, seed_base, seconds):
    """{workload: {metric: [values]}} plus failure counts."""
    values = {w: {} for w in workloads}
    failures = {w: 0 for w in workloads}
    for i in range(runs):
        order = workloads[i % len(workloads):] + workloads[:i % len(workloads)]
        for workload in order:
            result = run_once(workload, seed_base + i, seconds)
            failures[workload] += result["failed"]
            for name, metric in result["metrics"].items():
                values[workload].setdefault(name, []).append(metric["value"])
            print(f"  run {i} {workload}: failed={result['failed']}/"
                  f"{result['attempted']} " + " ".join(
                      f"{k}={m['value']:.4g}"
                      for k, m in result["metrics"].items()),
                  flush=True)
    return values, failures


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", default=None,
                        help="comma-separated subset (default: all)")
    parser.add_argument("--seed-base", type=int, default=1)
    parser.add_argument("--sets", type=int, default=1)
    args = parser.parse_args(argv)
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in spec["workloads"]])
    metrics = {m["name"]: m for m in spec["end_to_end"]}

    sets = []
    for number in range(args.sets):
        print(f"set {number + 1} of {args.sets}", flush=True)
        sets.append(run_set(workloads, args.runs, args.seed_base,
                            spec["run_seconds"]))
    all_ok = True
    for workload in workloads:
        print(f"\n{workload}: failed={sum(f[workload] for _, f in sets)}")
        print(f"  {'metric':<16}{'set':>4}{'median':>12}{'q1':>12}{'q3':>12}"
              f"{'spread':>9}{'bound':>8}  verdict")
        for name, metric in metrics.items():
            bound = metric["bound"]
            first = statistics.median(sets[0][0][workload][name])
            for number, (values, _) in enumerate(sets, 1):
                median, q1, q3, width = spread(values[workload][name])
                verdict = ("steady" if width < bound / 3 else
                           "within bound" if width <= bound else "TOO WIDE")
                all_ok = all_ok and width <= bound
                if number > 1:
                    drift = (median - first) / first
                    worse = drift if metric["better"] == "lower" else -drift
                    all_ok = all_ok and worse <= bound
                    verdict += (f"; median {drift:+.1%} on set 1, "
                                + ("agrees" if worse <= bound else "DRIFTED"))
                print(f"  {name:<16}{number:>4}{median:>12.5g}{q1:>12.5g}"
                      f"{q3:>12.5g}{width:>8.1%}{bound:>8.0%}  {verdict}")
    print(json.dumps({w: [s[0][w] for s in sets] for w in workloads}))
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
