"""Steadiness check: run workloads N times and compare spreads to bounds.

    python3 perfbench/steady.py [--workload NAME ...] [--runs 10]

Runs ``run.py`` once per seed (seeds 1 .. runs) for each workload, one
run at a time, with BENCHMARK.json's ``run_seconds``, and prints for
every end-to-end metric the median, the first and third quartiles
(``statistics.quantiles(values, n=4)``), and the spread
``(q3 - q1) / median`` next to the metric's bound in BENCHMARK.json.
A spread above its bound is flagged ``OVER``, one above a third of it
``wide``.  It also prints the share of failed operations per run,
which must be the same in every run.  Exits 1 when a run is not
correct, a spread is over its bound or the failed shares differ.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int) -> dict:
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
    if done.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {done.returncode}:\n{done.stderr[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=names)
    parser.add_argument("--runs", type=int, default=10)
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("--runs must be at least 2 to have quartiles")

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    ok = True
    for workload in args.workload or names:
        runs = []
        for seed in range(1, args.runs + 1):
            started = time.time()
            runs.append(run_once(workload, seed, spec["run_seconds"]))
            print(f"{workload} seed {seed}: {time.time() - started:.0f} s, "
                  f"correct={runs[-1]['correct']}", file=sys.stderr, flush=True)
        shares = sorted({r["failed"] / r["attempted"] for r in runs})
        correct = sum(r["correct"] for r in runs)
        ok = ok and correct == len(runs) and len(shares) == 1
        print(f"\n{workload}: {args.runs} runs, correct in {correct}, failed share(s) {shares}")
        print(f"  {'metric':16} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            q1, _, q3 = statistics.quantiles(values, n=4)
            median = statistics.median(values)
            spread = (q3 - q1) / median
            flag = "  OVER" if spread > bound else "  wide" if spread > bound / 3 else ""
            ok = ok and spread <= bound
            print(f"  {name:16} {median:12.6g} {q1:12.6g} {q3:12.6g} "
                  f"{spread:8.4f} {bound:6.2f}{flag}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
