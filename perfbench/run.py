"""The repository benchmark: one command, three workloads.

    python3 perfbench/run.py --workload {reproduce,sweep-kernels,sweep-parallel}
                             --seed N --seconds S --trace {0,1}

Runs whole rounds of the workload, each in a fresh process, until the
timed phases add up to ``--seconds`` (at least one round); after each
round it sets up alone in fresh processes, the workload's
``setups_per_round`` times.  Every round's outputs are checked
(properties on every cell, replay equality, derived figures); the
first round also checks the oracle sample.  With ``--trace 1`` one
more, traced round follows and the per-layer metrics are printed
instead of the end-to-end ones, with the tracing overhead; that run is
not correct when the named layers cover less than
``layers.COVERAGE_FLOOR`` of the traced time.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  The command exits non-zero,
printing no result, when the program's source is missing or a round
fails to finish.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import REPRODUCE_SCALE, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: The whole command must end within this; a round still running at
#: the deadline is stuck and is killed.
DEADLINE_S = 170


class RoundFailed(RuntimeError):
    pass


def run_round(workload: str, seed: int, workdir: Path, deadline: float, *flags: str) -> dict:
    """One fresh process; returns the JSON object it wrote."""
    if workdir.exists():
        shutil.rmtree(workdir)
    workdir.mkdir(parents=True)
    out = workdir / "round.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    if workload == "reproduce":
        env["REPRO_TRACE_SCALE"] = REPRODUCE_SCALE
    else:
        env.pop("REPRO_TRACE_SCALE", None)
    command = [sys.executable, str(HERE / "round.py"), "--workload", workload,
               "--seed", str(seed), "--out", str(out), "--workdir", str(workdir),
               "--spawned", repr(time.time()), *flags]
    process = subprocess.Popen(command, env=env, cwd=ROOT, stdout=sys.stderr,
                               start_new_session=True)
    try:
        code = process.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        code = None
    finally:
        # The round's own pool workers share its process group.
        try:
            os.killpg(process.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        process.wait()
    if code != 0:
        raise RoundFailed(f"{workload} round {' '.join(flags)} "
                          f"{'timed out' if code is None else f'exited with {code}'}")
    result = json.loads(out.read_text())
    shutil.rmtree(workdir)
    return result


def main(argv=None) -> int:
    deadline = time.monotonic() + DEADLINE_S
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2

    workdir = HERE / ".work" / str(os.getpid())
    try:
        rounds, setups = [], []
        while not rounds or sum(r["wall_s"] for r in rounds) < args.seconds:
            flags = ["--oracle"] if not rounds else []
            rounds.append(run_round(args.workload, args.seed, workdir, deadline, *flags))
            setups.append(rounds[-1]["setup_s"])
            for _ in range(WORKLOADS[args.workload].setups_per_round):
                setups.append(run_round(args.workload, args.seed, workdir, deadline,
                                        "--setup-only")["setup_s"])
        traced = run_round(args.workload, args.seed, workdir, deadline, "--traced") if args.trace else None
    except RoundFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    checked = rounds + ([traced] if traced else [])
    violations = [v for r in checked for v in r["violations"]]
    for line in violations[:50]:
        print(f"perfbench: check failed: {line}", file=sys.stderr)
    walls = [r["wall_s"] for r in rounds]
    e2e = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(walls),
        "sim_refs_per_s": statistics.median([r["refs"] / r["wall_s"] for r in rounds]),
        "cpu_s": statistics.median([r["cpu_s"] for r in rounds]),
        "peak_rss_mb": statistics.median([r["peak_rss_mb"] for r in rounds]),
    }
    replay_s = statistics.median([r["replay_s"] for r in rounds])
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e_units = {entry["name"]: entry["unit"] for entry in spec["end_to_end"]}
    print(f"host: {json.dumps(rounds[0]['host'], sort_keys=True)}")
    print(f"{args.workload}: {len(rounds)} round(s), seed {args.seed}, "
          f"walls {[round(w, 3) for w in walls]}, setups {[round(s, 3) for s in setups]}; "
          + ", ".join(f"{name}={value:.6g} {e2e_units[name]}" for name, value in e2e.items())
          + f", replay {replay_s:.6g} s")
    if traced is None:
        metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in e2e_units.items()}
    else:
        per_layer = dict(traced["layers"])
        per_layer["obs.tracing_overhead_s"] = traced["wall_s"] - e2e["wall_s"]
        per_layer["store.replay_s"] = replay_s
        metrics = {entry["name"]: {"value": per_layer[entry["name"]], "unit": entry["unit"]}
                   for entry in spec["per_layer"]}
        for name, metric in metrics.items():
            print(f"  {name:28} {metric['value']:14.6g} {metric['unit']}")
    print(json.dumps({
        "correct": not violations,
        "attempted": sum(r["attempted"] for r in checked),
        "failed": sum(r["failed"] for r in checked),
        "metrics": metrics,
    }, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
