"""One round of one workload, in a fresh process (run by ``run.py``).

    python3 perfbench/round.py --workload NAME --seed N --spawned T --out FILE
                               --workdir DIR [--oracle] [--traced] [--setup-only]

``--spawned`` is the wall-clock time at which the parent started this
process, so ``setup_s`` runs from process start to the first timed
call.  The round writes one JSON object to ``--out``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

import layers
import workloads


def _children_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # ru_maxrss is in KiB on Linux


def _fsm_totals() -> dict:
    from repro.obs import metrics as obs_metrics

    registry = obs_metrics.current_registry()
    return {name: registry.total(name) or 0.0
            for name in ("fsm.sticky_saves", "fsm.hit_last_loads", "fsm.exclusion_flips")}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--spawned", type=float, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--oracle", action="store_true")
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    workload = workloads.WORKLOADS[args.workload](args.seed, Path(args.workdir))
    workload.setup()
    setup_s = time.time() - args.spawned
    result = {"setup_s": setup_s}
    if args.setup_only:
        Path(args.out).write_text(json.dumps(result))
        return 0

    tracer = clock = None
    if args.traced:
        from repro import obs

        clock = layers.LayerClock()
        layers.install(clock, workload.factories(), workload.evaluators())
        if workload.workers > 1:
            # Worker-side layers come from the spans the program ships home.
            tracer = obs.install_tracer(obs.Tracer(Path(args.workdir) / "trace"))
        fsm_before = _fsm_totals()
        clock.push("experiments.unassigned")

    cpu_before = time.process_time() + _children_cpu()
    started = time.perf_counter()
    workload.run()
    wall_s = time.perf_counter() - started
    cpu_s = time.process_time() + _children_cpu() - cpu_before
    peak_rss_mb = _peak_rss_mb()

    if clock is not None:
        fsm_after = _fsm_totals()  # modelled statistics of the cold run alone
        workload.replay()
        traced_wall = time.perf_counter() - started
        clock.pop()
        result["layers"] = traced_layers(clock, tracer, workload, wall_s, traced_wall)
        result["layers"].update({name: fsm_after[name] - fsm_before[name] for name in fsm_after})
        covered = result["layers"]["layers.coverage"]
        if covered < layers.COVERAGE_FLOOR:
            workload.violations.append(
                f"named layers cover {covered:.4f} of the traced time, "
                f"below {layers.COVERAGE_FLOOR}")
        if tracer is not None:
            from repro import obs

            obs.uninstall_tracer()
            tracer.close()
    else:
        workload.replay()

    workload.check(oracle=args.oracle)
    import numpy

    result.update({
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "peak_rss_mb": peak_rss_mb,
        "replay_s": workload.replay_s(),
        "refs": workload.refs(),
        "misses": workload.misses(),
        "attempted": workload.attempted,
        "failed": workload.failed,
        "violations": workload.violations,
        "host": {"cpus": os.cpu_count(), "python": platform.python_version(),
                 "numpy": numpy.__version__},
    })
    Path(args.out).write_text(json.dumps(result))
    return 0


def traced_layers(clock, tracer, workload, wall_s: float, traced_wall: float) -> dict:
    """Every per-layer figure of one traced round."""
    seconds, counts = clock.seconds, clock.counts
    out = {
        "workloads.trace_gen_s": seconds["workloads.trace_gen"],
        "workloads.traces_built": counts["workloads.traces_built"],
        "workloads.refs_built": counts["workloads.refs_built"],
        "models.build_s": seconds["models.build"],
        "models.built": counts["models.built"],
        "kernels.simulate_s": seconds["kernels.simulate"],
        "kernels.calls": counts["kernels.calls"],
        "kernels.refs": counts["kernels.refs"],
        "batch.simulate_s": seconds["batch.simulate"],
        "batch.cells": counts["batch.cells"],
        "fallback.simulate_s": seconds["fallback.simulate"],
        "fallback.calls": counts["fallback.calls"],
        "fallback.refs": counts["fallback.refs"],
        "evaluators.s": seconds["evaluators"],
        "evaluators.calls": counts["evaluators.calls"],
        "experiments.render_s": seconds["experiments.render"],
        "experiments.specs": counts["experiments.specs"],
        "experiments.unassigned_s": seconds["experiments.unassigned"],
        "backends.dispatch_s": seconds["backends.dispatch"],
        "backends.worker_busy_s": 0.0,
        "backends.idle_s": 0.0,
        "backends.worker_trace_gen_s": 0.0,
        "backends.cells_dispatched": 0.0,
        "store.open_s": seconds["store.open"],
        "store.key_s": seconds["store.key"],
        "store.record_s": seconds["store.record"],
        "store.records": counts["store.records"],
        "store.lookup_s": seconds["store.lookup"],
        "store.lookups": counts["store.lookups"],
        "store.hits": counts["store.hits"],
        "sim.misses": float(workload.misses()),
    }
    shipped = {}
    if tracer is not None:
        from repro import obs

        shipped = layers.worker_layers(obs.read_spans(tracer.path), os.getpid())
        for name, value in shipped.items():
            out[name] = out.get(name, 0.0) + value
        out["backends.idle_s"] = workload.workers * wall_s - out["backends.worker_busy_s"]
    out["layers.coverage"] = layers.coverage(out["experiments.unassigned_s"], traced_wall, shipped)
    calls = out["kernels.calls"] + out["fallback.calls"]
    out["engine.kernel_share"] = out["kernels.calls"] / calls if calls else 0.0
    return out


if __name__ == "__main__":
    sys.exit(main())
