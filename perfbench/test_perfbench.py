"""Tests for the benchmark's own checks and oracle.

    PYTHONPATH=src python3 -m pytest perfbench -q

Each check must pass the program's true result and reject the same
result moved by one miss.  The oracle must agree with the program's
reference simulators exactly.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import layers  # noqa: E402
import oracle  # noqa: E402
import workloads  # noqa: E402

REFS = 4000
TRACE = workloads.trace_id("gcc", "instruction", REFS)


@pytest.fixture(scope="module")
def addrs():
    return workloads.trace_addresses(TRACE)


def row(model, size, misses, line=4, ways=1, trace=TRACE, refs=REFS):
    return {"trace": trace, "model": model, "line": line, "ways": ways, "size": size,
            "metrics": {"miss_rate": misses / refs}}


# -- the oracle against the program ---------------------------------------------


@pytest.mark.parametrize("size", [256, 1024, 8192])
def test_oracle_matches_reference_simulators(addrs, size):
    from repro.caches.direct_mapped import DirectMappedCache
    from repro.caches.geometry import CacheGeometry
    from repro.caches.set_associative import SetAssociativeCache
    from repro.core.exclusion_cache import DynamicExclusionCache
    from repro.core.hitlast import IdealHitLastStore
    from repro.perf.parallel import TraceKey, as_trace

    trace = as_trace(TraceKey("gcc", "instruction", REFS))
    models = {
        ("dm", 4, 1): DirectMappedCache(CacheGeometry(size, 4)),
        ("dm", 16, 1): DirectMappedCache(CacheGeometry(size, 16)),
        ("de", 4, 1): DynamicExclusionCache(CacheGeometry(size, 4),
                                            store=IdealHitLastStore(default=True)),
        ("lru", 4, 2): SetAssociativeCache(CacheGeometry(size, 4, associativity=2)),
        ("lru", 4, 4): SetAssociativeCache(CacheGeometry(size, 4, associativity=4)),
    }
    for (model, line, ways), cache in models.items():
        expected = cache.simulate(trace).misses
        assert oracle.misses(model, addrs, size, line, ways) == expected, (model, line, ways)


def test_dynamic_exclusion_keeps_the_sticky_line():
    # One-line cache, loop "a a b" repeated: DE keeps a and bypasses b,
    # where direct-mapped misses on both a and b every iteration.
    a, b = 0, 4
    loop = [a, a, b] * 50
    assert oracle.direct_mapped_misses(loop, 4, 4) == 100
    assert oracle.dynamic_exclusion_misses(loop, 4, 4) < 60


# -- every check rejects a result one miss off ----------------------------------


def test_oracle_sample_rejects_one_miss(addrs):
    sample = [(TRACE, "de", 4, 1, 1024), (TRACE, "lru", 4, 2, 1024)]
    true = {key: oracle.misses(key[1], addrs, key[4], key[2], key[3]) for key in sample}
    rows = [row(model, size, true[(t, model, line, ways, size)], line, ways)
            for t, model, line, ways, size in sample]
    assert checks.oracle_sample(rows, sample, lambda trace: addrs) == []
    for delta in (1, -1):
        moved = [dict(r) for r in rows]
        moved[1] = row("lru", 1024, true[sample[1]] + delta, ways=2)
        assert checks.oracle_sample(moved, sample, lambda trace: addrs)


def test_rates_in_unit_interval_rejects_one_miss():
    assert checks.rates_in_unit_interval([row("dm", 1024, REFS)]) == []
    assert checks.rates_in_unit_interval([row("dm", 1024, REFS + 1)])
    assert checks.rates_in_unit_interval([row("dm", 1024, -1)])
    assert checks.rates_in_unit_interval(
        [{"trace": TRACE, "size": 1, "metrics": {"l2_local_miss_rate": (REFS + 1) / REFS}}])


@pytest.mark.parametrize("other", ["de", "dm"])
def test_belady_bounds_reject_one_miss(other):
    rows = [row("opt", 1024, 500), row(other, 1024, 500)]
    assert checks.belady_bounds(rows) == []
    assert checks.belady_bounds([row("opt", 1024, 501), row(other, 1024, 500)])
    # Different line sizes are different cells.
    assert checks.belady_bounds([row("opt", 1024, 501, line=16), row(other, 1024, 500)]) == []


@pytest.mark.parametrize("model,ways", [("dm", 1), ("opt", 1), ("lru", 2), ("lru", 4)])
def test_monotone_in_size_rejects_one_miss(model, ways):
    rows = [row(model, 1024, 700, ways=ways), row(model, 2048, 700, ways=ways),
            row(model, 4096, 300, ways=ways)]
    assert checks.monotone_in_size(rows) == []
    rows[1] = row(model, 2048, 701, ways=ways)
    assert checks.monotone_in_size(rows)


def test_derived_figures_reject_one_miss():
    from repro.analysis.sweep import SweepResult
    from repro.experiments.fig05_improvement import percent_reduction_curves

    traces, refs = 10, 20_000
    base = SweepResult(parameter_name="cache size", parameters=[1024, 2048])
    for size, (dm, de, opt) in {1024: (9000, 8000, 6000), 2048: (5000, 4000, 3000)}.items():
        for label, misses in (("direct-mapped", dm), ("dynamic-exclusion", de), ("optimal", opt)):
            base.add(label, size, misses / (refs * traces))
    reported = workloads.sweep_points(percent_reduction_curves(base))
    assert checks.derived_equal("fig05", reported, workloads.reduction_points(base)) == []
    base.add("dynamic-exclusion", 2048, (4000 + 1) / (refs * traces))
    assert checks.derived_equal("fig05", reported, workloads.reduction_points(base))


def test_replay_identical_rejects_one_miss_and_recomputation():
    cold = {"k1": {"miss_rate": 10 / REFS}, "k2": {"miss_rate": 20 / REFS}}
    replay = {key: (True, dict(metrics)) for key, metrics in cold.items()}
    assert checks.replay_identical(cold, replay) == []
    moved = dict(replay, k2=(True, {"miss_rate": 21 / REFS}))
    assert checks.replay_identical(cold, moved)
    recomputed = dict(replay, k1=(False, cold["k1"]))
    assert checks.replay_identical(cold, recomputed)
    assert checks.replay_identical(cold, {"k1": replay["k1"]})


def test_classify_reads_the_program_factories():
    from repro.experiments.common import StandardFactory
    from repro.experiments.ext_associativity import AssocFactory

    assert workloads.classify(repr(StandardFactory("optimal", 16)), 1024) == \
        {"model": "opt", "line": 16, "ways": 1}
    assert workloads.classify(repr(StandardFactory("dynamic-exclusion", 16)), 1024) == {}
    assert workloads.classify(repr(AssocFactory("4-way")), 1024) == \
        {"model": "lru", "line": 4, "ways": 4}
    assert workloads.classify(repr(AssocFactory("victim-4")), 1024) == {}


def test_coverage_counts_unassigned_and_uncovered_worker_time():
    floor = layers.COVERAGE_FLOOR
    assert layers.coverage(0.4, 10.0) >= floor
    assert layers.coverage(0.6, 10.0) < floor
    shipped = {"backends.worker_busy_s": 20.0, "workloads.trace_gen_s": 8.0,
               "models.build_s": 2.5, "kernels.simulate_s": 9.0}
    assert layers.coverage(0.1, 10.0, shipped) >= floor
    assert layers.coverage(0.1, 10.0, dict(shipped, **{"kernels.simulate_s": 8.0})) < floor
