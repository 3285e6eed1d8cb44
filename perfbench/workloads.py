"""The benchmark's three workloads, one round each.

A round is one fresh process: :meth:`Workload.setup` (imports, cell
enumeration, and for ``sweep-kernels`` trace generation), the timed
phase :meth:`Workload.run`, then :meth:`Workload.replay` and
:meth:`Workload.check` outside the timed phase.

The program's traces are deterministic recipes with no seed of their
own, so the seed chooses the order of the inputs: the order of the
grid's sizes, models and traces, and the order in which ``reproduce``
renders its finished reports.  Every order does the same simulations,
and no cell's result may depend on it.  ``reproduce`` runs its specs in
registry order, as ``python -m repro.experiments`` does: with the spec
order shuffled, its peak memory moved between 159 and 198 MB by seed.
"""

from __future__ import annotations

import random
import statistics
import time
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

import checks

#: Trace scale of the ``reproduce`` workload (REPRO_TRACE_SCALE): a
#: twentieth of the default 200k-reference traces.
REPRODUCE_SCALE = "0.05"

#: References per trace in the sweep grid (the program's default).
GRID_REFS = 200_000
GRID_SIZES_KB = (1, 2, 4, 8, 16, 32, 64, 128, 256)

#: (label, model, line bytes, ways): the grid's seven curves.
GRID_MODELS = (
    ("dm-4B", "dm", 4, 1),
    ("de-4B", "de", 4, 1),
    ("opt-4B", "opt", 4, 1),
    ("lru2-4B", "lru", 4, 2),
    ("lru4-4B", "lru", 4, 4),
    ("dm-16B", "dm", 16, 1),
    ("opt-16B", "opt", 16, 1),
)

#: Oracle sample of the grid: (trace, model, line, ways, size).
GRID_ORACLE = tuple(
    (f"{name}/instruction/{GRID_REFS}", model, line, ways, kb * 1024)
    for name in ("gcc", "li")
    for kb in (1, 32, 256)
    for model, line, ways in (("dm", 4, 1), ("de", 4, 1), ("lru", 4, 2), ("lru", 4, 4), ("dm", 16, 1))
)

#: Replays per round; the median is reported.
REPLAYS = {"reproduce": 5, "sweep-kernels": 20, "sweep-parallel": 20}


def trace_id(name: str, kind: str, refs: int) -> str:
    return f"{name}/{kind}/{refs}"


def trace_addresses(trace: str) -> List[int]:
    """Byte addresses of a ``name/kind/refs`` trace, from the program."""
    from repro.perf.parallel import TraceKey, as_trace

    name, kind, refs = trace.split("/")
    return as_trace(TraceKey(name, kind, int(refs))).addrs.tolist()


def classify(factory_repr: str, parameter: object) -> Dict[str, object]:
    """The oracle/property view of a program factory, when it has one.

    Only the size-parameterised standard and associativity factories
    are classified; every other cell is checked for its rates alone.
    """
    import re

    standard = re.fullmatch(r"StandardFactory\(curve='([a-z-]+)', line_size=(\d+)\)", factory_repr)
    if standard:
        curve, line = standard.group(1), int(standard.group(2))
        model = {"direct-mapped": "dm", "dynamic-exclusion": "de", "optimal": "opt"}[curve]
        if model == "de" and line > 4:
            return {}  # the last-line-buffer variant
        return {"model": model, "line": line, "ways": 1}
    assoc = re.fullmatch(r"AssocFactory\(label='([a-z0-9-]+)'\)", factory_repr)
    if assoc:
        label = assoc.group(1)
        known = {"direct-mapped": ("dm", 1), "dynamic-exclusion": ("de", 1),
                 "2-way": ("lru", 2), "4-way": ("lru", 4)}
        if label in known:
            model, ways = known[label]
            return {"model": model, "line": 4, "ways": ways}
    return {}


def outcome_row(outcome) -> Dict[str, object]:
    identity = outcome.identity
    row: Dict[str, object] = {
        "trace": trace_id(identity.trace_name, identity.trace_kind, identity.trace_refs),
        "size": identity.parameter,
        "metrics": dict(outcome.metrics or {}),
    }
    row.update(classify(identity.factory, identity.parameter))
    return row


def store_outcomes(directory: Path, outcomes) -> None:
    """Journal computed cells into a fresh store, as a sweep would."""
    from repro.store import ResultStore

    ResultStore(directory).record_many([
        (o.identity.key(), o.identity.payload(), o.metrics, o.seconds)
        for o in outcomes if o.ok and o.identity.journalable
    ])


class Workload:
    name = ""
    workers = 1
    #: Set-up-only processes after each round; ``setup_s`` is the median
    #: of their set-up times and the rounds'.  The host's speed drifts
    #: within seconds, so the samples are spread over the run, and a
    #: sub-second set-up is sampled more often than a long one.
    setups_per_round = 4

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir
        self.outcomes: list = []
        self.failed = 0
        self.attempted = 0
        self.replay_seconds: List[float] = []
        self.violations: List[str] = []

    def setup(self) -> None:
        raise NotImplementedError

    def run(self) -> None:
        raise NotImplementedError

    def replay(self) -> None:
        raise NotImplementedError

    def check(self, oracle: bool) -> None:
        raise NotImplementedError

    def refs(self) -> int:
        """Simulated references: each computed cell's trace length."""
        raise NotImplementedError

    def misses(self) -> int:
        """Modelled misses summed over every computed cell."""
        raise NotImplementedError

    def factories(self) -> list:
        raise NotImplementedError

    def evaluators(self) -> list:
        return []

    def replay_s(self) -> float:
        return statistics.median(self.replay_seconds)


# -- the sweep grid ----------------------------------------------------------


class SweepWorkload(Workload):
    """One 630-cell grid: 10 traces x 9 sizes x 7 kernel-eligible curves."""

    def setup(self) -> None:
        from repro.experiments.common import StandardFactory
        from repro.experiments.ext_associativity import AssocFactory
        from repro.perf import parallel
        from repro.workloads.registry import benchmark_names

        self.parallel = parallel
        makers = {
            ("dm", 1): lambda line: StandardFactory("direct-mapped", line),
            ("de", 1): lambda line: StandardFactory("dynamic-exclusion", line),
            ("opt", 1): lambda line: StandardFactory("optimal", line),
            ("lru", 2): lambda line: AssocFactory("2-way"),
            ("lru", 4): lambda line: AssocFactory("4-way"),
        }
        rng = random.Random(self.seed)
        sizes = [kb * 1024 for kb in GRID_SIZES_KB]
        models = list(GRID_MODELS)
        names = benchmark_names()
        for axis in (sizes, models, names):
            rng.shuffle(axis)
        keys = [parallel.TraceKey(name, "instruction", GRID_REFS) for name in names]
        self.cells = []
        self.meta = []
        for size in sizes:
            for label, model, line, ways in models:
                factory = makers[(model, ways)](line)
                for key in keys:
                    self.cells.append((label, factory, size, key))
                    self.meta.append({"model": model, "line": line, "ways": ways, "size": size,
                                      "trace": trace_id(key.name, key.kind, key.max_refs)})
        self.keys = keys
        self.store_dir = self.workdir / "store"
        self.prepare()

    def prepare(self) -> None:
        pass

    def factories(self) -> list:
        return [cell[1] for cell in self.cells]

    def refs(self) -> int:
        return sum(key.max_refs for _, _, _, key in self.cells)

    def rows(self, outcomes) -> List[Dict[str, object]]:
        return [dict(meta, metrics=dict(o.metrics or {})) for meta, o in zip(self.meta, outcomes)]

    def misses(self) -> int:
        return sum(round(o.metrics["miss_rate"] * key.max_refs)
                   for o, (_, _, _, key) in zip(self.outcomes, self.cells) if o.ok)

    def count(self, outcomes) -> None:
        self.attempted += len(outcomes)
        self.failed += sum(1 for o in outcomes if not o.ok)

    def replay(self) -> None:
        from repro.store import ResultStore

        for _ in range(REPLAYS[self.name]):
            started = time.perf_counter()
            store = ResultStore(self.store_dir)
            replayed = self.parallel.run_labeled_cells(
                self.cells, engine="fast", workers=self.workers, journal=store)
            self.replay_seconds.append(time.perf_counter() - started)
            self.count(replayed)
        self.replayed = replayed

    def check(self, oracle: bool) -> None:
        rows = self.rows(self.outcomes)
        self.violations += checks.rates_in_unit_interval(rows)
        self.violations += checks.belady_bounds(rows)
        self.violations += checks.monotone_in_size(rows)
        self.violations += checks.replay_identical(
            {o.identity.key(): o.metrics for o in self.outcomes if o.ok},
            {o.identity.key(): (o.cached, o.metrics) for o in self.replayed if o.ok},
        )
        if oracle:
            self.violations += checks.oracle_sample(rows, GRID_ORACLE, trace_addresses)


class SweepKernels(SweepWorkload):
    """The grid in this process over traces built during set-up."""

    name = "sweep-kernels"
    setups_per_round = 1

    def prepare(self) -> None:
        for key in self.keys:
            self.parallel.as_trace(key)

    def run(self) -> None:
        self.outcomes = self.parallel.run_labeled_cells(self.cells, engine="fast", workers=1)
        self.count(self.outcomes)

    def replay(self) -> None:
        store_outcomes(self.store_dir, self.outcomes)
        super().replay()


class SweepParallel(SweepWorkload):
    """The grid cold on two workers, journaled into a fresh store."""

    name = "sweep-parallel"
    workers = 2

    def prepare(self) -> None:
        from repro.store import ResultStore

        self.store = ResultStore(self.store_dir)

    def run(self) -> None:
        self.outcomes = self.parallel.run_labeled_cells(
            self.cells, engine="fast", workers=self.workers, journal=self.store)
        self.count(self.outcomes)


# -- the whole reproduction --------------------------------------------------


class Reproduce(Workload):
    """Every registered spec, run and rendered, at a reduced trace scale."""

    name = "reproduce"

    def setup(self) -> None:
        import repro.experiments  # noqa: F401  (registers every spec)
        from repro.experiments import spec as spec_mod
        from repro.perf import parallel

        self.spec_mod = spec_mod
        self.parallel = parallel
        self.specs = spec_mod.all_specs()
        self.render_order = list(self.specs)
        random.Random(self.seed).shuffle(self.render_order)
        # Cell enumeration: every grid the run will reach, bases included.
        self.recipes: Dict[Tuple[str, str, int], object] = {}
        self.grid_specs = []
        seen = set()
        pending = list(self.specs)
        while pending:
            spec = pending.pop()
            if spec.id in seen:
                continue
            seen.add(spec.id)
            pending += [spec_mod.get_spec(base) for base in spec.base]
            if spec.kind == "grid":
                self.grid_specs.append(spec)
                cells, _ = spec_mod.grid_cells(spec)
                for _, _, _, trace in cells:
                    self.recipes[(str(trace.name), str(trace.kind), int(trace.max_refs))] = trace
        self.store_dir = self.workdir / "store"

    def factories(self) -> list:
        return [factory for spec in self.grid_specs for _, factory in spec.factories]

    def evaluators(self) -> list:
        return [spec.evaluator for spec in self.grid_specs if spec.evaluator is not None]

    def _run_all(self, journal=None) -> Tuple[Dict[str, str], list]:
        outcomes: list = []
        texts: Dict[str, str] = {}
        spec_mod = self.spec_mod
        results = {}
        with self.parallel.outcome_observer(lambda telemetry, outcome: outcomes.append(outcome)):
            for spec in self.specs:
                self.attempted += 1
                try:
                    results[spec.id] = spec_mod.run_spec(
                        spec, engine="fast", workers=1, journal=journal)
                except Exception as exc:  # a failed spec is counted, the run goes on
                    self.failed += 1
                    self.violations.append(f"spec {spec.id} failed: {type(exc).__name__}: {exc}")
            for spec in self.render_order:
                if spec.id not in results:
                    continue
                try:
                    texts[spec.id] = spec_mod.render_spec(spec, results[spec.id])
                except Exception as exc:
                    self.failed += 1
                    self.violations.append(f"spec {spec.id} failed to render: {exc}")
        self.attempted += len(outcomes)
        self.failed += sum(1 for o in outcomes if not o.ok)
        return texts, outcomes

    def run(self) -> None:
        self.texts, self.outcomes = self._run_all()

    def _length(self, outcome) -> int:
        from repro.perf.parallel import as_trace

        identity = outcome.identity
        recipe = self.recipes[(identity.trace_name, identity.trace_kind, identity.trace_refs)]
        return len(as_trace(recipe))

    def refs(self) -> int:
        return sum(self._length(o) for o in self.outcomes)

    def misses(self) -> int:
        return sum(round(o.metrics["miss_rate"] * self._length(o))
                   for o in self.outcomes if o.ok and "miss_rate" in o.metrics)

    def replay(self) -> None:
        from repro.store import ResultStore

        # The checks read the cold run's results; the replay below
        # replaces the memoised ones.
        run_spec = self.spec_mod.run_spec
        self.cold = {spec_id: run_spec(spec_id) for spec_id in
                     ("fig03", "fig04", "fig05", "fig04-b16", "fig12", "hierarchy", "fig09")}
        store_outcomes(self.store_dir, self.outcomes)
        for _ in range(REPLAYS[self.name]):
            self.spec_mod.clear_result_cache()
            started = time.perf_counter()
            texts, outcomes = self._run_all(journal=ResultStore(self.store_dir))
            self.replay_seconds.append(time.perf_counter() - started)
        self.replay_texts, self.replayed = texts, outcomes

    def check(self, oracle: bool) -> None:
        from repro.env import max_refs
        from repro.hierarchy.two_level import Strategy

        cold = self.cold
        rows = [outcome_row(o) for o in self.outcomes if o.ok]
        self.violations += checks.rates_in_unit_interval(rows)
        self.violations += checks.belady_bounds(rows)
        self.violations += checks.monotone_in_size(rows)
        self.violations += checks.replay_identical(
            {o.identity.key(): o.metrics for o in self.outcomes if o.ok},
            {o.identity.key(): (o.cached, o.metrics) for o in self.replayed if o.ok},
        )
        changed = sorted(k for k in self.texts if self.replay_texts.get(k) != self.texts[k])
        if changed:
            self.violations.append(f"replayed reports differ from the cold run: {changed}")

        for derived, base in (("fig05", "fig04"), ("fig12", "fig04-b16")):
            self.violations += checks.derived_equal(
                derived, sweep_points(cold[derived]), reduction_points(cold[base]))
        self.violations += checks.derived_equal(
            "fig09", {(str(s.value), i): v for s, values in cold["fig09"].items()
                      for i, v in enumerate(values)},
            l1_reduction_points(cold["hierarchy"], list(cold["fig09"]), Strategy.DIRECT_MAPPED))

        if oracle:
            refs = max_refs()
            fig03_rows = [
                {"trace": trace_id(name, "instruction", refs), "model": model, "line": 4,
                 "ways": 1, "size": 32 * 1024, "metrics": {"miss_rate": rates[curve]}}
                for name, rates in cold["fig03"].items()
                for model, curve in (("dm", "direct-mapped"), ("de", "dynamic-exclusion"))
            ]
            sample = [(row["trace"], row["model"], 4, 1, 32 * 1024) for row in fig03_rows]
            lru_rows = [row for row in rows if row.get("model") == "lru"]
            sample += [(trace_id(name, "instruction", refs), "lru", 4, ways, kb * 1024)
                       for name in ("gcc", "li") for ways in (2, 4) for kb in (1, 32, 256)]
            self.violations += checks.oracle_sample(fig03_rows + lru_rows, sample, trace_addresses)


def sweep_points(result) -> Dict[Tuple[str, object], float]:
    return {(label, p): v for label, series in result.series.items()
            for p, v in series.points.items()}


def reduction_points(base) -> Dict[Tuple[str, object], float]:
    """Figures 5 and 12 recomputed: DE and optimal over direct-mapped."""
    dm = base.series["direct-mapped"].points
    return {(label, p): checks.percent_reduction(dm[p], base.series[label].points[p])
            for label in ("dynamic-exclusion", "optimal") for p in base.parameters}


def l1_reduction_points(sweep, strategies: Sequence, baseline) -> Dict[Tuple[str, int], float]:
    """Figure 9 recomputed: each strategy's L1 miss rate over direct-mapped."""
    return {
        (str(s.value), i): checks.percent_reduction(
            sweep.points[(baseline, ratio)].l1_miss_rate, sweep.points[(s, ratio)].l1_miss_rate)
        for s in strategies for i, ratio in enumerate(sweep.ratios)
    }


WORKLOADS = {cls.name: cls for cls in (Reproduce, SweepKernels, SweepParallel)}

