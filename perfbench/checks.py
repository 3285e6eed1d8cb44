"""Correctness checks the benchmark applies to every run's outputs.

Every check takes plain data (cell rows, result mappings) and returns a
list of violations, one human-readable line each; an empty list passes.
A cell row is a dict with ``trace`` (name, kind and length as one
string), ``size`` (bytes), ``metrics`` (the cell's metric dict) and,
when the cell's model is one the checks know, ``model`` (``dm``,
``de``, ``opt`` or ``lru``), ``line`` (bytes) and ``ways``.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, Iterable, List, Mapping, Sequence, Tuple

import oracle

Row = Mapping[str, object]


def _rate(row: Row) -> float:
    return float(row["metrics"]["miss_rate"])  # type: ignore[index]


def _where(row: Row) -> str:
    return f"{row.get('model')}/{row.get('line')}B/{row.get('ways')}w @ {row['size']} B on {row['trace']}"


def rates_in_unit_interval(rows: Iterable[Row]) -> List[str]:
    """Every metric named ``*miss_rate`` lies in [0, 1]."""
    bad = []
    for row in rows:
        for name, value in row["metrics"].items():  # type: ignore[union-attr]
            if name.endswith("miss_rate") and not (0.0 <= value <= 1.0):
                bad.append(f"{name}={value!r} outside [0, 1] for {_where(row)}")
    return bad


def belady_bounds(rows: Iterable[Row]) -> List[str]:
    """Belady-with-bypass misses no more than DE or DM on the same cell.

    Compared per (trace, size, line size) wherever the optimal model
    and the other model both ran.
    """
    by_cell: Dict[Tuple[object, object, object], Dict[str, float]] = {}
    for row in rows:
        if row.get("model") in ("dm", "de", "opt"):
            key = (row["trace"], row["size"], row["line"])
            by_cell.setdefault(key, {})[str(row["model"])] = _rate(row)
    bad = []
    for (trace, size, line), rates in sorted(by_cell.items(), key=str):
        optimal = rates.get("opt")
        if optimal is None:
            continue
        for other in ("de", "dm"):
            if other in rates and optimal > rates[other]:
                bad.append(
                    f"optimal {optimal!r} > {other} {rates[other]!r} "
                    f"@ {size} B, {line} B lines on {trace}"
                )
    return bad


def monotone_in_size(rows: Iterable[Row]) -> List[str]:
    """DM, optimal and fixed-way LRU miss rates never rise with size.

    Compared along each (model, line size, ways, trace) curve.
    """
    curves: Dict[Tuple[object, ...], Dict[int, float]] = {}
    for row in rows:
        if row.get("model") in ("dm", "opt", "lru"):
            key = (row["model"], row["line"], row["ways"], row["trace"])
            curves.setdefault(key, {})[int(row["size"])] = _rate(row)  # type: ignore[call-overload]
    bad = []
    for (model, line, ways, trace), points in sorted(curves.items(), key=str):
        sizes = sorted(points)
        for small, large in zip(sizes, sizes[1:]):
            if points[large] > points[small]:
                bad.append(
                    f"{model}/{line}B/{ways}w miss rate rises from {points[small]!r} "
                    f"@ {small} B to {points[large]!r} @ {large} B on {trace}"
                )
    return bad


def oracle_sample(
    rows: Iterable[Row],
    sample: Sequence[Tuple[str, str, int, int, int]],
    addresses: Callable[[str], Sequence[int]],
) -> List[str]:
    """Exact miss-rate equality with the plain-Python oracle.

    ``sample`` lists ``(trace, model, line, ways, size)`` cells; each
    must be present in ``rows`` exactly once and its miss rate must
    equal the oracle's misses over the trace's length, bit for bit.
    ``addresses(trace)`` returns the trace's byte addresses.
    """
    index: Dict[Tuple[object, ...], List[float]] = {}
    for row in rows:
        if row.get("model") in ("dm", "de", "lru"):
            key = (row["trace"], row["model"], row["line"], row["ways"], row["size"])
            index.setdefault(key, []).append(_rate(row))
    bad = []
    loaded: Dict[str, Sequence[int]] = {}
    for trace, model, line, ways, size in sample:
        found = index.get((trace, model, line, ways, size), [])
        if len(found) != 1:
            bad.append(f"oracle cell {model}/{line}B/{ways}w @ {size} B on {trace}: "
                       f"{len(found)} results, expected 1")
            continue
        if trace not in loaded:
            loaded[trace] = addresses(trace)
        addrs = loaded[trace]
        expected = oracle.misses(model, addrs, size, line, ways) / len(addrs)
        if found[0] != expected:
            bad.append(f"oracle cell {model}/{line}B/{ways}w @ {size} B on {trace}: "
                       f"program {found[0]!r}, oracle {expected!r}")
    return bad


def percent_reduction(baseline: float, improved: float) -> float:
    """The paper's relative miss-rate reduction, in percent."""
    if baseline == 0.0:
        return 0.0 if improved == 0.0 else math.nan
    return 100.0 * (baseline - improved) / baseline


def derived_equal(
    name: str,
    reported: Mapping[object, float],
    recomputed: Mapping[object, float],
) -> List[str]:
    """A derived figure equals the value recomputed from its base.

    Both mappings are keyed by (curve, point); values must match to
    1e-9 of a percentage point, far below one miss in any base cell.
    """
    bad = []
    if set(reported) != set(recomputed):
        return [f"{name}: reported points {sorted(map(str, reported))} differ "
                f"from recomputed {sorted(map(str, recomputed))}"]
    for key in sorted(reported, key=str):
        got, want = reported[key], recomputed[key]
        if not (abs(got - want) <= 1e-9):
            bad.append(f"{name} {key}: reported {got!r}, recomputed {want!r}")
    return bad


def replay_identical(
    cold: Mapping[str, Mapping[str, float]],
    replay: Mapping[str, Tuple[bool, Mapping[str, float]]],
) -> List[str]:
    """The replay answers every cold cell from the store, unchanged.

    ``cold`` maps cell key -> metrics; ``replay`` maps cell key ->
    (answered from the store, metrics).
    """
    bad = []
    missing = sorted(set(cold) - set(replay))
    if missing:
        bad.append(f"replay lacks {len(missing)} cold cell(s), e.g. {missing[0]}")
    extra = sorted(set(replay) - set(cold))
    if extra:
        bad.append(f"replay has {len(extra)} cell(s) the cold run did not, e.g. {extra[0]}")
    recomputed = sorted(key for key, (cached, _) in replay.items() if not cached)
    if recomputed:
        bad.append(f"replay recomputed {len(recomputed)} cell(s), e.g. {recomputed[0]}")
    changed = sorted(
        key for key, (_, metrics) in replay.items()
        if key in cold and dict(metrics) != dict(cold[key])
    )
    if changed:
        bad.append(f"replay changed the metrics of {len(changed)} cell(s), e.g. {changed[0]}")
    return bad
