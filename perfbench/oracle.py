"""Plain-Python miss counters, independent of the simulators under test.

Each function walks a list of byte addresses one reference at a time
and returns the number of misses.  They share no code with ``repro``:
the benchmark uses them to check a fixed sample of the program's miss
rates for exact equality, so a fast path that drifts from the paper's
semantics shows up as a wrong answer, not only as a different time.
"""

from __future__ import annotations

from typing import Dict, List, Sequence


def _shift(line_size: int) -> int:
    if line_size <= 0 or line_size & (line_size - 1):
        raise ValueError(f"line size must be a power of two, got {line_size}")
    return line_size.bit_length() - 1


def _sets(size: int, line_size: int, ways: int) -> int:
    sets = size // (line_size * ways)
    if sets <= 0 or sets & (sets - 1):
        raise ValueError(
            f"{size} B / ({line_size} B x {ways} ways) is not a power-of-two set count"
        )
    return sets


def direct_mapped_misses(addrs: Sequence[int], size: int, line_size: int) -> int:
    """A direct-mapped cache that always allocates on a miss."""
    shift = _shift(line_size)
    mask = _sets(size, line_size, 1) - 1
    resident: List[int] = [-1] * (mask + 1)
    misses = 0
    for addr in addrs:
        line = addr >> shift
        index = line & mask
        if resident[index] != line:
            misses += 1
            resident[index] = line
    return misses


def dynamic_exclusion_misses(addrs: Sequence[int], size: int, line_size: int = 4) -> int:
    """McFarling's dynamic exclusion on a direct-mapped cache.

    Per cache line: the resident line, one sticky bit and the L1 copy
    of the resident line's hit-last bit.  Behind it an ideal hit-last
    store holds one bit per memory line and reads 1 for a line never
    seen.  On an access to ``x`` with ``y`` resident:

    * ``x`` resident: hit; sticky and hit-last are set;
    * empty line: load ``x``; sticky and hit-last are set;
    * sticky clear: ``y``'s hit-last goes back to the store, ``x`` is
      loaded with sticky and hit-last set;
    * sticky set and the store says ``x`` hit last time: ``y``'s
      hit-last goes back, ``x`` is loaded with sticky set and its
      hit-last clear, so it must hit to keep the bit;
    * otherwise ``x`` bypasses the cache and the sticky bit clears.
    """
    shift = _shift(line_size)
    mask = _sets(size, line_size, 1) - 1
    resident: List[int] = [-1] * (mask + 1)
    sticky: List[bool] = [False] * (mask + 1)
    hit_last: List[bool] = [False] * (mask + 1)
    store: Dict[int, bool] = {}
    misses = 0
    for addr in addrs:
        line = addr >> shift
        index = line & mask
        current = resident[index]
        if current == line:
            sticky[index] = True
            hit_last[index] = True
            continue
        misses += 1
        if current == -1:
            resident[index] = line
            sticky[index] = True
            hit_last[index] = True
        elif not sticky[index]:
            store[current] = hit_last[index]
            resident[index] = line
            sticky[index] = True
            hit_last[index] = True
        elif store.get(line, True):
            store[current] = hit_last[index]
            resident[index] = line
            sticky[index] = True
            hit_last[index] = False
        else:
            sticky[index] = False
    return misses


def lru_misses(addrs: Sequence[int], size: int, line_size: int, ways: int) -> int:
    """A ``ways``-way set-associative cache with LRU replacement."""
    shift = _shift(line_size)
    mask = _sets(size, line_size, ways) - 1
    stacks: List[List[int]] = [[] for _ in range(mask + 1)]
    misses = 0
    for addr in addrs:
        line = addr >> shift
        stack = stacks[line & mask]
        if stack and stack[-1] == line:
            continue
        if line in stack:
            stack.remove(line)
        else:
            misses += 1
            if len(stack) == ways:
                del stack[0]
        stack.append(line)
    return misses


def misses(model: str, addrs: Sequence[int], size: int, line_size: int, ways: int = 1) -> int:
    """Dispatch by model name: ``dm``, ``de`` or ``lru``."""
    if model == "dm":
        return direct_mapped_misses(addrs, size, line_size)
    if model == "de":
        return dynamic_exclusion_misses(addrs, size, line_size)
    if model == "lru":
        return lru_misses(addrs, size, line_size, ways)
    raise ValueError(f"the oracle has no model {model!r}")
