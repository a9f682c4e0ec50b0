"""Partition catalogue and randomized search for small non-colorable sets.

A partition is a 5-element subset of the given bases that tiles all 160
rays; every sampled candidate set contains one, which keeps the instance
tightly constrained.  The search is restart-based and fully deterministic
for a fixed seed: restart k draws from ``random.Random(f"{seed}:{k}")``.
"""
from __future__ import annotations

import random
from dataclasses import dataclass

from .bases import OrthoGraph
from .coloring import ColoringResult, KSInstance, check_colorable


def find_partitions(bases, universe=None) -> list[tuple]:
    """All 5-element subsets of ``bases`` that partition the universe.

    Returns sorted tuples of 0-based indices into ``bases``, in sorted
    order.  The universe defaults to the union of all input rays.  The
    search is an exact cover (Knuth's Algorithm X) on bitmasks: each node
    covers its lowest uncovered ray with every still-available basis
    through it, and choosing a basis withdraws every basis it meets, so
    each partition is reached exactly once.
    """
    bases = [tuple(b) for b in bases]
    if universe is None:
        universe = set().union(*bases)
    ids = sorted(universe)
    pos = {rid: i for i, rid in enumerate(ids)}
    full = (1 << len(ids)) - 1
    masks = []
    holding = [0] * len(ids)  # bit i of holding[r]: basis i holds ray r
    for i, b in enumerate(bases):
        mask = 0
        for rid in b:
            if rid not in pos:
                raise ValueError("basis ray %r outside the universe" % (rid,))
            mask |= 1 << pos[rid]
            holding[pos[rid]] |= 1 << i
        masks.append(mask)
    clash = []  # bit j of clash[i]: bases i and j share a ray
    for b in bases:
        clash.append(0)
        for rid in b:
            clash[-1] |= holding[pos[rid]]

    found = []
    stack = [((), 0, (1 << len(masks)) - 1)]
    while stack:
        chosen, covered, avail = stack.pop()
        if covered == full:
            if len(chosen) == 5:
                found.append(tuple(sorted(chosen)))
        elif len(chosen) < 5:
            lowest = ~covered & (covered + 1)
            cand = holding[lowest.bit_length() - 1] & avail
            while cand:
                i = (cand & -cand).bit_length() - 1
                cand &= cand - 1
                stack.append((chosen + (i,), covered | masks[i],
                              avail & ~clash[i]))
    return sorted(found)


@dataclass(frozen=True)
class ProofCandidate:
    """Result of one search run.

    ``basis_indices`` are 0-based positions into the input list; ``bases``
    are the corresponding ray-id tuples.  ``status`` is "found" when a
    non-colorable set was located (then ``coloring`` certifies the final
    minimized set), or "budget_exhausted" otherwise.
    """

    status: str
    basis_indices: tuple
    bases: tuple
    size: int
    restart: int | None
    seed: int
    coloring: ColoringResult | None
    attempts: int


def search_small_proof(graph: OrthoGraph, bases, seed: int = 0,
                       max_size: int = 30, budget: int = 64,
                       partitions=None) -> ProofCandidate:
    """Randomized restart search for a small non-colorable basis set.

    Each restart seeds a partition (5 bases tiling all rays), pads it with
    uniformly drawn further bases up to ``max_size``, and tests
    colorability.  The first non-colorable sample is greedily minimized:
    bases are dropped one at a time, in ascending index order, whenever
    the remainder still contains a partition and stays non-colorable.
    """
    bases = [tuple(b) for b in bases]
    if max_size < 5:
        raise ValueError("max_size must be at least 5")
    if partitions is None:
        partitions = find_partitions(bases)
    if not partitions or budget <= 0:
        return ProofCandidate("budget_exhausted", (), (), 0, None, seed,
                              None, 0)

    universe = set().union(*bases)

    def has_partition(indices) -> bool:
        sub = [bases[i] for i in indices]
        return bool(find_partitions(sub, universe=universe))

    def colorable(indices) -> ColoringResult:
        inst = KSInstance.build(graph, [bases[i] for i in indices])
        return check_colorable(inst)

    for k in range(budget):
        rng = random.Random("%d:%d" % (seed, k))
        chosen = set(partitions[rng.randrange(len(partitions))])
        others = [i for i in range(len(bases)) if i not in chosen]
        while len(chosen) < min(max_size, len(bases)) and others:
            chosen.add(others.pop(rng.randrange(len(others))))
        current = sorted(chosen)
        result = colorable(current)
        if result.status != "non_colorable":
            continue
        changed = True
        while changed:
            changed = False
            for drop in list(current):
                trial = [i for i in current if i != drop]
                if not has_partition(trial):
                    continue
                trial_result = colorable(trial)
                if trial_result.status == "non_colorable":
                    current, result = trial, trial_result
                    changed = True
        final = tuple(current)
        return ProofCandidate("found", final,
                              tuple(bases[i] for i in final), len(final), k,
                              seed, result, k + 1)
    return ProofCandidate("budget_exhausted", (), (), 0, None, seed, None,
                          budget)
