"""Partition catalogue and randomized search for small non-colorable sets.

A partition is a 5-element subset of the given bases that tiles all 160
rays; every sampled candidate set contains one, which keeps the instance
tightly constrained.  The search is restart-based and fully deterministic
for a fixed seed: restart k draws from ``random.Random(f"{seed}:{k}")``.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .bases import OrthoGraph, pack_rows, unpack_rows
from .coloring import ColoringResult, KSInstance, check_colorable


class _CoverIndex(NamedTuple):
    """Basis bitmasks indexed for exact cover of the rays in ``full``.

    Bit i of ``holding[r]``: basis i holds ray bit r.  Bit j of
    ``clash[i]``: bases i and j share a ray.
    """

    full: int
    masks: tuple
    holding: tuple
    clash: tuple


def _cover_index(masks, full: int) -> _CoverIndex:
    """Index basis masks whose bits all lie in ``full``."""
    incidence = unpack_rows(masks, full.bit_length())
    holding = pack_rows(incidence.T)
    clash = [0] * len(masks)
    for i, ray in zip(*(a.tolist() for a in np.nonzero(incidence))):
        clash[i] |= holding[ray]
    return _CoverIndex(full, tuple(masks), holding, tuple(clash))


def _exact_covers(index: _CoverIndex, avail: int,
                  first: bool = False) -> list[tuple]:
    """Every 5-element set of the bases in ``avail`` that tiles ``full``.

    Knuth's Algorithm X on bitmasks: each node covers its lowest uncovered
    ray with every still-available basis through it, and choosing a basis
    withdraws every basis it meets, so each cover is reached exactly once.
    With ``first`` the search stops at the first cover.
    """
    full, masks, holding, clash = index
    found = []
    stack = [((), 0, avail)]
    while stack:
        chosen, covered, avail = stack.pop()
        uncovered = full ^ covered
        if not uncovered:
            if len(chosen) == 5:
                found.append(tuple(sorted(chosen)))
                if first:
                    break
        elif len(chosen) < 5:
            cand = holding[(uncovered & -uncovered).bit_length() - 1] & avail
            while cand:
                i = (cand & -cand).bit_length() - 1
                cand &= cand - 1
                stack.append((chosen + (i,), covered | masks[i],
                              avail & ~clash[i]))
    return found


def find_partitions(bases, universe=None) -> list[tuple]:
    """All 5-element subsets of ``bases`` that partition the universe.

    Returns sorted tuples of 0-based indices into ``bases``, in sorted
    order.  The universe defaults to the union of all input rays.
    """
    bases = [tuple(b) for b in bases]
    if universe is None:
        universe = set().union(*bases)
    pos = {rid: i for i, rid in enumerate(sorted(universe))}
    masks = []
    for b in bases:
        mask = 0
        for rid in b:
            if rid not in pos:
                raise ValueError("basis ray %r outside the universe" % (rid,))
            mask |= 1 << pos[rid]
        masks.append(mask)
    index = _cover_index(masks, (1 << len(pos)) - 1)
    return sorted(_exact_covers(index, (1 << len(masks)) - 1))


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
    Each trial selects from the sample's instance and partition index,
    built once per restart.  A drawn partition that is not five of the
    bases tiling all rays raises ``ValueError``.
    """
    bases = [tuple(b) for b in bases]
    if max_size < 5:
        raise ValueError("max_size must be at least 5")
    if partitions is None:
        partitions = find_partitions(bases)
    if not partitions or budget <= 0:
        return ProofCandidate("budget_exhausted", (), (), 0, None, seed,
                              None, 0)

    # Ray bits over the graph; a ray outside it gets bit graph.n, which no
    # instance holds, so no sample can tile it.
    full = 0
    for rid in set().union(*bases):
        full |= 1 << graph.position.get(rid, graph.n)

    for k in range(budget):
        rng = random.Random("%d:%d" % (seed, k))
        part = partitions[rng.randrange(len(partitions))]
        untiled = "partition %r does not tile the rays" % (part,)
        seeded = set(part)
        if len(seeded) != 5 or not all(0 <= i < len(bases) for i in seeded):
            raise ValueError(untiled)
        chosen = set(seeded)
        others = [i for i in range(len(bases)) if i not in chosen]
        while len(chosen) < min(max_size, len(bases)) and others:
            chosen.add(others.pop(rng.randrange(len(others))))
        current = sorted(chosen)
        # Every trial below is a selection of this sample's positions.
        inst = KSInstance.build(graph, [bases[i] for i in current])
        index = _cover_index(inst.basis_masks, full)
        if not _exact_covers(index, sum(1 << j for j, i in enumerate(current)
                                        if i in seeded), first=True):
            raise ValueError(untiled)
        result = check_colorable(inst)
        if result.status != "non_colorable":
            continue
        keep = list(range(len(current)))
        kept = (1 << len(keep)) - 1
        changed = True
        while changed:
            changed = False
            for drop in list(keep):
                avail = kept & ~(1 << drop)
                if not _exact_covers(index, avail, first=True):
                    continue
                trial = [j for j in keep if j != drop]
                trial_result = check_colorable(inst.restrict(trial))
                if trial_result.status == "non_colorable":
                    keep, kept, result = trial, avail, trial_result
                    changed = True
        final = tuple(current[j] for j in keep)
        return ProofCandidate("found", final,
                              tuple(bases[i] for i in final), len(final), k,
                              seed, result, k + 1)
    return ProofCandidate("budget_exhausted", (), (), 0, None, seed, None,
                          budget)
