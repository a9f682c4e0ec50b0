"""Exact {0,1}-coloring decisions for ray/basis instances.

An instance asks for an assignment of 0/1 to every involved ray such that
(i) each listed basis contains at least one ray valued 1 and (ii) no two
orthogonal involved rays are both valued 1.  Because the rays of a basis
are pairwise orthogonal, (i) and (ii) together force exactly one 1 per
basis, so the search branches on which ray of a most-constrained basis
carries the 1.  A search node scans the bases its parent left open, in
order: one pass sets the only available ray of a basis to 1, stops at the
first basis with none, and notes the first basis with the fewest available
rays.  A pass that set a ray is repeated over the bases it left open; the
pass that sets none gives the branch basis and the open bases that the
children scan.  The solver is exhaustive and deterministic; any witness it
reports is re-checked by the independent verifier before being returned.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, combinations, repeat

import numpy as np

from .bases import OrthoGraph, unpack_rows


class InstanceError(Exception):
    """Raised when bases and orthogonality data are inconsistent."""


@dataclass(frozen=True)
class KSInstance:
    """Bases as bitmasks over the orthogonality graph they were built from.

    Bit i of every basis mask stands for ``graph.ids[i]``, so the solvers
    read ``graph.rows`` as the orthogonality masks directly.  Bits in a row
    for rays outside the instance are harmless: the solvers set a ray to 1
    only from a basis mask, and read the rays set to 0 only through one.
    """

    graph: OrthoGraph
    ray_ids: tuple
    bases: tuple
    basis_masks: tuple

    @classmethod
    def build(cls, graph: OrthoGraph, bases) -> "KSInstance":
        pos = graph.position
        norm_bases = []
        masks = []
        involved = set()
        for b in bases:
            ids = tuple(sorted(b))
            mask = 0
            for rid in ids:
                if rid not in pos:
                    raise InstanceError("basis ray %d is not in the graph"
                                        % rid)
                mask |= 1 << pos[rid]
            for i, rid in enumerate(ids):
                bit = 1 << pos[rid]
                # A repeated ray collapses into one bit but is still a ray
                # that is not orthogonal to itself.
                bad = (bit if ids[i + 1:i + 2] == (rid,)
                       else mask & ~(graph.rows[pos[rid]] | bit))
                if bad:
                    raise InstanceError(
                        "rays %d and %d share a basis but are not orthogonal"
                        % (rid, graph.ids[(bad & -bad).bit_length() - 1]))
            norm_bases.append(ids)
            masks.append(mask)
            involved.update(ids)
        return cls(graph=graph, ray_ids=tuple(sorted(involved)),
                   bases=tuple(norm_bases), basis_masks=tuple(masks))

    def restrict(self, keep) -> "KSInstance":
        """The instance of the bases at positions ``keep``, in that order.

        It equals ``build`` over those bases.  Nothing is validated again:
        ``build`` checks each basis on its own, so a selection of checked
        bases is checked.
        """
        bases = tuple(map(self.bases.__getitem__, keep))
        masks = tuple(map(self.basis_masks.__getitem__, keep))
        involved = set(chain.from_iterable(bases))
        return KSInstance(graph=self.graph, ray_ids=tuple(sorted(involved)),
                          bases=bases, basis_masks=masks)


def _pair_indices(inst: KSInstance) -> tuple:
    """Orthogonal pairs among the involved rays as index arrays into ray_ids.

    The strict upper triangle of the involved rays' adjacency is read row by
    row, so the pairs come in ``combinations(ray_ids, 2)`` order.
    """
    graph = inst.graph
    at = [graph.position[rid] for rid in inst.ray_ids]
    adj = unpack_rows([graph.rows[p] for p in at], graph.n)[:, at]
    return np.nonzero(np.triu(adj, 1))


@dataclass(frozen=True)
class ColoringResult:
    """Outcome of an exhaustive coloring search.

    ``status`` is "colorable" or "non_colorable".  For a colorable
    instance ``witness`` maps every involved ray id to 0 or 1 and has been
    accepted by ``verify_coloring``; otherwise it is None and the node
    count certifies the exhausted search tree.
    """

    status: str
    witness: dict | None
    nodes: int
    propagations: int


def check_colorable(inst: KSInstance) -> ColoringResult:
    """Decide colorability by exhaustive propagation-driven search."""
    adj = inst.graph.rows
    more = len(adj) + 1  # more rays than any basis holds
    nodes = propagations = 0

    def search(ones: int, zeros: int, masks):
        nonlocal nodes, propagations
        nodes += 1
        while True:
            free = ~zeros
            still_open = []
            best, fewest = 0, more
            for mask in masks:
                if mask & ones:
                    continue
                avail = mask & free
                if avail & (avail - 1):
                    still_open.append(mask)
                    count = avail.bit_count()
                    if count < fewest:
                        best, fewest = avail, count
                elif avail:
                    ones |= avail
                    zeros |= adj[avail.bit_length() - 1]
                    free = ~zeros
                    propagations += 1
                    fewest = 0  # this pass is repeated: choose in the next
                else:
                    return None
            if fewest:
                break
            masks = still_open
        if not best:
            return ones  # every basis is satisfied
        while best:
            bit = best & -best
            best ^= bit
            result = search(ones | bit, zeros | adj[bit.bit_length() - 1],
                            still_open)
            if result is not None:
                return result
        return None

    outcome = search(0, 0, inst.basis_masks)
    del search  # break the recursive closure's self-reference
    if outcome is None:
        return ColoringResult("non_colorable", None, nodes, propagations)
    pos = inst.graph.position
    witness = {rid: (outcome >> pos[rid]) & 1 for rid in inst.ray_ids}
    if not verify_coloring(inst, witness):
        raise AssertionError("solver produced a witness the verifier rejects")
    return ColoringResult("colorable", witness, nodes, propagations)


def count_colorings(inst: KSInstance) -> int:
    """Exhaustively count admissible colorings (used as a cross-check)."""
    adj, basis_masks = inst.graph.rows, inst.basis_masks

    def count(idx: int, ones: int, zeros: int) -> int:
        while idx < len(basis_masks) and basis_masks[idx] & ones:
            idx += 1
        if idx == len(basis_masks):
            return 1
        total = 0
        cand = basis_masks[idx] & ~zeros
        while cand:
            bit = cand & -cand
            cand &= cand - 1
            total += count(idx + 1, ones | bit, zeros | adj[bit.bit_length() - 1])
        return total

    total = count(0, 0, 0)
    del count  # break the recursive closure's self-reference
    return total


def verify_coloring(inst: KSInstance, assignment: dict) -> bool:
    """Independent witness check; (ii) is tested among the rays valued 1."""
    if set(assignment) != set(inst.ray_ids):
        raise ValueError("assignment keys do not match the involved rays")
    for value in assignment.values():
        if value not in (0, 1):
            raise ValueError("assignment values must be 0 or 1")
    for ids in inst.bases:
        if not any(assignment[rid] == 1 for rid in ids):
            return False
    pos, rows = inst.graph.position, inst.graph.rows
    ones = [rid for rid in inst.ray_ids if assignment[rid] == 1]
    return not any((rows[pos[a]] >> pos[b]) & 1
                   for a, b in combinations(ones, 2))


def export_cnf(inst: KSInstance) -> str:
    """DIMACS rendering: one clause per orthogonal pair, one per basis.

    Variable k corresponds to the k-th smallest involved ray id, so pair
    (i, j) of indices into ``ray_ids`` is the clause -(i + 1) -(j + 1); the
    leading comment block records the mapping.
    """
    first, second = _pair_indices(inst)
    nvars = len(inst.ray_ids)
    head = ["c var %d = ray %d\n" % (k, rid)
            for k, rid in enumerate(inst.ray_ids, 1)]
    head.append("p cnf %d %d\n" % (nvars, len(first) + len(inst.bases)))
    name = [str(k) for k in range(nvars + 1)]
    pairs = zip(repeat("-"), map(name.__getitem__, (first + 1).tolist()),
                repeat(" -"), map(name.__getitem__, (second + 1).tolist()),
                repeat(" 0\n"))
    var = dict(zip(inst.ray_ids, name[1:]))
    tail = [" ".join(map(var.__getitem__, ids)) + " 0\n" for ids in inst.bases]
    return "".join(chain(head, chain.from_iterable(pairs), tail))
