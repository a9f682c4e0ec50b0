"""Overlap graph of a basis family and its automorphism group.

Vertices are bases; two bases are adjacent when they share at least one
ray.  One read-only matrix holds the number of shared rays as the edge
weights, and the adjacency is read as its positive entries.  The
automorphisms are the n-cliques of the association graph over pairs of
vertices with equal iterated-refinement colour, found by the clique
search of ``bases``; the refinement keeps that graph small.  The group
structure summary (largest normal elementary-abelian 2-subgroup and the
quotient) is computed by array indexing into a numpy multiplication
table: a subgroup generated by a union of conjugacy classes of commuting
involutions is automatically normal and elementary abelian, so the
maximum is found by the same clique search over involution classes.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .bases import maximal_cliques, pack_rows
from .rays import orbit_labels


@dataclass(frozen=True, eq=False)
class OverlapGraph:
    """Basis-overlap relation: labels and one read-only weight matrix.

    Entry (i, j) of ``weights`` is the number of rays that bases i and j
    share, so bases are adjacent where it is positive; the diagonal is 0.
    Its type is the smallest unsigned one that holds every entry, and no
    bases give a (0, 0) matrix.  Graphs compare by identity.
    """

    labels: tuple
    weights: np.ndarray

    @property
    def n(self) -> int:
        return len(self.labels)

    def edge_count(self) -> int:
        return int(np.count_nonzero(self.weights)) // 2


def build_overlap_graph(bases: dict) -> OverlapGraph:
    """Vertices in sorted key order; weight (i, j) = rays shared by i, j."""
    labels = tuple(sorted(bases))
    sets = [frozenset(bases[k]) for k in labels]
    n = len(labels)
    weights = np.zeros((n, n), dtype=np.int64)
    for i, j in combinations(range(n), 2):
        weights[i, j] = weights[j, i] = len(sets[i] & sets[j])
    weights = weights.astype(np.min_scalar_type(weights.max(initial=0)))
    weights.flags.writeable = False
    return OverlapGraph(labels=labels, weights=weights)


def _refine_colors(g: OverlapGraph) -> list:
    neighbours = [np.flatnonzero(row).tolist() for row in g.weights]
    colors = [len(ws) for ws in neighbours]
    while True:
        signatures = [(colors[v], tuple(sorted(colors[w] for w in ws)))
                      for v, ws in enumerate(neighbours)]
        palette = {sig: i for i, sig in enumerate(sorted(set(signatures)))}
        new = [palette[sig] for sig in signatures]
        if new == colors:
            return colors
        colors = new


def _all_automorphisms(g: OverlapGraph) -> list:
    """Every adjacency-preserving permutation, as sorted image tuples."""
    found = _search_automorphisms(g)
    _check_automorphism(g, found)
    return sorted(found)


def _search_automorphisms(g: OverlapGraph) -> list:
    """Image tuples of the association graph's n-cliques, in search order.

    One vertex per pair (v, w) of equal refined colour; pairs (v, w) and
    (u, x) are adjacent when v != u, w != x and the pairs agree on
    adjacency.  A clique holds at most one pair per v, so its cliques of
    n pairs are exactly the automorphisms (Barrow & Burstall).
    """
    colors = np.array(_refine_colors(g))
    A = g.weights > 0
    v, w = np.nonzero(colors[:, None] == colors[None, :])
    assoc = ((v[:, None] != v[None, :]) & (w[:, None] != w[None, :])
             & (A[np.ix_(v, v)] == A[np.ix_(w, w)]))
    # Pairs are numbered in order of v, so a clique's sorted pair numbers
    # list the image of each vertex in turn.
    images = w.tolist()
    return [tuple(map(images.__getitem__, sorted(clique)))
            for clique in maximal_cliques(pack_rows(assoc), g.n)]


def _seen_through(M: np.ndarray, perms: list) -> np.ndarray:
    """A symmetric matrix seen through each permutation at once.

    Entry (k, a, b) is ``M[p[a], p[b]]`` for the k-th permutation p, by
    two row gathers: ``M[P]`` permutes each copy's rows, and gathering the
    rows of its transpose by ``P`` again gives ``M[p[b], p[a]]`` at
    (a, b).  No index array larger than ``P`` is built.
    """
    P = np.array(perms, dtype=np.intp).reshape(len(perms), len(M))
    return M[P].transpose(0, 2, 1)[np.arange(len(P))[:, None], P]


def _check_automorphism(g: OverlapGraph, perms: list):
    """Re-check every permutation against the adjacency alone.

    A mismatch in the strict upper triangle of the adjacency seen through
    each permutation names the first bad permutation and its first bad
    edge in ``combinations`` order.
    """
    A = g.weights > 0
    bad = np.triu(_seen_through(A, perms) != A, 1)
    if bad.any():
        i, j = np.argwhere(bad[bad.any(axis=(1, 2)).argmax()])[0]
        raise AssertionError("claimed automorphism breaks edge (%d, %d)"
                             % (i, j))


def _weighted_order(g: OverlapGraph, perms: list) -> int:
    """How many of ``perms`` also preserve every edge weight.

    The graph's weight matrix, in its smallest unsigned type, is seen
    through all permutations at once, as ``_check_automorphism`` sees the
    adjacency.
    """
    W = g.weights
    return int((_seen_through(W, perms) == W).all(axis=(1, 2)).sum())


@dataclass(frozen=True)
class AutGroupReport:
    """Order and structure summary of the automorphism group."""

    order: int
    generators: tuple
    orbits: tuple
    weighted_order: int
    element_order_census: dict
    conjugacy_class_count: int
    normal_ea_order: int
    quotient_order: int
    quotient_nonabelian: bool
    closure_verified: bool


# Product entries one block of the multiplication table may hold.
_BLOCK_ENTRIES = 1 << 16


def _base(E: np.ndarray) -> list:
    """Points whose images tell all rows of ``E`` apart, chosen greedily.

    A point joins when it splits rows that agree on the points before it.
    For a group that at least halves the pointwise stabiliser, so the base
    has at most log2(size) points.
    """
    size, n = E.shape
    base, ranks, distinct = [], np.zeros(size, dtype=np.int64), 1
    for point in range(n):
        if distinct == size:
            break
        values, split = np.unique(ranks * n + E[:, point], return_inverse=True)
        if len(values) > distinct:
            base.append(point)
            ranks, distinct = split, len(values)
    return base


def _base_keys(images: np.ndarray, n: int) -> np.ndarray:
    """Base-point images packed in radix n along the last axis.

    Keys are below n ** width: int64 where that fits, Python ints beyond.
    """
    width = images.shape[-1]
    dtype = np.int64 if n ** width <= 2 ** 63 else object
    powers = [n ** k for k in reversed(range(width))]
    return images.astype(dtype) @ np.array(powers, dtype=dtype)


def _multiplication_table(elements, n: int) -> np.ndarray:
    """``mult[a, b]`` is the index of the composition p_a(p_b(i)).

    Built in blocks of rows of at most ``_BLOCK_ENTRIES`` product entries
    (or one row, if that is larger), so no (size, size, n) tensor is ever
    held.  Each product is found by its integer base key and then compared
    with the found element in full.
    """
    size = len(elements)
    # The smallest unsigned type that holds n - 1; numpy raises rather
    # than wraps on an element that does not fit.
    E = np.array(elements, dtype=np.min_scalar_type(max(n - 1, 0)))
    base = _base(E)
    keys = _base_keys(E[:, base], n)
    sorter = np.argsort(keys)
    keys = keys[sorter]
    mult = np.empty((size, size), dtype=np.min_scalar_type(size - 1))
    rows = max(1, _BLOCK_ENTRIES // max(size * n, 1))
    for lo in range(0, size, rows):
        products = E[lo:lo + rows][:, E]  # products[a, b] = E[lo + a][E[b]]
        found = np.searchsorted(keys, _base_keys(products[:, :, base], n))
        block = sorter[np.minimum(found, size - 1)]
        if not (E[block] == products).all():
            raise AssertionError(
                "automorphisms are not closed under composition")
        mult[lo:lo + rows] = block
    return mult


def automorphism_group(g: OverlapGraph) -> AutGroupReport:
    elements = _all_automorphisms(g)
    n = g.n
    identity = tuple(range(n))
    if identity not in elements:
        raise AssertionError("identity is not an automorphism")
    id_idx = elements.index(identity)
    size = len(elements)
    mult = _multiplication_table(elements, n)
    inv = np.argmax(mult == id_idx, axis=1)

    # Every element order divides the group order, so ``size`` powers
    # reach the identity from each element of a true group table.
    orders = np.zeros(size, dtype=np.intp)
    power = np.arange(size)
    for k in range(1, size + 1):
        orders[(power == id_idx) & (orders == 0)] = k
        if orders.all():
            break
        power = mult[power, np.arange(size)]
    else:
        raise AssertionError("element %d has no power equal to the identity"
                             " within the group order: not a group table"
                             % np.argmin(orders))
    census = {}
    for o in orders.tolist():
        census[o] = census.get(o, 0) + 1

    # conj[h, a] = h a h^-1; a class is labelled by its smallest element,
    # so labels in increasing order list the classes in the order a scan
    # over the elements first meets them, and the labels are the elements
    # that label themselves.
    conj = mult[mult, inv[:, None]]
    class_of = conj.min(axis=0)
    reps = np.flatnonzero(class_of == np.arange(size))

    def closure(seed: np.ndarray) -> np.ndarray:
        members = seed.copy()
        members[id_idx] = True
        while True:
            idx = np.flatnonzero(members)
            grown = members.copy()
            grown[mult[np.ix_(idx, idx)]] = True
            if grown.sum() == len(idx):
                return members
            members = grown

    inv_reps = reps[orders[reps] == 2]
    in_class = class_of[None, :] == inv_reps[:, None]
    # Boolean matmul: entry (i, j) is set when some pair across classes
    # i and j fails to commute.
    commute = ~(in_class @ (mult != mult.T) @ in_class.T)

    # Any pairwise-commuting union of involution classes generates an
    # elementary-abelian normal subgroup, and closure is monotone, so the
    # maximum is attained at a maximal compatible union.  Cliques are
    # sorted and only a strictly larger subgroup replaces the best, so the
    # first of equal-size maxima is kept.
    usable = [ci for ci in range(len(inv_reps)) if commute[ci, ci]]
    compatible = pack_rows(commute[np.ix_(usable, usable)]
                           & ~np.eye(len(usable), dtype=bool))
    ea_members = closure(np.zeros(size, dtype=bool))
    for clique in sorted(sorted(usable[i] for i in c)
                         for c in maximal_cliques(compatible)):
        sub = closure(in_class[clique].any(axis=0))
        if (orders[sub] <= 2).all() and sub.sum() > ea_members.sum():
            ea_members = sub
    best_ea = int(ea_members.sum())
    quotient_order = size // best_ea
    # (ab)(a^-1 b^-1) for every ordered pair: the pair (b, a) gives the
    # inverse and (a, a) the identity, so this tests every a < b once.
    commutators = mult[mult, mult[inv[:, None], inv[None, :]]]
    nonabelian = not ea_members[commutators].all()
    if not ea_members[conj[:, ea_members]].all():
        raise AssertionError("selected subgroup is not normal")

    gens = []
    span = closure(np.zeros(size, dtype=bool))
    for a in range(size):
        if span[a]:
            continue
        gens.append(a)
        span[a] = True
        span = closure(span)
        if span.all():
            break
    gen_mask = np.zeros(size, dtype=bool)
    gen_mask[gens] = True
    closure_ok = bool(closure(gen_mask).all())

    labels = orbit_labels([np.array(elements[a]) for a in gens], n)
    orbit_sets = tuple(
        tuple(sorted(g.labels[w] for w in np.flatnonzero(labels == v)))
        for v in np.flatnonzero(labels == np.arange(n)))

    return AutGroupReport(
        order=size,
        generators=tuple(elements[a] for a in gens),
        orbits=orbit_sets,
        weighted_order=_weighted_order(g, elements),
        element_order_census=census,
        conjugacy_class_count=len(reps),
        normal_ea_order=best_ea,
        quotient_order=quotient_order,
        quotient_nonabelian=nonabelian,
        closure_verified=closure_ok,
    )
