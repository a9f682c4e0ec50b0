"""Overlap graph of a basis family and its automorphism group.

Vertices are bases; two bases are adjacent when they share at least one
ray, and each edge carries the number of shared rays as a weight.  The
automorphism search combines iterated color refinement with
forward-checked backtracking over candidate bitmasks, which is exact and
fast at this scale.  The group structure summary (largest normal
elementary-abelian 2-subgroup and the quotient) is computed directly from
the multiplication table: a subgroup generated by a union of conjugacy
classes of commuting involutions is automatically normal and elementary
abelian, so the maximum is found by a clique search over involution
classes.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations


@dataclass(frozen=True)
class OverlapGraph:
    """Basis-overlap relation: labels, adjacency bitmasks, edge weights."""

    labels: tuple
    adj: tuple
    weights: dict

    @property
    def n(self) -> int:
        return len(self.labels)

    def edge_count(self) -> int:
        return len(self.weights)


def build_overlap_graph(bases: dict) -> OverlapGraph:
    """Vertices in sorted key order; edge weight = number of shared rays."""
    labels = tuple(sorted(bases))
    sets = [frozenset(bases[k]) for k in labels]
    n = len(labels)
    adj = [0] * n
    weights = {}
    for i, j in combinations(range(n), 2):
        shared = len(sets[i] & sets[j])
        if shared:
            adj[i] |= 1 << j
            adj[j] |= 1 << i
            weights[(i, j)] = shared
    return OverlapGraph(labels=labels, adj=tuple(adj), weights=dict(weights))


def _refine_colors(g: OverlapGraph) -> list:
    colors = [g.adj[i].bit_count() for i in range(g.n)]
    while True:
        signatures = []
        for v in range(g.n):
            neigh = sorted(colors[w] for w in range(g.n)
                           if (g.adj[v] >> w) & 1)
            signatures.append((colors[v], tuple(neigh)))
        palette = {sig: i for i, sig in enumerate(sorted(set(signatures)))}
        new = [palette[sig] for sig in signatures]
        if new == colors:
            return colors
        colors = new


def _all_automorphisms(g: OverlapGraph) -> list:
    """Every adjacency-preserving permutation, as image tuples."""
    n = g.n
    colors = _refine_colors(g)
    full = (1 << n) - 1
    base_cand = []
    for v in range(n):
        mask = 0
        for w in range(n):
            if colors[w] == colors[v]:
                mask |= 1 << w
        base_cand.append(mask)
    order = sorted(range(n), key=lambda v: (base_cand[v].bit_count(), v))
    found = []

    def extend(idx: int, image: dict, cand: list, used: int):
        if idx == n:
            found.append(tuple(image[v] for v in range(n)))
            return
        v = order[idx]
        options = cand[v] & ~used
        while options:
            bit = options & -options
            options &= options - 1
            w = bit.bit_length() - 1
            new_cand = list(cand)
            ok = True
            for u in range(n):
                if u in image or u == v:
                    continue
                if (g.adj[v] >> u) & 1:
                    new_cand[u] &= g.adj[w]
                else:
                    new_cand[u] &= full & ~g.adj[w] & ~bit
                if not new_cand[u] & ~(used | bit):
                    ok = False
                    break
            if not ok:
                continue
            image[v] = w
            extend(idx + 1, image, new_cand, used | bit)
            del image[v]

    extend(0, {}, base_cand, 0)
    for perm in found:
        _check_automorphism(g, perm)
    return sorted(found)


def _check_automorphism(g: OverlapGraph, perm: tuple):
    for i, j in combinations(range(g.n), 2):
        before = (g.adj[i] >> j) & 1
        after = (g.adj[perm[i]] >> perm[j]) & 1
        if before != after:
            raise AssertionError("claimed automorphism breaks edge (%d, %d)"
                                 % (i, j))


def _preserves_weights(g: OverlapGraph, perm: tuple) -> bool:
    for (i, j), w in g.weights.items():
        a, b = perm[i], perm[j]
        if g.weights.get((min(a, b), max(a, b))) != w:
            return False
    return True


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


def automorphism_group(g: OverlapGraph) -> AutGroupReport:
    elements = _all_automorphisms(g)
    n = g.n
    index = {p: i for i, p in enumerate(elements)}
    identity = tuple(range(n))
    if identity not in index:
        raise AssertionError("identity is not an automorphism")

    def compose(p, q):
        return tuple(p[q[i]] for i in range(n))

    def inverse(p):
        inv = [0] * n
        for i, pi in enumerate(p):
            inv[pi] = i
        return tuple(inv)

    size = len(elements)
    mult = [[index[compose(elements[a], elements[b])] for b in range(size)]
            for a in range(size)]
    inv = [index[inverse(p)] for p in elements]
    id_idx = index[identity]

    def element_order(a: int) -> int:
        k, cur = 1, a
        while cur != id_idx:
            cur = mult[cur][a]
            k += 1
        return k

    orders = [element_order(a) for a in range(size)]
    census = {}
    for o in orders:
        census[o] = census.get(o, 0) + 1

    seen = set()
    classes = []
    for a in range(size):
        if a in seen:
            continue
        cls = {mult[mult[gidx][a]][inv[gidx]] for gidx in range(size)}
        seen |= cls
        classes.append(frozenset(cls))

    def closure(seed) -> frozenset:
        members = set(seed) | {id_idx}
        frontier = list(members)
        while frontier:
            a = frontier.pop()
            for b in list(members):
                for c in (mult[a][b], mult[b][a]):
                    if c not in members:
                        members.add(c)
                        frontier.append(c)
        return frozenset(members)

    inv_classes = [cls for cls in classes
                   if orders[next(iter(cls))] == 2]
    commute = {}
    for ci, cls_i in enumerate(inv_classes):
        for cj in range(ci, len(inv_classes)):
            cls_j = inv_classes[cj]
            ok = all(mult[a][b] == mult[b][a]
                     for a in cls_i for b in cls_j)
            commute[(ci, cj)] = commute[(cj, ci)] = ok

    # Any pairwise-commuting union of involution classes generates an
    # elementary-abelian normal subgroup, and closure is monotone, so the
    # maximum is attained at a maximal compatible union.
    usable = [ci for ci in range(len(inv_classes)) if commute[(ci, ci)]]
    ea_members = closure(set())
    for clique in _maximal_class_cliques(usable, commute):
        seed = set()
        for ci in clique:
            seed |= inv_classes[ci]
        sub = closure(seed)
        if all(orders[a] <= 2 for a in sub) and len(sub) > len(ea_members):
            ea_members = sub
    best_ea = len(ea_members)
    quotient_order = size // best_ea
    nonabelian = any(
        mult[mult[a][b]][mult[inv[a]][inv[b]]] not in ea_members
        for a in range(size) for b in range(a + 1, size))
    for gidx in range(size):
        conj = {mult[mult[gidx][a]][inv[gidx]] for a in ea_members}
        if conj != ea_members:
            raise AssertionError("selected subgroup is not normal")

    gens = []
    span = frozenset({id_idx})
    for a in range(size):
        if a in span:
            continue
        gens.append(a)
        span = closure(set(gens))
        if len(span) == size:
            break
    closure_ok = len(closure(set(gens))) == size

    orbit_sets = []
    assigned = set()
    for v in range(n):
        if v in assigned:
            continue
        orbit = {p[v] for p in elements}
        assigned |= orbit
        orbit_sets.append(tuple(sorted(g.labels[w] for w in orbit)))

    weighted = sum(1 for p in elements if _preserves_weights(g, p))

    return AutGroupReport(
        order=size,
        generators=tuple(elements[a] for a in gens),
        orbits=tuple(orbit_sets),
        weighted_order=weighted,
        element_order_census=census,
        conjugacy_class_count=len(classes),
        normal_ea_order=best_ea,
        quotient_order=quotient_order,
        quotient_nonabelian=nonabelian,
        closure_verified=closure_ok,
    )


def _maximal_class_cliques(vertices, commute):
    """Maximal pairwise-compatible subsets of involution classes."""
    cliques = []

    def extend(r: list, p: list, x: list):
        if not p and not x:
            cliques.append(tuple(r))
            return
        for i, v in enumerate(p):
            extend(r + [v],
                   [u for u in p[i + 1:] if commute[(u, v)]],
                   [u for u in x if commute[(u, v)]])
            x = x + [v]

    extend([], list(vertices), [])
    return cliques
