"""Orthogonality graph of a ray family and exhaustive maximal-basis search.

A basis is a clique of pairwise-orthogonal rays whose size equals the
ambient dimension; such a clique is automatically a complete orthogonal
basis because nonzero pairwise-orthogonal vectors are linearly
independent.  Enumeration is exact: ``maximal_cliques`` is a
Bron-Kerbosch search with a Tomita pivot over P|X, pruned by a
greedy-colouring bound (Tomita & Seki's MCQ): the candidates P are split
greedily into independent sets, a clique takes at most one vertex from
each, so a node whose P has fewer colour classes than the vertices still
needed cannot reach the minimum size and is cut.  The same search and the
bit-row packer serve every bitmask relation in the package.

Given vertex permutations that map the graph onto itself, the search
runs once per orbit instead of once per vertex at the root, and closes
what it finds under the permutations.  A graph built from a ray table
carries the table's ``pauli_permutations``, those of the single-qubit
Paulis X_q and Z_q, built once per table; their orbits on the 160 rays
are the five blocks.  The search over the whole graph without them is
the same code with every orbit a single vertex.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .rays import RayTable, orbit_labels


@dataclass(frozen=True)
class OrthoGraph:
    """Orthogonality relation over rays, one adjacency bitmask per ray.

    Vertices are 0-based positions; ``ids`` maps positions back to the
    caller's ray ids.  ``dim`` is the ambient vector-space dimension and
    therefore the exact size of every complete basis.  ``automorphisms``
    are vertex permutations for ``maximal_cliques``, which checks each
    against the rows: a table's ``pauli_permutations`` when the graph
    was built from one; they take no part in equality or hashing.
    """

    ids: tuple
    rows: tuple
    dim: int
    automorphisms: tuple = field(default=(), compare=False, repr=False)

    @property
    def n(self) -> int:
        return len(self.ids)

    @cached_property
    def position(self) -> dict:
        """Ray id -> its 0-based vertex position (bit in ``rows``)."""
        return {rid: i for i, rid in enumerate(self.ids)}

    def edge_count(self) -> int:
        return sum(r.bit_count() for r in self.rows) // 2


def build_ortho_graph(table: RayTable) -> OrthoGraph:
    """Exact integer inner products decide every edge.

    Bit j of row i is set when Gram entry (i, j) is zero; every ray has a
    positive norm, so none is its own neighbour.  The automorphisms are
    the table's ``pauli_permutations``, built once per table and read by
    the distance spectrum too; the graph keeps neither the table nor its
    Gram matrix.
    """
    return OrthoGraph(ids=tuple(r.id for r in table.rays),
                      rows=pack_rows(table.gram == 0),
                      dim=len(table.rays[0].entries),
                      automorphisms=table.pauli_permutations)


def pack_rows(matrix) -> tuple:
    """Bitmask rows of a 0/1 matrix: bit j of row i is entry (i, j).

    The inverse of ``unpack_rows``.
    """
    packed = np.packbits(np.asarray(matrix, dtype=bool), axis=1,
                         bitorder="little")
    return tuple(int.from_bytes(row.tobytes(), "little") for row in packed)


def unpack_rows(rows, n: int) -> np.ndarray:
    """Bitmask rows as a 0/1 uint8 matrix: entry (i, j) is bit j of rows[i]."""
    width = (n + 7) // 8
    packed = np.frombuffer(b"".join(row.to_bytes(width, "little")
                                    for row in rows), dtype=np.uint8)
    return np.unpackbits(packed.reshape(len(rows), width), axis=1, count=n,
                         bitorder="little")


def maximal_cliques(rows, min_size: int = 0, automorphisms=(),
                    stats: dict | None = None) -> list[list]:
    """Every maximal clique with at least ``min_size`` vertices.

    ``rows[v]`` is the neighbour bitmask of vertex v, without v itself.
    Each clique is a list of vertex positions in the order the search
    added them; the cliques come in search order.

    ``automorphisms`` are vertex permutations (``perm[v]`` is the image
    of v), each checked to map ``rows`` onto itself; a ValueError names
    the first that does not.  The root then branches once per orbit of
    the group they generate that meets the pivot's branch set, through
    the orbit's least vertex ``rep``, in the order of the orbits' least
    vertices in that set.  The branch finds the maximal cliques that hold
    ``rep`` and avoid the orbits branched on before; their images under
    the group follow them, as ascending position lists.  Every maximal
    clique meets the branch set, so some image of it holds the ``rep``
    of the first branched orbit it meets and, orbits being invariant,
    avoids the earlier ones: that branch finds the image.  Different
    branches close to disjoint sets, so each clique comes once.  With no
    automorphisms every orbit is one vertex, which is the plain root
    step.

    ``stats``, when given, receives the search nodes (``nodes``) and the
    orbits branched on at the root (``orbits``).
    """
    n = len(rows)
    orbit_of = _orbit_masks(rows, automorphisms)
    found = []
    nodes = 0

    def extend(r_count: int, r_vertices: list, p: int, x: int):
        # The root returns its pivot's branch set instead of branching.
        nonlocal nodes
        nodes += 1
        need = min_size - r_count
        classes = 0
        uncoloured = p
        while uncoloured and classes < need:
            classes += 1
            q = uncoloured
            while q:
                bit = q & -q
                uncoloured ^= bit
                q &= ~(rows[bit.bit_length() - 1] | bit)
        if classes < need:
            return 0
        # The leaf test follows the bound: a maximal clique that is too
        # small has no candidates left, so the bound has already cut it.
        px = p | x
        if not px:
            found.append(r_vertices[:])
            return 0
        pivot = -1
        best = -1
        m = px
        while m:
            v = (m & -m).bit_length() - 1
            m &= m - 1
            deg = (p & rows[v]).bit_count()
            if deg > best:
                best = deg
                pivot = v
        cand = p & ~rows[pivot]
        if not r_count:
            return cand
        while cand:
            v = (cand & -cand).bit_length() - 1
            cand &= cand - 1
            bit = 1 << v
            r_vertices.append(v)
            extend(r_count + 1, r_vertices, p & rows[v], x & rows[v])
            r_vertices.pop()
            p &= ~bit
            x |= bit

    branch = extend(0, [], (1 << n) - 1, 0)
    done = orbits = 0
    while branch:
        orbit = orbit_of[(branch & -branch).bit_length() - 1]
        rep = (orbit & -orbit).bit_length() - 1
        branch &= ~orbit
        start = len(found)
        extend(1, [rep], rows[rep] & ~done, rows[rep] & done)
        found += _images(found[start:], automorphisms, n)
        done |= orbit
        orbits += 1
    # ``extend`` reaches ``found`` and itself through its closure cells;
    # clearing its own cell frees them on return, not at the next
    # cyclic collection.
    del extend
    if stats is not None:
        stats.update(nodes=nodes, orbits=orbits)
    return found


def _orbit_masks(rows, automorphisms) -> list:
    """The bitmask of each vertex's orbit under ``automorphisms``.

    Each permutation must map the adjacency onto itself: ``A[p][:, p]``
    equals ``A``.  A ValueError names the first that does not.
    """
    n = len(rows)
    if automorphisms:
        adjacency = unpack_rows(rows, n)
        for k, perm in enumerate(automorphisms):
            perm = np.asarray(perm)
            if not (np.array_equal(np.sort(perm), np.arange(n))
                    and np.array_equal(adjacency[np.ix_(perm, perm)],
                                       adjacency)):
                raise ValueError("automorphism %d does not map the graph "
                                 "onto itself" % k)
    labels = orbit_labels(automorphisms, n).tolist()
    orbit = dict.fromkeys(labels, 0)
    for v, label in enumerate(labels):
        orbit[label] |= 1 << v
    return [orbit[label] for label in labels]


def _images(cliques, automorphisms, n: int) -> list[list]:
    """Images of ``cliques`` under the group ``automorphisms`` generate
    that are not among them, each once, as ascending position lists.

    The cliques are boolean rows over the n vertices; each generator in
    turn maps the newest rows, and a row's packed bytes tell whether it
    has been seen.
    """
    if not (cliques and automorphisms):
        return []
    frontier = np.zeros((len(cliques), n), dtype=bool)
    for row, clique in zip(frontier, cliques):
        row[clique] = True
    seen = set(_row_keys(frontier))
    images = []
    while len(frontier):
        grown = []
        for perm in automorphisms:
            image = np.empty_like(frontier)
            image[:, perm] = frontier
            fresh = []
            for i, key in enumerate(_row_keys(image)):
                if key not in seen:
                    seen.add(key)
                    fresh.append(i)
            grown.append(image[fresh])
        frontier = np.concatenate(grown)
        images += (np.flatnonzero(row).tolist() for row in frontier)
    return images


def _row_keys(matrix) -> list:
    """The packed bytes of each row of a boolean matrix."""
    packed = np.packbits(matrix, axis=1)
    data, width = packed.tobytes(), packed.shape[1]
    return [data[i:i + width] for i in range(0, len(data), width)]


def enumerate_maximal_bases(graph: OrthoGraph,
                            stats: dict | None = None) -> list[tuple]:
    """All cliques of size ``graph.dim``, as sorted id tuples in sorted order.

    No clique of an orthogonality graph is larger than the dimension, so
    its maximal cliques of at least ``dim`` rays are exactly the complete
    bases.  The search branches once per orbit of ``graph.automorphisms``
    and closes its cliques under them.  The output order is canonical: it
    depends only on the orthogonality relation and the ids, not on the
    vertex ordering or the orbits used during the search.  ``stats`` is
    passed to ``maximal_cliques``.
    """
    return sorted(tuple(sorted(graph.ids[v] for v in clique))
                  for clique in maximal_cliques(graph.rows, graph.dim,
                                                graph.automorphisms, stats))


def contains_basis(bases, candidate) -> bool:
    """Membership of ``candidate`` (any iterable of ids) in the list."""
    probe = tuple(sorted(candidate))
    return probe in {tuple(sorted(b)) for b in bases}


def bases_sha256(bases) -> str:
    """Digest of the canonical rendering: newline-joined space-separated ids.

    The digest covers the canonical content (no trailing newline), so it is
    stable across writers that terminate the file differently.  hashlib is
    imported here, not at module level, because it maps OpenSSL's libcrypto
    (about 3.6 MB resident) into every process that imports the package,
    and only the ``bases`` and ``verify`` commands take the digest.
    """
    import hashlib

    text = "\n".join(" ".join(str(i) for i in b) for b in bases)
    return hashlib.sha256(text.encode()).hexdigest()


def write_bases_text(bases, path):
    with open(path, "w") as fh:
        for b in bases:
            fh.write(" ".join(str(i) for i in b) + "\n")
