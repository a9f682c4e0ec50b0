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
"""
from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .rays import RayTable


@dataclass(frozen=True)
class OrthoGraph:
    """Orthogonality relation over rays, one adjacency bitmask per ray.

    Vertices are 0-based positions; ``ids`` maps positions back to the
    caller's ray ids.  ``dim`` is the ambient vector-space dimension and
    therefore the exact size of every complete basis.
    """

    ids: tuple
    rows: tuple
    dim: int

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
    positive norm, so none is its own neighbour.
    """
    return OrthoGraph(ids=tuple(r.id for r in table.rays),
                      rows=pack_rows(table.gram == 0),
                      dim=len(table.rays[0].entries))


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


def maximal_cliques(rows, min_size: int = 0) -> list[list]:
    """Every maximal clique with at least ``min_size`` vertices.

    ``rows[v]`` is the neighbour bitmask of vertex v, without v itself.
    Each clique is a list of vertex positions in the order the search
    added them; the cliques come in search order.
    """
    full = (1 << len(rows)) - 1
    found = []

    def extend(r_count: int, r_vertices: list, p: int, x: int):
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
            return
        # The leaf test follows the bound: a maximal clique that is too
        # small has no candidates left, so the bound has already cut it.
        px = p | x
        if not px:
            found.append(r_vertices[:])
            return
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
        while cand:
            v = (cand & -cand).bit_length() - 1
            cand &= cand - 1
            bit = 1 << v
            r_vertices.append(v)
            extend(r_count + 1, r_vertices, p & rows[v], x & rows[v])
            r_vertices.pop()
            p &= ~bit
            x |= bit

    extend(0, [], full, 0)
    # ``extend`` reaches ``found`` and itself through its closure cells;
    # clearing its own cell frees them on return, not at the next
    # cyclic collection.
    del extend
    return found


def enumerate_maximal_bases(graph: OrthoGraph) -> list[tuple]:
    """All cliques of size ``graph.dim``, as sorted id tuples in sorted order.

    No clique of an orthogonality graph is larger than the dimension, so
    its maximal cliques of at least ``dim`` rays are exactly the complete
    bases.  The output order is canonical: it depends only on the
    orthogonality relation and the ids, not on the vertex ordering used
    during the search.
    """
    return sorted(tuple(sorted(graph.ids[v] for v in clique))
                  for clique in maximal_cliques(graph.rows, graph.dim))


def contains_basis(bases, candidate) -> bool:
    """Membership of ``candidate`` (any iterable of ids) in the list."""
    probe = tuple(sorted(candidate))
    return probe in {tuple(sorted(b)) for b in bases}


def bases_sha256(bases) -> str:
    """Digest of the canonical rendering: newline-joined space-separated ids.

    The digest covers the canonical content (no trailing newline), so it is
    stable across writers that terminate the file differently.
    """
    text = "\n".join(" ".join(str(i) for i in b) for b in bases)
    return hashlib.sha256(text.encode()).hexdigest()


def write_bases_text(bases, path):
    with open(path, "w") as fh:
        for b in bases:
            fh.write(" ".join(str(i) for i in b) + "\n")
