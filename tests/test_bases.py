"""Tests for the orthogonality graph and maximal-basis enumeration."""
import random
from dataclasses import fields
from itertools import combinations

import numpy as np
import pytest

from bks5 import catalog
from bks5.bases import (OrthoGraph, bases_sha256, build_ortho_graph,
                        contains_basis, enumerate_maximal_bases,
                        maximal_cliques, pack_rows, unpack_rows,
                        write_bases_text)
from bks5.coloring import KSInstance
from bks5.rays import Ray, RayTable, orbit_labels


class TestOrthoGraph:
    """Exact orthogonality relation over the 160 rays."""

    def test_edge_count(self, ortho_graph):
        assert ortho_graph.edge_count() == catalog.ORTHO_PAIR_COUNT

    def test_dimension(self, ortho_graph):
        assert ortho_graph.dim == 32

    def test_adjacency_matches_inner_products(self, ray_table, ortho_graph,
                                              mermin_table):
        """Every row, on the 160-ray table and the 24-ray Mermin table."""
        for table, graph in ((ray_table, ortho_graph),
                             (mermin_table[0],
                              build_ortho_graph(mermin_table[0]))):
            entries = table.entries_matrix()
            gram = entries @ entries.T
            n = len(table)
            assert graph.ids == tuple(range(1, n + 1))
            assert graph.dim == entries.shape[1]
            for i in range(n):
                for j in range(n):
                    edge = (graph.rows[i] >> j) & 1
                    assert edge == (1 if i != j and gram[i, j] == 0 else 0)
                assert graph.rows[i] >> n == 0

    def test_no_self_loops(self, ortho_graph):
        for i, row in enumerate(ortho_graph.rows):
            assert not (row >> i) & 1

    def test_position_inverts_ids(self, ray_table, ortho_graph):
        """The cached id -> position map is no field and leaves == alone."""
        fresh = build_ortho_graph(ray_table)
        assert all(ortho_graph.ids[i] == rid
                   for rid, i in ortho_graph.position.items())
        assert len(ortho_graph.position) == ortho_graph.n
        assert fresh == ortho_graph and hash(fresh) == hash(ortho_graph)
        assert [f.name for f in fields(OrthoGraph) if f.compare] == \
            ["ids", "rows", "dim"]

    def test_automorphisms_take_no_part_in_equality(self, ortho_graph,
                                                    proof_bases):
        """A graph given by its rows equals the one built from the table,
        for graphs and for instances over them, but has no automorphisms."""
        hand = OrthoGraph(ortho_graph.ids, ortho_graph.rows, ortho_graph.dim)
        assert hand == ortho_graph and hash(hand) == hash(ortho_graph)
        assert hand.automorphisms == ()
        assert len(ortho_graph.automorphisms) == 10
        instances = [KSInstance.build(g, proof_bases)
                     for g in (hand, ortho_graph)]
        assert instances[0] == instances[1]
        assert hash(instances[0]) == hash(instances[1])

    def test_automorphism_orbits_are_the_blocks(self, ray_table, ortho_graph):
        labels = orbit_labels(ortho_graph.automorphisms, ortho_graph.n)
        assert sorted(set(labels.tolist())) == sorted(
            lo - 1 for lo, _ in ray_table.block_map.values())
        for lo, hi in ray_table.block_map.values():
            assert (labels[lo - 1:hi] == lo - 1).all()

    def test_generators_stop_at_the_first_off_the_table(self):
        """X_2 moves (1, 0, 0, 0) off this table; X_1 and Z_1 come first."""
        table = RayTable(rays=(Ray((1, 0, 0, 0), 1), Ray((0, 0, 1, 0), 2)),
                         block_map={})
        graph = build_ortho_graph(table)
        assert [p.tolist() for p in graph.automorphisms] == [[1, 0], [0, 1]]
        assert enumerate_maximal_bases(graph) == []


class TestEnumeration:
    """The full maximal-basis census and its canonical form."""

    def test_exactly_661_bases(self, all_bases):
        assert len(all_bases) == catalog.BASIS_COUNT

    def test_canonical_order(self, all_bases):
        assert all(tuple(sorted(b)) == b for b in all_bases)
        assert sorted(all_bases) == list(all_bases)

    def test_census_digest(self, all_bases):
        assert bases_sha256(all_bases) == catalog.BASES_SHA256

    def test_all_printed_bases_present(self, all_bases, proof_bases):
        for b in proof_bases:
            assert contains_basis(all_bases, b)

    def test_block_bases_present(self, all_bases, block_bases):
        for b in block_bases:
            assert contains_basis(all_bases, b)

    def test_every_basis_is_complete_and_orthogonal(self, ray_table,
                                                    all_bases):
        entries = ray_table.entries_matrix()
        for b in all_bases[::37]:
            block = entries[[rid - 1 for rid in b]]
            gram = block @ block.T
            assert np.array_equal(gram, np.diag(np.diag(gram)))
            assert len(b) == 32

    def test_rerun_is_identical(self, ortho_graph, all_bases):
        assert enumerate_maximal_bases(ortho_graph) == all_bases

    def test_orbit_search_matches_whole_graph_search(self, ortho_graph,
                                                     all_bases):
        """Bron-Kerbosch over the whole graph, without automorphisms, is
        the oracle; the orbit search does under a third of its nodes."""
        plain, orbits, hand = {}, {}, {}
        oracle = sorted(tuple(sorted(ortho_graph.ids[v] for v in clique))
                        for clique in maximal_cliques(ortho_graph.rows, 32,
                                                      stats=plain))
        assert enumerate_maximal_bases(ortho_graph, orbits) == oracle
        assert oracle == all_bases
        assert plain == {"nodes": 18208, "orbits": 37}
        assert orbits == {"nodes": 5339, "orbits": 5}
        # A graph given by its rows runs the whole-graph search.
        graph = OrthoGraph(ortho_graph.ids, ortho_graph.rows, ortho_graph.dim)
        assert enumerate_maximal_bases(graph, hand) == oracle
        assert hand == plain

    def test_a_permutation_that_is_not_an_automorphism_raises(
            self, ray_table, ortho_graph):
        """Rays 1 and 33 have different supports, so swapping them is no
        automorphism; neither is a map that is not a permutation."""
        swap = np.arange(ortho_graph.n)
        swap[[0, 32]] = [32, 0]
        repeat = np.arange(ortho_graph.n)
        repeat[0] = 1
        for bad in (swap, repeat, np.arange(ortho_graph.n - 1)):
            with pytest.raises(ValueError, match="^automorphism 1 does not "
                                                 "map the graph onto itself"):
                maximal_cliques(ortho_graph.rows, 32,
                                (ortho_graph.automorphisms[0], bad))
        # Rows that the table's generators do not fix fail by name as well.
        rows = list(ortho_graph.rows)
        rows[0] ^= 1 << 159
        rows[159] ^= 1
        tampered = OrthoGraph(ortho_graph.ids, tuple(rows), 32,
                              automorphisms=ray_table.pauli_permutations)
        with pytest.raises(ValueError, match="^automorphism 0 "):
            enumerate_maximal_bases(tampered)

    def test_bases_cover_every_orthogonal_pair(self, ortho_graph, all_bases):
        ids, rows = ortho_graph.ids, ortho_graph.rows
        edges = {(ids[i], ids[j])
                 for i, j in combinations(range(ortho_graph.n), 2)
                 if (rows[i] >> j) & 1}
        covered = {pair for b in all_bases for pair in combinations(b, 2)}
        assert len(edges) == catalog.ORTHO_PAIR_COUNT
        assert covered == edges


def _is_clique(rows, vertices) -> bool:
    return all((rows[a] >> b) & 1 for a, b in combinations(vertices, 2))


def _random_rows(rng, n, density) -> list:
    rows = [0] * n
    for a, b in combinations(range(n), 2):
        if rng.random() < density:
            rows[a] |= 1 << b
            rows[b] |= 1 << a
    return rows


class TestEnumerationBruteForce:
    """The pruned search against every ``dim``-subset of small graphs."""

    def test_random_graphs_match_combinations(self):
        """Seeded random graphs, n <= 14 and dim 2..5, with shuffled ids.

        As in any orthogonality graph, no clique exceeds ``dim``: graphs
        with a (dim+1)-clique are skipped.
        """
        empty = nonempty = 0
        for seed in range(300):
            rng = random.Random(seed)
            dim = rng.randint(2, 5)
            n = rng.randint(dim, 14)
            rows = _random_rows(rng, n, rng.uniform(0.2, 0.9))
            if any(_is_clique(rows, c)
                   for c in combinations(range(n), dim + 1)):
                continue
            ids = tuple(rng.sample(range(1, 100), n))
            graph = OrthoGraph(ids=ids, rows=tuple(rows), dim=dim)
            expected = sorted(tuple(sorted(ids[v] for v in c))
                              for c in combinations(range(n), dim)
                              if _is_clique(rows, c))
            assert enumerate_maximal_bases(graph) == expected, seed
            if expected:
                nonempty += 1
            else:
                empty += 1
        assert empty >= 50 and nonempty >= 50


def _brute_force_maximal(rows, min_size=0) -> list:
    """Maximal cliques of at least ``min_size`` vertices, from all subsets."""
    n = len(rows)
    cliques = [c for k in range(n + 1) for c in combinations(range(n), k)
               if _is_clique(rows, c)]
    return sorted(c for c in cliques
                  if len(c) >= min_size
                  and not any(_is_clique(rows, c + (v,))
                              for v in range(n) if v not in c))


class TestMaximalCliques:
    """The shared clique search against brute force over all subsets."""

    @staticmethod
    def search(rows, min_size=0) -> list:
        return sorted(tuple(sorted(c)) for c in maximal_cliques(rows, min_size))

    def test_random_relations_match_combinations(self):
        rng = random.Random(5)
        for _ in range(200):
            rows = _random_rows(rng, rng.randint(0, 10),
                                rng.choice([0.2, 0.5, 0.8]))
            assert self.search(rows) == _brute_force_maximal(rows)

    @pytest.mark.parametrize("min_size", range(5))
    def test_min_size_with_larger_cliques(self, min_size):
        """Graphs that hold cliques larger than ``min_size``, which the
        basis oracle above skips; too-small maximal cliques are left out."""
        rng = random.Random(min_size)
        larger = smaller = 0
        for _ in range(120):
            rows = _random_rows(rng, rng.randint(min_size, 11),
                                rng.uniform(0.4, 0.9))
            expected = _brute_force_maximal(rows, min_size)
            assert self.search(rows, min_size) == expected
            larger += any(len(c) > min_size for c in expected)
            smaller += len(expected) < len(_brute_force_maximal(rows))
        assert larger >= 30
        assert min_size < 2 or smaller >= 10


def _circulant(n, offsets) -> list:
    """Vertex v is adjacent to v +/- each offset, mod n."""
    rows = [0] * n
    for v in range(n):
        for k in offsets:
            for w in ((v + k) % n, (v - k) % n):
                if w != v:
                    rows[v] |= 1 << w
    return rows


def _involution_symmetric(rng, n, density):
    """A random graph made symmetric under a random involution, which is
    returned with it."""
    points = list(range(n))
    rng.shuffle(points)
    perm = list(range(n))
    for a, b in zip(points[0:n - 1:2], points[1:n:2]):
        if rng.random() < 0.8:
            perm[a], perm[b] = b, a
    rows = _random_rows(rng, n, density)
    for a, b in combinations(range(n), 2):
        if (rows[a] >> b) & 1:
            u, w = perm[a], perm[b]
            rows[u] |= 1 << w
            rows[w] |= 1 << u
    return rows, perm


class TestSymmetryReducedSearch:
    """``maximal_cliques`` with planted automorphisms against brute force."""

    @staticmethod
    def search(rows, min_size, automorphisms, stats=None) -> list:
        found = maximal_cliques(rows, min_size, automorphisms, stats)
        return sorted(tuple(sorted(c)) for c in found)

    @pytest.mark.parametrize("min_size", range(5))
    def test_circulant_graphs_under_rotation_and_reflection(self, min_size):
        rng = random.Random(100 + min_size)
        larger = fewer_nodes = 0
        for _ in range(40):
            n = rng.randint(max(min_size, 1), 12)
            density = rng.uniform(0.3, 0.9)
            offsets = [k for k in range(1, n // 2 + 1)
                       if rng.random() < density]
            rows = _circulant(n, offsets)
            rotate = [(v + 1) % n for v in range(n)]
            reflect = [(-v) % n for v in range(n)]
            expected = _brute_force_maximal(rows, min_size)
            plain, reduced = {}, {}
            assert self.search(rows, min_size, (), plain) == expected
            for gens in ([rotate], [reflect]):
                assert self.search(rows, min_size, gens) == expected
            assert self.search(rows, min_size, [rotate, reflect],
                               reduced) == expected
            larger += any(len(c) > min_size for c in expected)
            fewer_nodes += reduced["nodes"] < plain["nodes"]
        assert larger >= 10 and fewer_nodes >= 10

    @pytest.mark.parametrize("min_size", range(5))
    def test_graphs_symmetric_under_an_involution(self, min_size):
        rng = random.Random(200 + min_size)
        larger = fewer_nodes = 0
        for _ in range(60):
            n = rng.randint(max(min_size, 1), 11)
            rows, perm = _involution_symmetric(rng, n,
                                               rng.uniform(0.3, 0.8))
            expected = _brute_force_maximal(rows, min_size)
            plain, reduced = {}, {}
            assert self.search(rows, min_size, (), plain) == expected
            assert self.search(rows, min_size, [perm], reduced) == expected
            larger += any(len(c) > min_size for c in expected)
            fewer_nodes += reduced["nodes"] < plain["nodes"]
        assert larger >= 20 and fewer_nodes >= 5


class TestPackRows:
    """``pack_rows`` inverts ``unpack_rows``, across byte boundaries."""

    @pytest.mark.parametrize("n", [0, 1, 7, 8, 9, 160])
    def test_round_trip(self, n):
        rng = random.Random(n)
        rows = tuple(rng.getrandbits(n) for _ in range(n))
        matrix = unpack_rows(rows, n)
        assert matrix.shape == (n, n)
        assert pack_rows(matrix) == rows
        assert np.array_equal(unpack_rows(pack_rows(matrix == 1), n), matrix)


class TestContainsBasis:
    """Membership probes on the canonical list."""

    def test_accepts_any_ordering(self, all_bases, proof_bases):
        shuffled = tuple(reversed(proof_bases[0]))
        assert contains_basis(all_bases, shuffled)

    def test_rejects_near_miss(self, all_bases, proof_bases):
        candidate = list(proof_bases[0])
        candidate[-1] = 159 if candidate[-1] != 159 else 158
        assert not contains_basis(all_bases, candidate)


class TestMerminFamily:
    """The two-qubit square as a small cross-check family."""

    def test_24_distinct_rays(self, mermin_table):
        table, _ = mermin_table
        assert len(table) == 24
        assert len({r.entries for r in table.rays}) == 24

    def test_context_bases_are_orthogonal(self, mermin_table):
        table, contexts = mermin_table
        entries = table.entries_matrix()
        assert len(contexts) == 6
        for ids in contexts:
            block = entries[[rid - 1 for rid in ids]]
            gram = block @ block.T
            assert np.array_equal(gram, np.diag(np.diag(gram)))

    def test_maximal_basis_count(self, mermin_table):
        table, contexts = mermin_table
        graph = build_ortho_graph(table)
        bases = enumerate_maximal_bases(graph)
        assert len(bases) == 24
        for ids in contexts:
            assert contains_basis(bases, ids)


class TestSerialization:
    def test_text_writer(self, tmp_path, proof_bases):
        txt = tmp_path / "bases.txt"
        write_bases_text(proof_bases, txt)
        lines = txt.read_text().splitlines()
        assert len(lines) == 21
        assert [int(t) for t in lines[0].split()] == list(proof_bases[0])
