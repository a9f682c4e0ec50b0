"""Tests for the basis-overlap graph and its automorphism group."""
import hashlib
import random
from itertools import combinations, permutations

import numpy as np
import pytest

from bks5 import catalog, symmetry
from bks5.cli import main
from bks5.symmetry import automorphism_group, build_overlap_graph


@pytest.fixture(scope="module")
def overlap():
    return build_overlap_graph(catalog.PROOF_BASES)


@pytest.fixture(scope="module")
def report(overlap):
    return automorphism_group(overlap)


class TestOverlapGraph:
    def test_vertices_are_sorted_printed_ids(self, overlap):
        assert overlap.labels == tuple(range(1, 22))

    def test_edges_match_shared_ray_counts(self, overlap, proof_bases):
        for i, j in combinations(range(overlap.n), 2):
            shared = set(proof_bases[i]) & set(proof_bases[j])
            assert len(shared) == overlap.weights[i, j]

    def test_adjacency_symmetric(self, overlap):
        for i in range(overlap.n):
            for j in range(overlap.n):
                assert (overlap.weights[i, j] > 0) == \
                    (overlap.weights[j, i] > 0)

    def test_partition_members_share_nothing(self, overlap):
        """The five partition bases are pairwise non-adjacent."""
        members = [k - 1 for k in catalog.PARTITION_BASES]
        for i in members:
            for j in members:
                if i != j:
                    assert overlap.weights[i, j] == 0

    @pytest.mark.parametrize("seed", [None, 1, 2, 3],
                             ids=["proof", "shuffle-1", "shuffle-2",
                                  "shuffle-3"])
    def test_one_read_only_weight_matrix(self, seed):
        """Entry (i, j) counts the rays bases i and j share, computed here
        from the bases, for the proof and its re-certification shuffles."""
        if seed is None:
            bases = catalog.PROOF_BASES
        else:
            order, labels = _shuffle(seed)
            bases = {label: catalog.PROOF_BASES[k]
                     for label, k in zip(labels, order)}
        graph = build_overlap_graph(bases)
        W = graph.weights
        sets = [set(bases[k]) for k in sorted(bases)]
        sharing = 0
        for i, j in permutations(range(len(sets)), 2):
            shared = len(sets[i] & sets[j])
            assert W[i, j] == shared
            sharing += i < j and shared > 0
        assert np.array_equal(W, W.T)
        assert not np.diagonal(W).any()
        assert W.dtype == np.uint8
        assert graph.edge_count() == sharing
        with pytest.raises(ValueError, match="read-only"):
            W[0, 1] = 0
        assert not hasattr(graph, "adj")


def _shuffle(seed) -> tuple:
    """A shuffled order of the proof bases and a shuffled list of labels,
    drawn as the benchmark's proof re-certification draws them."""
    rng = random.Random(seed)
    keys = sorted(catalog.PROOF_BASES)
    order = keys[:]
    rng.shuffle(order)
    labels = keys[:]
    rng.shuffle(labels)
    return order, labels


class TestAutomorphismGroup:
    """Order and structure of the overlap-graph symmetries."""

    def test_order(self, report):
        assert report.order == catalog.AUT_ORDER

    def test_weighted_subgroup_is_tiny(self, report):
        assert report.weighted_order == 2

    def test_normal_elementary_abelian_subgroup(self, report):
        assert report.normal_ea_order == catalog.AUT_NORMAL_EA_ORDER

    def test_quotient(self, report):
        assert report.quotient_order == catalog.AUT_QUOTIENT_ORDER
        assert report.quotient_nonabelian is True

    def test_element_order_census(self, report):
        assert report.element_order_census == {1: 1, 2: 79, 3: 8, 4: 48,
                                               6: 56}

    def test_conjugacy_class_count(self, report):
        assert report.conjugacy_class_count == 40

    def test_generators_regenerate_group(self, overlap, report):
        assert report.closure_verified is True
        n = overlap.n
        elements = {tuple(range(n))}
        frontier = [tuple(range(n))]
        gens = list(report.generators)
        while frontier:
            p = frontier.pop()
            for g in gens:
                q = tuple(p[g[i]] for i in range(n))
                if q not in elements:
                    elements.add(q)
                    frontier.append(q)
        assert len(elements) == report.order

    def test_generators_preserve_adjacency(self, overlap, report):
        for perm in report.generators:
            for i in range(overlap.n):
                for j in range(overlap.n):
                    assert (overlap.weights[i, j] > 0) == \
                        (overlap.weights[perm[i], perm[j]] > 0)

    def test_orbits(self, report):
        moved = sorted(o for o in report.orbits if len(o) > 1)
        assert moved == [(2, 6, 12, 19), (4, 21), (5, 8), (13, 17)]

    def test_orbits_partition_vertices(self, report):
        seen = [label for orbit in report.orbits for label in orbit]
        assert sorted(seen) == list(range(1, 22))


class TestSmallGraphs:
    """Sanity on graphs with known automorphism groups."""

    def test_k4_minus_one_edge(self):
        bases = {1: (1, 2), 2: (2, 3), 3: (3, 1), 4: (3, 4)}
        graph = build_overlap_graph(bases)
        report = automorphism_group(graph)
        assert report.order == 4

    def test_disjoint_pair_swap(self):
        bases = {1: (1, 2), 2: (3, 4), 3: (5,)}
        graph = build_overlap_graph(bases)
        report = automorphism_group(graph)
        assert report.order == 6

    def test_empty_graph_has_trivial_group(self):
        graph = build_overlap_graph({})
        assert graph.weights.shape == (0, 0)
        report = automorphism_group(graph)
        assert (report.order, report.generators, report.orbits,
                report.conjugacy_class_count, report.closure_verified) == \
            (1, (), (), 1, True)

    # (order, normal_ea_order, quotient_order, quotient_nonabelian): the
    # cycles give the dihedral groups D4 and D5, the complete graphs S4 and
    # S5; S4's largest normal 2-subgroup is the Klein four-group with
    # quotient S3, while D5 and S5 have none.
    @pytest.mark.parametrize("bases, structure", [
        ({1: (1, 2), 2: (2, 3), 3: (3, 4), 4: (4, 1)}, (8, 4, 2, False)),
        ({1: (1, 2), 2: (2, 3), 3: (3, 4), 4: (4, 5), 5: (5, 1)},
         (10, 1, 10, True)),
        ({k: (0, k) for k in range(1, 5)}, (24, 4, 6, True)),
        ({k: (0, k) for k in range(1, 6)}, (120, 1, 120, True)),
    ], ids=["C4", "C5", "K4", "K5"])
    def test_group_structure(self, bases, structure):
        report = automorphism_group(build_overlap_graph(bases))
        assert (report.order, report.normal_ea_order, report.quotient_order,
                report.quotient_nonabelian) == structure
        assert report.closure_verified is True

    def test_non_closed_elements_rejected(self, monkeypatch):
        real = symmetry._all_automorphisms
        monkeypatch.setattr(symmetry, "_all_automorphisms",
                            lambda g: real(g)[:-1])
        graph = build_overlap_graph({k: (0, k) for k in range(1, 5)})
        with pytest.raises(AssertionError,
                           match="not closed under composition"):
            automorphism_group(graph)

    def test_recheck_names_the_first_broken_edge(self, monkeypatch):
        """Two non-automorphisms slipped in among the real ones: the
        re-check names the first of them and its first broken edge in
        ``combinations`` order."""
        graph = build_overlap_graph(catalog.PROOF_BASES)
        real = symmetry._search_automorphisms(graph)
        first = list(real[5])
        first[3], first[4] = first[4], first[3]
        second = list(real[0])
        second[0], second[1] = second[1], second[0]
        broken = [
            next((i, j) for i, j in combinations(range(graph.n), 2)
                 if (graph.weights[i, j] > 0)
                 != (graph.weights[p[i], p[j]] > 0))
            for p in (first, second)]
        assert broken[0] != broken[1]
        monkeypatch.setattr(
            symmetry, "_search_automorphisms",
            lambda g: real[:7] + [tuple(first)] + real[7:9]
            + [tuple(second)] + real[9:])
        with pytest.raises(AssertionError, match=r"^claimed automorphism"
                           r" breaks edge \(%d, %d\)$" % broken[0]):
            automorphism_group(graph)

    def test_element_orders_need_a_group_table(self, monkeypatch):
        """Under a column-permuted table some powers never reach the
        identity; the order loop must stop at the group order and fail."""
        real = symmetry._multiplication_table
        monkeypatch.setattr(symmetry, "_multiplication_table",
                            lambda elements, n: np.roll(
                                real(elements, n), 1, axis=1))
        graph = build_overlap_graph({k: (0, k) for k in range(1, 5)})
        with pytest.raises(AssertionError, match="not a group table"):
            automorphism_group(graph)


def _graph_from_edges(n, edges):
    """The overlap graph with the given edges: each edge is one shared ray,
    and each vertex holds a ray of its own, so isolated vertices stay."""
    bases = {v: [("own", v)] for v in range(n)}
    for i, j in edges:
        bases[i].append((i, j))
        bases[j].append((i, j))
    return build_overlap_graph(bases)


def _brute_force_automorphisms(g) -> list:
    """Every permutation of the vertices that preserves the adjacency."""
    A = g.weights > 0
    perms = list(permutations(range(g.n)))
    P = np.array(perms, dtype=np.intp).reshape(len(perms), g.n)
    keep = (A[P[:, :, None], P[:, None, :]] == A).all(axis=(1, 2))
    return sorted(tuple(p) for p in P[keep].tolist())


class TestAutomorphismsAgainstBruteForce:
    """The clique search's automorphisms against all n! permutations."""

    # Regular graphs, where every vertex starts with the same colour and
    # refinement splits nothing: C6 and two triangles are both 2-regular.
    REGULAR = {
        "C6": (6, [(i, (i + 1) % 6) for i in range(6)]),
        "2C3": (6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]),
        "K33": (6, [(i, j) for i in range(3) for j in range(3, 6)]),
        "prism": (6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5),
                      (0, 3), (1, 4), (2, 5)]),
        "C7": (7, [(i, (i + 1) % 7) for i in range(7)]),
        "C7-squared": (7, [(i, (i + k) % 7) for i in range(7)
                           for k in (1, 2)]),
    }

    @pytest.mark.parametrize("name", sorted(REGULAR))
    def test_regular_graphs(self, name):
        n, edges = self.REGULAR[name]
        graph = _graph_from_edges(n, edges)
        assert len(set(symmetry._refine_colors(graph))) == 1
        assert symmetry._all_automorphisms(graph) == \
            _brute_force_automorphisms(graph)

    @pytest.mark.parametrize("n", range(8))
    def test_random_graphs(self, n):
        rng = random.Random(n)
        for _ in range(12):
            density = rng.choice((0.2, 0.5, 0.8))
            edges = [e for e in combinations(range(n), 2)
                     if rng.random() < density]
            graph = _graph_from_edges(n, edges)
            assert symmetry._all_automorphisms(graph) == \
                _brute_force_automorphisms(graph)


def _reference_weighted_order(g) -> int:
    """The per-permutation weight loop, kept as an oracle for
    ``AutGroupReport.weighted_order``."""
    def preserves_weights(perm):
        for i, j in combinations(range(g.n), 2):
            if g.weights[perm[i], perm[j]] != g.weights[i, j]:
                return False
        return True
    return sum(1 for p in symmetry._all_automorphisms(g)
               if preserves_weights(p))


class TestWeightedOrder:
    """The weight-preserving subgroup against the per-permutation loop."""

    @pytest.mark.parametrize("seed", range(6))
    def test_relabelled_proof_graphs(self, seed):
        rng = random.Random(seed)
        keys = sorted(catalog.PROOF_BASES)
        labels = keys[:]
        rng.shuffle(labels)
        graph = build_overlap_graph(
            {label: catalog.PROOF_BASES[k] for label, k in zip(labels, keys)})
        assert automorphism_group(graph).weighted_order == \
            _reference_weighted_order(graph)

    @pytest.mark.parametrize("bases, order, weighted", [
        ({1: (1, 2), 2: (2, 3), 3: (3, 4), 4: (4, 1)}, 8, 8),
        ({1: (1, 2, 3), 2: (2, 3, 4), 3: (4, 5), 4: (5, 1)}, 8, 2),
        ({1: (1, 2, 5), 2: (2, 3, 5), 3: (3, 4, 6), 4: (4, 1, 6)}, 8, 4),
        ({k: (0, k) for k in range(1, 5)}, 24, 24),
        ({}, 1, 1),
    ], ids=["C4", "C4-one-heavy-edge", "C4-opposite-heavy-edges", "K4",
            "empty"])
    def test_small_weighted_graphs(self, bases, order, weighted):
        graph = build_overlap_graph(bases)
        report = automorphism_group(graph)
        assert (report.order, report.weighted_order) == (order, weighted)
        assert report.weighted_order == _reference_weighted_order(graph)


class TestMultiplicationTable:
    """Integer base keys against a dict of whole permutation tuples."""

    @staticmethod
    def brute_force(elements):
        index = {p: i for i, p in enumerate(elements)}
        return [[index[tuple(pa[i] for i in pb)] for pb in elements]
                for pa in elements]

    @pytest.mark.parametrize("bases", [
        catalog.PROOF_BASES,
        {k: (0, k) for k in range(1, 6)},
        {1: (1, 2), 2: (2, 3), 3: (3, 4), 4: (4, 5), 5: (5, 1)},
        {},
    ], ids=["proof", "K5", "C5", "empty"])
    def test_matches_brute_force(self, bases):
        graph = build_overlap_graph(bases)
        elements = symmetry._all_automorphisms(graph)
        mult = symmetry._multiplication_table(elements, graph.n)
        assert mult.tolist() == self.brute_force(elements)

    def test_keys_wider_than_int64(self):
        """Four disjoint swaps on 10^5 points: a 4-point base, 10^20 keys."""
        n = 100_000
        swaps = [(0, 1), (2, 3), (4, 5), (6, 7)]
        elements = []
        for bits in range(16):
            perm = list(range(n))
            for k, (u, v) in enumerate(swaps):
                if bits >> k & 1:
                    perm[u], perm[v] = v, u
            elements.append(tuple(perm))
        E = np.array(elements, dtype=np.uint32)
        assert len(symmetry._base(E)) == 4
        assert symmetry._base_keys(np.full((1, 4), n - 1), n).tolist() == \
            [n ** 4 - 1]
        mult = symmetry._multiplication_table(elements, n)
        assert mult.tolist() == [[a ^ b for b in range(16)]
                                 for a in range(16)]


class TestSeenThrough:
    """The two-row gather against the broadcast gather it replaced."""

    @staticmethod
    def broadcast(M, perms):
        P = np.array(perms, dtype=np.intp).reshape(len(perms), len(M))
        return M[P[:, :, None], P[:, None, :]]

    def test_proof_graph(self, overlap):
        perms = symmetry._all_automorphisms(overlap)
        for M in (overlap.weights > 0, overlap.weights):
            assert np.array_equal(symmetry._seen_through(M, perms),
                                  self.broadcast(M, perms))

    def test_random_symmetric_matrices(self):
        rng = np.random.default_rng(3)
        for n in (0, 1, 2, 5, 9, 21):
            for _ in range(5):
                M = rng.integers(0, 4, size=(n, n))
                M = M + M.T
                perms = [tuple(rng.permutation(n).tolist())
                         for _ in range(int(rng.integers(0, 6)))]
                assert np.array_equal(symmetry._seen_through(M, perms),
                                      self.broadcast(M, perms))


class TestPinnedOutputs:
    """The proof's group report and artifact, pinned before any rewrite."""

    SYMMETRY_JSON_SHA256 = \
        "728ed16c046803fbe650feb104532207f9b37c4888ccfc85a57826ba26fe32e0"

    GENERATORS = (
        (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 16, 13, 14, 15, 12, 17, 18,
         19, 20),
        (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 18, 12, 13, 14, 15, 16, 17, 11,
         19, 20),
        (0, 1, 2, 3, 4, 11, 6, 7, 8, 9, 10, 5, 12, 13, 14, 15, 16, 17, 18,
         19, 20),
        (0, 1, 2, 3, 7, 5, 6, 4, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18,
         19, 20),
        (0, 1, 2, 20, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18,
         19, 3),
        (0, 5, 2, 3, 4, 1, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18,
         19, 20),
    )

    ORBITS = ((1,), (2, 6, 12, 19), (3,), (4, 21), (5, 8), (7,), (9,),
              (10,), (11,), (13, 17), (14,), (15,), (16,), (18,), (20,))

    # Element orders in order of first occurrence among the sorted elements.
    CENSUS = [(1, 1), (2, 79), (3, 8), (6, 56), (4, 48)]

    @staticmethod
    def invariants(report):
        return (report.order, report.weighted_order,
                list(report.element_order_census.items()),
                report.conjugacy_class_count, report.normal_ea_order,
                report.quotient_order, report.quotient_nonabelian,
                report.closure_verified)

    def test_symmetry_json_bytes(self, tmp_path, capsys):
        assert main(["--out", str(tmp_path), "symmetry"]) == 0
        data = (tmp_path / "symmetry.json").read_bytes()
        assert hashlib.sha256(data).hexdigest() == self.SYMMETRY_JSON_SHA256

    def test_full_report(self, report):
        assert report.generators == self.GENERATORS
        assert report.orbits == self.ORBITS
        assert self.invariants(report) == \
            (192, 2, self.CENSUS, 40, 32, 6, True, True)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_shuffled_labels(self, seed, report):
        """Shuffled as the benchmark's proof re-certification shuffles."""
        order, labels = _shuffle(seed)
        proof = [catalog.PROOF_BASES[k] for k in order]
        shuffled = automorphism_group(
            build_overlap_graph(dict(zip(labels, proof))))
        assert self.invariants(shuffled) == self.invariants(report)
        back = dict(zip(labels, order))
        assert sorted(tuple(sorted(back[label] for label in orbit))
                      for orbit in shuffled.orbits) == sorted(self.ORBITS)
