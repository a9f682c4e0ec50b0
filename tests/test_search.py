"""Tests for the partition catalogue and the randomized proof search."""
import pytest

from bks5 import catalog
from bks5.coloring import KSInstance, check_colorable
from bks5.search import find_partitions, search_small_proof


class TestFindPartitions:
    """Exact 5-subset tilings of the 160 rays."""

    def test_unique_partition_of_printed_bases(self, proof_bases):
        parts = find_partitions(proof_bases)
        expected = tuple(k - 1 for k in catalog.PARTITION_BASES)
        assert parts == [expected]

    def test_partition_actually_tiles(self, proof_bases):
        (part,) = find_partitions(proof_bases)
        rays = [rid for i in part for rid in proof_bases[i]]
        assert sorted(rays) == list(range(1, 161))

    def test_four_bases_yield_nothing(self, proof_bases):
        assert find_partitions(proof_bases[:4]) == []

    def test_blocks_partition_themselves(self, block_bases):
        assert find_partitions(block_bases) == [(0, 1, 2, 3, 4)]

    def test_full_catalogue_count(self, all_partitions):
        assert len(all_partitions) == catalog.PARTITION_COUNT

    def test_catalogue_entries_are_disjoint_covers(self, all_bases,
                                                   all_partitions):
        for part in all_partitions[::997]:
            rays = [rid for i in part for rid in all_bases[i]]
            assert sorted(rays) == list(range(1, 161))

    def test_explicit_universe_mismatch_raises(self, proof_bases):
        with pytest.raises(ValueError, match="outside the universe"):
            find_partitions(proof_bases, universe=range(1, 100))


class TestSearchSmallProof:
    """Deterministic restart search with greedy minimization."""

    def test_pinned_seed_reproduces_golden(self, ortho_graph, all_bases,
                                           all_partitions):
        golden = catalog.SEARCH_GOLDEN
        candidate = search_small_proof(ortho_graph, all_bases, seed=0,
                                       partitions=all_partitions)
        assert candidate.status == "found"
        assert candidate.restart == golden["restart"]
        assert candidate.size == golden["size"]
        assert list(candidate.basis_indices) == golden["bases"]

    @pytest.mark.parametrize("seed, max_size, indices, nodes", [
        (1, 20, [30, 89, 246, 295, 439], 737),
        (2, 13, [48, 78, 248, 293, 657], 1713),
    ])
    def test_pinned_seeds(self, seed, max_size, indices, nodes, ortho_graph,
                          all_bases, all_partitions):
        candidate = search_small_proof(ortho_graph, all_bases, seed=seed,
                                       max_size=max_size,
                                       partitions=all_partitions)
        assert list(candidate.basis_indices) == indices
        assert candidate.coloring.nodes == nodes

    def test_result_is_verified_non_colorable_with_partition(
            self, ortho_graph, all_bases, all_partitions):
        candidate = search_small_proof(ortho_graph, all_bases, seed=0,
                                       partitions=all_partitions)
        assert candidate.coloring.status == "non_colorable"
        inst = KSInstance.build(ortho_graph, candidate.bases)
        assert check_colorable(inst).status == "non_colorable"
        assert find_partitions(candidate.bases,
                               universe=range(1, 161)) != []

    def test_each_instance_solved_once(self, ortho_graph, all_bases,
                                       all_partitions, monkeypatch):
        """The candidate keeps the result of its last accepted solve."""
        solved = []

        def record(inst):
            solved.append(inst.bases)
            return check_colorable(inst)

        monkeypatch.setattr("bks5.search.check_colorable", record)
        candidate = search_small_proof(ortho_graph, all_bases, seed=1,
                                       max_size=20, partitions=all_partitions)
        assert len(solved) == len(set(solved)) == 16
        assert candidate.bases in solved
        inst = KSInstance.build(ortho_graph, candidate.bases)
        assert candidate.coloring == check_colorable(inst)

    def test_same_seed_same_answer(self, ortho_graph, all_bases,
                                   all_partitions):
        first = search_small_proof(ortho_graph, all_bases, seed=3,
                                   budget=2, partitions=all_partitions)
        second = search_small_proof(ortho_graph, all_bases, seed=3,
                                    budget=2, partitions=all_partitions)
        assert first == second

    def test_zero_budget_exhausts(self, ortho_graph, all_bases,
                                  all_partitions):
        candidate = search_small_proof(ortho_graph, all_bases, seed=0,
                                       budget=0, partitions=all_partitions)
        assert candidate.status == "budget_exhausted"
        assert candidate.basis_indices == ()
        assert candidate.coloring is None

    def test_no_partitions_exhausts(self, ortho_graph, proof_bases):
        candidate = search_small_proof(ortho_graph, proof_bases[:4], seed=0)
        assert candidate.status == "budget_exhausted"

    def test_max_size_below_partition_rejected(self, ortho_graph, all_bases,
                                               all_partitions):
        with pytest.raises(ValueError, match="at least 5"):
            search_small_proof(ortho_graph, all_bases, max_size=4,
                               partitions=all_partitions)
