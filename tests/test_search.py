"""Tests for the partition catalogue and the randomized proof search."""
import hashlib
import random
from itertools import combinations

import pytest

from bks5 import catalog, search
from bks5.coloring import KSInstance, check_colorable
from bks5.search import ProofCandidate, find_partitions, search_small_proof


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

    def test_full_catalogue_digest(self, all_partitions):
        text = "\n".join(" ".join(map(str, p)) for p in all_partitions)
        assert hashlib.sha256(text.encode()).hexdigest() == \
            "de83b63bf44a22549e3a7835a8b5bb1b8e900a947e445a905f92a6d2fb991094"

    def test_empty_basis_is_no_block(self, block_bases):
        """Four bases and an empty one do not tile the rays."""
        assert find_partitions(block_bases[:4] + [()]) == []


def _reference_find_partitions(bases, universe=None) -> list[tuple]:
    """Meet in the middle: disjoint pairs indexed by their union mask, then
    each pairwise-disjoint triple looks up the exact complement of its union.
    Each partition is reached once per way of splitting it into a triple
    and a pair, so a set removes the repeats."""
    bases = [tuple(b) for b in bases]
    if universe is None:
        universe = set()
        for b in bases:
            universe.update(b)
    ids = sorted(universe)
    pos = {rid: i for i, rid in enumerate(ids)}
    full = (1 << len(ids)) - 1
    masks = []
    for b in bases:
        mask = 0
        for rid in b:
            if rid not in pos:
                raise ValueError("basis ray %r outside the universe" % (rid,))
            mask |= 1 << pos[rid]
        masks.append(mask)
    n = len(masks)

    pair_by_union = {}
    disj = [[] for _ in range(n)]
    for i in range(n):
        mi = masks[i]
        for j in range(i + 1, n):
            if mi & masks[j] == 0:
                disj[i].append(j)
                pair_by_union.setdefault(mi | masks[j], []).append((i, j))

    found = set()
    for i in range(n):
        mi = masks[i]
        for j in disj[i]:
            mij = mi | masks[j]
            for k in disj[j]:
                if masks[k] & mij:
                    continue
                rest = full ^ (mij | masks[k])
                for a, b in pair_by_union.get(rest, ()):
                    found.add(tuple(sorted((i, j, k, a, b))))
    return sorted(found)


def _random_family(rng, all_bases, all_partitions):
    """0 to 40 of the 661 bases in draw order, with an optional universe.

    Some families have a partition planted at random positions, some repeat
    bases (so one tiling can appear under several index tuples), and some
    pass an explicit universe: all 160 rays, or their union with rays no
    basis holds.
    """
    family = [all_bases[i] for i in rng.sample(range(len(all_bases)),
                                               rng.randint(0, 35))]
    if rng.random() < 0.4:
        for i in all_partitions[rng.randrange(len(all_partitions))]:
            family.insert(rng.randint(0, len(family)), all_bases[i])
    if family and rng.random() < 0.3:
        for _ in range(rng.randint(1, 5)):
            family.insert(rng.randint(0, len(family)), rng.choice(family))
    family = family[:40]
    universe = None
    if rng.random() < 0.3:
        universe = set(range(1, 161))
        if rng.random() < 0.5:
            universe.add(rng.randint(161, 170))
    return family, universe


def _tilings(bases, universe):
    """Brute force: every 5-subset whose sizes sum to the universe's and
    whose union is the universe."""
    return [c for c in combinations(range(len(bases)), 5)
            if sum(len(bases[i]) for i in c) == len(universe)
            and set().union(*(bases[i] for i in c)) == universe]


@pytest.fixture(scope="module")
def drop_trials(ortho_graph, all_bases, all_partitions):
    """Every family three seeded searches test for a partition, as ray ids,
    with the universe and the search's verdict."""
    covers = search._exact_covers

    def rays(mask):
        return [ortho_graph.ids[b] for b in range(mask.bit_length())
                if mask >> b & 1]

    trials = {}
    for seed, max_size in [(1, 20), (2, 13), (0, 30)]:
        seen = []

        def record(index, avail, first=False, seen=seen):
            found = covers(index, avail, first)
            family = [tuple(sorted(rays(mask)))
                      for j, mask in enumerate(index.masks) if avail >> j & 1]
            seen.append((family, set(rays(index.full)), bool(found)))
            return found

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(search, "_exact_covers", record)
            search_small_proof(ortho_graph, all_bases, seed=seed,
                               max_size=max_size, partitions=all_partitions)
        trials[seed, max_size] = seen
    return trials


class TestAgainstReference:
    """The exact-cover search against the meet-in-the-middle oracle."""

    def test_fixed_families_match_reference(self, proof_bases, block_bases,
                                            all_bases, all_partitions):
        assert all_partitions == _reference_find_partitions(all_bases)
        for bases in ([], proof_bases, block_bases, proof_bases[:4],
                      block_bases[::-1], [block_bases[0]] * 5):
            assert find_partitions(bases) == _reference_find_partitions(bases)

    @pytest.mark.parametrize("seed, max_size", [(1, 20), (2, 13), (0, 30)])
    def test_drop_trials_match_reference(self, seed, max_size, drop_trials):
        trials = drop_trials[seed, max_size]
        assert trials
        for bases, universe, verdict in trials:
            assert universe == set(range(1, 161))
            assert verdict == bool(_reference_find_partitions(bases,
                                                              universe))

    def test_random_families_match_reference(self, all_bases, all_partitions):
        rng = random.Random(9)
        tiled = repeated = several = 0
        for _ in range(600):
            family, universe = _random_family(rng, all_bases, all_partitions)
            expected = _reference_find_partitions(family, universe)
            assert find_partitions(family, universe) == expected, family
            tiled += bool(expected)
            several += len(expected) > 1
            repeated += len(set(family)) < len(family)
        assert tiled >= 100
        assert several >= 20
        assert repeated >= 100

    def test_small_families_match_brute_force(self):
        """Bases of 1 or 2 rays over 6 to 9 rays tile in many ways, with any
        number of blocks, so only the 5-block tilings may be returned."""
        rng = random.Random(16)
        tiled = 0
        for _ in range(300):
            rays = range(rng.randint(6, 9))
            bases = [tuple(rng.sample(rays, rng.randint(1, 2)))
                     for _ in range(rng.randint(5, 16))]
            universe = set().union(*bases)
            expected = _tilings(bases, universe)
            assert find_partitions(bases) == expected, bases
            assert _reference_find_partitions(bases) == expected, bases
            tiled += bool(expected)
        assert tiled >= 100


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

    @pytest.mark.parametrize("part", [(0, 1, 2, 3, 4), (0, 1, 2, 3, 999),
                                      (30, 30, 89, 246, 295)])
    def test_seed_partition_must_tile(self, part, ortho_graph, all_bases):
        """Five bases that overlap, an index past the end, and a repeated
        index are each rejected by name, whatever the sample around them."""
        assert find_partitions([all_bases[i] for i in part
                                if i < len(all_bases)],
                               universe=range(1, 161)) == []
        with pytest.raises(ValueError, match=r"partition \(%s\) does not "
                           "tile" % ", ".join(map(str, part))):
            search_small_proof(ortho_graph, all_bases, seed=0, max_size=30,
                               partitions=[part])

    def test_max_size_below_partition_rejected(self, ortho_graph, all_bases,
                                               all_partitions):
        with pytest.raises(ValueError, match="at least 5"):
            search_small_proof(ortho_graph, all_bases, max_size=4,
                               partitions=all_partitions)


def _reference_search_small_proof(graph, bases, seed=0, max_size=30,
                                  budget=64, partitions=None):
    """The search that rebuilds every drop trial: a new ``KSInstance`` from
    ray ids, and a partition test through ``find_partitions`` over the
    trial's bases."""
    bases = [tuple(b) for b in bases]
    if max_size < 5:
        raise ValueError("max_size must be at least 5")
    if partitions is None:
        partitions = find_partitions(bases)
    if not partitions or budget <= 0:
        return ProofCandidate("budget_exhausted", (), (), 0, None, seed,
                              None, 0)

    universe = set().union(*bases)

    def has_partition(indices):
        sub = [bases[i] for i in indices]
        return bool(find_partitions(sub, universe=universe))

    def colorable(indices):
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


class TestAgainstReferenceSearch:
    """The search against the one that rebuilds every drop trial: equal
    candidates, down to the colouring counters, restart and attempts."""

    @pytest.mark.parametrize("max_size", range(6, 41))
    def test_seeded_searches_match_reference(self, max_size, ortho_graph,
                                             all_bases, all_partitions):
        rng = random.Random(max_size)
        for seed in (rng.randrange(1 << 30), rng.randrange(1 << 30)):
            args = (ortho_graph, all_bases, seed, max_size)
            expected = _reference_search_small_proof(
                *args, partitions=all_partitions)
            assert expected.status == "found"
            assert search_small_proof(*args, partitions=all_partitions) == \
                expected, seed

    @pytest.mark.parametrize("kwargs", [{}, {"budget": 0}],
                             ids=["defaults", "budget0"])
    def test_seed_zero_matches_reference(self, kwargs, ortho_graph,
                                         all_bases, all_partitions):
        expected = _reference_search_small_proof(
            ortho_graph, all_bases, partitions=all_partitions, **kwargs)
        assert search_small_proof(ortho_graph, all_bases,
                                  partitions=all_partitions,
                                  **kwargs) == expected

    @pytest.mark.parametrize("count", [4, 21], ids=["four", "proof"])
    def test_proof_families_match_reference(self, count, ortho_graph,
                                            proof_bases):
        """Four bases hold no partition; the 21 hold one, and with the
        default max_size the sample is all of them."""
        family = proof_bases[:count]
        expected = _reference_search_small_proof(ortho_graph, family)
        assert expected.status == ("found" if count == 21
                                   else "budget_exhausted")
        assert search_small_proof(ortho_graph, family) == expected
