"""Tests for KS instances, the coloring solver, and CNF export."""
import hashlib
import random
from itertools import combinations, permutations, product

import pytest

from bks5 import catalog
from bks5.bases import OrthoGraph, build_ortho_graph
from bks5.coloring import (ColoringResult, InstanceError, KSInstance,
                           check_colorable, count_colorings, export_cnf,
                           verify_coloring)
from bks5.search import search_small_proof


@pytest.fixture(scope="module")
def proof_instance(ortho_graph, proof_bases):
    return KSInstance.build(ortho_graph, proof_bases)


@pytest.fixture(scope="module")
def proof_result(proof_instance):
    return check_colorable(proof_instance)


class TestInstanceConstruction:
    """Instances collect every orthogonal pair among the involved rays."""

    def test_proof_instance_shape(self, proof_instance):
        assert len(proof_instance.ray_ids) == 160
        assert len(proof_instance.bases) == 21
        assert len(proof_instance.ortho_pairs) == catalog.ORTHO_PAIR_COUNT

    def test_single_basis_instance(self, ortho_graph, proof_bases):
        inst = KSInstance.build(ortho_graph, [proof_bases[0]])
        assert len(inst.ray_ids) == 32
        assert len(inst.ortho_pairs) == 32 * 31 // 2

    def test_unknown_ray_rejected(self, ortho_graph):
        with pytest.raises(InstanceError):
            KSInstance.build(ortho_graph, [tuple(range(150, 182))])

    def test_non_orthogonal_basis_rejected(self, ortho_graph):
        bad = tuple(range(1, 32)) + (33,)
        with pytest.raises(InstanceError, match="rays 1 and 33 "):
            KSInstance.build(ortho_graph, [bad])

    def test_repeated_ray_rejected(self, ortho_graph):
        """A repeat is not orthogonal to itself, though it is one bit."""
        with pytest.raises(InstanceError, match="rays 1 and 1 "):
            KSInstance.build(ortho_graph, [(1, 1, 2, 3)])


class TestCheckColorable:
    """Exhaustive colorability decisions with verified witnesses."""

    def test_21_bases_non_colorable(self, proof_result):
        assert proof_result.status == "non_colorable"
        assert proof_result.witness is None
        assert proof_result.nodes > 0

    def test_all_661_bases_non_colorable(self, ortho_graph, all_bases):
        result = check_colorable(KSInstance.build(ortho_graph, all_bases))
        assert result.status == "non_colorable"

    def test_five_blocks_alone_non_colorable(self, ortho_graph, block_bases):
        """Even the bare 5-block partition admits no admissible coloring."""
        result = check_colorable(KSInstance.build(ortho_graph, block_bases))
        assert result.status == "non_colorable"

    def test_single_basis_colorable_with_verified_witness(self, ortho_graph,
                                                          proof_bases):
        inst = KSInstance.build(ortho_graph, [proof_bases[0]])
        result = check_colorable(inst)
        assert result.status == "colorable"
        assert verify_coloring(inst, result.witness) is True
        assert sum(result.witness.values()) == 1

    def test_witnesses_verified_on_colorable_subfamilies(self, ortho_graph,
                                                         proof_bases):
        """Every colorable sub-instance returns an accepted witness."""
        for take in range(2, 7):
            inst = KSInstance.build(ortho_graph, proof_bases[:take])
            result = check_colorable(inst)
            assert result.status == "colorable"
            assert verify_coloring(inst, result.witness) is True

    def test_count_agrees_with_decision(self, ortho_graph, proof_bases):
        inst = KSInstance.build(ortho_graph, proof_bases[:3])
        assert (count_colorings(inst) > 0) == \
            (check_colorable(inst).status == "colorable")


class TestPinnedOutputs:
    """Solver counters, witnesses and CNF bytes, pinned before any rewrite."""

    CNF_SHA256_AND_RESULT = {
        "proof": ("57e3586a5fc8540328919f6d3df8ee3cfed70a85c8b24c4dfc93adb0f154961b",
                  ("non_colorable", 737, 0)),
        "blocks": ("abf64e00c81b5d22ce710ecc4b1d51535416c470c463254321252304dfee05b4",
                   ("non_colorable", 1825, 0)),
        "all": ("60bd93c2300c571900cb23498beed81e572ae37e5d7deec294309d9582e11fcf",
                ("non_colorable", 897, 608)),
    }

    # Rays valued 1 in the witness for the first k proof bases.
    WITNESS_ONES = {1: [65], 2: [65, 145], 3: [65, 145], 4: [4, 65, 145],
                    5: [4, 33, 65, 145], 6: [4, 33, 65, 145]}

    @pytest.mark.parametrize("selection", ["proof", "blocks", "all"])
    def test_cnf_bytes_and_counters(self, selection, ortho_graph,
                                    proof_bases, block_bases, all_bases):
        bases = {"proof": proof_bases, "blocks": block_bases,
                 "all": all_bases}[selection]
        inst = KSInstance.build(ortho_graph, bases)
        digest, counters = self.CNF_SHA256_AND_RESULT[selection]
        assert hashlib.sha256(export_cnf(inst).encode()).hexdigest() == digest
        result = check_colorable(inst)
        assert (result.status, result.nodes, result.propagations) == counters

    @pytest.mark.parametrize("take", sorted(WITNESS_ONES))
    def test_witness(self, take, ortho_graph, proof_bases):
        inst = KSInstance.build(ortho_graph, proof_bases[:take])
        witness = check_colorable(inst).witness
        assert sorted(witness) == list(inst.ray_ids)
        assert sorted(r for r, v in witness.items() if v) == \
            self.WITNESS_ONES[take]


class TestVerifyColoring:
    """The independent witness checker."""

    def test_rejects_all_zero(self, ortho_graph, proof_bases):
        inst = KSInstance.build(ortho_graph, [proof_bases[0]])
        assert verify_coloring(inst, {rid: 0 for rid in inst.ray_ids}) is False

    def test_rejects_orthogonal_ones(self, ortho_graph, proof_bases):
        inst = KSInstance.build(ortho_graph, [proof_bases[0]])
        assignment = {rid: 0 for rid in inst.ray_ids}
        a, b = inst.ortho_pairs[0]
        assignment[a] = assignment[b] = 1
        assert verify_coloring(inst, assignment) is False

    def test_rejects_wrong_key_set(self, ortho_graph, proof_bases):
        inst = KSInstance.build(ortho_graph, [proof_bases[0]])
        with pytest.raises(ValueError):
            verify_coloring(inst, {1: 1})

    def test_rejects_non_binary_values(self, ortho_graph, proof_bases):
        inst = KSInstance.build(ortho_graph, [proof_bases[0]])
        assignment = {rid: 0 for rid in inst.ray_ids}
        assignment[inst.ray_ids[0]] = 2
        with pytest.raises(ValueError):
            verify_coloring(inst, assignment)

    def test_matches_pairwise_check(self, ortho_graph, all_bases,
                                    all_partitions):
        """Same verdict as testing every orthogonal pair of involved rays,
        on solver witnesses and on witnesses with three values flipped."""
        rng = random.Random(31)
        accepted = rejected = 0
        for _ in range(300):
            inst = KSInstance.build(
                ortho_graph, _random_subfamily(rng, all_bases, all_partitions))
            witness = check_colorable(inst).witness
            if witness is None:
                continue
            flipped = dict(witness)
            for rid in rng.sample(inst.ray_ids, 3):
                flipped[rid] ^= 1
            for assignment in (witness, flipped):
                expected = _pairwise_verify(inst, assignment)
                assert verify_coloring(inst, assignment) is expected
                accepted += expected
                rejected += not expected
        assert accepted >= 250
        assert rejected >= 200


class TestMerminOracle:
    """Brute-force cross-check on the two-qubit square."""

    def test_non_colorable_matches_exhaustive_enumeration(self, mermin_table):
        table, contexts = mermin_table
        graph = build_ortho_graph(table)
        inst = KSInstance.build(graph, contexts)
        result = check_colorable(inst)
        assert result.status == "non_colorable"

        entries = table.entries_matrix()
        gram = entries @ entries.T

        def admissible(choice):
            for a, b in combinations(choice, 2):
                if a != b and gram[a - 1, b - 1] == 0:
                    return False
            return True

        transversals = sum(1 for choice in product(*contexts)
                           if admissible(choice))
        assert transversals == 0


class TestExportCnf:
    """Bit-exact DIMACS rendering of an instance."""

    def test_header_and_clause_counts(self, proof_instance):
        text = export_cnf(proof_instance)
        lines = text.splitlines()
        problem = [l for l in lines if l.startswith("p")]
        assert problem == ["p cnf 160 9541"]
        binary = [l for l in lines if l.startswith("-")]
        long = [l for l in lines
                if l and l[0].isdigit() and not l.startswith("p")]
        assert len(binary) == 9520
        assert len(long) == 21

    def test_variable_mapping_comments(self, proof_instance):
        lines = export_cnf(proof_instance).splitlines()
        comments = [l for l in lines if l.startswith("c")]
        assert comments[0] == "c var 1 = ray 1"
        assert comments[-1] == "c var 160 = ray 160"
        assert len(comments) == 160

    def test_small_instance_exact_text(self, ortho_graph):
        inst = KSInstance.build(ortho_graph, [(1, 2)])
        text = export_cnf(inst)
        assert text == ("c var 1 = ray 1\n"
                        "c var 2 = ray 2\n"
                        "p cnf 2 2\n"
                        "-1 -2 0\n"
                        "1 2 0\n")

    def test_uses_ascii_hyphen_minus(self, proof_instance):
        text = export_cnf(proof_instance)
        assert "−" not in text
        assert text.isascii()


# ------------------------------------------------------------------ oracle
# The solver as it stood when every node ran ``propagate`` to a fixpoint and
# then scanned all bases again for the branch basis.  ``check_colorable``
# must reproduce it exactly: verdict, witness, node count and propagation
# count.

def _reference_check_colorable(inst: KSInstance) -> ColoringResult:
    """The two-scan solver, kept as an oracle for ``check_colorable``."""
    adj, basis_masks = inst.graph.rows, inst.basis_masks
    stats = {"nodes": 0, "propagations": 0}

    def propagate(ones: int, zeros: int):
        changed = True
        while changed:
            changed = False
            for mask in basis_masks:
                if mask & ones:
                    continue
                avail = mask & ~zeros
                if avail == 0:
                    return None
                if avail & (avail - 1) == 0:
                    ones |= avail
                    zeros |= adj[avail.bit_length() - 1]
                    stats["propagations"] += 1
                    changed = True
        return ones, zeros

    def search(ones: int, zeros: int):
        stats["nodes"] += 1
        state = propagate(ones, zeros)
        if state is None:
            return None
        ones, zeros = state
        best_mask = None
        best_count = None
        for mask in basis_masks:
            if mask & ones:
                continue
            avail = mask & ~zeros
            count = avail.bit_count()
            if best_count is None or count < best_count:
                best_count = count
                best_mask = avail
        if best_mask is None:
            return ones, zeros
        cand = best_mask
        while cand:
            bit = cand & -cand
            cand &= cand - 1
            result = search(ones | bit, zeros | adj[bit.bit_length() - 1])
            if result is not None:
                return result
        return None

    outcome = search(0, 0)
    del search
    if outcome is None:
        return ColoringResult("non_colorable", None, stats["nodes"],
                              stats["propagations"])
    ones, _ = outcome
    pos = {rid: i for i, rid in enumerate(inst.graph.ids)}
    witness = {rid: (ones >> pos[rid]) & 1 for rid in inst.ray_ids}
    if not verify_coloring(inst, witness):
        raise AssertionError("solver produced a witness the verifier rejects")
    return ColoringResult("colorable", witness, stats["nodes"],
                          stats["propagations"])


def _pairwise_verify(inst: KSInstance, assignment: dict) -> bool:
    """Conditions (i) and (ii), the latter over every orthogonal pair."""
    return (all(any(assignment[rid] for rid in ids) for ids in inst.bases)
            and not any(assignment[a] and assignment[b]
                        for a, b in inst.ortho_pairs))


def _random_subfamily(rng, all_bases, all_partitions):
    """1 to 24 distinct bases of the 661, in draw order.

    About one family in six of five or more bases starts from a partition,
    as the search's samples do, so that non-colorable families are common.
    """
    size = rng.randint(1, 24)
    chosen = []
    if size >= 5 and rng.random() < 0.15:
        chosen = list(all_partitions[rng.randrange(len(all_partitions))])
    while len(chosen) < size:
        index = rng.randrange(len(all_bases))
        if index not in chosen:
            chosen.append(index)
    return [all_bases[i] for i in chosen]


def _unsorted_instance() -> KSInstance:
    """Four bases over a graph whose positions 0..5 hold ids 7, 3, 11, 5, 2,
    4; the edges (by id) are 7-3, 3-11, 11-5, 5-2, 2-7, 3-2 and 4-7."""
    ids = (7, 3, 11, 5, 2, 4)
    edges = [(7, 3), (3, 11), (11, 5), (5, 2), (2, 7), (3, 2), (4, 7)]
    at = {rid: i for i, rid in enumerate(ids)}
    rows = [0] * len(ids)
    for a, b in edges:
        rows[at[a]] |= 1 << at[b]
        rows[at[b]] |= 1 << at[a]
    graph = OrthoGraph(ids=ids, rows=tuple(rows), dim=2)
    return KSInstance.build(graph, [(11, 5), (7, 3), (2, 5), (3, 2)])


class TestRestrict:
    """A selection of an instance's bases equals the instance built anew."""

    @staticmethod
    def _assert_restricts(inst, keep):
        expected = KSInstance.build(inst.graph,
                                    [inst.bases[k] for k in keep])
        restricted = inst.restrict(keep)
        assert restricted.graph is expected.graph
        assert restricted.ray_ids == expected.ray_ids, keep
        assert restricted.bases == expected.bases, keep
        assert restricted.basis_masks == expected.basis_masks, keep

    def test_random_selections(self, ortho_graph, all_bases, all_partitions):
        rng = random.Random(20)
        for _ in range(200):
            inst = KSInstance.build(
                ortho_graph, _random_subfamily(rng, all_bases, all_partitions))
            n = len(inst.bases)
            self._assert_restricts(inst, rng.sample(range(n),
                                                    rng.randint(0, n)))

    def test_empty_selection(self, proof_instance):
        self._assert_restricts(proof_instance, [])
        assert proof_instance.restrict([]).ray_ids == ()

    def test_ids_out_of_position_order(self):
        inst = _unsorted_instance()
        for r in range(len(inst.bases) + 1):
            for keep in permutations(range(len(inst.bases)), r):
                self._assert_restricts(inst, keep)


@pytest.fixture(scope="module")
def search_trials(ortho_graph, all_bases, all_partitions):
    """Every distinct instance three seeded searches hand to the solver."""
    trials = {}
    for seed, max_size in [(1, 20), (2, 13), (0, 30)]:
        seen = {}

        def record(inst, seen=seen):
            seen.setdefault(inst.bases, inst)
            return check_colorable(inst)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr("bks5.search.check_colorable", record)
            search_small_proof(ortho_graph, all_bases, seed=seed,
                               max_size=max_size, partitions=all_partitions)
        trials[seed, max_size] = list(seen.values())
    return trials


class TestAgainstReference:
    """The single-scan solver against the two-scan oracle, result for result."""

    def test_random_subfamilies_match_reference(self, ortho_graph, all_bases,
                                                all_partitions):
        rng = random.Random(20261018)
        colorable = non_colorable = propagating = 0
        for _ in range(1000):
            inst = KSInstance.build(
                ortho_graph, _random_subfamily(rng, all_bases, all_partitions))
            expected = _reference_check_colorable(inst)
            assert check_colorable(inst) == expected, inst.bases
            colorable += expected.status == "colorable"
            non_colorable += expected.status == "non_colorable"
            propagating += expected.propagations > 0
        assert colorable >= 800
        assert non_colorable >= 100
        assert propagating >= 150

    @pytest.mark.parametrize("selection", [
        "empty", "repeated", "mermin", "proof", "blocks", "all"])
    def test_fixed_families_match_reference(self, selection, ortho_graph,
                                            proof_bases, block_bases,
                                            all_bases, mermin_table):
        if selection == "mermin":
            table, contexts = mermin_table
            inst = KSInstance.build(build_ortho_graph(table), contexts)
        else:
            bases = {"empty": [], "repeated": [proof_bases[3]] * 3,
                     "proof": proof_bases, "blocks": block_bases,
                     "all": all_bases}[selection]
            inst = KSInstance.build(ortho_graph, bases)
        assert check_colorable(inst) == _reference_check_colorable(inst)

    @pytest.mark.parametrize("take", range(1, 8))
    def test_proof_prefixes_match_reference(self, take, ortho_graph,
                                            proof_bases):
        inst = KSInstance.build(ortho_graph, proof_bases[:take])
        assert check_colorable(inst) == _reference_check_colorable(inst)

    @pytest.mark.parametrize("seed, max_size", [(1, 20), (2, 13), (0, 30)])
    def test_search_trial_instances_match_reference(self, seed, max_size,
                                                    search_trials):
        for inst in search_trials[seed, max_size]:
            assert check_colorable(inst) == _reference_check_colorable(inst)

    def test_search_trial_counters_pinned(self, search_trials):
        """Summed work over the 16 distinct trials of seed 1, max_size 20."""
        results = [check_colorable(inst) for inst in search_trials[1, 20]]
        assert len(results) == 16
        assert (sum(r.nodes for r in results),
                sum(r.propagations for r in results)) == (11792, 8192)


# ------------------------------------------------------------------ oracle
# The DIMACS export as it stood when the pair clauses came from probing
# every pair of ``combinations(ray_ids, 2)`` in the adjacency bitmasks.
# ``export_cnf`` must reproduce its text byte for byte.

def _reference_export_cnf(inst: KSInstance) -> str:
    """The pair-probing export, kept as an oracle for ``export_cnf``."""
    pos, rows = inst.graph.position, inst.graph.rows
    pairs = [(a, b) for a, b in combinations(inst.ray_ids, 2)
             if (rows[pos[a]] >> pos[b]) & 1]
    var = {rid: i + 1 for i, rid in enumerate(inst.ray_ids)}
    lines = ["c var %d = ray %d" % (var[rid], rid) for rid in inst.ray_ids]
    lines.append("p cnf %d %d" % (len(inst.ray_ids),
                                  len(pairs) + len(inst.bases)))
    for a, b in pairs:
        lines.append("-%d -%d 0" % (var[a], var[b]))
    for ids in inst.bases:
        lines.append(" ".join(str(var[rid]) for rid in ids) + " 0")
    return "\n".join(lines) + "\n"


class TestExportAgainstReference:
    """The CNF text and the pair list against pair-by-pair probing."""

    def test_random_subfamilies_match_reference(self, ortho_graph,
                                                all_bases):
        """1 to 5 distinct bases of the 661: what varies between draws is
        which rays are involved, and with them the variable numbering; the
        full 160-ray families are compared below."""
        rng = random.Random(20261019)
        sizes = set()
        for _ in range(1000):
            inst = KSInstance.build(
                ortho_graph, rng.sample(all_bases, rng.randint(1, 5)))
            expected = _reference_export_cnf(inst)
            assert export_cnf(inst) == expected, inst.bases
            sizes.add(len(inst.ray_ids))
        assert min(sizes) == 32 and max(sizes) >= 110

    @pytest.mark.parametrize("selection", [
        "empty", "repeated", "mermin", "proof", "blocks", "all"])
    def test_fixed_families_match_reference(self, selection, ortho_graph,
                                            proof_bases, block_bases,
                                            all_bases, mermin_table):
        if selection == "mermin":
            table, contexts = mermin_table
            inst = KSInstance.build(build_ortho_graph(table), contexts)
        else:
            bases = {"empty": [], "repeated": [proof_bases[3]] * 3,
                     "proof": proof_bases, "blocks": block_bases,
                     "all": all_bases}[selection]
            inst = KSInstance.build(ortho_graph, bases)
        assert export_cnf(inst) == _reference_export_cnf(inst)

    def test_ids_out_of_position_order(self):
        """Variables follow sorted ray ids, not graph positions; ray 4 is
        in no basis, so its bits in the rows must not produce a clause."""
        inst = _unsorted_instance()
        assert inst.ortho_pairs == ((2, 3), (2, 5), (2, 7), (3, 7), (3, 11),
                                    (5, 11))
        text = export_cnf(inst)
        assert text == _reference_export_cnf(inst)
        assert text == ("c var 1 = ray 2\n"
                        "c var 2 = ray 3\n"
                        "c var 3 = ray 5\n"
                        "c var 4 = ray 7\n"
                        "c var 5 = ray 11\n"
                        "p cnf 5 10\n"
                        "-1 -2 0\n"
                        "-1 -3 0\n"
                        "-1 -4 0\n"
                        "-2 -4 0\n"
                        "-2 -5 0\n"
                        "-3 -5 0\n"
                        "3 5 0\n"
                        "2 4 0\n"
                        "1 3 0\n"
                        "1 2 0\n")
