"""Acceptance battery: the headline claims, one scoreboard line each.

Every test re-derives its claim from scratch, compares exactly (integers,
fractions, bit-identical strings -- no floating-point tolerances), and
prints a single PASS/FAIL line with its wall-clock time straight to the
terminal.  A full run therefore reads as a ten-line scoreboard, and any
FAIL is also a regular pytest failure with a traceback.
"""
import random
import time
from fractions import Fraction
from itertools import combinations, product

import numpy as np

from bks5 import catalog, dpll
from bks5.bases import (bases_sha256, build_ortho_graph, contains_basis,
                        enumerate_maximal_bases)
from bks5.coloring import (KSInstance, check_colorable, export_cnf,
                           verify_coloring)
from bks5.geometry import (five_spans, geometry_report, intersect,
                           point_to_spec)
from bks5.metrics import distance_spectrum
from bks5.pauli import (commutes, make_pauli, pauli_mul, pauli_to_matrix,
                        verify_magic)
from bks5.rays import build_ray_table, magic_configuration, partner
from bks5.search import find_partitions, search_small_proof
from bks5.symmetry import automorphism_group, build_overlap_graph


def _scored(capsys, number, name, budget, body):
    """Run ``body``, print one scoreboard line, then fail loudly if needed."""
    t0 = time.perf_counter()
    error = None
    try:
        body()
    except Exception as exc:
        error = exc
    elapsed = time.perf_counter() - t0
    within = budget is None or elapsed <= budget
    verdict = "PASS" if error is None and within else "FAIL"
    budget_note = "no budget" if budget is None else "budget %gs" % budget
    with capsys.disabled():
        print("acceptance %2d  %-30s %s  (%.2fs, %s)"
              % (number, name, verdict, elapsed, budget_note))
    if error is not None:
        raise error
    assert within, ("%s took %.2fs, over the %gs budget"
                    % (name, elapsed, budget))


class TestAcceptance:
    """End-to-end checks of every recorded claim, with runtime budgets."""

    def test_criterion_01_eigenray_reconstruction(self, capsys):
        """The 160-ray table is recomputed bit-exactly, partners included."""
        def body():
            table = build_ray_table()
            listed = (list(range(1, 33)) + list(range(33, 49))
                      + list(range(65, 81)) + list(range(97, 113))
                      + list(range(129, 145)))
            covered = set(listed)
            for rid in listed:
                assert table[rid].to_string() == catalog.RAYS[rid - 1]
                mate = table.partner_id(rid)
                assert table.block_of(mate) == table.block_of(rid)
                assert partner(table[rid]).entries == table[mate].entries
                covered.add(mate)
            assert covered == set(range(1, 161))
            assert len({r.entries for r in table.rays}) == 160
        _scored(capsys, 1, "eigenray reconstruction", 1.0, body)

    def test_criterion_02_maximal_basis_census(self, capsys, ortho_graph,
                                               proof_bases, block_bases):
        """Exactly 661 maximal bases, including all 21 reference bases."""
        def body():
            bases = enumerate_maximal_bases(ortho_graph)
            assert len(bases) == catalog.BASIS_COUNT
            assert bases_sha256(bases) == catalog.BASES_SHA256
            for b in proof_bases + block_bases:
                assert contains_basis(bases, b)
        _scored(capsys, 2, "maximal basis census", 30.0, body)

    def test_criterion_03_non_colorability(self, capsys, ortho_graph,
                                           proof_bases, all_bases):
        """Both instances are non-colorable by two independent solvers."""
        def body():
            for selection in (proof_bases, all_bases):
                inst = KSInstance.build(ortho_graph, selection)
                assert check_colorable(inst).status == "non_colorable"
                nvars, clauses = dpll.parse_dimacs(export_cnf(inst))
                assert dpll.solve(nvars, clauses).satisfiable is False
        _scored(capsys, 3, "non-colorability certificates", 60.0, body)

    def test_criterion_04_unique_partition(self, capsys, proof_bases):
        """Exactly one way to tile the 160 rays with five of the 21 bases."""
        def body():
            expected = tuple(k - 1 for k in catalog.PARTITION_BASES)
            assert find_partitions(proof_bases) == [expected]
        _scored(capsys, 4, "unique 5-basis partition", 1.0, body)

    def test_criterion_05_distance_spectra(self, capsys, ray_table,
                                           proof_bases, all_bases):
        """Distinct distance counts and the two tallest 21-base bars."""
        def body():
            small = distance_spectrum(ray_table, proof_bases)
            full = distance_spectrum(ray_table, all_bases)
            assert small.distinct_value_count == \
                catalog.DISTINCT_DISTANCES_PROOF
            assert full.distinct_value_count == \
                catalog.DISTINCT_DISTANCES_ALL
            top = small.top_values(2)
            assert [v for v, _ in top] == \
                [Fraction(*p) for p in catalog.PEAKS]
        _scored(capsys, 5, "exact distance spectra", 30.0, body)

    def test_criterion_06_symplectic_geometry(self, capsys):
        """Spans, quadric membership, intersections, and the two systems."""
        def body():
            report = geometry_report()
            assert set(report.point_counts) == set(catalog.FIVE_SETS)
            assert all(c == 31 for c in report.point_counts.values())
            assert report.all_isotropic and report.quadric_memberships
            assert report.union_point_count == 129
            assert report.intersection_dims == catalog.INTERSECTION_DIMS
            assert set(map(frozenset, report.systems)) == \
                {frozenset({"A", "B"}), frozenset({"A'", "B'", "C"})}
            spaces = five_spans()
            meet = intersect(spaces["A"], spaces["B"])
            assert [point_to_spec(p, 5) for p in meet.points()] == ["ZZZZZ"]
            fano = intersect(spaces["A'"], spaces["C"])
            assert len(fano.points()) == 7
            assert set(report.distinguished) <= \
                {point_to_spec(p, 5) for p in fano.points()}
        _scored(capsys, 6, "binary symplectic geometry", 1.0, body)

    def test_criterion_07_operator_parity(self, capsys):
        """14 doubled operators whose set signs multiply to -1."""
        def body():
            report = verify_magic(magic_configuration())
            assert report.operator_count == 14
            assert all(c == 2 for c in report.occurrences.values())
            assert report.sign_product == -1
            assert report.parity_contradiction
        _scored(capsys, 7, "operator parity contradiction", 1.0, body)

    def test_criterion_08_automorphism_group(self, capsys):
        """Overlap-graph symmetries: order 192, normal 32, quotient 6."""
        def body():
            aut = automorphism_group(build_overlap_graph(catalog.PROOF_BASES))
            assert aut.order == catalog.AUT_ORDER
            assert aut.normal_ea_order == catalog.AUT_NORMAL_EA_ORDER
            assert aut.quotient_order == catalog.AUT_QUOTIENT_ORDER
            assert aut.quotient_nonabelian and aut.closure_verified
        _scored(capsys, 8, "automorphism group structure", 10.0, body)

    def test_criterion_09_property_suites(self, capsys, ray_table,
                                          ortho_graph, proof_bases,
                                          mermin_table):
        """Randomized, exhaustive, and structural cross-validation."""
        def body():
            rng = random.Random(16091527)
            for _ in range(200):
                n = rng.randint(1, 5)
                a = make_pauli("".join(rng.choice("IXYZ") for _ in range(n)),
                               sign=rng.choice([1, -1]))
                b = make_pauli("".join(rng.choice("IXYZ") for _ in range(n)),
                               sign=rng.choice([1, -1]))
                ma, mb = pauli_to_matrix(a), pauli_to_matrix(b)
                assert np.array_equal(pauli_to_matrix(pauli_mul(a, b)),
                                      ma @ mb)
                assert commutes(a, b) == np.array_equal(ma @ mb, mb @ ma)

            table24, contexts = mermin_table
            graph24 = build_ortho_graph(table24)
            assert check_colorable(
                KSInstance.build(graph24, contexts)).status == "non_colorable"
            gram = table24.entries @ table24.entries.T
            admissible = sum(
                1 for choice in product(*contexts)
                if all(a == b or gram[a - 1, b - 1] != 0
                       for a, b in combinations(choice, 2)))
            assert admissible == 0

            for take in range(2, 7):
                inst = KSInstance.build(ortho_graph, proof_bases[:take])
                result = check_colorable(inst)
                assert result.status == "colorable"
                assert verify_coloring(inst, result.witness)

            for rid in range(1, 161):
                mate = ray_table.partner_id(rid)
                assert ray_table.partner_id(mate) == rid
                assert ray_table.block_of(mate) == ray_table.block_of(rid)
                assert partner(ray_table[rid]).entries == \
                    ray_table[mate].entries
            assert {ray_table.partner_id(r) for r in range(1, 161)} == \
                set(range(1, 161))
        _scored(capsys, 9, "property suites", None, body)

    def test_criterion_10_reproducible_search(self, capsys, ortho_graph,
                                              all_bases, all_partitions):
        """The pinned-seed search lands on the recorded five-basis proof."""
        def body():
            golden = catalog.SEARCH_GOLDEN
            candidate = search_small_proof(ortho_graph, all_bases, seed=0,
                                           partitions=all_partitions)
            assert candidate.status == "found"
            assert candidate.attempts <= 64
            assert candidate.restart == golden["restart"]
            assert candidate.size == golden["size"]
            assert list(candidate.basis_indices) == list(golden["bases"])
            inst = KSInstance.build(ortho_graph, candidate.bases)
            assert check_colorable(inst).status == "non_colorable"
            assert find_partitions(candidate.bases, universe=range(1, 161))
        _scored(capsys, 10, "pinned-seed proof search", None, body)
