"""Tests for the binary symplectic picture of the five commuting sets."""
import random
from itertools import combinations

import pytest

from bks5 import catalog
from bks5.geometry import (GF2Subspace, classify_generator_systems,
                           distinguished_observables, five_spans,
                           geometry_report, intersect,
                           intersection_dimension_table, pauli_to_point,
                           point_to_spec, quadratic_form, span,
                           symplectic_form)
from bks5.pauli import commutes, is_symmetric, make_pauli


@pytest.fixture(scope="module")
def spans():
    return five_spans()


class TestPointEncoding:
    def test_round_trip(self):
        for spec in ["XZXII", "IIIIZ", "YYYYY", "ZIIII"]:
            point = pauli_to_point(make_pauli(spec))
            assert point_to_spec(point, 5) == spec

    def test_identity_rejected(self):
        with pytest.raises(ValueError):
            pauli_to_point(make_pauli("IIIII"))

    def test_point_is_ten_bits(self):
        point = pauli_to_point(make_pauli("YYYYY"))
        assert point == (0b11111 << 5) | 0b11111


class TestForms:
    """The symplectic and quadratic forms mirror operator algebra."""

    def test_symplectic_form_matches_commutation(self):
        rng = random.Random(99)
        for _ in range(200):
            a = make_pauli("".join(rng.choice("IXYZ") for _ in range(5)))
            b = make_pauli("".join(rng.choice("IXYZ") for _ in range(5)))
            if a.x_bits == a.z_bits == 0 or b.x_bits == b.z_bits == 0:
                continue
            u, v = pauli_to_point(a), pauli_to_point(b)
            assert (symplectic_form(u, v, 5) == 0) == commutes(a, b)

    def test_quadratic_form_matches_symmetry(self):
        rng = random.Random(100)
        for _ in range(200):
            op = make_pauli("".join(rng.choice("IXYZ") for _ in range(5)))
            if op.x_bits == op.z_bits == 0:
                continue
            point = pauli_to_point(op)
            assert (quadratic_form(point, 5) == 0) == is_symmetric(op)


class TestSpans:
    """Each commuting set spans a 31-point generator of the quadric."""

    def test_ranks_and_point_counts(self, spans):
        for space in spans.values():
            assert space.rank == 5
            assert space.projective_dimension == 4
            assert len(space.points()) == 31

    def test_match_reference_tables_as_sets(self, spans):
        for label, space in spans.items():
            expected = {pauli_to_point(make_pauli(s))
                        for s in catalog.SPAN_TABLE[label]}
            assert set(space.points()) == expected

    def test_all_points_isotropic_and_on_quadric(self, spans):
        for space in spans.values():
            pts = space.points()
            for u, v in combinations(pts, 2):
                assert symplectic_form(u, v, 5) == 0
            for p in pts:
                assert quadratic_form(p, 5) == 0

    def test_union_has_129_points(self, spans):
        union = set()
        for space in spans.values():
            union.update(space.points())
        assert len(union) == 129

    def test_dependent_generators_collapse_rank(self):
        ops = [make_pauli(s) for s in ["ZIIII", "IZIII", "ZZIII"]]
        assert span(ops).rank == 2

    def test_no_operators_raises(self):
        with pytest.raises(ValueError, match="at least one operator"):
            span([])


class TestIntersections:
    """Pairwise intersections reproduce the reference dimension table."""

    def test_dimension_table(self, spans):
        assert intersection_dimension_table(spans) == \
            catalog.INTERSECTION_DIMS

    def test_a_meets_b_in_single_point(self, spans):
        common = intersect(spans["A"], spans["B"])
        assert common.points() == (pauli_to_point(make_pauli("ZZZZZ")),)

    def test_a_prime_meets_c_in_fano_plane(self, spans):
        common = intersect(spans["A'"], spans["C"])
        assert common.projective_dimension == 2
        pts = common.points()
        assert len(pts) == 7
        specs = {point_to_spec(p, 5) for p in pts}
        assert specs == {"IIIIX", "IIIZI", "IIIZX", "IIXII", "IIXIX",
                         "IIXZI", "IIXZX"}

    def test_intersection_is_xor_closed(self, spans):
        common = intersect(spans["A'"], spans["C"])
        pts = set(common.points())
        for u, v in combinations(pts, 2):
            assert u ^ v in pts

    def test_mismatched_ambient_rejected(self):
        a = GF2Subspace.span_of([0b11], 2)
        b = GF2Subspace.span_of([0b11], 4)
        with pytest.raises(ValueError):
            intersect(a, b)


class TestSystems:
    """Generator systems split by intersection-dimension parity."""

    def test_two_classes(self, spans):
        first, second = classify_generator_systems(spans)
        assert {first, second} == {frozenset({"A", "B"}),
                                   frozenset({"A'", "B'", "C"})}

    def test_inconsistent_relation_rejected(self, spans, monkeypatch):
        from bks5 import geometry

        def fake_dims(_spaces):
            dims = dict(catalog.INTERSECTION_DIMS)
            dims[("A", "A'")] = 2
            return dims

        monkeypatch.setattr(geometry, "intersection_dimension_table",
                            fake_dims)
        with pytest.raises(ValueError, match="transitive"):
            classify_generator_systems(spans)


class TestDistinguished:
    """Operators breaking the appears-exactly-twice pattern."""

    def test_counts(self):
        assert distinguished_observables() == dict(catalog.DISTINGUISHED)

    def test_all_inside_maximal_intersection(self, spans):
        common = intersect(spans["A'"], spans["C"])
        for spec in distinguished_observables():
            assert pauli_to_point(make_pauli(spec)) in common


class TestGeometryReport:
    def test_full_report(self):
        report = geometry_report()
        assert report.point_counts == {label: 31
                                       for label in catalog.FIVE_SETS}
        assert report.all_isotropic is True
        assert report.quadric_memberships is True
        assert report.union_point_count == 129
        assert set(map(frozenset, report.systems)) == \
            {frozenset({"A", "B"}), frozenset({"A'", "B'", "C"})}
