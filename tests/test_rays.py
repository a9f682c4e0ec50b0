"""Tests for joint eigenrays, the 160-ray table, and partner structure."""
import random
from itertools import product
from math import gcd

import numpy as np
import pytest

from bks5 import bases, catalog, metrics, rays
from bks5.geometry import GF2Subspace
from bks5.pauli import (CommutingSet, PauliOp, apply_pauli, commutes,
                        is_symmetric, make_pauli, pauli_to_matrix)
from bks5.rays import (Ray, RayTable, RayTableError, _validate_table,
                       build_ray_table, canonical_entries, five_sets,
                       identify_block, joint_eigenrays, partner,
                       pauli_ray_permutations, row_permutation)


class TestJointEigenrays:
    """Projector-based eigenray extraction on small operator sets."""

    def test_single_qubit_z(self):
        rays = joint_eigenrays(CommutingSet("Z", (make_pauli("Z"),)))
        assert [r.entries for r in rays] == [(1, 0), (0, 1)]

    def test_single_qubit_x(self):
        rays = joint_eigenrays(CommutingSet("X", (make_pauli("X"),)))
        assert [r.entries for r in rays] == [(1, 1), (1, -1)]

    def test_two_qubit_bell_like_rays(self):
        cset = CommutingSet("XX+ZZ", (make_pauli("XX"), make_pauli("ZZ")))
        rays = joint_eigenrays(cset)
        vecs = {r.entries for r in rays}
        assert vecs == {(1, 0, 0, 1), (1, 0, 0, -1), (0, 1, 1, 0),
                        (0, 1, -1, 0)}

    def test_rays_are_verified_eigenvectors(self, ray_table):
        """Every table ray is an eigenvector of its block's operators."""
        sets = five_sets()
        for label, (lo, hi) in ray_table.block_map.items():
            ops = sets[label].ops
            for rid in range(lo, hi + 1):
                vec = np.array(ray_table[rid].entries, dtype=np.int64)
                for op in ops:
                    image = apply_pauli(op, vec)
                    assert (np.array_equal(image, vec)
                            or np.array_equal(image, -vec))

    def test_wrong_operator_count_raises(self):
        with pytest.raises(ValueError, match="exactly 2"):
            joint_eigenrays(CommutingSet("one", (make_pauli("XX"),)))

    def test_dependent_set_raises(self):
        ops = (make_pauli("ZI"), make_pauli("ZI"))
        with pytest.raises(ValueError, match="independent"):
            joint_eigenrays(CommutingSet("dep", ops))

    def test_empty_set_raises(self):
        with pytest.raises(ValueError, match="at least one operator"):
            joint_eigenrays(CommutingSet("empty", ()))

    def test_non_symmetric_operator_raises(self):
        ops = (make_pauli("YI"), make_pauli("IZ"))
        with pytest.raises(ValueError, match="symmetric"):
            joint_eigenrays(CommutingSet("asym", ops))


def _reference_joint_eigenrays(cset):
    """The dense-matmul extraction, kept as an oracle for ``joint_eigenrays``.

    One integer matrix product per operator and sign pattern, a scalar
    canonicalisation of the chosen column, and one ``apply_pauli`` check
    per ray and operator.
    """
    ops = list(cset.ops)
    n = ops[0].n
    dim = 1 << n
    mats = [pauli_to_matrix(op) for op in ops]
    eye = np.eye(dim, dtype=np.int64)
    out = []
    for signs in product((1, -1), repeat=n):
        m = eye
        for s, mat in zip(signs, mats):
            m = m @ (eye + s * mat)
        assert int(np.trace(m)) == dim
        col = next(m[:, j] for j in range(dim) if m[:, j].any())
        ray = Ray(_scalar_canonical(col.tolist()))
        vec = np.array(ray.entries, dtype=np.int64)
        for s, op in zip(signs, ops):
            assert np.array_equal(apply_pauli(op, vec), s * vec)
        out.append(ray)
    return out


def _scalar_canonical(entries):
    """Content 1 and first nonzero entry +1, one Python int at a time."""
    g = 0
    for e in entries:
        g = gcd(g, abs(e))
    ent = [e // g for e in entries]
    for e in ent:
        if e:
            return tuple(ent if e > 0 else [-x for x in ent])
    raise AssertionError("unreachable")


def _random_commuting_set(rng, n):
    """n independent, pairwise commuting, symmetric signed operators."""
    while True:
        ops = [PauliOp(n, rng.randrange(1 << n), rng.randrange(1 << n),
                       rng.choice((1, -1))) for _ in range(n)]
        points = [(op.x_bits << n) | op.z_bits for op in ops]
        if (all(is_symmetric(op) for op in ops)
                and all(commutes(a, b) for a in ops for b in ops)
                and GF2Subspace.span_of(points, 2 * n).rank == n):
            return CommutingSet("random", tuple(ops))


class TestAgainstReference:
    """The batched extraction returns the dense-matmul rays, in order."""

    def test_five_sets(self):
        for cset in five_sets().values():
            assert joint_eigenrays(cset) == _reference_joint_eigenrays(cset)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_seeded_small_sets(self, n):
        rng = random.Random(1000 + n)
        seen = set()
        for _ in range(60):
            cset = _random_commuting_set(rng, n)
            seen.add(cset.ops)
            assert joint_eigenrays(cset) == _reference_joint_eigenrays(cset)
        assert len(seen) >= 4  # all four for one qubit: +-X, +-Z


class TestRayTable:
    """The embedded 160-ray reference and its invariants."""

    def test_matches_embedded_strings_everywhere(self, ray_table):
        for rid in range(1, 161):
            assert ray_table[rid].to_string() == catalog.RAYS[rid - 1]

    def test_support_census(self, ray_table):
        census = {}
        for r in ray_table.rays:
            census[r.support] = census.get(r.support, 0) + 1
        assert census == {1: 32, 8: 96, 16: 32}

    def test_computational_block_is_standard_basis(self, ray_table):
        lo, hi = ray_table.block_map["B"]
        for rid in range(lo, hi + 1):
            entries = ray_table[rid].entries
            assert sum(abs(e) for e in entries) == 1
            assert entries[rid - lo] == 1

    def test_blocks_are_orthogonal_bases(self, ray_table):
        entries = ray_table.entries_matrix()
        for lo, hi in ray_table.block_map.values():
            block = entries[lo - 1:hi]
            gram = block @ block.T
            assert np.array_equal(gram, np.diag(np.diag(gram)))
            assert np.all(np.diag(gram) > 0)

    @pytest.mark.parametrize("bad", [0, -1, 161])
    def test_id_out_of_range_is_named(self, ray_table, bad):
        """Id 0 must not wrap to ray 160, and the error names the id, in
        each lookup by id."""
        for lookup in (ray_table.__getitem__, ray_table.partner_id,
                       ray_table.block_of):
            with pytest.raises(IndexError,
                               match=r"^ray id %d is outside 1\.\.160$"
                                     % bad):
                lookup(bad)

    def test_gram_is_the_read_only_entries_product(self, ray_table):
        entries = ray_table.entries_matrix()
        assert np.array_equal(ray_table.gram, entries @ entries.T)
        assert ray_table.gram is ray_table.gram
        with pytest.raises(ValueError, match="read-only"):
            ray_table.gram[0, 0] = 0

    def test_rays_pairwise_distinct(self, ray_table):
        assert len({r.entries for r in ray_table.rays}) == 160


class TestPauliRayPermutations:
    """The ray permutations induced by the single-qubit X_q and Z_q."""

    @pytest.fixture(scope="class")
    def perms(self, ray_table):
        return list(pauli_ray_permutations(ray_table.entries_matrix()))

    def test_each_generator_is_a_ray_permutation(self, perms):
        assert len(perms) == 10
        for perm in perms:
            assert sorted(perm.tolist()) == list(range(160))
            assert not perm.flags.writeable

    def test_images_match_the_kronecker_matrices(self, ray_table, perms):
        """X_1, Z_1, ..., X_5, Z_5 send each ray to +/- its listed image."""
        entries = ray_table.entries_matrix()
        specs = ["I" * q + f + "I" * (4 - q) for q in range(5) for f in "XZ"]
        for spec, perm in zip(specs, perms):
            images = entries @ pauli_to_matrix(make_pauli(spec)).T
            signs = np.sign((images * entries[perm]).sum(axis=1))
            assert np.array_equal(images, signs[:, None] * entries[perm]), \
                spec

    def test_each_preserves_the_squared_gram_matrix(self, ray_table, perms):
        squares = ray_table.gram ** 2
        for perm in perms:
            assert np.array_equal(squares[np.ix_(perm, perm)], squares)

    def test_a_row_moved_off_the_table_stops_the_generators(self):
        """X maps (2, 1) to (1, 2), which is not a row; X fixes (1, 1),
        and Z maps it to (1, -1), which is not a row."""
        for rows, kept in [([[2, 1], [1, -2]], []), ([[1, 1]], [[0]])]:
            entries = np.array(rows, dtype=np.int64)
            assert [p.tolist()
                    for p in pauli_ray_permutations(entries)] == kept

    def test_length_not_a_power_of_two_yields_nothing(self):
        entries = np.eye(3, dtype=np.int64)
        assert list(pauli_ray_permutations(entries)) == []

    def test_one_build_serves_the_graph_and_every_spectrum(
            self, proof_bases, monkeypatch):
        """A fresh table builds its generators once: the orbit enumeration,
        the all-661 spectrum and the proof spectrum all read that tuple."""
        calls = []
        build = rays.pauli_ray_permutations

        def counted(entries):
            calls.append(len(entries))
            return build(entries)

        monkeypatch.setattr(rays, "pauli_ray_permutations", counted)
        table = build_ray_table()
        graph = bases.build_ortho_graph(table)
        found = bases.enumerate_maximal_bases(graph)
        assert len(found) == catalog.BASIS_COUNT
        for chosen in (found, proof_bases):
            metrics.distance_spectrum(table, chosen)
        assert calls == [160]
        assert graph.automorphisms is table.pauli_permutations
        assert table.pauli_permutations is table.pauli_permutations
        # A reader that imported the builder would bypass the table.
        for module in (bases, metrics):
            assert not hasattr(module, "pauli_ray_permutations")


class TestRowPermutation:
    def test_reordered_rows(self):
        rows = np.array([[1, 0], [0, 1], [1, 1], [1, -1]])
        perm = row_permutation(rows, rows[[2, 0, 3, 1]])
        assert perm.tolist() == [2, 0, 3, 1]

    @pytest.mark.parametrize("images", [
        [[1, 0], [0, 1], [1, 2]], [[1, 0], [0, 1], [1, 0]]])
    def test_images_not_a_reordering(self, images):
        rows = np.array([[1, 0], [0, 1], [1, 1]])
        assert row_permutation(rows, np.array(images)) is None

    def test_repeated_rows_name_no_permutation(self):
        rows = np.array([[1, 0], [1, 0], [0, 1]])
        assert row_permutation(rows, rows[::-1]) is None


class TestPartner:
    """Entry reversal with sign flip: an in-block involution."""

    def test_involution_on_all_rays(self, ray_table):
        for r in ray_table.rays:
            assert partner(partner(r)).entries == r.entries

    def test_partner_ids_form_in_block_bijection(self, ray_table):
        images = set()
        for rid in range(1, 161):
            pid = ray_table.partner_id(rid)
            images.add(pid)
            assert ray_table.block_of(pid) == ray_table.block_of(rid)
            assert ray_table.partner_id(pid) == rid
        assert images == set(range(1, 161))

    def test_computational_block_partner_reverses_index(self, ray_table):
        for rid in range(1, 33):
            assert ray_table.partner_id(rid) == 33 - rid

    def test_half_block_shift_with_documented_exceptions(self, ray_table):
        """partner(k) = k+16 within half-blocks, except two swapped pairs."""
        for rid in range(33, 161):
            expected = catalog.PARTNER_EXCEPTIONS.get(
                rid, rid + 16 if ((rid - 1) % 32) < 16 else rid - 16)
            assert ray_table.partner_id(rid) == expected

    def test_partner_of_plain_ray(self):
        r = Ray((0, 1, 0, -1))
        assert partner(r).entries == (1, 0, -1, 0)

    def test_partner_ids_match_partner(self, ray_table):
        """The table's partner ids against ``partner`` ray by ray."""
        index = {r.entries: r.id for r in ray_table.rays}
        for rid in range(1, 161):
            assert ray_table.partner_id(rid) == \
                index[partner(ray_table[rid]).entries]


def _small_table(block_map, *rays):
    """A hand-built table over R^4; ``rays`` are entry tuples in id order."""
    return RayTable(rays=tuple(Ray(e, i) for i, e in enumerate(rays, 1)),
                    block_map=block_map)


class TestValidateTable:
    """Each fault ``_validate_table`` guards against, on a 4-dimensional table.

    The partner of e1 is e4 and the partner of e2 is e3, so blocks
    {e1, e4} and {e2, e3} make a valid table.
    """

    E1, E2, E3, E4 = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0),
                      (0, 0, 0, 1))

    def test_valid_table_passes(self):
        _validate_table(_small_table({"P": (1, 2), "Q": (3, 4)},
                                     self.E1, self.E4, self.E2, self.E3))

    def test_projectively_equal_rays(self):
        table = _small_table({"P": (1, 2), "Q": (3, 4)},
                             self.E1, self.E4, self.E2, self.E2)
        with pytest.raises(RayTableError, match="projectively equal"):
            _validate_table(table)

    def test_first_non_orthogonal_pair_in_block(self):
        """Pairs (1, 4) and (2, 3) are bad; ``combinations`` order names
        (1, 4), where an order by the second ray would name (2, 3)."""
        table = _small_table({"Q": (1, 4)}, self.E1, self.E2, (0, 1, 1, 0),
                             (1, 0, 0, 1))
        with pytest.raises(RayTableError,
                           match="^rays 1 and 4 of block Q are not "
                                 "orthogonal$"):
            _validate_table(table)

    def test_blocks_checked_in_block_map_order(self):
        table = _small_table({"Q": (3, 4), "P": (1, 2)},
                             (1, 1, 0, 0), self.E1, (0, 0, 1, 1), self.E4)
        with pytest.raises(RayTableError,
                           match="^rays 3 and 4 of block Q are not "
                                 "orthogonal$"):
            _validate_table(table)

    def test_partner_outside_block(self):
        table = _small_table({"P": (1, 2), "Q": (3, 4)},
                             self.E1, self.E2, self.E3, self.E4)
        with pytest.raises(RayTableError,
                           match="^partner of ray 1 falls outside its "
                                 "block$"):
            _validate_table(table)

    def test_ray_outside_every_block(self):
        """Rays 3 and 4 lie in no range of ``block_map``; the first is
        named before the partner check looks up the block of ray 4."""
        table = _small_table({"P": (1, 2)}, self.E1, self.E4, self.E2,
                             self.E3)
        with pytest.raises(RayTableError, match="^ray 3 lies in no block$"):
            _validate_table(table)

    def test_block_of_names_a_ray_in_no_block(self):
        table = RayTable(rays=(Ray((1, 0), 1), Ray((0, 1), 2)), block_map={})
        with pytest.raises(RayTableError, match="^ray 1 lies in no block$"):
            table.block_of(1)

    def test_block_range_starting_at_zero(self):
        """Range (0, 4) must not slice to the last ray alone: rays 1 and 3
        are not orthogonal."""
        table = _small_table({"P": (0, 4)}, (1, 1, 0, 0), (0, 0, 1, 1),
                             (1, 0, 1, 0), (0, 1, 0, 1))
        with pytest.raises(RayTableError,
                           match=r"^block P has range \(0, 4\), not within "
                                 r"1\.\.4$"):
            _validate_table(table)

    def test_block_range_past_the_end(self):
        table = _small_table({"P": (1, 2), "Q": (3, 9)},
                             self.E1, self.E4, self.E2, self.E3)
        with pytest.raises(RayTableError,
                           match=r"^block Q has range \(3, 9\), not within "
                                 r"1\.\.4$"):
            _validate_table(table)

    def test_partner_missing_from_table(self):
        """e1 and e2 are orthogonal, but their partners e4 and e3 are not
        in the table."""
        table = _small_table({"P": (1, 2)}, self.E1, self.E2)
        with pytest.raises(RayTableError,
                           match="^partner of ray 1 is not in the table$"):
            _validate_table(table)


class TestRayValidation:
    """Ray construction and canonicalization rules."""

    def test_rejects_non_canonical_sign(self):
        with pytest.raises(ValueError, match="canonical"):
            Ray((-1, 0, 1, 0))

    def test_rejects_zero_vector(self):
        with pytest.raises(ValueError):
            Ray((0, 0, 0, 0))

    def test_rejects_out_of_range_entries(self):
        with pytest.raises(ValueError):
            Ray((2, 0, 0, 0))

    def test_canonical_entries_divides_by_content(self):
        assert canonical_entries([-2, 0, 2, -4]) == (1, 0, -1, 2)

    def test_string_round_trip(self, ray_table):
        for rid in (1, 33, 65, 97, 129, 160):
            r = ray_table[rid]
            assert Ray.from_string(r.to_string()).entries == r.entries

    @pytest.mark.parametrize("text, bad", [
        ("+x0", "'x' at position 1"), ("0 +", "' ' at position 1"),
        ("+-0+1", "'1' at position 4"),
    ])
    def test_from_string_names_bad_character(self, text, bad):
        with pytest.raises(ValueError, match="invalid entry " + bad):
            Ray.from_string(text)


class TestIdentifyBlock:
    """Recovering the home set of a ray from scratch."""

    @pytest.mark.parametrize("rid,label", [
        (1, "B"), (32, "B"), (33, "A"), (64, "A"), (65, "A'"),
        (96, "A'"), (97, "B'"), (128, "B'"), (129, "C"), (160, "C"),
    ])
    def test_block_boundaries(self, ray_table, rid, label):
        assert identify_block(ray_table[rid]) == label

    def test_foreign_ray_rejected(self):
        """A ray that no set stabilizes raises a structured error."""
        entries = [0] * 32
        entries[0] = 1
        entries[1] = 1
        entries[2] = 1
        with pytest.raises(ValueError, match="expected exactly 1"):
            identify_block(Ray(tuple(entries)))


class TestTableSerialization:
    """The CSV export carries the table content."""

    def test_csv_export(self, ray_table, tmp_path):
        path = tmp_path / "rays.csv"
        ray_table.to_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0].startswith("id,e1,")
        assert len(lines) == 161
        first = lines[1].split(",")
        assert first[0] == "1"
        assert [int(x) for x in first[1:]] == list(ray_table[1].entries)


class TestGoldenMismatchDetection:
    """A corrupted embedded table aborts the build with the first bad id."""

    def test_tampered_reference_raises(self, monkeypatch):
        tampered = list(catalog.RAYS)
        tampered[40] = catalog.RAYS[0]  # a ray from the wrong block
        monkeypatch.setattr(catalog, "RAYS", tuple(tampered))
        with pytest.raises(RayTableError, match="ray 41"):
            build_ray_table()
