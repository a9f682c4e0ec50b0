"""Tests for exact Hilbert-Schmidt distances, spectra, and histograms."""
import hashlib
import random
from collections import Counter
from fractions import Fraction
from math import lcm

import numpy as np
import pytest

from bks5 import catalog
from bks5.metrics import (DistanceSpectrum, _check_bases, _orbit_labels,
                          distance_spectrum, emit_histogram, format_distance,
                          hs_distance_squared)
from bks5.rays import Ray, RayTable


def full_pair_spectrum(table, bases) -> DistanceSpectrum:
    """The product over every pair of bases, kept as the oracle.

    This is ``distance_spectrum`` without orbits: the totals of every
    basis against every basis, counted over the strict upper triangle.
    """
    gram = table.gram
    d = table.entries.shape[1]
    selector = np.zeros((len(bases), len(table)), dtype=np.int64)
    np.put_along_axis(selector, _check_bases(gram, bases, d), 1, axis=1)
    norms = np.diag(gram).astype(np.int64)
    scale = lcm(*(int(x) for x in norms)) ** 4
    if d * scale > np.iinfo(np.int64).max:
        raise OverflowError("d*lcm(norms)^4 exceeds the int64 maximum")
    denom = np.outer(norms, norms) ** 2
    totals = selector @ ((gram ** 4) * (scale // denom)) @ selector.T
    assert np.all(np.diagonal(totals) == d * scale)
    upper = totals[np.triu_indices(len(bases), 1)]
    return DistanceSpectrum(len(bases), {
        Fraction(d * scale - t, (d - 1) * scale): c
        for t, c in Counter(upper.tolist()).items()})


@pytest.fixture(scope="module")
def spectrum21(ray_table, proof_bases):
    return distance_spectrum(ray_table, proof_bases)


@pytest.fixture(scope="module")
def spectrum661(ray_table, all_bases):
    return distance_spectrum(ray_table, all_bases)


class TestHsDistanceSquared:
    """The definitional rational-arithmetic path."""

    def test_identical_bases_have_zero_distance(self, ray_table,
                                                proof_bases):
        assert hs_distance_squared(ray_table, proof_bases[0],
                                   proof_bases[0]) == 0

    def test_symmetry(self, ray_table, proof_bases):
        a, b = proof_bases[2], proof_bases[9]
        assert hs_distance_squared(ray_table, a, b) == \
            hs_distance_squared(ray_table, b, a)

    def test_values_lie_in_unit_interval(self, ray_table, proof_bases):
        for other in proof_bases[1:6]:
            value = hs_distance_squared(ray_table, proof_bases[0], other)
            assert 0 <= value <= 1

    def test_incomplete_basis_rejected(self, ray_table, proof_bases):
        with pytest.raises(ValueError, match="32 rays"):
            hs_distance_squared(ray_table, proof_bases[0][:31],
                                proof_bases[1])

    def test_non_orthogonal_family_rejected(self, ray_table, proof_bases):
        tampered = list(proof_bases[0])
        tampered[-1] = [rid for rid in range(1, 161)
                        if rid not in tampered][0]
        with pytest.raises(ValueError, match="orthogonal"):
            hs_distance_squared(ray_table, tampered, proof_bases[1])

    @pytest.mark.parametrize("bad", [0, 161])
    def test_ray_id_out_of_range_rejected(self, ray_table, proof_bases, bad):
        """Id 0 must not wrap to ray 160: this basis would pass for basis 1."""
        assert 160 in proof_bases[0]
        tampered = [bad if rid == 160 else rid for rid in proof_bases[0]]
        with pytest.raises(ValueError,
                           match=r"^ray id %d is outside 1\.\.160$" % bad):
            hs_distance_squared(ray_table, proof_bases[1], tampered)


class TestDistanceSpectrum:
    """Exact spectra over the printed and the full basis families."""

    def test_incomplete_basis_rejected(self, ray_table, proof_bases):
        bases = [proof_bases[0][:31]] + list(proof_bases[1:])
        with pytest.raises(ValueError, match="32 rays"):
            distance_spectrum(ray_table, bases)

    def test_non_orthogonal_family_rejected(self, ray_table, proof_bases):
        tampered = list(proof_bases[3])
        tampered[0] = [rid for rid in range(1, 161)
                       if rid not in tampered][0]
        with pytest.raises(ValueError, match="orthogonal"):
            distance_spectrum(ray_table, list(proof_bases[:3]) + [tampered])

    @pytest.mark.parametrize("bad", [0, 161])
    def test_ray_id_out_of_range_rejected(self, ray_table, proof_bases, bad):
        tampered = [bad if rid == 160 else rid for rid in proof_bases[0]]
        with pytest.raises(ValueError,
                           match=r"^ray id %d is outside 1\.\.160$" % bad):
            distance_spectrum(ray_table, [tampered] + list(proof_bases[1:]))

    def test_first_invalid_basis_in_list_order_is_named(self, ray_table,
                                                        proof_bases):
        """Orthogonality is checked in bulk, yet the earliest error wins."""
        clash = list(proof_bases[3])
        clash[0] = [rid for rid in range(1, 161) if rid not in clash][0]
        short = proof_bases[0][:31]
        outside = [0 if rid == 160 else rid for rid in proof_bases[0]]
        good = list(proof_bases[1:4])
        for bases, message in [
                (good + [clash, short], "not pairwise orthogonal"),
                (good + [short, clash], "needs 32 rays, got 31"),
                (good + [clash, outside], "not pairwise orthogonal"),
                (good + [outside, clash, short], "ray id 0 is outside"),
                ([clash] + good + [short, outside], "not pairwise orthogonal")]:
            with pytest.raises(ValueError, match=message):
                distance_spectrum(ray_table, bases)

    def test_pair_multiplicities_sum_to_choose_2(self, spectrum21,
                                                 spectrum661):
        assert sum(spectrum21.pairs.values()) == 21 * 20 // 2
        assert sum(spectrum661.pairs.values()) == 661 * 660 // 2

    def test_distinct_value_counts(self, spectrum21, spectrum661):
        assert spectrum21.distinct_value_count == \
            catalog.DISTINCT_DISTANCES_PROOF
        assert spectrum661.distinct_value_count == \
            catalog.DISTINCT_DISTANCES_ALL

    def test_top_two_values_of_printed_family(self, spectrum21):
        top = spectrum21.top_values(2)
        assert top[0] == (Fraction(*catalog.PEAKS[0]), 41)
        assert top[1] == (Fraction(*catalog.PEAKS[1]), 26)

    def test_fast_path_matches_definitional_path(self, ray_table,
                                                 proof_bases, spectrum21):
        """Random pairs recomputed pairwise agree with the pooled matrix."""
        rng = random.Random(2024)
        recomputed = {}
        for _ in range(12):
            i, j = sorted(rng.sample(range(21), 2))
            value = hs_distance_squared(ray_table, proof_bases[i],
                                        proof_bases[j])
            recomputed[value] = recomputed.get(value, 0) + 1
        for value in recomputed:
            assert value in spectrum21.pairs

    def test_zero_absent_off_diagonal(self, spectrum21):
        assert Fraction(0) not in spectrum21.pairs

    def test_identical_pair_spectrum(self, ray_table, proof_bases):
        spectrum = distance_spectrum(ray_table, [proof_bases[0],
                                                 proof_bases[0]])
        assert spectrum.pairs == {Fraction(0): 1}
        assert spectrum.histogram_rows() == [(Fraction(0), 3)]

    def test_histogram_rows_include_self_distances(self, spectrum21):
        rows = spectrum21.histogram_rows()
        assert rows[0] == (Fraction(0), 21)
        assert len(rows) == catalog.DISTINCT_DISTANCES_PROOF
        assert [v for v, _ in rows] == sorted(v for v, _ in rows)

    def test_int64_bound_raises_instead_of_wrapping(self):
        """d * lcm(norms)^4 just above the int64 maximum is refused."""
        with pytest.raises(OverflowError, match="int64"):
            distance_spectrum(_StubTable(216), [(1, 2), (3, 4)])

    def test_int64_bound_just_below_is_exact(self):
        table = _StubTable(215)
        spectrum = distance_spectrum(table, [(1, 2), (3, 4)])
        assert spectrum.pairs == {
            hs_distance_squared(table, (1, 2), (3, 4)): 1}

    def test_mismatched_multiplicity_rejected(self):
        with pytest.raises(ValueError, match="C\\(n, 2\\)"):
            DistanceSpectrum(basis_count=3, pairs={Fraction(1, 2): 1})


@pytest.fixture(scope="module")
def orbits(ray_table, all_bases):
    """The 661 bases' indices, grouped by X_q and Z_q orbit."""
    cells = np.array(all_bases) - 1
    labels = _orbit_labels(ray_table.pauli_permutations, cells,
                           len(ray_table))
    groups = {}
    for i, label in enumerate(labels.tolist()):
        groups.setdefault(label, []).append(i)
    return list(groups.values())


def orbit_count(table, bases) -> int:
    cells = np.array(bases) - 1
    return len(set(_orbit_labels(table.pauli_permutations, cells,
                                 len(table)).tolist()))


class TestOrbitSpectrum:
    """One row per Pauli orbit gives the full pair product's spectrum."""

    def test_all_bases_split_into_118_orbits(self, orbits):
        assert len(orbits) == 118
        assert Counter(map(len, orbits)) == {1: 5, 2: 28, 4: 36, 8: 41,
                                             16: 8}

    def test_all_bases_match_full_product(self, ray_table, all_bases,
                                          spectrum661):
        assert spectrum661 == full_pair_spectrum(ray_table, all_bases)

    @pytest.mark.parametrize("name", ["proof_bases", "block_bases"])
    def test_catalog_families_match_full_product(self, ray_table, name,
                                                 request):
        bases = request.getfixturevalue(name)
        # The proof takes the full product; every generator fixes each
        # block basis.
        assert orbit_count(ray_table, bases) == \
            {"proof_bases": 21, "block_bases": 5}[name]
        assert distance_spectrum(ray_table, bases) == \
            full_pair_spectrum(ray_table, bases)

    def test_orbit_unions_match_full_product(self, ray_table, all_bases,
                                             orbits):
        """Closed lists, in shuffled order, take the orbit path."""
        rng = random.Random(21)
        for _ in range(6):
            chosen = rng.sample(orbits, rng.randint(1, 20))
            bases = [all_bases[i] for orbit in chosen for i in orbit]
            rng.shuffle(bases)
            assert orbit_count(ray_table, bases) == len(chosen)
            assert distance_spectrum(ray_table, bases) == \
                full_pair_spectrum(ray_table, bases)

    def test_open_sublists_match_full_product(self, ray_table, all_bases):
        rng = random.Random(661)
        for _ in range(20):
            bases = rng.sample(all_bases, rng.randint(2, 60))
            assert orbit_count(ray_table, bases) == len(bases)
            assert distance_spectrum(ray_table, bases) == \
                full_pair_spectrum(ray_table, bases)

    def test_repeated_basis_takes_the_full_product(self, ray_table,
                                                   all_bases, orbits):
        closed = [all_bases[i] for orbit in orbits[:12] for i in orbit]
        bases = closed + [closed[3]]
        assert orbit_count(ray_table, closed) == 12
        assert orbit_count(ray_table, bases) == len(bases)
        spectrum = distance_spectrum(ray_table, bases)
        assert spectrum == full_pair_spectrum(ray_table, bases)
        assert spectrum.pairs[Fraction(0)] == 1

    def test_generators_before_one_off_the_table_give_orbits(self):
        """X_1 and Z_1 map this table onto itself; X_2 moves e1 off it.

        Z_1 swaps the two bases, so they form one orbit.
        """
        entries = [(1, 1, 1, 1), (1, -1, 1, -1), (1, 0, -1, 0),
                   (0, 1, 0, -1), (1, 1, -1, -1), (1, -1, -1, 1),
                   (1, 0, 1, 0), (0, 1, 0, 1), (1, 0, 0, 0), (0, 0, 1, 0)]
        table = RayTable(rays=tuple(Ray(e, i + 1)
                                    for i, e in enumerate(entries)),
                         block_map={})
        assert len(table.pauli_permutations) == 2
        bases = [(1, 2, 3, 4), (5, 6, 7, 8)]
        assert orbit_count(table, bases) == 1
        assert distance_spectrum(table, bases) == \
            full_pair_spectrum(table, bases)

    @pytest.mark.parametrize("perms, named", [
        ([[0, 1, 2, 3, 6, 7, 4, 5]], 0),
        ([[1, 0, 2, 3, 6, 7, 4, 5], [0, 1, 2, 3, 6, 7, 4, 5]], 1)])
    def test_a_generator_that_moves_the_overlaps_is_named(self, perms,
                                                          named):
        """Swapping (2, 1) with (1, 2) and (1, -2) with (2, -1) swaps the
        bases 3 and 4, but not their overlaps with e1."""
        table = _PlaneTable(_PLANE_RAYS, *perms)
        assert orbit_count(table, _PLANE_BASES) == 3
        with pytest.raises(AssertionError,
                           match="^generator %d does not fix the squared "
                                 "overlaps$" % named):
            distance_spectrum(table, _PLANE_BASES)

    def test_the_coordinate_swap_matches_full_product(self):
        table = _PlaneTable(_PLANE_RAYS, [1, 0, 2, 3, 6, 7, 4, 5])
        assert orbit_count(table, _PLANE_BASES) == 3
        assert distance_spectrum(table, _PLANE_BASES) == \
            full_pair_spectrum(table, _PLANE_BASES)

    def test_a_hadamard_fixes_the_normalised_overlaps_only(self):
        """The Hadamard swaps e1 with (1, 1) and e2 with (1, -1): it fixes
        every normalised overlap, but not the raw squared Gram matrix."""
        perm = [2, 3, 0, 1]
        table = _PlaneTable(_PLANE_RAYS[:4], perm)
        bases = _PLANE_BASES[:2]
        squares = table.gram ** 2
        assert not np.array_equal(squares[np.ix_(perm, perm)], squares)
        assert orbit_count(table, bases) == 1
        assert distance_spectrum(table, bases) == \
            full_pair_spectrum(table, bases)

    def test_stub_below_the_bound_matches_full_product(self):
        table = _StubTable(215)
        assert distance_spectrum(table, [(1, 2), (3, 4)]) == \
            full_pair_spectrum(table, [(1, 2), (3, 4)])

    def test_stub_above_the_bound_overflows_in_both(self):
        table = _StubTable(216)
        for spectrum in (distance_spectrum, full_pair_spectrum):
            with pytest.raises(OverflowError, match="int64"):
                spectrum(table, [(1, 2), (3, 4)])


class _StubTable:
    """Two 2-dimensional bases: {(k, 1), (-1, k)} and the standard one."""

    pauli_permutations = ()

    def __init__(self, k):
        self.entries = np.array([[k, 1], [-1, k], [1, 0], [0, 1]],
                                dtype=np.int64)

    def __len__(self):
        return len(self.entries)

    @property
    def gram(self):
        return self.entries @ self.entries.T


# Four bases of the plane: (1, 2), (3, 4), (5, 6) and (7, 8).
_PLANE_RAYS = [(1, 0), (0, 1), (1, 1), (1, -1), (2, 1), (1, -2), (1, 2),
               (2, -1)]
_PLANE_BASES = [(1, 2), (3, 4), (5, 6), (7, 8)]


class _PlaneTable(_StubTable):
    """Rays of the plane with the given ray permutations as generators."""

    def __init__(self, rays, *perms):
        self.entries = np.array(rays, dtype=np.int64)
        self.pauli_permutations = tuple(np.array(p) for p in perms)


class TestFormatDistance:
    def test_known_values(self):
        assert format_distance(Fraction(29, 31)) == "0.9672041516"
        assert format_distance(Fraction(43, 62)) == "0.8327955254"
        assert format_distance(Fraction(0)) == "0.0000000000"
        assert format_distance(Fraction(1)) == "1.0000000000"


class TestEmitHistogram:
    def test_csv_shape_and_header(self, spectrum21, tmp_path):
        path = tmp_path / "histogram.csv"
        emit_histogram(spectrum21, path, "csv")
        lines = path.read_text().splitlines()
        assert lines[0] == "D,D2_num,D2_den,count"
        assert len(lines) == 1 + catalog.DISTINCT_DISTANCES_PROOF
        assert lines[1] == "0.0000000000,0,1,21"
        assert lines[-1] == "0.9672041516,29,31,41"

    @pytest.mark.parametrize("name, digest", [
        ("spectrum21",
         "5916fad0504fddb02f59078068b0e3ca9bde471e05c96f847378ff0ef30e008d"),
        ("spectrum661",
         "38232112c7dabb419c38d51f26082e198375333028e21983524eca52f1179fb0"),
    ])
    def test_csv_bytes_are_pinned(self, name, digest, request, tmp_path):
        """Values and multiplicities, byte for byte, for both families."""
        path = tmp_path / "histogram.csv"
        emit_histogram(request.getfixturevalue(name), path, "csv")
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest

    def test_csv_is_deterministic(self, spectrum21, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        emit_histogram(spectrum21, a, "csv")
        emit_histogram(spectrum21, b, "csv")
        assert a.read_text() == b.read_text()

    def test_svg_has_bars_and_no_timestamps(self, spectrum21, tmp_path):
        path = tmp_path / "histogram.svg"
        emit_histogram(spectrum21, path, "svg")
        text = path.read_text()
        assert text.startswith("<svg")
        assert text.count("<rect") == 1 + catalog.DISTINCT_DISTANCES_PROOF
        assert "date" not in text.lower()

    def test_empty_spectrum_yields_header_only(self, tmp_path):
        path = tmp_path / "empty.csv"
        emit_histogram(DistanceSpectrum(basis_count=0, pairs={}), path, "csv")
        assert path.read_text() == "D,D2_num,D2_den,count\n"

    def test_unknown_format_rejected(self, spectrum21, tmp_path):
        with pytest.raises(ValueError, match="format"):
            emit_histogram(spectrum21, tmp_path / "x.bin", "png")
