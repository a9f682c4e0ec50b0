"""Tests for the signed real Pauli algebra."""
import itertools
import random

import numpy as np
import pytest

from bks5.pauli import (CommutingSet, PauliOp, apply_pauli, commutes,
                        is_symmetric, make_pauli, pauli_mul, pauli_to_matrix,
                        set_product, verify_magic)
from bks5.rays import magic_configuration

# The four single-qubit factors, written out independently of the module.
FACTORS = {
    "I": np.array([[1, 0], [0, 1]], dtype=np.int64),
    "X": np.array([[0, 1], [1, 0]], dtype=np.int64),
    "Y": np.array([[0, -1], [1, 0]], dtype=np.int64),
    "Z": np.array([[1, 0], [0, -1]], dtype=np.int64),
}


class TestMakePauli:
    """Parsing and validation of operator strings."""

    def test_roundtrip_spec(self):
        """Parsing then printing returns the original letter string."""
        for spec in ["XZXII", "IIIII", "YYYYY", "ZXIIX", "IXZXI"]:
            assert make_pauli(spec).spec == spec

    def test_qubit_one_is_most_significant(self):
        """The first letter acts on the highest tensor factor."""
        op = make_pauli("XIIII")
        assert op.x_bits == 0b10000
        assert op.z_bits == 0
        op = make_pauli("IIIIZ")
        assert op.z_bits == 0b00001

    def test_explicit_sign(self):
        assert make_pauli("XX", sign=-1).sign == -1

    def test_invalid_character_names_position(self):
        with pytest.raises(ValueError, match="position 2"):
            make_pauli("XZQII")

    def test_invalid_sign_rejected(self):
        with pytest.raises(ValueError):
            make_pauli("XZ", sign=2)


class TestMatrixOracle:
    """pauli_mul / commutes / apply_pauli agree with dense matrices."""

    def random_ops(self, count, n, seed):
        rng = random.Random(seed)
        ops = []
        for _ in range(count):
            spec = "".join(rng.choice("IXYZ") for _ in range(n))
            ops.append(make_pauli(spec, sign=rng.choice([1, -1])))
        return ops

    def test_pauli_mul_matches_matrices_200_pairs(self):
        """Product sign and support match the matrix product exactly."""
        ops = self.random_ops(400, 3, seed=20240817)
        for a, b in zip(ops[::2], ops[1::2]):
            prod = pauli_mul(a, b)
            expected = pauli_to_matrix(a) @ pauli_to_matrix(b)
            assert np.array_equal(pauli_to_matrix(prod), expected)

    def test_commutes_matches_matrices_200_pairs(self):
        ops = self.random_ops(400, 3, seed=911)
        for a, b in zip(ops[::2], ops[1::2]):
            ma, mb = pauli_to_matrix(a), pauli_to_matrix(b)
            assert commutes(a, b) == np.array_equal(ma @ mb, mb @ ma)

    def test_five_qubit_pairs_also_agree(self):
        ops = self.random_ops(80, 5, seed=5)
        for a, b in zip(ops[::2], ops[1::2]):
            prod = pauli_mul(a, b)
            expected = pauli_to_matrix(a) @ pauli_to_matrix(b)
            assert np.array_equal(pauli_to_matrix(prod), expected)

    def test_apply_pauli_matches_matrix_action(self):
        """Vectors, matrices and 3-D stacks: the first axis is acted on."""
        rng = np.random.default_rng(77)
        for op in self.random_ops(40, 4, seed=13):
            for trailing in ((), (3,), (2, 5)):
                vec = rng.integers(-3, 4, size=(16,) + trailing)
                want = np.tensordot(pauli_to_matrix(op), vec, axes=1)
                assert np.array_equal(apply_pauli(op, vec), want)

    @pytest.mark.parametrize("shape", [(8,), (8, 16), (2, 16), ()])
    def test_apply_pauli_rejects_wrong_first_axis(self, shape):
        with pytest.raises(ValueError, match="vector length must be 16"):
            apply_pauli(make_pauli("XZIY"), np.zeros(shape, dtype=np.int64))

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_matrix_is_kron_fold(self, n):
        """Every spec on up to three qubits, both signs, against np.kron."""
        for letters in itertools.product("IXYZ", repeat=n):
            for sign in (1, -1):
                op = make_pauli("".join(letters), sign=sign)
                want = np.array([[sign]], dtype=np.int64)
                for ch in letters:
                    want = np.kron(want, FACTORS[ch])
                got = pauli_to_matrix(op)
                assert got.dtype == want.dtype
                assert np.array_equal(got, want), op

    def test_real_y_squares_to_minus_identity(self):
        y = make_pauli("Y")
        yy = pauli_mul(y, y)
        assert (yy.spec, yy.sign) == ("I", -1)

    def test_symmetry_matches_transpose(self):
        for op in self.random_ops(60, 3, seed=101):
            m = pauli_to_matrix(op)
            assert is_symmetric(op) == np.array_equal(m, m.T)


class TestCommutingSet:
    """Construction guards and products of commuting sets."""

    def test_rejects_non_commuting_members(self):
        with pytest.raises(ValueError):
            CommutingSet("bad", (make_pauli("X"), make_pauli("Z")))

    def test_set_product_sign_matters(self):
        zs = CommutingSet("Z5", tuple(make_pauli(s) for s in
                                      ["ZIIII", "IZIII", "IIZII", "IIIZI",
                                       "IIIIZ"]))
        prod = set_product(zs)
        assert prod.spec == "ZZZZZ"
        assert prod.sign == 1

    def test_first_magic_set_product_is_negative(self):
        """The cyclic set multiplies to -ZZZZZ, seeding the parity clash."""
        cyc = CommutingSet("cyc", tuple(make_pauli(s) for s in
                                        ["XZXII", "IXZXI", "IIXZX", "XIIXZ",
                                         "ZXIIX"]))
        prod = set_product(cyc)
        assert prod.spec == "ZZZZZ"
        assert prod.sign == -1

    def test_empty_set_product_raises(self):
        with pytest.raises(ValueError, match="^set empty is empty"):
            set_product(CommutingSet("empty", ()))


class TestVerifyMagic:
    """The operator-level parity contradiction."""

    def test_reference_configuration(self):
        report = verify_magic(magic_configuration())
        assert report.operator_count == 14
        assert all(c == 2 for c in report.occurrences.values())
        assert report.set_signs == (-1, 1, 1, 1, 1)
        assert report.sign_product == -1
        assert report.parity_contradiction is True

    def test_consistent_configuration_is_not_flagged(self):
        """A single set with matching product sign shows no contradiction."""
        zs = CommutingSet("Z2", (make_pauli("ZI"), make_pauli("IZ")))
        report = verify_magic([(zs, make_pauli("ZZ"))])
        assert report.sign_product == 1
        assert report.parity_contradiction is False

    def test_wrong_target_raises(self):
        zs = CommutingSet("Z2", (make_pauli("ZI"), make_pauli("IZ")))
        with pytest.raises(ValueError):
            verify_magic([(zs, make_pauli("XX"))])

    def test_empty_set_raises(self):
        with pytest.raises(ValueError, match="^set empty is empty"):
            verify_magic([(CommutingSet("empty", ()), make_pauli("II"))])
