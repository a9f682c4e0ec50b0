"""Exact algebra of the real N-qubit Pauli group.

Operators are tensor products of I, X, Z and the real Y = X@Z = [[0,-1],[1,0]],
carrying an overall sign of +1 or -1.  An operator is stored as a pair of
N-bit integers (X-part, Z-part) plus the sign; qubit 1 is the most
significant tensor factor, so basis index j corresponds to the bit string
(b_1 ... b_N) with j = sum b_i * 2^(N-i).

All products, commutators and matrix realizations are exact over the
integers; the 2^N x 2^N matrix form is used only as an oracle in tests and
for eigenvector verification.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

_FACTORS = {
    "I": np.array([[1, 0], [0, 1]], dtype=np.int64),
    "X": np.array([[0, 1], [1, 0]], dtype=np.int64),
    "Y": np.array([[0, -1], [1, 0]], dtype=np.int64),
    "Z": np.array([[1, 0], [0, -1]], dtype=np.int64),
}

_CHAR = {(0, 0): "I", (1, 0): "X", (0, 1): "Z", (1, 1): "Y"}


@dataclass(frozen=True, order=True)
class PauliOp:
    """A signed real Pauli operator on ``n`` qubits."""

    n: int
    x_bits: int
    z_bits: int
    sign: int = 1

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("need at least one qubit")
        mask = (1 << self.n) - 1
        if not 0 <= self.x_bits <= mask or not 0 <= self.z_bits <= mask:
            raise ValueError("x/z bits out of range for %d qubits" % self.n)
        if self.sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")

    @property
    def spec(self) -> str:
        """Factor string, e.g. ``XZXII``; qubit 1 first."""
        out = []
        for i in range(self.n - 1, -1, -1):
            out.append(_CHAR[((self.x_bits >> i) & 1, (self.z_bits >> i) & 1)])
        return "".join(out)

    def __str__(self):
        return ("-" if self.sign < 0 else "") + self.spec


def make_pauli(spec: str, sign: int = 1) -> PauliOp:
    """Build a PauliOp from a factor string over {I, X, Y, Z}.

    ``spec[0]`` is the first (most significant) qubit.  Rejects any other
    character, naming its position.
    """
    x = z = 0
    for pos, ch in enumerate(spec):
        x <<= 1
        z <<= 1
        if ch not in _FACTORS:
            raise ValueError(
                "invalid factor %r at position %d (want I, X, Y or Z)" % (ch, pos))
        if ch in ("X", "Y"):
            x |= 1
        if ch in ("Z", "Y"):
            z |= 1
    return PauliOp(len(spec), x, z, sign)


def pauli_mul(a: PauliOp, b: PauliOp) -> PauliOp:
    """Exact operator product a @ b, with the sign tracked per qubit.

    Writing each factor as X^x Z^z, commuting the X-part of ``b`` through
    the Z-part of ``a`` picks up one minus sign per qubit where both are
    present, and the bit parts XOR.
    """
    if a.n != b.n:
        raise ValueError("qubit count mismatch")
    swaps = (a.z_bits & b.x_bits).bit_count()
    sign = a.sign * b.sign * (-1 if swaps % 2 else 1)
    return PauliOp(a.n, a.x_bits ^ b.x_bits, a.z_bits ^ b.z_bits, sign)


def commutes(a: PauliOp, b: PauliOp) -> bool:
    """True iff a @ b == b @ a (symplectic form of the bit parts vanishes)."""
    if a.n != b.n:
        raise ValueError("qubit count mismatch")
    form = (a.x_bits & b.z_bits).bit_count() + (a.z_bits & b.x_bits).bit_count()
    return form % 2 == 0


def is_symmetric(p: PauliOp) -> bool:
    """True iff the matrix equals its transpose (even number of Y factors)."""
    return (p.x_bits & p.z_bits).bit_count() % 2 == 0


def pauli_to_matrix(p: PauliOp) -> np.ndarray:
    """The 2^n x 2^n integer matrix realization (entries in {-1, 0, +1}).

    The Kronecker product is built one factor at a time by broadcasting:
    entry (i, k, j, l) of ``m[:, None, :, None] * f[None, :, None, :]`` is
    m[i, j] f[k, l], which the reshape puts at row 2i + k, column 2j + l.
    """
    m = np.array([[p.sign]], dtype=np.int64)
    for ch in p.spec:
        f = _FACTORS[ch]
        size = 2 * len(m)
        m = (m[:, None, :, None] * f[None, :, None, :]).reshape(size, size)
    return m


def apply_pauli(p: PauliOp, vec) -> np.ndarray:
    """Apply ``p`` along the first axis of an integer array, matrix-free.

    Per qubit the factor X^x Z^z maps e_b to (-1)^(z*b) e_(b xor x), so the
    whole operator sends basis vector e_j to +/- e_(j XOR x_bits) with the
    parity of popcount(j AND z_bits).  Trailing axes ride along, so a
    matrix is mapped column by column.
    """
    vec = np.asarray(vec)
    dim = 1 << p.n
    if vec.ndim == 0 or len(vec) != dim:
        raise ValueError("vector length must be %d" % dim)
    src = np.arange(dim) ^ p.x_bits
    phase = np.array([-p.sign if (j & p.z_bits).bit_count() % 2 else p.sign
                      for j in src.tolist()], dtype=np.int64)
    return phase.reshape((dim,) + (1,) * (vec.ndim - 1)) * vec[src]


@dataclass(frozen=True)
class CommutingSet:
    """A labelled, ordered list of pairwise-commuting operators."""

    label: str
    ops: tuple

    def __post_init__(self):
        for a, b in combinations(self.ops, 2):
            if not commutes(a, b):
                raise ValueError(
                    "operators %s and %s of set %s do not commute" % (a, b, self.label))

    def __iter__(self):
        return iter(self.ops)

    def __len__(self):
        return len(self.ops)


def set_product(cset: CommutingSet) -> PauliOp:
    """Product of the set's operators, in listed order, with exact sign."""
    ops = list(cset.ops)
    if not ops:
        raise ValueError("set %s is empty: need at least one operator"
                         % cset.label)
    acc = ops[0]
    for op in ops[1:]:
        acc = pauli_mul(acc, op)
    return acc


@dataclass(frozen=True)
class MagicReport:
    """Occurrence and sign-parity summary of a magic operator configuration."""

    operator_count: int
    occurrences: dict = field(compare=False)
    set_signs: tuple = ()
    sign_product: int = 1
    parity_contradiction: bool = False


def verify_magic(config) -> MagicReport:
    """Check a configuration of commuting sets with designated products.

    ``config`` is a list of (CommutingSet, target PauliOp) pairs.  Each
    set's operators together with its target count as occurrences of the
    underlying unsigned operators.  The report flags a parity contradiction
    exactly when every operator occurs an even number of times while the
    product of the per-set signs (set product = sign * target) is -1: any
    +/-1 assignment to the operators would then have to square to -1.
    """
    occurrences: dict[str, int] = {}
    set_signs = []
    for cset, target in config:
        prod = set_product(cset)
        if (prod.x_bits, prod.z_bits) != (target.x_bits, target.z_bits):
            raise ValueError(
                "set %s does not multiply to %s projectively" % (cset.label, target))
        set_signs.append(prod.sign * target.sign)
        for op in list(cset.ops) + [target]:
            occurrences[op.spec] = occurrences.get(op.spec, 0) + 1
    sign_product = 1
    for s in set_signs:
        sign_product *= s
    all_even = all(c % 2 == 0 for c in occurrences.values())
    return MagicReport(
        operator_count=len(occurrences),
        occurrences=occurrences,
        set_signs=tuple(set_signs),
        sign_product=sign_product,
        parity_contradiction=all_even and sign_product == -1,
    )
