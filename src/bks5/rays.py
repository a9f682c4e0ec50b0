"""Joint eigenrays of the five commuting sets and the 160-ray table.

Every ray is an integer vector of length 32 with entries in {-1, 0, +1},
kept sign-canonical (first nonzero entry +1).  The table builder recomputes
each block of 32 rays from its commuting set with exact integer projectors
and verifies the result against the embedded reference strings, so the
published ids stay stable.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass
from functools import cached_property
from itertools import product

import numpy as np

from . import catalog
from .geometry import GF2Subspace
from .pauli import (CommutingSet, PauliOp, apply_pauli, is_symmetric,
                    make_pauli, pauli_to_matrix)


class RayTableError(Exception):
    """Raised when a rebuilt block disagrees with the embedded table."""


def _canonical_rows(rows: np.ndarray) -> np.ndarray:
    """Each nonzero integer row scaled to content 1, first nonzero entry +1."""
    return _signed_rows(rows // np.gcd.reduce(rows, axis=1)[:, None])


def _signed_rows(rows: np.ndarray) -> np.ndarray:
    """Each nonzero row times the sign of its first nonzero entry."""
    lead = rows[np.arange(len(rows)), (rows != 0).argmax(axis=1)]
    return rows * np.sign(lead)[:, None]


def canonical_entries(entries) -> tuple:
    """Scale to content 1 and make the first nonzero entry +1."""
    row = np.fromiter(map(int, entries), dtype=np.int64)[None]
    if not row.any():
        raise ValueError("zero vector has no ray")
    return tuple(_canonical_rows(row)[0].tolist())


# The entry each character of a ray string stands for; these three values
# are the only entries a ray may have.
_ENTRY_OF = {"+": 1, "-": -1, "0": 0}
_ENTRIES = frozenset(_ENTRY_OF.values())


@dataclass(frozen=True)
class Ray:
    """A sign-canonical integer ray, optionally carrying its table id."""

    entries: tuple
    id: int | None = None

    def __post_init__(self):
        if not _ENTRIES.issuperset(self.entries):
            raise ValueError("entries must lie in {-1, 0, +1}")
        lead = next(filter(None, self.entries), 0)
        if not lead:
            raise ValueError("zero vector has no ray")
        if lead != 1:
            raise ValueError("ray is not sign-canonical")

    @property
    def support(self) -> int:
        return sum(1 for e in self.entries if e)

    def to_string(self) -> str:
        return "".join("+" if e == 1 else "-" if e == -1 else "0"
                       for e in self.entries)

    @classmethod
    def from_string(cls, s: str, id: int | None = None) -> "Ray":
        """Parse ``to_string`` output; any other character is named."""
        try:
            entries = tuple(map(_ENTRY_OF.__getitem__, s))
        except KeyError:
            pos, ch = next((pos, ch) for pos, ch in enumerate(s)
                           if ch not in _ENTRY_OF)
            raise ValueError("invalid entry %r at position %d (want +, - or 0)"
                             % (ch, pos)) from None
        return cls(entries, id)


def partner(r: Ray) -> Ray:
    """The ray with reversed entries and flipped signs, re-canonicalized.

    This is an involution on rays: reversing and negating twice restores
    the original canonical form.
    """
    flipped = [-e for e in reversed(r.entries)]
    return Ray(canonical_entries(flipped))


def joint_eigenrays(cset: CommutingSet) -> list[Ray]:
    """The 2^n common eigenrays of n independent commuting symmetric operators.

    For each sign pattern s the integer matrix prod_i (I + s_i O_i) equals
    2^n times the projector onto the joint eigenspace, so its trace must be
    exactly 2^n (rank one).  All 2^n products are built at once as one
    (2^n, dim, dim) stack, patterns in ``product((1, -1), repeat=n)`` order:
    each operator doubles the stack into P + O P and P - O P, with O P taken
    by ``apply_pauli`` as a signed permutation of the rows.  The first
    nonzero column of each product is its ray.  The rays are then checked
    as eigenvectors against the Kronecker matrix ``pauli_to_matrix``, one
    batched product per operator, so that the bit action is checked by an
    independent realisation.
    """
    ops = list(cset.ops)
    if not ops:
        raise ValueError("set %s is empty: need at least one operator"
                         % cset.label)
    n = ops[0].n
    dim = 1 << n
    if len(ops) != n:
        raise ValueError("need exactly %d operators, got %d" % (n, len(ops)))
    for op in ops:
        if not is_symmetric(op):
            raise ValueError("operator %s is not symmetric" % op)
    points = [(op.x_bits << n) | op.z_bits for op in ops]
    if GF2Subspace.span_of(points, 2 * n).rank != n:
        raise ValueError("operators of set %s are not independent" % cset.label)
    # Rows first while ``apply_pauli`` permutes them, then pattern, column.
    stack = np.eye(dim, dtype=np.int64)[:, None]
    for op in ops:
        image = apply_pauli(op, stack)
        stack = np.stack((stack + image, stack - image), axis=2).reshape(
            dim, -1, dim)
    stack = stack.transpose(1, 0, 2)
    patterns = list(product((1, -1), repeat=n))
    traces = np.trace(stack, axis1=1, axis2=2)
    for signs, trace in zip(patterns, traces):
        if int(trace) != dim:
            raise ValueError(
                "sign pattern %s of set %s gives a projector of rank != 1"
                % (signs, cset.label))
    # The first nonzero column of each product, made canonical.
    vecs = _canonical_rows(stack[np.arange(len(stack)), :,
                                 stack.any(axis=1).argmax(axis=1)])
    out = [Ray(tuple(v)) for v in vecs.tolist()]
    signs = np.array(patterns, dtype=np.int64)
    for i, op in enumerate(ops):
        images = vecs @ pauli_to_matrix(op).T
        if not np.array_equal(images, signs[:, i:i + 1] * vecs):
            raise AssertionError(
                "extracted ray is not an eigenvector of %s" % op)
    return out


@dataclass(frozen=True)
class RayTable:
    """The 160 rays in id order plus the block layout.

    The entries are held once, as the read-only matrix ``entries``; the
    Gram matrix, the Pauli ray permutations and the partner ids are
    derived from it on first read and kept.
    """

    rays: tuple
    block_map: dict

    def __getitem__(self, ray_id: int) -> Ray:
        """Ray by 1-based id; an id outside 1..len(self) is named."""
        return self.rays[self._checked(ray_id) - 1]

    def _checked(self, ray_id: int) -> int:
        if not 1 <= ray_id <= len(self.rays):
            raise IndexError("ray id %d is outside 1..%d"
                             % (ray_id, len(self.rays)))
        return ray_id

    def __len__(self):
        return len(self.rays)

    @cached_property
    def entries(self) -> np.ndarray:
        """The rays' entries, one int64 row per ray in id order, read-only."""
        entries = np.array([r.entries for r in self.rays], dtype=np.int64)
        entries.flags.writeable = False
        return entries

    @cached_property
    def gram(self) -> np.ndarray:
        """Exact integer inner products of the rays in id order, read-only."""
        gram = self.entries @ self.entries.T
        gram.flags.writeable = False
        return gram

    @cached_property
    def pauli_permutations(self) -> tuple:
        """``pauli_ray_permutations`` of the rays, built once per table;
        each reader checks the invariant it relies on."""
        return pauli_ray_permutations(self.entries)

    def partner_id(self, ray_id: int) -> int:
        return self._partner_ids[self._checked(ray_id)]

    @cached_property
    def _partner_ids(self) -> dict:
        """Every partner id, read from one flipped entries matrix.

        Each row reversed and negated is made canonical as ``partner``
        does.  A ray whose partner is not in the table has no entry.
        """
        flipped = _canonical_rows(-self.entries[:, ::-1])
        index = {r.entries: r.id for r in self.rays}
        return {r.id: index[entries]
                for r, entries in zip(self.rays, map(tuple, flipped.tolist()))
                if entries in index}

    def block_of(self, ray_id: int) -> str:
        self._checked(ray_id)
        for label, (lo, hi) in self.block_map.items():
            if lo <= ray_id <= hi:
                return label
        raise RayTableError("ray %d lies in no block" % ray_id)

    def to_csv(self, path):
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["id"] + ["e%d" % i for i in range(1, 33)])
            for r in self.rays:
                w.writerow([r.id] + list(r.entries))


def row_permutation(rows: np.ndarray, images: np.ndarray):
    """``perm`` with ``images[i] == rows[perm[i]]`` for every i, or None.

    None unless ``images`` is ``rows`` reordered and the rows are
    distinct.  Both are sorted by their bytes, so the rows are matched
    with one sort each instead of a lookup per row.
    """
    order, image_order = _byte_order(rows), _byte_order(images)
    ranked = rows[order]
    if (np.any(np.all(ranked[1:] == ranked[:-1], axis=1))
            or not np.array_equal(images[image_order], ranked)):
        return None
    perm = np.empty(len(rows), dtype=np.intp)
    perm[image_order] = order
    return perm


def orbit_labels(perms, n: int) -> np.ndarray:
    """Each of the points 0..n-1 labelled by the least point of its orbit
    under the group that the permutations ``perms`` generate."""
    labels = np.arange(n)
    while True:
        merged = labels
        for perm in perms:
            merged = np.minimum(merged, merged[perm])
        if np.array_equal(merged, labels):
            return labels
        labels = merged


def _byte_order(rows: np.ndarray) -> np.ndarray:
    """An order that sorts the rows of a 2-d array by their raw bytes."""
    rows = np.ascontiguousarray(rows)
    key = np.dtype((np.void, rows.dtype.itemsize * rows.shape[1]))
    return np.argsort(rows.view(key).ravel())


def pauli_ray_permutations(entries: np.ndarray) -> tuple:
    """The ray permutations that X_q and Z_q induce, as read-only arrays.

    ``entries`` holds one ray per row; the row length 2^n gives the qubit
    count n.  Each single-qubit X_q and Z_q is a signed coordinate
    permutation (``apply_pauli``), so it sends every row to +/- another
    integer vector, which sign canonicalisation makes comparable with the
    rows.  Returns ``perm`` with ``perm[i]`` the row index of the image of
    row i, in the order X_1, Z_1, ..., X_n, Z_n, up to the first generator
    that moves some row off the table: neither it nor any later one is
    returned.  A row length that is not a power of two returns none.
    """
    dim = entries.shape[1]
    n = dim.bit_length() - 1
    if dim != 1 << n:
        return ()
    perms = []
    for q in range(n - 1, -1, -1):
        for op in (PauliOp(n, 1 << q, 0), PauliOp(n, 0, 1 << q)):
            perm = row_permutation(
                entries, _signed_rows(apply_pauli(op, entries.T).T))
            if perm is None:
                return tuple(perms)
            perm.flags.writeable = False
            perms.append(perm)
    return tuple(perms)


def five_sets() -> dict:
    """The five commuting sets, as CommutingSet values keyed by label."""
    return {
        label: CommutingSet(label, tuple(make_pauli(s) for s in specs))
        for label, specs in catalog.FIVE_SETS.items()
    }


def magic_configuration() -> list:
    """The five commuting sets with their designated products.

    Feeding this to ``verify_magic`` exhibits the parity contradiction:
    14 distinct operators, each occurring exactly twice, with set-sign
    product -1.
    """
    return [
        (CommutingSet(label, tuple(make_pauli(s) for s in specs)),
         make_pauli(target))
        for label, specs, target in catalog.MAGIC_SETS
    ]


def build_ray_table() -> RayTable:
    """Recompute all five blocks and arrange them in reference id order.

    Each block's 32 eigenrays are matched as a set against the embedded
    strings for that id range; any divergence raises RayTableError naming
    the first offending id.  The partner of every ray is then checked to
    sit in the same block.
    """
    sets = five_sets()
    reference = [Ray.from_string(s, i + 1) for i, s in enumerate(catalog.RAYS)]
    table = {}
    for label, (lo, hi) in catalog.BLOCK_RANGES.items():
        computed = {r.entries for r in joint_eigenrays(sets[label])}
        for ray_id in range(lo, hi + 1):
            ref = reference[ray_id - 1]
            if ref.entries not in computed:
                raise RayTableError(
                    "ray %d is not an eigenray of set %s" % (ray_id, label))
            table[ray_id] = ref
        if len(computed) != hi - lo + 1:
            raise RayTableError("set %s produced duplicate rays" % label)
    rays = tuple(table[i] for i in range(1, 161))
    result = RayTable(rays=rays, block_map=dict(catalog.BLOCK_RANGES))
    _validate_table(result)
    return result


def _validate_table(table: RayTable):
    if len({r.entries for r in table.rays}) != len(table.rays):
        raise RayTableError("table contains projectively equal rays")
    for label, (lo, hi) in table.block_map.items():
        if not 1 <= lo <= hi <= len(table):
            raise RayTableError("block %s has range (%d, %d), not within "
                                "1..%d" % (label, lo, hi, len(table)))
    for label, (lo, hi) in table.block_map.items():
        # Row-major order over the strict upper triangle is the
        # ``combinations`` order, so the first hit is the first bad pair.
        bad = np.argwhere(np.triu(table.gram[lo - 1:hi, lo - 1:hi], 1))
        if len(bad):
            i, j = bad[0] + lo
            raise RayTableError(
                "rays %d and %d of block %s are not orthogonal"
                % (i, j, label))
    for r in table.rays:
        pid = table._partner_ids.get(r.id)
        if pid is None:
            raise RayTableError("partner of ray %d is not in the table" % r.id)
        # block_of raises for a ray in no block; the ray is named first.
        if table.block_of(r.id) != table.block_of(pid):
            raise RayTableError(
                "partner of ray %d falls outside its block" % r.id)


def identify_block(r: Ray) -> str:
    """The unique commuting set for which ``r`` is a joint eigenvector."""
    vec = np.array(r.entries, dtype=np.int64)
    hits = []
    for label, cset in five_sets().items():
        if all(_is_eigenvector(op, vec) for op in cset.ops):
            hits.append(label)
    if len(hits) != 1:
        raise ValueError(
            "ray is a joint eigenvector of %d sets, expected exactly 1"
            % len(hits))
    return hits[0]


def _is_eigenvector(op: PauliOp, vec) -> bool:
    image = apply_pauli(op, vec)
    return np.array_equal(image, vec) or np.array_equal(image, -vec)
