"""Binary symplectic geometry of the five commuting sets.

Every non-identity n-qubit Pauli operator (up to sign) is a nonzero point
of GF(2)^{2n}, written x||z.  Commutation is the symplectic form, and the
symmetric operators are the zeros of the quadratic form Q(x||z) = x.z,
which for n = 5 cuts out a hyperbolic quadric in PG(9, 2).  Each
commuting set spans a maximal totally isotropic subspace (a generator of
the quadric); the mutual intersection pattern of the five generators is
what this module reports.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from . import catalog
from .pauli import PauliOp, make_pauli


def pauli_to_point(op: PauliOp) -> int:
    """The 2n-bit point x||z; the identity maps to no projective point."""
    if op.x_bits == 0 and op.z_bits == 0:
        raise ValueError("the identity is not a projective point")
    return (op.x_bits << op.n) | op.z_bits


def point_to_spec(point: int, n: int) -> str:
    """Inverse of pauli_to_point, as a letter string (sign discarded)."""
    x = point >> n
    z = point & ((1 << n) - 1)
    return str(PauliOp(n, x, z, 1))


def symplectic_form(u: int, v: int, n: int) -> int:
    xu, zu = u >> n, u & ((1 << n) - 1)
    xv, zv = v >> n, v & ((1 << n) - 1)
    return ((xu & zv).bit_count() + (zu & xv).bit_count()) % 2


def quadratic_form(u: int, n: int) -> int:
    return ((u >> n) & u).bit_count() % 2


@dataclass(frozen=True)
class GF2Subspace:
    """A linear subspace of GF(2)^{2n}, basis kept in reduced echelon form."""

    dim: int
    basis: tuple

    @classmethod
    def span_of(cls, vectors, dim: int) -> "GF2Subspace":
        rows = []
        for v in vectors:
            for r in rows:
                v = min(v, v ^ r)
            if v:
                rows.append(v)
                rows.sort(reverse=True)
        reduced = []
        for i, r in enumerate(rows):
            for s in rows[i + 1:]:
                r = min(r, r ^ s)
            reduced.append(r)
        return cls(dim=dim, basis=tuple(sorted(reduced, reverse=True)))

    @property
    def rank(self) -> int:
        return len(self.basis)

    @property
    def projective_dimension(self) -> int:
        return self.rank - 1

    def points(self) -> tuple:
        """All nonzero vectors, sorted ascending."""
        pts = {0}
        for b in self.basis:
            pts |= {p ^ b for p in pts}
        pts.discard(0)
        return tuple(sorted(pts))

    def __contains__(self, v: int) -> bool:
        for r in self.basis:
            v = min(v, v ^ r)
        return v == 0


def span(ops) -> GF2Subspace:
    """Span of the points of the given operators."""
    ops = list(ops)
    if not ops:
        raise ValueError("span of no operators: need at least one operator")
    n = ops[0].n
    return GF2Subspace.span_of([pauli_to_point(op) for op in ops], 2 * n)


def intersect(a: GF2Subspace, b: GF2Subspace) -> GF2Subspace:
    if a.dim != b.dim:
        raise ValueError("ambient dimensions differ")
    common = [p for p in a.points() if p in b]
    result = GF2Subspace.span_of(common, a.dim)
    if len(result.points()) != len(common):
        raise AssertionError("intersection points do not form a subspace")
    return result


def five_spans() -> dict:
    """The five generator subspaces keyed by set label."""
    return {label: span([make_pauli(s) for s in specs])
            for label, specs in catalog.FIVE_SETS.items()}


def intersection_dimension_table(spaces: dict) -> dict:
    """Projective intersection dimension for every unordered label pair."""
    labels = list(spaces)
    table = {}
    for a, b in combinations(labels, 2):
        table[(a, b)] = intersect(spaces[a], spaces[b]).projective_dimension
    return table


def classify_generator_systems(spaces: dict) -> tuple:
    """Split the generators into the two systems of the hyperbolic quadric.

    Two generators lie in the same system exactly when their intersection
    has even projective dimension.  The relation is checked for
    consistency (transitivity) before the two classes are returned.
    """
    labels = list(spaces)
    dims = intersection_dimension_table(spaces)

    def same(a, b):
        if a == b:
            return True
        d = dims.get((a, b), dims.get((b, a)))
        return d % 2 == 0

    for a, b, c in combinations(labels, 3):
        votes = (same(a, b), same(a, c), same(b, c))
        if sum(votes) == 2:
            raise ValueError("same-system relation is not transitive")
    first = frozenset(l for l in labels if same(labels[0], l))
    second = frozenset(labels) - first
    return first, second


@dataclass(frozen=True)
class GeometryReport:
    """Everything the geometry checks establish, in one bundle."""

    point_counts: dict
    all_isotropic: bool
    quadric_memberships: bool
    union_point_count: int
    intersection_dims: dict
    systems: tuple
    distinguished: dict


def distinguished_observables() -> dict:
    """Operators whose occurrence count across the five sets is not two.

    Generically every listed operator appears in exactly two of the five
    sets; the exceptions (with their raw occurrence counts) all lie inside
    the maximal intersection of the two most-overlapping generators.
    """
    seen = {}
    for specs in catalog.FIVE_SETS.values():
        for s in specs:
            seen[s] = seen.get(s, 0) + 1
    return {s: c for s, c in sorted(seen.items()) if c != 2}


def geometry_report() -> GeometryReport:
    """Recompute the full geometric picture and verify it end to end."""
    spaces = five_spans()
    n = 5
    point_counts = {}
    all_isotropic = True
    on_quadric = True
    union = set()
    for label, space in spaces.items():
        pts = space.points()
        point_counts[label] = len(pts)
        union.update(pts)
        expected = {pauli_to_point(make_pauli(s))
                    for s in catalog.SPAN_TABLE[label]}
        if set(pts) != expected:
            raise AssertionError("span of set %s deviates from the reference"
                                 % label)
        for u, v in combinations(pts, 2):
            if symplectic_form(u, v, n):
                all_isotropic = False
        if any(quadratic_form(p, n) for p in pts):
            on_quadric = False
    dims = intersection_dimension_table(spaces)
    if dims != catalog.INTERSECTION_DIMS:
        raise AssertionError("intersection dimensions deviate: %r" % (dims,))
    systems = classify_generator_systems(spaces)
    distinguished = distinguished_observables()
    if distinguished != dict(catalog.DISTINGUISHED):
        raise AssertionError("distinguished observables deviate: %r"
                             % (distinguished,))
    fano = intersect(spaces["A'"], spaces["C"])
    for s in distinguished:
        if pauli_to_point(make_pauli(s)) not in fano:
            raise AssertionError("%s is outside the maximal intersection" % s)
    return GeometryReport(point_counts=point_counts,
                          all_isotropic=all_isotropic,
                          quadric_memberships=on_quadric,
                          union_point_count=len(union),
                          intersection_dims=dims, systems=systems,
                          distinguished=distinguished)
