"""Exact Hilbert-Schmidt distances between complete bases.

For complete orthogonal bases A and B of a d-dimensional space the
squared distance is

    D^2(A, B) = 1 - (1/(d-1)) * sum_ab (p_ab - 1/d)^2,

where p_ab is the squared normalized overlap between ray a of A and ray b
of B.  Everything is computed over the rationals; the only floating-point
step is the final decimal rendering of D for human-readable output, done
with explicit precision and rounding.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from decimal import ROUND_HALF_EVEN, Decimal, localcontext
from fractions import Fraction
from math import lcm

import numpy as np

from .rays import RayTable, orbit_labels, row_permutation


def hs_distance_squared(table: RayTable, basis_a, basis_b) -> Fraction:
    """Definitional per-pair computation, exact in Fraction arithmetic."""
    gram = table.gram
    d = table.entries.shape[1]
    rows_a, rows_b = _check_bases(gram, (basis_a, basis_b), d).tolist()
    total = Fraction(0)
    for a in rows_a:
        for b in rows_b:
            p = Fraction(int(gram[a, b]) ** 2,
                         int(gram[a, a]) * int(gram[b, b]))
            total += (p - Fraction(1, d)) ** 2
    return 1 - Fraction(1, d - 1) * total


def _check_bases(gram, bases, d) -> np.ndarray:
    """The Gram rows of each basis as an (n, d) array.

    Every basis must name d orthogonal rays by id.  Lengths and ids are
    checked basis by basis up to the first that fails; orthogonality is
    checked at once for the bases before it, so the first error in list
    order is raised.
    """
    cells = []
    error = None
    for basis in bases:
        rows = [rid - 1 for rid in basis]
        if len(rows) != d:
            error = ValueError("a complete basis needs %d rays, got %d"
                               % (d, len(rows)))
            break
        if rows and not (0 <= min(rows) and max(rows) < len(gram)):
            rid = next(r for r in rows if not 0 <= r < len(gram)) + 1
            error = ValueError("ray id %d is outside 1..%d"
                               % (rid, len(gram)))
            break
        cells.append(rows)
    cells = np.array(cells, dtype=np.intp).reshape(-1, d)
    blocks = (gram != 0)[cells[:, :, None], cells[:, None, :]]
    if np.count_nonzero(blocks) > np.count_nonzero(
            np.diagonal(blocks, axis1=1, axis2=2)):
        raise ValueError("basis rays are not pairwise orthogonal")
    if error is not None:
        raise error
    return cells


@dataclass(frozen=True)
class DistanceSpectrum:
    """Multiset of squared distances over all unordered basis pairs.

    ``pairs`` maps each D^2 value to its multiplicity among the
    C(n, 2) distinct pairs.  Reported histograms additionally carry the
    zero self-distance of each basis, so ``distinct_value_count`` counts
    the distinct values over all ordered pairs including (A, A).
    """

    basis_count: int
    pairs: dict

    def __post_init__(self):
        n = self.basis_count
        if sum(self.pairs.values()) != n * (n - 1) // 2:
            raise ValueError("pair multiplicities do not sum to C(n, 2)")

    @property
    def distinct_value_count(self) -> int:
        if self.basis_count == 0:
            return 0
        return len(set(self.pairs) | {Fraction(0)})

    def histogram_rows(self) -> list:
        """(D^2, count) rows in ascending distance order, self-pairs included."""
        counts = dict(self.pairs)
        if self.basis_count:
            zero = Fraction(0)
            counts[zero] = counts.get(zero, 0) + self.basis_count
        return sorted(counts.items())

    def top_values(self, k: int) -> list:
        """The k most frequent off-diagonal values as (D^2, count)."""
        ranked = sorted(self.pairs.items(), key=lambda kv: (-kv[1], kv[0]))
        return ranked[:k]


def distance_spectrum(table: RayTable, bases) -> DistanceSpectrum:
    """Spectrum over all unordered pairs from ``bases``, exactly.

    The fast path scales every squared overlap by K = lcm(norms)^4 so all
    intermediate sums are integers, and sums the overlap totals of every
    basis against one representative per basis orbit.  Totals are
    grouped as integers and one Fraction is built per distinct total.

    The orbits are those of the single-qubit Paulis X_q and Z_q.  Each
    permutes the coordinates with signs, and a signed permutation is
    orthogonal, so it fixes every squared overlap p_ab and hence every
    D^2.  ``RayTable.pauli_permutations``, built once per table, maps the
    table onto itself.  The orbit path applies only when every generator
    also maps ``bases`` onto itself one to one.  Then the bases of an
    orbit meet the same multiset of D^2 values in the list, so one
    representative's row, its counts weighted by the orbit size, stands
    for all of them.  Whenever some orbit holds more than one basis, each
    generator is first checked to fix the scaled p_ab^2 * K that the
    totals sum, and an AssertionError names the first that does not.
    A repeated basis or a single image outside the list (as for the
    21-basis proof) makes every basis its own representative, which is
    the full pair product.  Either way each unordered pair is counted
    once from each end, so every weighted count is even and is halved.

    The int64 arithmetic cannot overflow once d*K fits in an int64.  Every
    scaled entry is p_ab^2 * K <= K, since p_ab <= 1 and its denominator
    (n_a n_b)^2 divides K; its factors gram_ab^4 and K / (n_a n_b)^2 are
    at most K as well.  Every basis is validated as complete, so
    sum_a p_ab = 1 for each ray b, and a partial sum over a of p_ab^2 * K
    is at most K; summing that over the d rays b of the other basis
    gives at most d*K.  All entries are non-negative, so no partial sum
    exceeds its final total.  A table whose d*K does not fit raises
    OverflowError instead of wrapping.
    """
    gram = table.gram
    d = table.entries.shape[1]
    cells = _check_bases(gram, bases, d)
    n = len(cells)
    orbit = _orbit_labels(table.pauli_permutations, cells, len(gram))
    reps = np.flatnonzero(orbit == np.arange(n))
    sizes = np.bincount(orbit)[reps]
    norms = np.diag(gram).astype(np.int64)
    scale = lcm(*(int(x) for x in norms)) ** 4
    limit = int(np.iinfo(np.int64).max)
    if d * scale > limit:
        raise OverflowError("pair totals are bounded by d*lcm(norms)^4 = %d, "
                            "which exceeds the int64 maximum %d"
                            % (d * scale, limit))
    denom = np.outer(norms, norms).astype(np.int64) ** 2
    if np.any(scale % denom):
        raise AssertionError("norm scaling is not integral")
    scaled = (gram.astype(np.int64) ** 4) * (scale // denom)
    if len(reps) < n:
        for k, perm in enumerate(table.pauli_permutations):
            if not np.array_equal(scaled[np.ix_(perm, perm)], scaled):
                raise AssertionError("generator %d does not fix the squared "
                                     "overlaps" % k)
    # A basis picks d rays, so each product with the 0/1 basis incidence
    # is a sum of d gathered rows: every ray against each representative,
    # then every basis against each representative.
    ray_totals = np.zeros((len(gram), len(reps)), dtype=np.int64)
    for column in cells[reps].T:
        ray_totals += scaled[:, column]
    # Freed before the gather below, which sets the call's memory peak.
    del denom, scaled
    totals = np.zeros((n, len(reps)), dtype=np.int64)
    for column in cells.T:
        totals += ray_totals[column]
    wrong = np.flatnonzero(totals[reps, np.arange(len(reps))] != d * scale)
    if wrong.size:
        raise AssertionError("self-distance of basis %d is not zero"
                             % reps[wrong[0]])
    by_total = Counter()
    for size in sorted(set(sizes.tolist())):
        values, counts = np.unique(totals[:, sizes == size],
                                   return_counts=True)
        by_total.update(dict(zip(values.tolist(), (size * counts).tolist())))
    # Each basis met itself once, with the total d*K checked above.
    by_total[d * scale] -= n
    if any(c % 2 for c in by_total.values()):
        raise AssertionError("a weighted pair count is odd")
    pairs = {Fraction(d * scale - t, (d - 1) * scale): c // 2
             for t, c in by_total.items() if c}
    return DistanceSpectrum(basis_count=n, pairs=pairs)


def _orbit_labels(perms, cells, n_rays: int) -> np.ndarray:
    """Each basis's orbit label under ``perms``: its orbit's first index.

    ``cells`` holds each basis's row indices among the ``n_rays`` rays,
    and ``perms`` are ray permutations that map the table onto itself.
    The orbits are used only when every one maps the bases onto
    themselves one to one; checking stops at the first that does not,
    and then, as for a list with a repeated basis, each basis is
    labelled by itself.
    """
    member = np.zeros((len(cells), n_rays), dtype=bool)
    np.put_along_axis(member, cells, True, axis=1)
    moves = []
    for perm in perms:
        inverse = np.empty_like(perm)
        inverse[perm] = np.arange(len(perm))
        move = row_permutation(member, member[:, inverse])
        if move is None:
            return np.arange(len(cells))
        moves.append(move)
    return orbit_labels(moves, len(cells))


def format_distance(value: Fraction) -> str:
    """D = sqrt(D^2) rendered to 10 decimal places, banker's rounding."""
    with localcontext() as ctx:
        ctx.prec = 40
        d = (Decimal(value.numerator) / Decimal(value.denominator)).sqrt()
        return format(d.quantize(Decimal("1.0000000000"),
                                 rounding=ROUND_HALF_EVEN), "f")


def histogram_format(name: str) -> str:
    """``name`` if ``emit_histogram`` can write it; a ValueError otherwise."""
    if name not in ("csv", "svg"):
        raise ValueError("unknown histogram format %r" % name)
    return name


def emit_histogram(spectrum: DistanceSpectrum, path, fmt: str = "csv"):
    """Write the histogram to ``path`` as deterministic CSV or SVG."""
    rows = spectrum.histogram_rows()
    if histogram_format(fmt) == "csv":
        lines = ["D,D2_num,D2_den,count"]
        for value, count in rows:
            lines.append("%s,%d,%d,%d" % (format_distance(value),
                                          value.numerator,
                                          value.denominator, count))
        text = "\n".join(lines) + "\n"
    else:
        text = _histogram_svg(rows)
    with open(path, "w") as fh:
        fh.write(text)


def _histogram_svg(rows) -> str:
    width, height = 640, 400
    left, right, top, bottom = 60, 20, 20, 40
    plot_w = width - left - right
    plot_h = height - top - bottom
    max_count = max((c for _, c in rows), default=1)
    parts = [
        '<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 %d %d">'
        % (width, height),
        '<rect width="%d" height="%d" fill="white"/>' % (width, height),
        '<line x1="%d" y1="%d" x2="%d" y2="%d" stroke="black"/>'
        % (left, height - bottom, width - right, height - bottom),
        '<line x1="%d" y1="%d" x2="%d" y2="%d" stroke="black"/>'
        % (left, top, left, height - bottom),
    ]
    for value, count in rows:
        x = left + float(Decimal(format_distance(value))) * plot_w
        bar_h = plot_h * count / max_count
        parts.append(
            '<rect x="%.2f" y="%.2f" width="2" height="%.2f" fill="steelblue"/>'
            % (x - 1, height - bottom - bar_h, bar_h))
    parts.append(
        '<text x="%d" y="%d" font-size="12">0</text>'
        % (left - 4, height - bottom + 16))
    parts.append(
        '<text x="%d" y="%d" font-size="12">1</text>'
        % (left + plot_w - 4, height - bottom + 16))
    parts.append(
        '<text x="%d" y="%d" font-size="12">%d</text>'
        % (8, top + 12, max_count))
    parts.append('<text x="%d" y="%d" font-size="12">D</text>'
                 % (left + plot_w // 2, height - 8))
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
