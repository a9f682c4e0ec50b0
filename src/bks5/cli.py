"""Command-line interface.

Every subcommand writes deterministic artifacts (no timestamps, sorted
keys) into the output directory and prints a one-line summary.  ``verify``
runs every entry of ``CHECKS`` against the embedded reference data and
prints one PASS/FAIL line per check.  A FAIL has an indented reason line
below it: the observed and expected values, or the exception the check
raised; the rest of the checks still run.
"""
from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from collections import Counter
from dataclasses import asdict
from fractions import Fraction
from pathlib import Path

from . import catalog, dpll
from .bases import (bases_sha256, build_ortho_graph, enumerate_maximal_bases,
                    write_bases_text)
from .coloring import KSInstance, check_colorable, export_cnf
from .geometry import GeometryReport, geometry_report
from .metrics import distance_spectrum, emit_histogram, histogram_format
from .pauli import verify_magic
from .rays import build_ray_table, magic_configuration
from .search import find_partitions, search_small_proof
from .symmetry import automorphism_group, build_overlap_graph


def _out_dir(args) -> Path:
    path = Path(args.out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _write_json(path: Path, obj):
    """Two-space indent, sorted keys, final newline; sets as sorted lists."""
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True, default=sorted)
        fh.write("\n")


def _select_bases(selection: str, derived) -> list:
    if selection == "proof":
        return catalog.proof_bases()
    if selection == "blocks":
        return catalog.block_bases()
    if selection == "all":
        return derived.bases
    raise ValueError("unknown basis selection %r" % selection)


class _Derived:
    """The ray table, graph, 661 bases and their five-basis partitions,
    each built on first use; in ``verify``, one that raises fails only
    the checks that read it."""

    table = functools.cached_property(lambda self: build_ray_table())
    graph = functools.cached_property(
        lambda self: build_ortho_graph(self.table))
    bases = functools.cached_property(
        lambda self: enumerate_maximal_bases(self.graph))
    partitions = functools.cached_property(
        lambda self: find_partitions(self.bases))


def _census(graph, bases) -> tuple:
    """Orthogonal pairs, basis count, full digest, and the proof and block
    bases not in ``bases``."""
    present = {tuple(sorted(b)) for b in bases}
    return (graph.edge_count(), len(bases), bases_sha256(bases),
            [b for b in catalog.proof_bases() + catalog.block_bases()
             if tuple(sorted(b)) not in present])


def _certify(graph, bases):
    """Solver verdict, DIMACS text and DPLL verdict for ``bases``."""
    inst = KSInstance.build(graph, bases)
    result = check_colorable(inst)
    cnf = export_cnf(inst)
    return result, cnf, dpll.solve(*dpll.parse_dimacs(cnf))


def cmd_rays(args) -> int:
    table = build_ray_table()
    out = _out_dir(args)
    table.to_csv(out / "rays.csv")
    _write_json(out / "rays.json", {
        "block_map": table.block_map,
        "rays": {i: r.to_string() for i, r in enumerate(table.rays, 1)},
    })
    print("rays: %d verified against the embedded table" % len(table))
    if args.config == "magic":
        report = verify_magic(magic_configuration())
        _write_json(out / "magic.json", asdict(report))
        print("magic: %d operators, sign product %+d, contradiction=%s"
              % (report.operator_count, report.sign_product,
                 report.parity_contradiction))
        if not report.parity_contradiction:
            return 1
    return 0


def cmd_bases(args) -> int:
    d = _Derived()
    out = _out_dir(args)
    write_bases_text(d.bases, out / "bases.txt")
    _write_json(out / "bases.json", {"count": len(d.bases), "bases": d.bases})
    census, expected = _maximal_bases(d)
    ok = census == expected
    print("bases: %d enumerated, census %s (sha256 %s...)"
          % (census[1], "verified" if ok else "MISMATCH", census[2][:12]))
    return 0 if ok else 1


def cmd_color(args) -> int:
    d = _Derived()
    result, cnf, cross = _certify(d.graph, _select_bases(args.bases, d))
    agree = (result.status == "colorable") == cross.satisfiable
    out = _out_dir(args)
    (out / ("instance-%s.cnf" % args.bases)).write_text(cnf)
    _write_json(out / ("certificate-%s.json" % args.bases), {
        "selection": args.bases,
        **asdict(result),
        "dimacs_cross_check": {
            "satisfiable": cross.satisfiable,
            "nodes": cross.nodes,
        },
        "solvers_agree": agree,
    })
    print("color[%s]: %s (%d nodes); DIMACS cross-check %s"
          % (args.bases, result.status, result.nodes,
             "agrees" if agree else "DISAGREES"))
    return 0 if agree else 1


def cmd_search(args) -> int:
    d = _Derived()
    candidate = search_small_proof(d.graph, d.bases, seed=args.seed,
                                   max_size=args.max_size,
                                   budget=args.budget)
    out = _out_dir(args)
    fields = asdict(candidate)
    del fields["coloring"]
    _write_json(out / "search.json", fields)
    print("search[seed=%d]: %s, size %d, restart %s"
          % (args.seed, candidate.status, candidate.size, candidate.restart))
    return 0


def cmd_distances(args) -> int:
    formats = [histogram_format(f) for f in args.format.split(",")]
    d = _Derived()
    spectrum = distance_spectrum(d.table, _select_bases(args.bases, d))
    out = _out_dir(args)
    for fmt in formats:
        emit_histogram(spectrum,
                       out / ("histogram-%s.%s" % (args.bases, fmt)), fmt)
    top = spectrum.top_values(2)
    print("distances[%s]: %d bases, %d distinct values; top D^2: %s"
          % (args.bases, spectrum.basis_count,
             spectrum.distinct_value_count,
             ", ".join("%s (x%d)" % (v, c) for v, c in top)))
    return 0


def cmd_geometry(args) -> int:
    report = geometry_report()
    out = _out_dir(args)
    _write_json(out / "geometry.json", {
        **asdict(report),
        "intersection_dims": {"%s|%s" % k: v
                              for k, v in report.intersection_dims.items()},
    })
    print("geometry: spans verified, union %d points, systems %s / %s"
          % (report.union_point_count,
             "+".join(sorted(report.systems[0])),
             "+".join(sorted(report.systems[1]))))
    return 0


def cmd_symmetry(args) -> int:
    graph = build_overlap_graph(catalog.PROOF_BASES)
    report = automorphism_group(graph)
    out = _out_dir(args)
    _write_json(out / "symmetry.json", asdict(report))
    print("symmetry: order %d, largest normal 2-elementary %d, quotient %d%s"
          % (report.order, report.normal_ea_order, report.quotient_order,
             " (non-abelian)" if report.quotient_nonabelian else ""))
    return 0


# Each check maps the shared derivations to (observed, expected); the
# expected side is read from the catalog when the check runs.

def _ray_table(d):
    partners = {r: d.table.partner_id(r) for r in catalog.PARTNER_EXCEPTIONS}
    return ((dict(Counter(r.support for r in d.table.rays)), partners),
            ({1: 32, 8: 96, 16: 32}, catalog.PARTNER_EXCEPTIONS))


def _magic_parity(d):
    m = verify_magic(magic_configuration())
    return ((m.operator_count, set(m.occurrences.values()), m.sign_product,
             m.parity_contradiction), (14, {2}, -1, True))


def _maximal_bases(d):
    return (_census(d.graph, d.bases),
            (catalog.ORTHO_PAIR_COUNT, catalog.BASIS_COUNT,
             catalog.BASES_SHA256, []))


def _non_colorable(graph, bases):
    result, _, cross = _certify(graph, bases)
    return (result.status, cross.satisfiable), ("non_colorable", False)


def _distance_spectra(d):
    spec21 = distance_spectrum(d.table, catalog.proof_bases())
    spec_all = distance_spectrum(d.table, d.bases)
    return ((spec21.distinct_value_count, spec_all.distinct_value_count,
             sorted(v for v, _ in spec21.top_values(2))),
            (catalog.DISTINCT_DISTANCES_PROOF, catalog.DISTINCT_DISTANCES_ALL,
             sorted(Fraction(*p) for p in catalog.PEAKS)))


def _geometry(d):
    return (geometry_report(), GeometryReport(
        # Each span is a projective 4-space: 2^5 - 1 points.
        point_counts=dict.fromkeys(catalog.FIVE_SETS, 31),
        all_isotropic=True, quadric_memberships=True,
        union_point_count=catalog.UNION_POINT_COUNT,
        intersection_dims=catalog.INTERSECTION_DIMS,
        systems=tuple(map(frozenset, catalog.GENERATOR_SYSTEMS)),
        distinguished=catalog.DISTINGUISHED))


def _symmetry(d):
    aut = automorphism_group(build_overlap_graph(catalog.PROOF_BASES))
    return ((aut.order, aut.normal_ea_order, aut.quotient_order,
             aut.quotient_nonabelian, aut.closure_verified),
            (catalog.AUT_ORDER, catalog.AUT_NORMAL_EA_ORDER,
             catalog.AUT_QUOTIENT_ORDER, True, True))


def _search_regression(d):
    found = search_small_proof(d.graph, d.bases, seed=0,
                               partitions=d.partitions)
    golden = catalog.SEARCH_GOLDEN
    return ((len(d.partitions), found.status, found.restart, found.size,
             list(found.basis_indices)),
            (catalog.PARTITION_COUNT, "found", golden["restart"],
             golden["size"], golden["bases"]))


CHECKS = (
    ("ray_table", _ray_table),
    ("magic_parity", _magic_parity),
    ("maximal_bases", _maximal_bases),
    ("coloring_proof_bases",
     lambda d: _non_colorable(d.graph, catalog.proof_bases())),
    ("coloring_all_bases", lambda d: _non_colorable(d.graph, d.bases)),
    ("unique_partition",
     lambda d: (find_partitions(catalog.proof_bases()),
                [tuple(k - 1 for k in catalog.PARTITION_BASES)])),
    ("distance_spectra", _distance_spectra),
    ("geometry", _geometry),
    ("symmetry", _symmetry),
    ("search_regression", _search_regression),
)


def cmd_verify(args) -> int:
    t_start = time.perf_counter()
    derived, failures = _Derived(), 0
    for name, check in CHECKS:
        try:  # any exception is this check's FAIL; the battery keeps going
            observed, expected = check(derived)
            reason = (None if observed == expected else
                      "got %r, expected %r" % (observed, expected))
        except Exception as exc:
            reason = "%s: %s" % (type(exc).__name__, exc)
        print("%-22s %s" % (name, "PASS" if reason is None else "FAIL"))
        if reason is not None:
            print("    reason: %s" % reason)
            failures += 1
    print("verify: %d/%d checks passed in %.1fs"
          % (len(CHECKS) - failures, len(CHECKS),
             time.perf_counter() - t_start))
    return 0 if failures == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bks5",
        description="Exact reconstruction and verification of real "
                    "five-qubit Bell-Kochen-Specker proofs.")
    parser.add_argument("--out", default="bks5-out",
                        help="output directory (default: %(default)s)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("rays", help="rebuild and verify the 160-ray table")
    p.add_argument("--config", choices=["magic"],
                   help="also verify the named operator configuration")
    p.set_defaults(func=cmd_rays)

    p = sub.add_parser("bases", help="enumerate all maximal bases")
    p.set_defaults(func=cmd_bases)

    p = sub.add_parser("color", help="decide 0/1-colorability")
    p.add_argument("--bases", choices=["proof", "all", "blocks"],
                   default="proof")
    p.set_defaults(func=cmd_color)

    p = sub.add_parser("search", help="search for a small non-colorable set")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--budget", type=int, default=64)
    p.add_argument("--max-size", type=int, default=30)
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("distances", help="exact distance spectra")
    p.add_argument("--bases", choices=["proof", "all"], default="proof")
    p.add_argument("--format", default="csv",
                   help="comma-separated list from {csv, svg}")
    p.set_defaults(func=cmd_distances)

    p = sub.add_parser("geometry", help="binary symplectic geometry checks")
    p.set_defaults(func=cmd_geometry)

    p = sub.add_parser("symmetry", help="overlap-graph automorphism group")
    p.set_defaults(func=cmd_symmetry)

    p = sub.add_parser("verify", help="run every check, PASS/FAIL per line")
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:  # surface a clean one-line error, exit nonzero
        print("error: %s: %s" % (type(exc).__name__, exc), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
