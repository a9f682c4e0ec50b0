"""Command-line interface.

Every subcommand writes deterministic artifacts (no timestamps, sorted
keys) into the output directory and prints a one-line summary.  ``verify``
reruns the complete battery of checks against the embedded reference data
and prints one PASS/FAIL line per check; a check that raises is reported as
FAIL with the exception on an indented line below, and the rest still run.
"""
from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from fractions import Fraction
from pathlib import Path

from . import catalog, dpll
from .bases import (bases_sha256, build_ortho_graph, contains_basis,
                    enumerate_maximal_bases, write_bases_json,
                    write_bases_text)
from .coloring import KSInstance, check_colorable, export_cnf
from .geometry import geometry_report
from .metrics import distance_spectrum, emit_histogram, format_distance
from .pauli import verify_magic
from .rays import build_ray_table, magic_configuration
from .search import find_partitions, search_small_proof
from .symmetry import automorphism_group, build_overlap_graph


def _out_dir(args) -> Path:
    path = Path(args.out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _write_json(path: Path, obj):
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _select_bases(selection: str, graph) -> list:
    if selection == "proof":
        return catalog.proof_bases()
    if selection == "blocks":
        return catalog.block_bases()
    if selection == "all":
        return enumerate_maximal_bases(graph)
    raise ValueError("unknown basis selection %r" % selection)


def _census_ok(bases) -> bool:
    """Count, digest, and every proof and block basis present."""
    return (len(bases) == catalog.BASIS_COUNT
            and bases_sha256(bases) == catalog.BASES_SHA256
            and all(contains_basis(bases, b) for b in catalog.proof_bases())
            and all(contains_basis(bases, b) for b in catalog.block_bases()))


def cmd_rays(args) -> int:
    table = build_ray_table()
    out = _out_dir(args)
    table.to_csv(out / "rays.csv")
    table.to_json(out / "rays.json")
    print("rays: %d verified against the embedded table" % len(table))
    if args.config == "magic":
        report = verify_magic(magic_configuration())
        _write_json(out / "magic.json", {
            "operator_count": report.operator_count,
            "occurrences": report.occurrences,
            "set_signs": list(report.set_signs),
            "sign_product": report.sign_product,
            "parity_contradiction": report.parity_contradiction,
        })
        print("magic: %d operators, sign product %+d, contradiction=%s"
              % (report.operator_count, report.sign_product,
                 report.parity_contradiction))
        if not report.parity_contradiction:
            return 1
    return 0


def cmd_bases(args) -> int:
    graph = build_ortho_graph(build_ray_table())
    bases = enumerate_maximal_bases(graph)
    out = _out_dir(args)
    write_bases_text(bases, out / "bases.txt")
    write_bases_json(bases, out / "bases.json")
    digest = bases_sha256(bases)
    ok = _census_ok(bases)
    print("bases: %d enumerated, census %s (sha256 %s...)"
          % (len(bases), "verified" if ok else "MISMATCH", digest[:12]))
    return 0 if ok else 1


def cmd_color(args) -> int:
    graph = build_ortho_graph(build_ray_table())
    selected = _select_bases(args.bases, graph)
    inst = KSInstance.build(graph, selected)
    result = check_colorable(inst)
    cnf = export_cnf(inst)
    nvars, clauses = dpll.parse_dimacs(cnf)
    cross = dpll.solve(nvars, clauses)
    agree = (result.status == "colorable") == cross.satisfiable
    out = _out_dir(args)
    (out / ("instance-%s.cnf" % args.bases)).write_text(cnf)
    _write_json(out / ("certificate-%s.json" % args.bases), {
        "selection": args.bases,
        "status": result.status,
        "nodes": result.nodes,
        "propagations": result.propagations,
        "witness": result.witness,
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
    graph = build_ortho_graph(build_ray_table())
    bases = enumerate_maximal_bases(graph)
    candidate = search_small_proof(graph, bases, seed=args.seed,
                                   max_size=args.max_size,
                                   budget=args.budget)
    out = _out_dir(args)
    _write_json(out / "search.json", {
        "status": candidate.status,
        "seed": candidate.seed,
        "restart": candidate.restart,
        "attempts": candidate.attempts,
        "size": candidate.size,
        "basis_indices": list(candidate.basis_indices),
        "bases": [list(b) for b in candidate.bases],
    })
    print("search[seed=%d]: %s, size %d, restart %s"
          % (args.seed, candidate.status, candidate.size, candidate.restart))
    return 0


def cmd_distances(args) -> int:
    table = build_ray_table()
    graph = build_ortho_graph(table)
    selected = _select_bases(args.bases, graph)
    spectrum = distance_spectrum(table, selected)
    out = _out_dir(args)
    formats = args.format.split(",")
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
        "point_counts": report.point_counts,
        "all_isotropic": report.all_isotropic,
        "quadric_memberships": report.quadric_memberships,
        "union_point_count": report.union_point_count,
        "intersection_dims": {"%s|%s" % k: v
                              for k, v in report.intersection_dims.items()},
        "systems": [sorted(s) for s in report.systems],
        "distinguished": report.distinguished,
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
    _write_json(out / "symmetry.json", {
        "order": report.order,
        "weighted_order": report.weighted_order,
        "normal_ea_order": report.normal_ea_order,
        "quotient_order": report.quotient_order,
        "quotient_nonabelian": report.quotient_nonabelian,
        "element_order_census": {str(k): v for k, v
                                 in sorted(report.element_order_census.items())},
        "conjugacy_class_count": report.conjugacy_class_count,
        "closure_verified": report.closure_verified,
        "generators": [list(p) for p in report.generators],
        "orbits": [list(o) for o in report.orbits],
    })
    print("symmetry: order %d, largest normal 2-elementary %d, quotient %d%s"
          % (report.order, report.normal_ea_order, report.quotient_order,
             " (non-abelian)" if report.quotient_nonabelian else ""))
    return 0


def cmd_verify(args) -> int:
    t_start = time.time()
    # Shared derivations are built on first use; one that raises fails
    # every check that needs it instead of aborting the battery.
    @functools.cache
    def table():
        return build_ray_table()

    @functools.cache
    def graph():
        return build_ortho_graph(table())

    @functools.cache
    def bases():
        return enumerate_maximal_bases(graph())

    def ray_table() -> bool:
        census = {}
        for r in table().rays:
            census[r.support] = census.get(r.support, 0) + 1
        return (census == {1: 32, 8: 96, 16: 32}
                and table().partner_id(138) == 155
                and table().partner_id(139) == 154)

    def magic_parity() -> bool:
        magic = verify_magic(magic_configuration())
        return (magic.operator_count == 14
                and all(c == 2 for c in magic.occurrences.values())
                and magic.sign_product == -1
                and magic.parity_contradiction)

    def non_colorable_and_cross_checked(selection) -> bool:
        inst = KSInstance.build(graph(), selection)
        result = check_colorable(inst)
        nvars, clauses = dpll.parse_dimacs(export_cnf(inst))
        cross = dpll.solve(nvars, clauses)
        return result.status == "non_colorable" and not cross.satisfiable

    def unique_partition() -> bool:
        expected = tuple(k - 1 for k in catalog.PARTITION_BASES)
        return find_partitions(catalog.proof_bases()) == [expected]

    def distance_spectra() -> bool:
        spec21 = distance_spectrum(table(), catalog.proof_bases())
        spec_all = distance_spectrum(table(), bases())
        peaks = {Fraction(*p) for p in catalog.PEAKS}
        return (spec21.distinct_value_count ==
                catalog.DISTINCT_DISTANCES_PROOF
                and spec_all.distinct_value_count ==
                catalog.DISTINCT_DISTANCES_ALL
                and {v for v, _ in spec21.top_values(2)} == peaks)

    def geometry() -> bool:
        geometry_report()  # raises AssertionError on any deviation
        return True

    def symmetry() -> bool:
        aut = automorphism_group(build_overlap_graph(catalog.PROOF_BASES))
        return (aut.order == catalog.AUT_ORDER
                and aut.normal_ea_order == catalog.AUT_NORMAL_EA_ORDER
                and aut.quotient_order == catalog.AUT_QUOTIENT_ORDER
                and aut.quotient_nonabelian and aut.closure_verified)

    def search_regression() -> bool:
        golden = catalog.SEARCH_GOLDEN
        candidate = search_small_proof(graph(), bases(), seed=0)
        return (candidate.status == "found"
                and candidate.restart == golden["restart"]
                and candidate.size == golden["size"]
                and list(candidate.basis_indices) == golden["bases"])

    checks = [
        ("ray_table", ray_table),
        ("magic_parity", magic_parity),
        ("maximal_bases", lambda: _census_ok(bases())),
        ("coloring_proof_bases",
         lambda: non_colorable_and_cross_checked(catalog.proof_bases())),
        ("coloring_all_bases",
         lambda: non_colorable_and_cross_checked(bases())),
        ("unique_partition", unique_partition),
        ("distance_spectra", distance_spectra),
        ("geometry", geometry),
        ("symmetry", symmetry),
        ("search_regression", search_regression),
    ]
    failures = 0
    for name, check in checks:
        # Any exception is this check's FAIL; the battery keeps going.
        try:
            ok, reason = check(), None
        except Exception as exc:
            ok, reason = False, "%s: %s" % (type(exc).__name__, exc)
        print("%-22s %s" % (name, "PASS" if ok else "FAIL"))
        if reason is not None:
            print("    reason: %s" % reason)
        failures += 0 if ok else 1
    print("verify: %d/%d checks passed in %.1fs"
          % (len(checks) - failures, len(checks), time.time() - t_start))
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
        print("error: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
