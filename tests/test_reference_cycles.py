"""The solvers and searches leave no cyclic garbage behind.

A recursive closure refers to itself through its own cell, so each call
that defines one leaves a reference cycle holding everything the closure
can reach (clause indexes, result lists) until the cyclic collector runs.
"""
import gc

import pytest

from bks5 import catalog, dpll
from bks5.bases import enumerate_maximal_bases
from bks5.coloring import (KSInstance, check_colorable, count_colorings,
                           export_cnf)
from bks5.search import find_partitions
from bks5.symmetry import automorphism_group, build_overlap_graph


@pytest.fixture(scope="module")
def calls(ortho_graph, proof_bases, all_bases):
    inst = KSInstance.build(ortho_graph, proof_bases)
    nvars, clauses = dpll.parse_dimacs(export_cnf(inst))
    small = KSInstance.build(ortho_graph, proof_bases[:3])
    overlap = build_overlap_graph(catalog.PROOF_BASES)
    return {
        "dpll.solve": lambda: dpll.solve(nvars, clauses),
        "check_colorable": lambda: check_colorable(inst),
        "count_colorings": lambda: count_colorings(small),
        "enumerate_maximal_bases": lambda: enumerate_maximal_bases(ortho_graph),
        "automorphism_group": lambda: automorphism_group(overlap),
        "find_partitions": lambda: find_partitions(all_bases),
    }


@pytest.mark.parametrize("name", ["dpll.solve", "check_colorable",
                                  "count_colorings", "enumerate_maximal_bases",
                                  "automorphism_group", "find_partitions"])
def test_call_leaves_no_unreachable_objects(name, calls):
    call = calls[name]
    call()  # first-use imports and caches are not the call's garbage
    gc.collect()
    gc.disable()
    try:
        call()
        assert gc.collect() == 0
    finally:
        gc.enable()
