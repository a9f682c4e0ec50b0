"""The in-process benchmark workloads and the worker process that runs them.

``python3 perfbench/workloads.py <workload> --seed N --seconds S --trace T``
imports bks5, performs the workload's set-up, prints ``READY`` (``run.py``
times set-up from process start to this line), then runs ops until their
summed wall time reaches ``S`` seconds and prints one JSON line with every
op's wall time, its host-speed calibration (see ``calibrate.py``) and check
verdict and, when traced, the spans.  Each op's result is checked against ``bks5.catalog``
after its timer stops; a mismatch or an exception marks the op failed and
never ends the run.

``verify_cold`` ops are whole ``bks5 verify`` processes started by
``run.py``; this module only provides its set-up (the import) and, for traced
runs, the traced ``cli.main(["verify"])`` child (``verify_op``).
"""
from __future__ import annotations

import argparse
import json
import random
import sys
import time
from fractions import Fraction
from pathlib import Path

from bks5 import (bases, catalog, cli, coloring, dpll, geometry, pauli, rays,
                  search, symmetry)
from bks5 import metrics as spectra

import calibrate
from tracing import Tracer

ROOT = Path(__file__).resolve().parent.parent

MAX_SIZES = range(6, 41)
# Reference-work repetitions per calibration sample between ops: about
# 50 ms, a tenth of a typical op.
CAL_REPS = 100


def expectations() -> dict:
    """Catalog values every op is checked against (tests perturb a copy)."""
    return {
        "ray_count": len(catalog.RAYS),
        "ortho_pairs": catalog.ORTHO_PAIR_COUNT,
        "basis_count": catalog.BASIS_COUNT,
        "bases_sha256": catalog.BASES_SHA256,
        "partition_count": catalog.PARTITION_COUNT,
        "partition_bases": frozenset(catalog.PARTITION_BASES),
        "distinct_distances": catalog.DISTINCT_DISTANCES_PROOF,
        "peaks": frozenset(Fraction(*p) for p in catalog.PEAKS),
        "intersection_dims": catalog.INTERSECTION_DIMS,
        "aut_order": catalog.AUT_ORDER,
        "aut_normal_ea_order": catalog.AUT_NORMAL_EA_ORDER,
        "aut_quotient_order": catalog.AUT_QUOTIENT_ORDER,
    }


def _mismatch(problems: list, label: str, got, want):
    if got != want:
        problems.append("%s: got %r, expected %r" % (label, got, want))


# ---------------------------------------------------------------- certify_proof
# Re-certify the shipped 21-basis proof from scratch.  The seed shuffles the
# order of the 21 bases and the overlap-graph labels; every checked result
# is invariant under both shuffles.

def certify_setup():
    return None


def certify_facts(_state) -> dict:
    return {}


def certify_inputs(rng):
    keys = sorted(catalog.PROOF_BASES)
    while True:
        order = keys[:]
        rng.shuffle(order)
        labels = keys[:]
        rng.shuffle(labels)
        yield order, labels


def certify_op(_state, inputs):
    order, labels = inputs
    proof = [catalog.PROOF_BASES[k] for k in order]
    table = rays.build_ray_table()
    graph = bases.build_ortho_graph(table)
    magic = pauli.verify_magic(rays.magic_configuration())
    inst = coloring.KSInstance.build(graph, proof)
    coloring_result = coloring.check_colorable(inst)
    nvars, clauses = dpll.parse_dimacs(coloring.export_cnf(inst))
    cross = dpll.solve(nvars, clauses)
    partitions = search.find_partitions(proof)
    spectrum = spectra.distance_spectrum(table, proof)
    geo = geometry.geometry_report()
    overlap = symmetry.build_overlap_graph(dict(zip(labels, proof)))
    aut = symmetry.automorphism_group(overlap)
    return {"table": table, "graph": graph, "magic": magic,
            "coloring": coloring_result, "cross": cross,
            "partitions": partitions, "spectrum": spectrum, "geometry": geo,
            "aut": aut}


def certify_check(expect, _state, _facts, inputs, out) -> list:
    order, _labels = inputs
    problems = []
    _mismatch(problems, "rays", len(out["table"]), expect["ray_count"])
    _mismatch(problems, "orthogonal pairs", out["graph"].edge_count(),
              expect["ortho_pairs"])
    magic = out["magic"]
    _mismatch(problems, "magic parity",
              (magic.operator_count, magic.sign_product,
               magic.parity_contradiction), (14, -1, True))
    _mismatch(problems, "coloring", out["coloring"].status, "non_colorable")
    _mismatch(problems, "dpll satisfiable", out["cross"].satisfiable, False)
    _mismatch(problems, "partition",
              [frozenset(order[i] for i in p) for p in out["partitions"]],
              [expect["partition_bases"]])
    spectrum = out["spectrum"]
    _mismatch(problems, "distinct distances", spectrum.distinct_value_count,
              expect["distinct_distances"])
    _mismatch(problems, "peaks",
              frozenset(v for v, _ in spectrum.top_values(2)),
              expect["peaks"])
    _mismatch(problems, "intersection dims",
              out["geometry"].intersection_dims, expect["intersection_dims"])
    aut = out["aut"]
    _mismatch(problems, "automorphism group",
              (aut.order, aut.normal_ea_order, aut.quotient_order,
               aut.quotient_nonabelian, aut.closure_verified),
              (expect["aut_order"], expect["aut_normal_ea_order"],
               expect["aut_quotient_order"], True, True))
    return problems


# ----------------------------------------------------------------- search_sweep
# Set-up builds the 661 bases and 10328 partitions once; each op is a pair
# of seeded small-proof searches.  The seed draws each search seed s freely
# and deals the max_size pairs (m, 46 - m), m = 6..23, from shuffled decks.
# One search's time grows about linearly with m, from ~0.06 s at m = 6 to
# ~0.7 s at m = 40, so single searches would give a flat, wide op-time
# distribution whose median moves with every seed; a pair's sizes sum to
# 46, so every op costs about the same and the median stays put.

class SweepState:
    def __init__(self, graph, all_bases, partitions):
        self.graph = graph
        self.bases = all_bases
        self.basis_set = frozenset(all_bases)
        self.partitions = partitions


def sweep_setup() -> SweepState:
    table = rays.build_ray_table()
    graph = bases.build_ortho_graph(table)
    all_bases = bases.enumerate_maximal_bases(graph)
    return SweepState(graph, all_bases, search.find_partitions(all_bases))


def sweep_facts(state: SweepState) -> dict:
    return {"basis_count": len(state.bases),
            "bases_sha256": bases.bases_sha256(state.bases),
            "partition_count": len(state.partitions)}


def sweep_inputs(rng):
    low, high = MAX_SIZES[0], MAX_SIZES[-1]
    while True:
        pairs = [(m, low + high - m)
                 for m in range(low, (low + high) // 2 + 1)]
        rng.shuffle(pairs)
        for pair in pairs:
            yield tuple((rng.randrange(1 << 30), m) for m in pair)


def sweep_op(state: SweepState, inputs):
    return [search.search_small_proof(state.graph, state.bases, seed=seed,
                                      max_size=max_size,
                                      partitions=state.partitions)
            for seed, max_size in inputs]


def sweep_check(expect, state: SweepState, facts, _inputs, outs) -> list:
    problems = []
    for key in ("basis_count", "bases_sha256", "partition_count"):
        _mismatch(problems, key, facts[key], expect[key])
    for out in outs:
        _mismatch(problems, "status", out.status, "found")
        if not set(out.bases) <= state.basis_set:
            problems.append("result has bases outside the input")
        if out.bases != tuple(state.bases[i] for i in out.basis_indices):
            problems.append("basis indices do not match the bases")
        if out.bases:
            inst = coloring.KSInstance.build(state.graph, out.bases)
            nvars, clauses = dpll.parse_dimacs(coloring.export_cnf(inst))
            _mismatch(problems, "dpll satisfiable",
                      dpll.solve(nvars, clauses).satisfiable, False)
    return problems


WORKLOADS = {
    "certify_proof": (certify_setup, certify_facts, certify_inputs,
                      certify_op, certify_check),
    "search_sweep": (sweep_setup, sweep_facts, sweep_inputs, sweep_op,
                     sweep_check),
}


def run_ops(workload: str, state, facts, seed: int, seconds: float,
            trace: bool, expect=None, tracer=None) -> dict:
    """Run ops until their summed wall time reaches ``seconds`` (at least one).

    With ``trace`` each drawn input runs twice, untraced and then traced,
    and the loop stops when both kinds together reach ``seconds``.  Every
    op is checked after its timer stops; failures are counted, not raised.
    A calibration sample is taken before the first op and after each op's
    check, and each op records the mean of the two samples around it.
    Library ops are short and many, so samples between them track the
    host's speed phases; sampling inside the op (``calibrate.Sampler``)
    spread ``certify_proof``'s ten-seed ``op_p50_s`` by 7.5 % against
    about 2 %.
    """
    _setup, _facts, inputs, op, check = WORKLOADS[workload]
    expect = expectations() if expect is None else expect
    draws = inputs(random.Random(seed))
    ops = []
    timed = 0.0
    before = calibrate.rep_time(CAL_REPS)
    while True:
        given = next(draws)
        for traced in ((False, True) if trace else (False,)):
            record = _run_op(op, check, expect, state, facts, given,
                             tracer if traced else None, len(ops))
            after = calibrate.rep_time(CAL_REPS)
            record["rep"] = (before + after) / 2
            before = after
            ops.append(record)
            timed += record["wall"]
        if timed >= seconds:
            return {"ops": ops}


def _run_op(op, check, expect, state, facts, given, tracer, op_id):
    """Time one op (traced when ``tracer`` is given), then check it."""
    out, problems = None, []
    t0 = time.perf_counter()
    try:
        if tracer is not None:
            with tracer.op(op_id):
                out = op(state, given)
        else:
            out = op(state, given)
    except Exception as exc:  # an op failure is counted, not raised
        problems.append("%s: %s" % (type(exc).__name__, exc))
    wall = time.perf_counter() - t0
    if not problems:
        try:
            problems = check(expect, state, facts, given, out)
        except Exception as exc:
            problems = ["check raised %s: %s" % (type(exc).__name__, exc)]
    return {"wall": wall, "traced": tracer is not None, "problems": problems}


def _verify_op(op_id: int) -> int:
    """One traced, sampled ``bks5 verify``: its output lines, then the spans."""
    tracer = Tracer()
    with calibrate.Sampler() as sampler, tracer.op(op_id):
        code = cli.main(["verify"])
    print(json.dumps({"code": code, "rep": sampler.rep(),
                      "spans": tracer.spans}))
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload",
                        choices=sorted(WORKLOADS) + ["verify_cold",
                                                     "verify_op"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--op-id", type=int, default=0)
    args = parser.parse_args(argv)
    if not Path(cli.__file__).resolve().is_relative_to(ROOT / "src"):
        print("bks5 was imported from %s, not from this checkout"
              % cli.__file__, file=sys.stderr)
        return 2
    if args.workload == "verify_op":
        return _verify_op(args.op_id)
    if args.workload == "verify_cold":
        print("READY", flush=True)
        return 0
    setup, facts_of = WORKLOADS[args.workload][:2]
    tracer = Tracer() if args.trace else None
    if tracer is not None:
        with tracer.op("setup", name="setup"):
            state = setup()
    else:
        state = setup()
    print("READY", flush=True)
    result = {"ops": []}
    if not args.setup_only:
        result = run_ops(args.workload, state, facts_of(state), args.seed,
                         args.seconds, bool(args.trace), tracer=tracer)
    result["spans"] = tracer.spans if tracer is not None else []
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
