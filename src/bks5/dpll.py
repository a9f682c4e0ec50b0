"""Small exact SAT solver for the exported DIMACS instances.

This is an independent cross-check for the structured coloring search: it
knows nothing about rays or bases, only clauses.  Binary clauses become
implication lists; longer clauses keep satisfied/non-falsified counters
that are updated inside ``enqueue`` so they always agree with the current
assignment.  The search is plain DPLL with a static branching order; any
claimed model is verified against the original clause list before being
returned.
"""
from __future__ import annotations

from dataclasses import dataclass


def parse_dimacs(text: str):
    """Return (variable count, clause list) from DIMACS CNF text."""
    nvars = None
    nclauses = None
    clauses = []
    cur = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            parts = line.split()
            if len(parts) != 4 or parts[1] != "cnf":
                raise ValueError("malformed problem line: %r" % raw)
            nvars, nclauses = int(parts[2]), int(parts[3])
            continue
        for tok in line.split():
            lit = int(tok)
            if lit == 0:
                clauses.append(tuple(cur))
                cur = []
            else:
                cur.append(lit)
    if cur:
        raise ValueError("unterminated final clause")
    if nvars is None:
        raise ValueError("missing problem line")
    if nclauses is not None and len(clauses) != nclauses:
        raise ValueError("problem line promises %d clauses, found %d"
                         % (nclauses, len(clauses)))
    for cl in clauses:
        for lit in cl:
            if not 1 <= abs(lit) <= nvars:
                raise ValueError("literal %d out of range" % lit)
    return nvars, clauses


@dataclass(frozen=True)
class DpllResult:
    satisfiable: bool
    assignment: dict | None
    nodes: int
    propagations: int


def solve(nvars: int, clauses) -> DpllResult:
    """Exhaustive DPLL decision; models are independently re-verified."""
    imp = {}
    long_clauses = []
    root_units = []
    for cl in clauses:
        lits = tuple(dict.fromkeys(cl))
        if any(-lit in lits for lit in lits):
            continue
        if len(lits) == 0:
            return DpllResult(False, None, 0, 0)
        if len(lits) == 1:
            root_units.append(lits[0])
        elif len(lits) == 2:
            a, b = lits
            imp.setdefault(-a, []).append(b)
            imp.setdefault(-b, []).append(a)
        else:
            long_clauses.append(lits)

    occ = {}
    for ci, lits in enumerate(long_clauses):
        for lit in lits:
            occ.setdefault(lit, []).append(ci)
    nf = [len(lits) for lits in long_clauses]
    satc = [0] * len(long_clauses)
    assign = [0] * (nvars + 1)
    trail = []
    pending = []
    state = {"conflict": False, "nodes": 0, "propagations": 0}

    def enqueue(lit: int) -> None:
        var = abs(lit)
        val = 1 if lit > 0 else -1
        if assign[var]:
            if assign[var] != val:
                state["conflict"] = True
            return
        assign[var] = val
        trail.append(lit)
        for ci in occ.get(lit, ()):
            satc[ci] += 1
        for ci in occ.get(-lit, ()):
            nf[ci] -= 1
            if satc[ci] == 0:
                if nf[ci] == 0:
                    state["conflict"] = True
                elif nf[ci] == 1:
                    pending.append(ci)

    def drain(head: int) -> int:
        """Process trail implications and pending long-clause units."""
        while not state["conflict"] and (head < len(trail) or pending):
            if head < len(trail):
                lit = trail[head]
                head += 1
                for forced in imp.get(lit, ()):
                    state["propagations"] += 1
                    enqueue(forced)
                    if state["conflict"]:
                        return head
            else:
                ci = pending.pop()
                if satc[ci] == 0 and nf[ci] == 1:
                    unit = next(lit for lit in long_clauses[ci]
                                if assign[abs(lit)] == 0)
                    state["propagations"] += 1
                    enqueue(unit)
        return head

    def undo(mark: int) -> None:
        while len(trail) > mark:
            lit = trail.pop()
            assign[abs(lit)] = 0
            for ci in occ.get(lit, ()):
                satc[ci] -= 1
            for ci in occ.get(-lit, ()):
                nf[ci] += 1
        state["conflict"] = False
        pending.clear()

    for lit in root_units:
        enqueue(lit)
        if state["conflict"]:
            return DpllResult(False, None, 0, state["propagations"])

    score = {}
    for cl in clauses:
        for lit in cl:
            score[abs(lit)] = score.get(abs(lit), 0) + 1
    order = sorted(range(1, nvars + 1), key=lambda v: (-score.get(v, 0), v))

    def search(head: int) -> bool:
        state["nodes"] += 1
        head = drain(head)
        if state["conflict"]:
            return False
        var = next((v for v in order if assign[v] == 0), None)
        if var is None:
            return True
        mark = len(trail)
        for val in (var, -var):
            enqueue(val)
            if not state["conflict"] and search(len(trail) - 1):
                return True
            undo(mark)
        return False

    satisfiable = search(0)
    # ``search`` holds itself through its closure cell; clearing the cell
    # frees the clause index now instead of at the next cyclic collection.
    del search
    if satisfiable:
        model = {v: assign[v] > 0 for v in range(1, nvars + 1)}
        for cl in clauses:
            if not any(model[abs(lit)] == (lit > 0) for lit in cl):
                raise AssertionError("solver returned a non-model")
        return DpllResult(True, model, state["nodes"], state["propagations"])
    return DpllResult(False, None, state["nodes"], state["propagations"])
