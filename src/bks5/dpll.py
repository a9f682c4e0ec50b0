"""Small exact SAT solver for the exported DIMACS instances.

This is an independent cross-check for the structured coloring search: it
knows nothing about rays or bases, only clauses.  Every per-literal table
is a plain list of 2n + 1 slots indexed by the literal itself, a negative
literal counting from the end: the value of each literal, the implication
list of each literal (binary clauses) and, as one int bitmask, the long
clauses each literal occurs in.

Long clauses are counted in bulk.  One int has a bit set for each
satisfied clause, and each clause's count of non-false literals, less
two, is bit-sliced over a few ints ("planes") in two's complement.
Assigning a literal ORs its mask into the satisfied bits and takes one
off the count of every clause holding its negation with a single borrow
chain across the planes; the top plane is the sign, so one AND finds the
unsatisfied clauses left with one non-false literal (a unit) or none (a
conflict).  A branch node saves the satisfied bits and the planes and
restores them after each branch, so undoing a branch only clears values
along the trail.  The propagation loop hands each implication list to
one ``assign`` call, which sets its literals in place.  The search is
plain DPLL with a static branching order; any claimed model is verified
against the original clause list before being returned.
"""
from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass
from itertools import chain


# A comment or problem line after the problem line, in a body whose lines
# are joined by "\n": optional whitespace, then "c" or "p" at a line start.
_SKIP_OR_PROBLEM = re.compile(r"^[^\S\n]*[cp]", re.MULTILINE)

# Body lines split and converted together: as fast as one split of the
# whole body, without holding every token string of a large CNF at once.
_LINES_PER_SPLIT = 512


def parse_dimacs(text: str):
    """Return (variable count, clause list) from DIMACS CNF text.

    Exactly one problem line must come before the first clause.  Every
    error names its 1-based line where it has one: a clause before the
    problem line, a second problem line, a token that is not an integer
    and a literal outside 1..nvars.

    Lines up to the problem line are read one by one.  The clause body is
    converted in bulk: comment lines are blanked and blocks of lines are
    split.  Each distinct token of a block is converted once with ``int``
    into a table, which is range-checked with one ``min`` and ``max``, and
    the block's tokens are mapped through it.  The literals are then cut
    into clauses at the zeros, each clause read from one shared iterator
    up to its zero.  Only when that finds a second problem line, a bad
    token or a literal out of range is the body read line by line again,
    to name the first error.
    """
    lines = text.splitlines()
    for number, raw in enumerate(lines, 1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        if not line.startswith("p"):
            raise ValueError("line %d: clause before the problem line"
                             % number)
        parts = line.split()
        if (len(parts) != 4 or parts[1] != "cnf"
                or not (parts[2].isdecimal() and parts[3].isdecimal())):
            raise ValueError("line %d: malformed problem line: %r"
                             % (number, raw))
        nvars, nclauses = int(parts[2]), int(parts[3])
        break
    else:
        raise ValueError("missing problem line")

    rows = lines[number:]
    body = "\n".join(rows)
    flawed = False  # some line or token is wrong; find which below
    row = at = 0
    # Without a "c" or a "p" anywhere the body has no such line to find.
    for match in (_SKIP_OR_PROBLEM.finditer(body)
                  if "c" in body or "p" in body else ()):
        row += body.count("\n", at, match.start())
        at = match.start()
        flawed = flawed or match.group().endswith("p")
        rows[row] = ""
    lits = []
    try:
        for lo in range(0, len(rows), _LINES_PER_SPLIT):
            if not _extend_literals(lits, rows[lo:lo + _LINES_PER_SPLIT],
                                    nvars):
                flawed = True
                break
    except ValueError:
        flawed = True
    if flawed:
        _raise_first_error(lines, number, nvars)

    if lits and lits[-1]:
        raise ValueError("unterminated final clause")
    nxt = iter(lits).__next__
    clauses = [tuple(iter(nxt, 0)) for _ in range(lits.count(0))]
    if len(clauses) != nclauses:
        raise ValueError("problem line promises %d clauses, found %d"
                         % (nclauses, len(clauses)))
    return nvars, clauses


def _extend_literals(lits: list, rows, nvars: int) -> bool:
    """Append the literals of clause lines ``rows`` to ``lits``.

    Each distinct token is converted once; ``int`` raises ValueError on a
    token that is not an integer.  Returns False, appending nothing, when
    a literal lies outside ±nvars.  The token strings die with the call,
    before the caller builds the clauses.
    """
    tokens = " ".join(rows).split()
    distinct = set(tokens)
    ints = dict(zip(distinct, map(int, distinct)))
    if ints and not (-nvars <= min(ints.values())
                     and max(ints.values()) <= nvars):
        return False
    lits += map(ints.__getitem__, tokens)
    return True


def _raise_first_error(lines, header: int, nvars: int):
    """Raise the first error after the problem line, which is line ``header``.

    A second problem line, a token that is not an integer and a literal
    outside 1..nvars are found in text order, token by token.
    """
    for number, raw in enumerate(lines[header:], header + 1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            raise ValueError("line %d: second problem line %r"
                             % (number, raw))
        for tok in line.split():
            try:
                lit = int(tok)
            except ValueError:
                raise ValueError("line %d: %r is not an integer literal"
                                 % (number, tok)) from None
            if not -nvars <= lit <= nvars:
                raise ValueError("line %d: literal %d out of range 1..%d"
                                 % (number, lit, nvars))
    raise AssertionError("the bulk parse found an error the line scan did not")


@dataclass(frozen=True)
class DpllResult:
    satisfiable: bool
    assignment: dict | None
    nodes: int
    propagations: int


def solve(nvars: int, clauses) -> DpllResult:
    """Exhaustive DPLL decision; models are independently re-verified.

    Every literal must be a nonzero integer within ±1..nvars: the tables
    have one slot per literal, so literal nvars + 1 would otherwise share
    the slot of -nvars.
    """
    # Each literal's occurrence count: the branching score, and its keys
    # are the distinct literals to range-check.
    score = Counter(chain.from_iterable(clauses))
    valid = set(range(-nvars, nvars + 1))
    valid.discard(0)
    if not valid.issuperset(score):
        index, cl, lit = next((index, cl, lit)
                              for index, cl in enumerate(clauses)
                              for lit in cl if lit not in valid)
        raise ValueError("clause %d %r: literal %d out of range ±1..%d"
                         % (index, cl, lit, nvars))
    size = 2 * nvars + 1  # literal-indexed tables, see the module docstring
    imp = [[] for _ in range(size)]
    long_clauses = []
    root_units = []
    for cl in clauses:
        if len(cl) == 2:
            a, b = cl
            if a == b:
                root_units.append(a)
            elif a != -b:
                imp[-a].append(b)
                imp[-b].append(a)
            continue
        lits = tuple(dict.fromkeys(cl))
        # Distinct literals that share a variable are complementary.
        if len(set(map(abs, lits))) < len(lits):
            continue
        if len(lits) == 0:
            return DpllResult(False, None, 0, 0)
        if len(lits) == 1:
            root_units.append(lits[0])
        elif len(lits) == 2:
            a, b = lits
            imp[-a].append(b)
            imp[-b].append(a)
        else:
            long_clauses.append(lits)

    occ = [0] * size  # bit ci of occ[lit] is set when long clause ci has lit
    for ci, lits in enumerate(long_clauses):
        for lit in lits:
            occ[lit] |= 1 << ci
    # Each long clause's count of non-false literals, less two, in two's
    # complement and bit-sliced: bit ci of planes[i] is bit i of clause
    # ci's.  The top plane is the sign, so it marks the counts below two.
    width = max(map(len, long_clauses), default=2)
    planes = [sum(1 << ci for ci, lits in enumerate(long_clauses)
                  if (len(lits) - 2) >> i & 1)
              for i in range((width - 2).bit_length() + 1)]
    levels = range(len(planes))
    sat = 0  # bit ci is set while clause ci has a true literal
    value = [0] * size  # +1 true, -1 false, 0 unassigned
    trail = []
    pending = []
    nodes = propagations = 0

    def assign(lits) -> int:
        """Make each literal of ``lits`` true in turn; a true one is skipped.

        Returns the position of the first literal that is false or that
        falsifies a clause, or -1.  Values only go from unassigned to set
        during a call, so an earlier copy of that literal would have ended
        the call or made it true: its first occurrence is its position.
        The clauses that a literal leaves with one non-false literal and
        none true are pushed on ``pending`` in index order.
        """
        nonlocal sat
        for lit in lits:
            v = value[lit]
            if v > 0:
                continue
            if v:
                return lits.index(lit)
            value[lit] = 1
            value[-lit] = -1
            trail.append(lit)
            sat |= occ[lit]
            hit = borrow = occ[-lit]
            if not hit:
                continue
            # One borrow chain takes one off every hit clause's count; a
            # borrow out of the top plane is the step from 0 to -1.
            for i in levels:
                plane = planes[i] ^ borrow
                planes[i] = plane
                borrow &= plane
                if not borrow:
                    break
            # The sign marks the unsatisfied hit clauses left with one
            # non-false literal (-1, plane 0 set) or none (-2, a conflict).
            low = hit & planes[-1] & ~sat
            if low:
                if low & ~planes[0]:
                    return lits.index(lit)
                while low:
                    bit = low & -low
                    pending.append(bit.bit_length() - 1)
                    low ^= bit
        return -1

    def drain(head: int) -> int:
        """Process trail implications and pending long-clause units.

        Trail literals are taken in trail order, each batch being those
        added since the last.  Each one's implication list is assigned in
        one call and counts one propagation per literal, up to and
        including a conflict.  Returns the new trail head, or -1 on a
        conflict.
        """
        nonlocal propagations
        while True:
            if head < len(trail):
                new = trail[head:]
                head = len(trail)
                for forced in filter(None, map(imp.__getitem__, new)):
                    at = assign(forced)
                    if at >= 0:
                        propagations += at + 1
                        return -1
                    propagations += len(forced)
            elif pending:
                ci = pending.pop()
                # Counts only fall between two restores, and a count of 0
                # with no true literal ended the drain: a clause still
                # unsatisfied when popped has exactly one non-false literal.
                if not sat >> ci & 1:
                    unit = next(lit for lit in long_clauses[ci]
                                if not value[lit])
                    propagations += 1
                    if assign((unit,)) >= 0:
                        return -1
            else:
                return head

    def undo(mark: int) -> None:
        """Unassign the trail from ``mark`` on; the caller restores counts."""
        for lit in trail[mark:]:
            value[lit] = value[-lit] = 0
        del trail[mark:]
        pending.clear()

    for lit in root_units:
        if assign((lit,)) >= 0:
            return DpllResult(False, None, 0, 0)

    order = sorted(range(1, nvars + 1), key=lambda v: -score[v] - score[-v])

    def search(head: int, start: int) -> bool:
        """Decide the subtree below the trail from ``head`` on.

        Every variable before position ``start`` of ``order`` is assigned:
        the parent branched on the first one that was not.
        """
        nonlocal nodes, sat
        nodes += 1
        head = drain(head)
        if head < 0:
            return False
        pos = next((pos for pos in range(start, nvars)
                    if not value[order[pos]]), None)
        if pos is None:
            return True
        var = order[pos]
        mark = len(trail)
        saved_sat, saved_planes = sat, planes[:]
        for lit in (var, -var):
            if assign((lit,)) < 0 and search(mark, pos):
                return True
            undo(mark)
            sat = saved_sat
            planes[:] = saved_planes
        return False

    satisfiable = search(0, 0)
    # ``search`` holds itself through its closure cell; clearing the cell
    # frees the clause index now instead of at the next cyclic collection.
    del search
    if satisfiable:
        model = {v: value[v] > 0 for v in range(1, nvars + 1)}
        for cl in clauses:
            if not any(model[abs(lit)] == (lit > 0) for lit in cl):
                raise AssertionError("solver returned a non-model")
        return DpllResult(True, model, nodes, propagations)
    return DpllResult(False, None, nodes, propagations)
