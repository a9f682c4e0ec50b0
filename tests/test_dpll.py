"""Tests for the DIMACS parser and the generic DPLL cross-checker."""
import itertools
import random
import re

import pytest

from bks5 import dpll
from bks5.coloring import KSInstance, export_cnf


class TestParseDimacs:
    def test_basic_parse(self):
        nvars, clauses = dpll.parse_dimacs(
            "c a comment\np cnf 3 2\n1 -2 0\n2 3 0\n")
        assert nvars == 3
        assert clauses == [(1, -2), (2, 3)]

    def test_clause_spanning_lines(self):
        nvars, clauses = dpll.parse_dimacs("p cnf 2 1\n1\n-2 0\n")
        assert clauses == [(1, -2)]

    def test_missing_header_raises(self):
        with pytest.raises(ValueError, match="problem line"):
            dpll.parse_dimacs("1 2 0\n")

    def test_wrong_clause_count_raises(self):
        with pytest.raises(ValueError, match="promises"):
            dpll.parse_dimacs("p cnf 2 2\n1 0\n")

    def test_unterminated_clause_raises(self):
        with pytest.raises(ValueError, match="unterminated"):
            dpll.parse_dimacs("p cnf 2 1\n1 2\n")

    def test_out_of_range_literal_raises(self):
        with pytest.raises(ValueError, match="out of range"):
            dpll.parse_dimacs("p cnf 2 1\n3 0\n")

    def test_clause_before_problem_line_raises(self):
        with pytest.raises(ValueError,
                           match="line 1: clause before the problem line"):
            dpll.parse_dimacs("1 2 0\np cnf 2 1\n")

    def test_second_problem_line_raises(self):
        """A second header must not silently replace the first."""
        with pytest.raises(ValueError, match="line 2: second problem line"):
            dpll.parse_dimacs("p cnf 5 1\np cnf 2 1\n1 2 0\n")

    def test_non_integer_token_raises(self):
        """Comment and blank lines count towards the line number."""
        with pytest.raises(ValueError,
                           match="line 4: 'x' is not an integer literal"):
            dpll.parse_dimacs("c header\n\np cnf 2 1\n1 x 0\n")

    def test_malformed_problem_line_raises(self):
        for header in ("p cnf 2", "p dnf 2 1", "p cnf two 1", "p cnf -2 1"):
            with pytest.raises(ValueError,
                               match="line 1: malformed problem line"):
                dpll.parse_dimacs(header + "\n1 0\n")


class TestSolve:
    @pytest.mark.parametrize("clauses, bad", [
        ([(3,), (2,)], "clause 0 (3,): literal 3"),
        ([(3,), (-2,)], "clause 0 (3,): literal 3"),
        ([(1, 2), (-1, -3)], "clause 1 (-1, -3): literal -3"),
        ([(1,), (2, 0, 1)], "clause 1 (2, 0, 1): literal 0"),
    ], ids=["beyond-n", "beyond-n-then-negative", "below-minus-n", "zero"])
    def test_out_of_range_literal_rejected(self, clauses, bad):
        """Literal n + 1 must not land in the slot of -n."""
        with pytest.raises(ValueError, match=re.escape(bad)
                           + r" out of range ±1\.\.2$"):
            dpll.solve(2, clauses)

    def test_trivially_sat(self):
        result = dpll.solve(2, [(1,), (-2,)])
        assert result.satisfiable is True
        assert result.assignment == {1: True, 2: False}

    def test_trivially_unsat(self):
        result = dpll.solve(1, [(1,), (-1,)])
        assert result.satisfiable is False

    def test_empty_clause_unsat(self):
        assert dpll.solve(2, [()]).satisfiable is False

    def test_no_clauses_sat(self):
        assert dpll.solve(3, []).satisfiable is True

    def test_tautology_ignored(self):
        assert dpll.solve(1, [(1, -1)]).satisfiable is True

    def test_pigeonhole_3_into_2_unsat(self):
        """Three pigeons, two holes."""
        def var(i, j):
            return 2 * i + j + 1
        clauses = [tuple(var(i, j) for j in range(2)) for i in range(3)]
        for j in range(2):
            for i1, i2 in itertools.combinations(range(3), 2):
                clauses.append((-var(i1, j), -var(i2, j)))
        assert dpll.solve(6, clauses).satisfiable is False

    def test_random_instances_match_brute_force(self):
        """200 seeded random 3-SAT instances against full enumeration."""
        rng = random.Random(424242)
        for _ in range(200):
            n = rng.randint(1, 8)
            m = rng.randint(1, 30)
            clauses = []
            for _ in range(m):
                width = rng.randint(1, 3)
                clauses.append(tuple(
                    rng.choice([-1, 1]) * rng.randint(1, n)
                    for _ in range(width)))
            got = dpll.solve(n, clauses).satisfiable
            want = any(
                all(any((lit > 0) == bits[abs(lit) - 1] for lit in cl)
                    for cl in clauses)
                for bits in itertools.product([False, True], repeat=n))
            assert got == want

    def test_models_satisfy_all_clauses(self):
        rng = random.Random(31337)
        for _ in range(50):
            n = rng.randint(2, 7)
            clauses = [tuple(rng.choice([-1, 1]) * rng.randint(1, n)
                             for _ in range(3)) for _ in range(rng.randint(1, 12))]
            result = dpll.solve(n, clauses)
            if result.satisfiable:
                for cl in clauses:
                    assert any(result.assignment[abs(l)] == (l > 0)
                               for l in cl)


class TestExportedInstances:
    """The solver agrees with the structured search on real instances."""

    def test_21_basis_cnf_unsat(self, ortho_graph, proof_bases):
        inst = KSInstance.build(ortho_graph, proof_bases)
        nvars, clauses = dpll.parse_dimacs(export_cnf(inst))
        assert nvars == 160
        assert len(clauses) == 9541
        assert dpll.solve(nvars, clauses).satisfiable is False

    def test_single_basis_cnf_sat(self, ortho_graph, proof_bases):
        inst = KSInstance.build(ortho_graph, [proof_bases[0]])
        nvars, clauses = dpll.parse_dimacs(export_cnf(inst))
        result = dpll.solve(nvars, clauses)
        assert result.satisfiable is True
        assert sum(result.assignment.values()) == 1


# ------------------------------------------------------------------ oracle
# The solver as it stood before its tables were indexed by literal.  The
# literal-indexed ``dpll.solve`` must reproduce it exactly: verdict, model,
# node count and propagation count.

def _reference_solve(nvars: int, clauses) -> dpll.DpllResult:
    """The dict-indexed DPLL with a separate ``enqueue``, kept as an oracle.

    ``dpll.solve`` must return exactly this result, counters and model
    included, on every input.
    """
    imp = {}
    long_clauses = []
    root_units = []
    for cl in clauses:
        lits = tuple(dict.fromkeys(cl))
        if any(-lit in lits for lit in lits):
            continue
        if len(lits) == 0:
            return dpll.DpllResult(False, None, 0, 0)
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
            return dpll.DpllResult(False, None, 0, state["propagations"])

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
        return dpll.DpllResult(True, model, state["nodes"],
                               state["propagations"])
    return dpll.DpllResult(False, None, state["nodes"], state["propagations"])


def _random_cnf(rng):
    """A small seeded CNF mixing every clause shape the solver special-cases.

    Mostly binary and ternary clauses, up to four per variable (with some
    units) or up to eight (mostly ternary, no units), so that both verdicts
    come with real search.  Some clauses are 4 wide, a few are empty, and
    about one in eight gets an explicit duplicate or complementary literal.
    """
    nvars = rng.randint(0, 12)
    if nvars == 0:
        return 0, [()] * rng.randint(0, 2)
    clauses = []
    density = rng.choice((4, 8))
    for _ in range(rng.randint(0, density * nvars)):
        width = rng.choice((2, 2, 3, 3, 3, 3, 3, 4) if density == 4
                           else (2, 3, 3, 3, 3, 3, 3, 3, 3, 4))
        roll = rng.random()
        if roll < 0.04 and density == 4:
            width = 1 if roll > 0.004 else 0
        cl = [rng.choice((-1, 1)) * rng.randint(1, nvars)
              for _ in range(width)]
        if cl and rng.random() < 0.125:
            lit = rng.choice(cl)
            cl.insert(rng.randint(0, len(cl)), rng.choice((lit, -lit)))
        clauses.append(tuple(cl))
    return nvars, clauses


def _wide_cnf(rng):
    """A seeded CNF of many wide clauses under a dense at-most-one graph.

    75-120 or 230-260 wide clauses over 20-80 variables, each with 5 to
    70 distinct variables, so the clause masks span several machine words
    and the counts cross several plane boundaries as they fall.  The
    literals are mostly positive; one clause in five repeats a literal,
    and one in ten also holds a complementary pair.  Negative binary
    clauses over a random graph of density 0.3-0.8 force the wide clauses
    down to units and conflicts, so both verdicts come with real search.
    """
    nvars = rng.randint(20, 80)
    clauses = []
    for _ in range(rng.choice((rng.randint(75, 120), rng.randint(230, 260)))):
        cl = [rng.choice((1,) * 7 + (-1,)) * var for var in
              rng.sample(range(1, nvars + 1), rng.randint(5, min(70, nvars)))]
        if rng.random() < 0.2:
            cl.insert(rng.randint(0, len(cl)), rng.choice(cl))
        if rng.random() < 0.1:
            cl.insert(rng.randint(0, len(cl)), -rng.choice(cl))
        clauses.append(tuple(cl))
    density = rng.uniform(0.3, 0.8)
    clauses += [(-a, -b) for a, b in
                itertools.combinations(range(1, nvars + 1), 2)
                if rng.random() < density]
    rng.shuffle(clauses)
    return nvars, clauses


class TestAgainstReference:
    def test_wide_clause_cnfs_match_reference_exactly(self):
        """Clauses up to 70 wide, and masks over 64 and over 200 clauses."""
        rng = random.Random(20261101)
        verdicts = set()
        long_counts = []
        widths = set()
        for _ in range(20):
            nvars, clauses = _wide_cnf(rng)
            result = dpll.solve(nvars, clauses)
            assert result == _reference_solve(nvars, clauses), (nvars,
                                                                clauses)
            verdicts.add(result.satisfiable)
            # The clauses that stay long: those without a complementary
            # pair, as wide as their distinct literals.
            kept = [len(set(cl)) for cl in clauses if len(cl) > 2
                    and len(set(map(abs, cl))) == len(set(cl))]
            long_counts.append(len(kept))
            widths.update(kept)
        assert verdicts == {False, True}
        assert min(long_counts) > 64 and max(long_counts) > 200
        assert min(widths) == 5 and max(widths) == 70

    def test_random_cnfs_match_reference_exactly(self):
        rng = random.Random(20260601)
        shapes = set()
        for _ in range(3000):
            nvars, clauses = _random_cnf(rng)
            for cl in clauses:
                if not cl:
                    shapes.add("empty")
                elif len(cl) == 1:
                    shapes.add("unit")
                elif len(set(cl)) < len(cl):
                    shapes.add("duplicate")
                if any(-lit in cl for lit in cl):
                    shapes.add("tautology")
            assert dpll.solve(nvars, clauses) == _reference_solve(
                nvars, clauses), (nvars, clauses)
        assert shapes == {"empty", "unit", "duplicate", "tautology"}

    @pytest.mark.parametrize("clauses", [
        [], [()], [(1,)], [(1, 1)], [(1, -1)], [(1, 1, -1)], [(-2, -2, -2)],
        [(1, 2), (-1, 2), (1, -2), (-1, -2)], [(1, 2, 3), (-1,), (-2,)],
        [(1,), (2,), (3,), (-1, -2, -3)],
    ])
    def test_edge_cases_match_reference(self, clauses):
        assert dpll.solve(3, clauses) == _reference_solve(3, clauses)


class TestBasisFamiliesAgainstReference:
    """Exported KS instances against the oracle, counters included.

    These have the real shapes: one positive clause per basis, 32 literals
    wide, and a negative binary clause per orthogonal pair, thousands of
    them.  Small subfamilies are satisfiable after a short search.  The
    proof minus basis 13 or 17 (0-based) still covers its rays and is
    refuted in over 1,200 nodes; minus basis 19 it is satisfiable.
    """

    def test_seeded_small_subfamilies(self, ortho_graph, all_bases):
        rng = random.Random(1414)
        for _ in range(60):
            bases = rng.sample(all_bases, rng.randint(1, 4))
            nvars, clauses = dpll.parse_dimacs(
                export_cnf(KSInstance.build(ortho_graph, bases)))
            assert dpll.solve(nvars, clauses) == _reference_solve(
                nvars, clauses), bases

    @pytest.mark.parametrize("dropped", [13, 17, 19])
    def test_proof_minus_one_basis(self, ortho_graph, proof_bases, dropped):
        bases = proof_bases[:dropped] + proof_bases[dropped + 1:]
        nvars, clauses = dpll.parse_dimacs(
            export_cnf(KSInstance.build(ortho_graph, bases)))
        assert dpll.solve(nvars, clauses) == _reference_solve(nvars, clauses)


class TestPinnedCounters:
    """Verdict and work counters of the exported KS instances."""

    @pytest.mark.parametrize("fixture,nodes,propagations", [
        ("proof_bases", 1347, 96366),
        ("block_bases", 2047, 170113),
        ("all_bases", 1023, 66657),
    ])
    def test_counters(self, request, ortho_graph, fixture, nodes,
                      propagations):
        bases = request.getfixturevalue(fixture)
        inst = KSInstance.build(ortho_graph, bases)
        result = dpll.solve(*dpll.parse_dimacs(export_cnf(inst)))
        assert (result.satisfiable, result.nodes, result.propagations) == (
            False, nodes, propagations)


# ------------------------------------------------------------------ oracle
# The parser as it stood when every line after the problem line was split
# and converted token by token.  ``parse_dimacs`` must return the same
# clauses, or raise the same message, on every text.

def _reference_parse_dimacs(text: str):
    """The per-line parser, kept as an oracle for ``parse_dimacs``."""
    nvars = None
    nclauses = None
    clauses = []
    cur = []
    for number, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            if nvars is not None:
                raise ValueError("line %d: second problem line %r"
                                 % (number, raw))
            parts = line.split()
            if (len(parts) != 4 or parts[1] != "cnf"
                    or not (parts[2].isdecimal() and parts[3].isdecimal())):
                raise ValueError("line %d: malformed problem line: %r"
                                 % (number, raw))
            nvars, nclauses = int(parts[2]), int(parts[3])
            continue
        if nvars is None:
            raise ValueError("line %d: clause before the problem line"
                             % number)
        for tok in line.split():
            try:
                lit = int(tok)
            except ValueError:
                raise ValueError("line %d: %r is not an integer literal"
                                 % (number, tok)) from None
            if lit == 0:
                clauses.append(tuple(cur))
                cur = []
            elif -nvars <= lit <= nvars:
                cur.append(lit)
            else:
                raise ValueError("line %d: literal %d out of range 1..%d"
                                 % (number, lit, nvars))
    if cur:
        raise ValueError("unterminated final clause")
    if nvars is None:
        raise ValueError("missing problem line")
    if len(clauses) != nclauses:
        raise ValueError("problem line promises %d clauses, found %d"
                         % (nclauses, len(clauses)))
    return nvars, clauses


def _parse_outcome(parse, text):
    """The parse result, or the message of the ValueError it raised."""
    try:
        return parse(text)
    except ValueError as exc:
        return str(exc)


# Each outcome, by a fragment of its message; "parsed" is no error.
PARSE_OUTCOMES = {
    "clause before the problem line": "before", "second problem line":
    "second", "malformed problem line": "malformed", "is not an integer":
    "token", "out of range": "range", "unterminated": "unterminated",
    "missing problem line": "missing", "promises": "count"}

FILLER_LINES = ("", "  ", "\t", "c", "c a comment", "  c indented comment",
                "\tc 1 2 0 in a comment", "cnf-like comment")


def _random_dimacs(rng) -> str:
    """A small seeded DIMACS text, well formed or with one flaw of a kind.

    Clauses are laid out several to a line or across lines, with indented
    lines, spaces and tabs, and blank and comment lines on either side of
    the problem line; literals are sometimes written with a plus sign or a
    leading zero.  The flaw, if any, is one error of each kind the parser
    reports, placed at random.
    """
    nvars = rng.randint(1, 9)
    flaw = rng.choice((None,) * 7 + tuple(PARSE_OUTCOMES.values()))
    clauses = [[rng.choice((-1, 1)) * rng.randint(1, nvars)
                for _ in range(rng.randint(0 if rng.random() < 0.05 else 1,
                                           4))]
               for _ in range(rng.randint(1 if flaw == "unterminated" else 0,
                                          9))]
    if flaw == "unterminated" and not clauses[-1]:
        clauses[-1].append(1)
    tokens = []
    for cl in clauses:
        for lit in cl:
            roll = rng.random()
            tokens.append("+%d" % lit if roll < 0.05 and lit > 0 else
                          "0%d" % lit if roll < 0.1 and lit > 0 else
                          str(lit))
        tokens.append("0")
    if flaw == "unterminated":
        tokens.pop()
    elif flaw in ("token", "range"):
        bad = (rng.choice(("x", "1.5", "--2", "c", "p", "0x1", "1-"))
               if flaw == "token" else
               str(rng.choice((-1, 1)) * (nvars + rng.randint(1, 3))))
        tokens.insert(rng.randint(0, len(tokens)), bad)

    lines = []
    at = 0
    while at < len(tokens):
        if rng.random() < 0.25:
            lines.append(rng.choice(FILLER_LINES))
            continue
        take = rng.randint(1, 5)
        sep = rng.choice((" ", " ", "  ", "\t"))
        lines.append(rng.choice(("", "", " ", "\t "))
                     + sep.join(tokens[at:at + take])
                     + rng.choice(("", "", " ")))
        at += take
    if flaw == "second":
        lines.insert(rng.randint(0, len(lines)),
                     rng.choice(("p cnf %d %d" % (nvars, len(clauses)),
                                 " p cnf 1 1", "p")))

    count = len(clauses)
    if flaw == "count":
        count = count + 1 if not count or rng.random() < 0.5 else count - 1
    header = rng.choice(("p cnf {n} {m}", "p  cnf\t{n} {m}",
                         " p cnf {n} {m} "))
    if flaw == "malformed":
        header = rng.choice(("p cnf {n}", "p dnf {n} {m}", "p cnf x {m}",
                             "p cnf -{n} {m}", "p cnf {n} {m} 7", "pcnf"))
    header = header.format(n=nvars, m=count)
    preamble = [rng.choice(FILLER_LINES) for _ in range(rng.randint(0, 3))]
    if flaw == "before":
        preamble.insert(rng.randint(0, len(preamble)),
                        rng.choice(("1 0", " -1 2 0", "0", "x")))
    if flaw == "missing":
        return rng.choice(("\n", "\r\n")).join(preamble)
    text = rng.choice(("\n", "\r\n")).join(preamble + [header] + lines)
    return text + rng.choice(("", "\n", "\n\n"))


class TestParseAgainstReference:
    """The bulk parser against the per-line parser, outcome for outcome."""

    def test_random_texts_match_reference(self):
        rng = random.Random(20261020)
        seen = set()
        for _ in range(4000):
            text = _random_dimacs(rng)
            expected = _parse_outcome(_reference_parse_dimacs, text)
            assert _parse_outcome(dpll.parse_dimacs, text) == expected, text
            seen.add("parsed" if isinstance(expected, tuple) else
                     next(kind for part, kind in PARSE_OUTCOMES.items()
                          if part in expected))
        assert seen == {"parsed", *PARSE_OUTCOMES.values()}

    @pytest.mark.parametrize("text", [
        "", "\n", "c only a comment", "p cnf 0 0", "p cnf 0 0\n\n",
        "p cnf 2 1\n1 2 0 c trailing\n", "p cnf 2 1\n1 2 0\nc\n",
        "p cnf 2 1\n1\nc between the literals\n2 0\n",
        "p cnf 2 1\n1 2 0\np\n", "p cnf 2 1\n1 2 0\np cnf 2 1\nx\n",
        "p cnf 2 1\n3 x 0\n", "p cnf 2 1\nx 3 0\n",
        "p cnf 2 1\n3 0\np cnf 2 1\n", "p cnf 2 1\n\x0c1 2 0\x0bc tail\n",
        "p cnf 2 1\n1 2\x1f0\n", "p cnf 2 1\r\n1 2 0\u2028c x\r\n",
        "p cnf 2 1\n\xa01 2 0\xa0\n", "p cnf 2 1\n\xa0c 1\n1 2 0\n",
        "p cnf 2 1\n1_0 0\n", "p cnf 12 1\n1_0 0\n", "p cnf 2 1\n-0\n",
        "p cnf 2 2\n1 0 0\n", "p cnf 2 1\n0\n1", "p cnf 2 1\n0\n",
        "p cnf 3 4\n1 -2 0 0 2 3 0 -1 0\n",
        "p cnf 2 1\n1 2 0\ncnf\n", "c\np cnf 2 1\n1 2 0\npx\n",
        "p cnf 99999999999999999999 1\n99999999999999999999 0\n",
        # Over several 512-line blocks: one literal spelled three ways,
        # each spelling in its own blocks or all three in every block.
        pytest.param("p cnf 9 1800\n" + "\n".join(
            "%s -3 0" % ("7", "+7", "07")[row // 600] for row in range(1800)),
            id="spellings-by-block"),
        pytest.param("p cnf 9 1800\n" + "\n".join(
            "%s -3 0" % ("7", "+7", "07")[row % 3] for row in range(1800)),
            id="spellings-mixed"),
        # The first error after more than one block of good lines; of two
        # errors in two blocks, the one in the earlier line.
        pytest.param("p cnf 9 700\n" + "1 -2 0\n" * 600 + "1 x 0\n"
                     + "1 0\n" * 99, id="token-after-block"),
        pytest.param("p cnf 9 700\n" + "1 -2 0\n" * 600 + "1 10 0\n"
                     + "1 0\n" * 99, id="range-after-block"),
        pytest.param("p cnf 9 700\n" + "1 -2 0\n" * 600 + "p cnf 9 1\n"
                     + "1 0\n" * 99, id="problem-after-block"),
        pytest.param("p cnf 9 700\n" + "1 -10 0\n" + "1 0\n" * 600
                     + "x 0\n" * 99, id="range-then-token"),
        pytest.param("p cnf 9 700\n" + "y 0\n" + "1 0\n" * 600
                     + "-10 0\n" * 99, id="token-then-range"),
    ])
    def test_edge_texts_match_reference(self, text):
        assert _parse_outcome(dpll.parse_dimacs, text) == \
            _parse_outcome(_reference_parse_dimacs, text)

    @pytest.mark.parametrize("fixture", ["proof_bases", "block_bases",
                                         "all_bases"])
    def test_exported_families_match_reference(self, request, ortho_graph,
                                               fixture):
        text = export_cnf(KSInstance.build(ortho_graph,
                                           request.getfixturevalue(fixture)))
        assert dpll.parse_dimacs(text) == _reference_parse_dimacs(text)
