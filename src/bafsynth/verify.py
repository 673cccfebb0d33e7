"""Independent checking of synthesized decision lists.

The verifier shares only the SAT engine with the synthesizer: soundness and
coverage are decided by fresh SAT queries built directly from the decision
list, and the brute-force oracles below enumerate assignment space outright.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .dlist import DecisionList
from .errors import LimitError
from .model import Assignment, Specification
from .sat import Solver

VERIFIED = "verified"
COUNTEREXAMPLE = "counterexample"

SOUNDNESS = "soundness"
COVERAGE = "coverage-gap"


@dataclass
class VerificationReport:
    status: str
    failure_kind: str | None = None
    decision_index: int | None = None  # 1-based, soundness failures only
    clause_index: int | None = None  # 1-based, soundness failures only
    witness_input: Assignment | None = None

    @property
    def verified(self) -> bool:
        return self.status == VERIFIED


def verify_decision_list(spec: Specification, dl: DecisionList) -> VerificationReport:
    """Check soundness (any firing decision satisfies the CNF) and coverage
    (some decision fires on every input) with SAT queries.

    Soundness per decision i and clause j whose y-part the decision output
    falsifies: guard_i's x-parts together with the negation of clause j's
    x-part must be unsatisfiable.  Coverage: the conjunction of the negated
    guards, encoded with one selector per guard clause, must be
    unsatisfiable."""
    if dl.spec_digest != spec.digest:
        raise ValueError("decision list was built against a different specification")

    for di, dec in enumerate(dl.decisions, 1):
        for j in spec.indices:
            if spec.y_part(j).evaluate(dec.output):
                continue
            s = Solver()
            for g in sorted(dec.guard):
                s.add_clause(spec.x_part(g).lits)
            for lit in spec.x_part(j).lits:
                s.add_clause((-lit,))
            res = s.solve()
            if res.satisfiable:
                x = {v: res.model.get(v, False) for v in spec.inputs}
                return VerificationReport(COUNTEREXAMPLE, SOUNDNESS, di, j, x)

    s = Solver()
    nxt = max((*spec.inputs, *spec.outputs), default=0)
    for dec in dl.decisions:
        selector_clause = []
        for g in sorted(dec.guard):
            nxt += 1
            selector_clause.append(nxt)
            for lit in spec.x_part(g).lits:
                s.add_clause((-nxt, -lit))
        s.add_clause(selector_clause)  # empty guard yields the empty clause
    res = s.solve()
    if res.satisfiable:
        x = {v: res.model.get(v, False) for v in spec.inputs}
        return VerificationReport(COUNTEREXAMPLE, COVERAGE, witness_input=x)
    return VerificationReport(VERIFIED)


@dataclass
class BruteForceTable:
    """Exhaustive input-to-output table; None marks inputs with no output."""

    inputs: tuple[int, ...]
    outputs: tuple[int, ...]
    entries: dict[tuple[bool, ...], Assignment | None]

    @property
    def realizable(self) -> bool:
        return all(v is not None for v in self.entries.values())


def brute_force_synthesize(spec: Specification, limit: int = 16) -> BruteForceTable:
    """For every input assignment, search all output assignments for one
    satisfying the CNF; requires |inputs| + |outputs| <= limit."""
    m, n = len(spec.inputs), len(spec.outputs)
    if m + n > limit:
        raise LimitError(f"{m + n} variables exceed the brute-force limit {limit}")
    entries: dict[tuple[bool, ...], Assignment | None] = {}
    for xbits in product((False, True), repeat=m):
        x = dict(zip(spec.inputs, xbits))
        found = None
        for ybits in product((False, True), repeat=n):
            y = dict(zip(spec.outputs, ybits))
            if spec.evaluate({**x, **y}):
                found = y
                break
        entries[xbits] = found
    return BruteForceTable(spec.inputs, spec.outputs, entries)


def brute_force_mfs_mss(
    spec: Specification, clause_limit: int = 20, var_limit: int = 16
) -> tuple[list[frozenset[int]], list[frozenset[int]]]:
    """Exact MFS and MSS lists by exhausting the assignment space.

    Every all-falsifiable set is contained in the falsified-set of its own
    witness, so the MFS are exactly the maximal falsified-sets over all
    inputs; dually the MSS are the maximal satisfied-sets over all outputs.
    Both lists come back in lexicographic order of sorted indices."""
    if spec.num_clauses > clause_limit:
        raise LimitError(f"{spec.num_clauses} clauses exceed the limit {clause_limit}")
    if len(spec.inputs) > var_limit or len(spec.outputs) > var_limit:
        raise LimitError(f"variable block larger than the limit {var_limit}")
    fals_sets = set()
    for xbits in product((False, True), repeat=len(spec.inputs)):
        x = dict(zip(spec.inputs, xbits))
        fals_sets.add(frozenset(i for i in spec.indices if not spec.x_part(i).evaluate(x)))
    sat_sets = set()
    for ybits in product((False, True), repeat=len(spec.outputs)):
        y = dict(zip(spec.outputs, ybits))
        sat_sets.add(frozenset(i for i in spec.indices if spec.y_part(i).evaluate(y)))
    return _maximal_elements(fals_sets), _maximal_elements(sat_sets)


def _maximal_elements(family: set[frozenset[int]]) -> list[frozenset[int]]:
    maximal = [s for s in family if not any(s < t for t in family)]
    maximal.sort(key=sorted)
    return maximal
