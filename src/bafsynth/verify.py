"""Independent checking of synthesized decision lists and of
unrealizability witnesses.

The verifier shares only the SAT engine with the synthesizer and reads only
the specification and the list or the witness input.

Soundness asks, for every decision i and clause j whose y-part the decision
output falsifies, whether guard_i's x-parts can hold together with the
negation of clause j's x-part.  When j is in guard_i that query contains
x-part j and its negation (or, for an empty x-part, the empty clause), so it
is unsatisfiable without a solver.  Lists whose guards are complements of
MSS always have this shape: a clause whose y-part the output falsifies is
outside the MSS, hence in the guard.  Only pairs with j outside the guard,
which hand-written or corrupted lists can have, get a fresh SAT query.

Coverage asks whether some input fires no guard, in one SAT query with one
selector variable per clause index that occurs in a guard: the selector
implies that the clause's x-part is false, and every decision needs one of
its guard's selectors.

A witness input is confirmed by one SAT query: the y-parts of the clauses
whose x-part the input falsifies must be jointly unsatisfiable.
"""

from __future__ import annotations

from dataclasses import dataclass

from .dlist import DecisionList
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
    (some decision fires on every input); see the module docstring.

    Raises ValueError, before any solving, when the list was built against
    another specification, names other input or output variables, has a
    decision output that is not total over the outputs, or has a guard
    index that is not a clause of the specification."""
    if dl.spec_digest != spec.digest:
        raise ValueError("decision list was built against a different specification")
    outputs = set(spec.outputs)
    if set(dl.inputs) != set(spec.inputs) or set(dl.outputs) != outputs:
        raise ValueError("decision list variables differ from the specification's")
    every = frozenset(spec.indices)
    used: set[int] = set()
    for di, dec in enumerate(dl.decisions, 1):
        if not dec.guard <= every:
            raise ValueError(f"decision {di} guards a clause index out of range")
        if set(dec.output) != outputs:
            raise ValueError(f"decision {di} output is not total over the outputs")
        used |= dec.guard

    for di, dec in enumerate(dl.decisions, 1):
        for j in spec.indices:
            if j in dec.guard or spec.y_part(j).evaluate(dec.output):
                continue  # j in the guard: the query holds x-part j and its negation
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
    base = max((*spec.inputs, *spec.outputs), default=0)
    for g in sorted(used):
        for lit in spec.x_part(g).lits:
            s.add_clause((-(base + g), -lit))
    for dec in dl.decisions:
        s.add_clause([base + g for g in sorted(dec.guard)])  # empty guard: empty clause
    res = s.solve()
    if res.satisfiable:
        x = {v: res.model.get(v, False) for v in spec.inputs}
        return VerificationReport(COUNTEREXAMPLE, COVERAGE, witness_input=x)
    return VerificationReport(VERIFIED)


def witness_has_no_output(spec: Specification, x: Assignment) -> bool:
    """True when no output satisfies `spec` under the total input `x`."""
    s = Solver()
    for i in spec.indices:
        if not spec.x_part(i).evaluate(x):
            s.add_clause(spec.y_part(i).lits)
    return not s.solve().satisfiable
