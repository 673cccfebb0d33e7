"""Independent checking of synthesized decision lists and of
unrealizability witnesses.

The verifier shares only the SAT engine and the renumbering of a query's
variables (`model.numbering`) with the synthesizer, and reads only the
specification and the list or the witness input.

Soundness asks, for every decision i and clause j whose y-part the decision
output falsifies, whether guard_i's x-parts can hold together with the
negation of clause j's x-part.  When j is in guard_i that query contains
x-part j and its negation (or, for an empty x-part, the empty clause), so it
is unsatisfiable without a solver.  Lists whose guards are complements of
MSS always have this shape: a clause whose y-part the output falsifies is
outside the MSS, hence in the guard.  Only pairs with j outside the guard,
which hand-written or corrupted lists can have, get a fresh SAT query.
The pairs are picked per decision from the specification's y-part index
(`Specification.ypart_groups`): the output is tested once against each
distinct y-part, the clause masks of the falsified ones are ORed together,
the guard's clauses are cleared, and the clauses left are queried in
ascending index order.

Coverage asks whether some input fires no guard, in one SAT query with one
selector variable per clause index that occurs in a guard: the selector
implies that the clause's x-part is false, and every decision needs one of
its guard's selectors.  Every query is numbered compactly, so its size
does not depend on how many variables the specification has: the inputs
that its x-parts use are 1..n in ascending id (the others read false), and
the coverage selectors are n+1.. in ascending clause index.  Inputs come
before selectors and each block keeps its order, as with the inputs' own
ids and selectors above every id of the specification; the SAT engine
reads ids only through their order, so both numberings make the same
decisions and conflicts and find the same input.

A witness input is confirmed by one SAT query: the y-parts of the clauses
whose x-part the input falsifies must be jointly unsatisfiable.
"""

from __future__ import annotations

from dataclasses import dataclass

from .dlist import DecisionList
from .model import (
    Assignment,
    Specification,
    holds,
    index_mask,
    mask_indices,
    numbering,
    true_literals,
    variables_of,
)
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


def check_decision_list(spec: Specification, dl: DecisionList) -> None:
    """Raise ValueError when the list was built against another
    specification, names other input or output variables, has a decision
    output that is not total over the outputs, or has a guard index that
    is not a clause of the specification.  These checks need no solver."""
    if dl.spec_digest != spec.digest:
        raise ValueError("decision list was built against a different specification")
    outputs = set(spec.outputs)
    same_inputs = dl.inputs == spec.inputs or set(dl.inputs) == set(spec.inputs)
    if not same_inputs or set(dl.outputs) != outputs:
        raise ValueError("decision list variables differ from the specification's")
    every = frozenset(spec.indices)
    for di, dec in enumerate(dl.decisions, 1):
        if not dec.guard <= every:
            raise ValueError(f"decision {di} guards a clause index out of range")
        if set(dec.output) != outputs:
            raise ValueError(f"decision {di} output is not total over the outputs")


def verify_decision_list(spec: Specification, dl: DecisionList) -> VerificationReport:
    """Check soundness (any firing decision satisfies the CNF) and coverage
    (some decision fires on every input); see the module docstring.

    Raises ValueError, before any solving, when `check_decision_list`
    rejects the list."""
    check_decision_list(spec, dl)
    used: set[int] = set()
    for di, dec in enumerate(dl.decisions, 1):
        used |= dec.guard
        true, falsified = true_literals(dec.output), 0
        for lits, ys in spec.ypart_groups:
            if true.isdisjoint(lits):
                falsified |= ys
        # a guard clause needs no query: it would hold its x-part and the negation
        for j in mask_indices(falsified & ~index_mask(dec.guard)):
            var = numbering(variables_of([*map(spec.x_part, dec.guard), spec.x_part(j)]))
            s = Solver()
            for g in sorted(dec.guard):
                s.add_clause([var[lit] for lit in spec.x_part(g)])
            for lit in spec.x_part(j):
                s.add_clause((-var[lit],))
            res = s.solve()
            if res.satisfiable:
                x = {v: v in var and res.model[var[v]] for v in spec.inputs}
                return VerificationReport(COUNTEREXAMPLE, SOUNDNESS, di, j, x)

    guarded = sorted(used)
    var = numbering(variables_of(map(spec.x_part, guarded)))
    sel = numbering(guarded, len(var) // 2 + 1)
    s = Solver()
    for g in guarded:
        for lit in spec.x_part(g):
            s.add_clause((-sel[g], -var[lit]))
    for dec in dl.decisions:
        s.add_clause([sel[g] for g in sorted(dec.guard)])  # empty guard: empty clause
    res = s.solve()
    if res.satisfiable:
        x = {v: v in var and res.model[var[v]] for v in spec.inputs}
        return VerificationReport(COUNTEREXAMPLE, COVERAGE, witness_input=x)
    return VerificationReport(VERIFIED)


def witness_has_no_output(spec: Specification, x: Assignment) -> bool:
    """True when no output satisfies `spec` under the total input `x`."""
    s = Solver()
    for i in spec.indices:
        if not holds(spec.x_part(i), x):
            s.add_clause(spec.y_part(i))
    return not s.solve().satisfiable
