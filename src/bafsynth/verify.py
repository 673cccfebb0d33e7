"""Independent checking of synthesized decision lists and of
unrealizability witnesses.

The verifier shares with the synthesizer only the SAT engine, the
renumbering of a query's variables (`model.numbering`), the truth-table
masks (`model.clause_masks`) and their budget (`maxsat.table_fits`), and
reads only the specification and the list or the witness input.

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
distinct y-part that some clause outside the guard carries, the clause
masks of the falsified ones are ORed together, the guard's clauses are
cleared, and the clauses left are queried in ascending index order.

Coverage asks whether some input fires no guard.  It is answered on the
truth table over the inputs that the guards' x-parts use, in ascending id,
built by `model.clause_masks`.  A decision fires on the AND of its guard
clauses' masks, the gap is every assignment that no decision fires on, and
its lowest assignment is the witness (inputs the guards do not use read
false).  The table is exhaustive, so its verdict needs no solver.  It is
used when its mask operations (one AND per guard clause, one OR per
decision, and the test for a gap) fit the MaxSAT table budget this way:
SAT_DECISIONS times the operations per decision must pass `table_fits`.
Each operation spans all 2^n bits, while the SAT query costs some 20-50 us
per decision, about what 2^20 bits (the budget over SAT_DECISIONS) of mask
operations cost.  On planted components of 8 to 18 inputs (Python 3.11,
2-core host) the table so chosen took at most 1.2 times as long as the
query, and mostly a fifth to a half of it; counting all the operations
against the budget instead let lists of 8 decisions over 16 or 17 inputs
take the table at up to 11 times the query's time.

Every other list gets one SAT query over each guard's minimal distinct
x-parts: those that properly contain no other x-part of the guard.  An
input that falsifies x-part b also falsifies every x-part a within b, so
"some x-part of the guard is falsified" is unchanged.  A guard's minimal
x-parts are its clauses less the OR of their `Specification.xpart_groups`
masks (the clauses whose x-part properly contains theirs), one OR per
guard clause.  Each kept
x-part of two or more literals gets one selector that implies it is false,
shared by the clauses that carry it (twins); a one-literal x-part (l) is
selected by the literal -l itself; an empty x-part, always false, keeps a
selector with no clause of its own.  Every decision needs one of its
selectors.  Every query is numbered compactly, so its size does not depend
on how many variables the specification has: the inputs that its x-parts
use are 1..n in ascending id (the others read false), and the coverage
selectors are n+1.. in order of first use.  Inputs come before selectors
and each block keeps its order, as with the inputs' own ids and selectors
above every id of the specification; the SAT engine reads ids only through
their order, so both numberings make the same decisions and conflicts and
find the same input.

A witness input is confirmed by one SAT query: the y-parts of the clauses
whose x-part the input falsifies must be jointly unsatisfiable.  Its
outputs are numbered 1..m in ascending id, like every other query.
"""

from __future__ import annotations

from dataclasses import dataclass

from .dlist import DecisionList
from .maxsat import table_fits
from .model import (
    Assignment,
    Specification,
    clause_masks,
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

# the coverage table is used when its mask operations per decision, times
# this, pass `table_fits`; see the module docstring
SAT_DECISIONS = 64


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
    # for coverage: each guard's mask, their OR, and the table's mask
    # operations (one AND per guard clause, one OR per decision, and the
    # test for a gap)
    guards, guarded, ops = [], 0, 1
    for di, dec in enumerate(dl.decisions, 1):
        true, falsified, guard = true_literals(dec.output), 0, index_mask(dec.guard)
        guards.append(guard)
        guarded |= guard
        ops += len(dec.guard) + 1
        # a guard clause needs no query: it would hold its x-part and the negation
        for lits, ys in spec.ypart_groups:
            if ys & ~guard and true.isdisjoint(lits):
                falsified |= ys
        for j in mask_indices(falsified & ~guard):
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

    held = list(mask_indices(guarded))
    xs = variables_of(map(spec.x_part, held))
    if table_fits(SAT_DECISIONS * ops // max(len(guards), 1), len(xs)):
        x = _uncovered_by_table(spec, dl, held, xs)
    else:
        x = _uncovered_by_sat(spec, dl, guards)
    if x is None:
        return VerificationReport(VERIFIED)
    return VerificationReport(COUNTEREXAMPLE, COVERAGE, witness_input=x)


def _uncovered_by_table(
    spec: Specification, dl: DecisionList, held: list[int], xs: list[int]
) -> Assignment | None:
    """The lowest input, over the inputs `xs` that the x-parts of the
    clauses `held` in some guard use (any other input reads false), on
    which no guard of `dl` fires, or None when every input is covered."""
    masks, full = clause_masks(xs, map(spec.x_part, held))
    sat = dict(zip(held, masks))
    covered = 0
    for dec in dl.decisions:
        fires = full
        for g in dec.guard:
            fires &= sat[g]
        covered |= fires
    if covered == full:
        return None
    gap = full ^ covered
    a = (gap & -gap).bit_length() - 1
    x = dict.fromkeys(spec.inputs, False)
    x.update((v, a >> i & 1 == 1) for i, v in enumerate(xs))
    return x


def _uncovered_by_sat(
    spec: Specification, dl: DecisionList, guards: list[int]
) -> Assignment | None:
    """An input on which no guard of `dl` fires, found by the SAT query over
    each guard's minimal distinct x-parts, or None when every input is
    covered; `guards` holds each decision's guard mask.  See the module
    docstring."""
    by_part = dict(spec.xpart_groups)
    wider = [0] + [by_part[x_lits] for x_lits, _ in spec.clauses]
    minimal = []  # per decision, its guard's minimal distinct x-parts
    for dec, guard in zip(dl.decisions, guards):
        drop = 0
        for g in dec.guard:
            drop |= wider[g]  # the clauses whose x-part properly contains g's
        kept = guard & ~drop
        minimal.append(dict.fromkeys(map(spec.x_part, mask_indices(kept))))
    parts = dict.fromkeys(p for m in minimal for p in m)
    var = numbering(variables_of(parts))
    own = [p for p in parts if len(p) != 1]  # the x-parts with a selector of their own
    sel = {p: z for z, p in enumerate(own, len(var) // 2 + 1)}
    sel.update((p, -var[p[0]]) for p in parts if len(p) == 1)
    s = Solver()
    for p in own:
        for lit in p:
            s.add_clause((-sel[p], -var[lit]))
    for m in minimal:
        s.add_clause([sel[p] for p in m])  # empty guard: empty clause
    res = s.solve()
    if not res.satisfiable:
        return None
    # an input that occurs only in decision clauses holding both l and -l,
    # tautologies the engine drops, is not in the model
    return {v: v in var and res.model.get(var[v], False) for v in spec.inputs}


def witness_has_no_output(spec: Specification, x: Assignment) -> bool:
    """True when no output satisfies `spec` under the total input `x`."""
    parts = [spec.y_part(i) for i in spec.indices if not holds(spec.x_part(i), x)]
    var = numbering(variables_of(parts))
    s = Solver()
    for lits in parts:
        s.add_clause([var[l] for l in lits])
    return not s.solve().satisfiable
