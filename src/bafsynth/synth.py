"""Synthesis procedures.

Three ways to produce a decision list from a split specification:

  - back_and_forth: alternate a SAT query over the input variables that
    yields a maximal falsifiable subset (MFS) of the input clauses not yet
    covered by any recorded maximal satisfiable subset (MSS) of the output
    clauses, with a MaxSAT query that grows that MFS's output clauses into
    a covering MSS.  Stops when every MFS is covered, or reports
    unrealizability when some MFS's output clauses cannot all be satisfied.
    Both queries are incremental: one coverage solver and one MaxSAT
    session (`output_session`) per component, which is a truth table over
    the component's outputs when they are few and a SAT solver otherwise.
    Each recorded MSS yields one decision, and `irredundant` then drops
    every decision that the kept ones already cover, on the inputs' truth
    table (`model.clause_masks`).  The loop runs on the component less
    its `subsumed` clauses, and the list is mapped back to the
    component's own clause numbering.
  - synth_by_mfs_enumeration: enumerate every MFS via the conflict graph
    and pick one output per MFS that satisfies the MFS's distinct y-parts.
    A component whose truth table is cheap enough gets one `TableSession`
    over its outputs, in ascending id, with one soft clause per distinct
    y-part, and each MFS is one MaxSAT query on it with the MFS's y-parts
    hard (counted in `maxsat_calls`); every other component gets a fresh
    SAT solver per MFS holding just those y-parts (counted in `sat_calls`).  The table is
    taken when its masks, one per distinct y-part and one per output,
    times MFS_TABLE_FACTOR pass `table_fits`, so TABLE_BITS = 0 forces the
    solvers.  A query costs the table a few mask operations over all 2^m
    assignments of the m outputs per y-part, and a solver about the same
    per y-part whatever m is, so the table's cost relative to the solvers
    doubles with each output; building the table's m output masks is the
    rest.  Timed per component on planted and random components of 1 to 22
    outputs with 1 to 88 distinct y-parts (Python 3.11, 2-core host), the
    table took mostly 0.4 to 0.9 times the solvers' time up to 14 outputs
    (at most 1.2), 0.8 to 1.3 times at 15, 0.9 to 1.5 at 16 and 37 to 71
    at 22; with a single y-part over 18 outputs it took 6 times as long.
    With the factor 32 the table serves 14 outputs with up to 113 y-parts,
    15 with up to 48, 16 with up to 15 and never more; counting only the
    y-parts would have let one y-part over 19 outputs take it.
  - synth_by_mss_enumeration: enumerate every MSS by repeated MaxSAT
    queries on one session that blocks each MSS found, then ask the
    coverage query once whether some MFS is left uncovered, which makes
    the specification unrealizable.

All three return a SynthesisOutcome (status, decision list or witness MFS,
and Stats, which holds counters only: `cli.run_pipeline` times each call
and derives the witness input with `falsifying_input`).
Their solver queries number variables with `model.numbering`.  The module
also holds the output-disjoint partitioner that splits a specification
into independently synthesizable components.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .dlist import DecisionList, build_decision_list
from .errors import LimitError
from .graph import build_conflict_graph, components, conflict_masks, enumerate_mis, extend_to_mis
from .maxsat import MaxSatSession, TableSession, new_session, solve_partial_maxsat, table_fits
from .model import (
    Assignment,
    Specification,
    clause_masks,
    index_mask,
    mask_indices,
    numbering,
    true_literals,
    variables_of,
)
from .sat import Solver

REALIZABLE = "realizable"
UNREALIZABLE = "unrealizable"

# mfs-enum finds a component's outputs on a truth table when its masks, one
# per distinct y-part and one per output, times this, pass `table_fits`; see
# the module docstring
MFS_TABLE_FACTOR = 32


@dataclass
class Stats:
    iterations: int = 0
    sat_calls: int = 0
    maxsat_calls: int = 0
    mss_recorded: int = 0
    subsumed: int = 0


@dataclass
class SynthesisOutcome:
    status: str
    decision_list: DecisionList | None = None
    witness_mfs: frozenset[int] | None = None
    stats: Stats = field(default_factory=Stats)

    @property
    def realizable(self) -> bool:
        return self.status == REALIZABLE


class CoverageQueryState:
    """Incremental SAT query for input clauses that one input falsifies
    together and no recorded MSS covers: selector z_i (variable i) forces
    every literal of x-part i false, so conflicts follow from the inputs
    (variables k+1.. in ascending id order).  An MSS adds one clause.  The
    component's `conflict_masks` are built once here, for every extension
    of a model to an MFS."""

    def __init__(self, spec: Specification):
        self.spec, k = spec, spec.num_clauses
        self.conflicts = conflict_masks(spec)
        var = numbering(variables_of(map(spec.x_part, spec.indices)), k + 1)
        self.solver = Solver()
        self.solver.ensure_var(k)
        for i in spec.indices:
            for lit in spec.x_part(i):
                self.solver.add_clause((-i, -var[lit]))


def next_uncovered_mfs(state: CoverageQueryState):
    """An MFS not covered by any recorded MSS, or None when all are covered.

    The selected subset from the model may be non-maximal; it is extended
    greedily in ascending index order.  Covering is index-set inclusion, so
    any superset of an uncovered set is still uncovered."""
    res = state.solver.solve()
    if not res.satisfiable:
        return None
    return extend_to_mis(state.conflicts, (i for i in state.spec.indices if res.model[i]))


def record_mss(state: CoverageQueryState, mss: frozenset[int]) -> None:
    """Block every subset of `mss` from future models via one clause."""
    complement = sorted(set(state.spec.indices) - mss)
    if not complement:
        raise ValueError("MSS covers every clause; synthesis is already complete")
    state.solver.add_clause(complement)


def output_session(spec: Specification) -> MaxSatSession | TableSession:
    """The component's MaxSAT session: y-part i is soft clause i-1, over
    the component's output variables, shared by all its MaxSAT queries."""
    return new_session(spec.outputs, [spec.y_part(i) for i in spec.indices])


def covering_mss(spec: Specification, mfs: frozenset[int], session: MaxSatSession | TableSession):
    """Grow the output clauses of `mfs` into a covering MSS on `session`,
    the component's `output_session(spec)`.

    Returns (mss index set, output witness) or None when the output clauses
    of `mfs` are jointly unsatisfiable (the unrealizability witness is the
    given MFS itself)."""
    res = solve_partial_maxsat(session, [i - 1 for i in mfs])
    if not res.optimal:
        return None
    mss = frozenset(j + 1 for j in res.satisfied_soft)
    assert mfs <= mss
    return mss, res.model


def falsifying_input(spec: Specification, indices: frozenset[int]) -> Assignment:
    """An input assignment falsifying every x-part in an all-falsifiable
    index set; unconstrained inputs default to false."""
    x = {v: False for v in spec.inputs}
    for i in sorted(indices):
        for lit in spec.x_part(i):
            x[abs(lit)] = lit < 0
    return x


def subsumed(spec: Specification) -> int:
    """The mask of the clauses whose literals properly contain those of
    another clause.  Such a clause c is implied by the one it contains, d,
    so the specification less c has the same models and Skolem functions
    (the subsumption step of SAT and QBF preprocessors).  The clauses that
    contain d are d's `Specification.holders`, less d; the empty clause,
    which has no literal, is held by every other clause."""
    dropped = 0
    for i, (x_lits, y_lits) in enumerate(spec.clauses, 1):
        dropped |= spec.holders(x_lits + y_lits) ^ 1 << i
    return dropped


def back_and_forth(spec: Specification) -> SynthesisOutcome:
    """Alternate uncovered-MFS generation with covering-MSS growth until
    every MFS is covered, then build the decision list from the recorded
    MSS sequence less the decisions `irredundant` drops.  Iteration count
    is bounded by min(#MFS, #MSS).

    The loop runs on the specification less its `subsumed` clauses, and
    the result is mapped back to `spec`'s own clause numbering.  A decision
    whose output falsifies the y-part of a dropped clause c also falsifies
    that of every kept clause d that c contains, so each such d is in the
    guard.  Adding c to the guard then leaves the inputs that fire it as
    they were, since d's x-part is within c's; every other dropped clause
    has its y-part satisfied by the output.  An unrealizability witness
    maps back through `extend_to_mis` on `spec`'s `conflict_masks`."""
    stats = Stats()
    dropped = subsumed(spec)
    kept = list(mask_indices(spec.full_mask ^ dropped))
    part = spec.restrict(kept, spec.outputs)  # an output may occur only in a dropped clause
    stats.subsumed = spec.num_clauses - len(kept)
    state = CoverageQueryState(part)
    session = output_session(part)
    mss_list: list[frozenset[int]] = []
    witnesses: list[Assignment] = []
    while True:
        mfs = next_uncovered_mfs(state)
        stats.sat_calls += 1
        if mfs is None:
            break
        got = covering_mss(part, mfs, session)
        stats.maxsat_calls += 1
        stats.iterations += 1
        if got is None:
            mfs = extend_to_mis(conflict_masks(spec), (kept[i - 1] for i in mfs))
            return SynthesisOutcome(UNREALIZABLE, witness_mfs=mfs, stats=stats)
        mss, witness = got
        mss_list.append(mss)
        witnesses.append(witness)
        stats.mss_recorded += 1
        if len(mss) == part.num_clauses:
            break  # full cover: every MFS is a subset, nothing left to find
        record_mss(state, mss)
    chosen = irredundant(part, mss_list)
    mss_list, witnesses = [mss_list[i] for i in chosen], [witnesses[i] for i in chosen]
    back = [(c, spec.y_part(c)) for c in mask_indices(dropped)]
    for n, (mss, witness) in enumerate(zip(mss_list, witnesses)):
        true = true_literals(witness)
        mss_list[n] = frozenset(kept[j - 1] for j in mss).union(
            c for c, y_lits in back if not true.isdisjoint(y_lits)
        )
    dl = build_decision_list(spec, mss_list, witnesses)
    return SynthesisOutcome(REALIZABLE, dl, stats=stats)


def irredundant(spec: Specification, mss_list: list[frozenset[int]]) -> list[int]:
    """The positions, ascending, of the back-and-forth decisions to keep:
    going from the last decision to the first, drop each one whose guard
    fires only on inputs that fire some other decision still kept
    (Espresso's IRREDUNDANT step on the guards).  A decision is sound
    wherever its guard fires, so the kept ones still cover every input.
    The step runs on truth-table masks over the inputs of the guards'
    x-parts: one per guarded x-part, and two per decision (the inputs that
    fire it, and those that fire an earlier one).  When these do not fit
    the MaxSAT table budget (`table_fits`), every decision is kept."""
    every = frozenset(spec.indices)
    guards = [every - m for m in mss_list]
    guarded = frozenset().union(*guards)
    xs = variables_of(map(spec.x_part, guarded))
    if not table_fits(len(guarded) + 2 * len(guards), len(xs)):
        return list(range(len(mss_list)))
    sat, full = clause_masks(xs, map(spec.x_part, guarded))
    falsified = {g: full ^ s for g, s in zip(guarded, sat)}  # inputs falsifying x-part g
    fires = []
    for guard in guards:
        blocked = 0
        for g in guard:
            blocked |= falsified[g]
        fires.append(full ^ blocked)
    earlier = [0]  # earlier[i]: the inputs that fire a decision before i
    for f in fires[:-1]:
        earlier.append(earlier[-1] | f)
    kept, later = [], 0
    for i in reversed(range(len(fires))):
        if fires[i] & ~(earlier[i] | later):
            kept.append(i)
            later |= fires[i]
    return kept[::-1]


def synth_by_mfs_enumeration(spec: Specification, mis_limit: int = 100000) -> SynthesisOutcome:
    """One decision per MFS, enumerated via the conflict graph; fails with
    the offending MFS as witness when its output clauses are unsatisfiable.
    `enumerate_mis` raises LimitError, before any MFS is built, when more
    than `mis_limit` exist.  The outputs come from one table per component
    or one solver per MFS, as the module docstring describes."""
    stats = Stats()
    g = build_conflict_graph(spec)
    enum = enumerate_mis(g, mis_limit)
    every, full = frozenset(spec.indices), spec.full_mask
    outputs, groups = sorted(spec.outputs), spec.ypart_groups
    table = None
    if table_fits(MFS_TABLE_FACTOR * (len(groups) + len(outputs)), len(outputs)):
        table = TableSession(outputs, [lits for lits, _ in groups])
    else:
        # the witness solvers number the outputs 1..m in ascending id,
        # which keeps their order, so they are sized to the component
        num = numbering(outputs)
        local = [(ys, tuple(map(num.get, lits))) for lits, ys in groups]
    witnesses = []
    for m in enum.sets:
        mask = full ^ index_mask(every - m)
        stats.iterations += 1
        if table is not None:
            res = solve_partial_maxsat(table, [j for j, (_, ys) in enumerate(groups) if ys & mask])
            stats.maxsat_calls += 1
            output = res.model if res.optimal else None
        else:
            # each distinct y-part of m once, ordered by its first clause in m
            hits = sorted((hit & -hit, lits) for ys, lits in local if (hit := ys & mask))
            s = Solver()
            for _, lits in hits:
                s.add_clause(lits)
            res = s.solve()
            stats.sat_calls += 1
            output = None
            if res.satisfiable:
                output = {v: res.model.get(num[v], False) for v in spec.outputs}
        if output is None:
            return SynthesisOutcome(UNREALIZABLE, witness_mfs=m, stats=stats)
        witnesses.append(output)
        stats.mss_recorded += 1
    dl = build_decision_list(spec, list(enum.sets), witnesses)
    return SynthesisOutcome(REALIZABLE, dl, stats=stats)


def synth_by_mss_enumeration(spec: Specification, mss_limit: int = 100000) -> SynthesisOutcome:
    """One decision per MSS of the output clauses, found by repeated MaxSAT
    on one session that gains a blocking clause per discovered MSS.

    An MFS contained in no MSS has jointly unsatisfiable output clauses, so
    once every MSS is found, one coverage query over all of them either
    finds such an MFS, the unrealizability witness, or proves that the
    list covers every input.  Raises ValueError before any query unless
    `mss_limit` is positive, and LimitError past `mss_limit` MSS."""
    if mss_limit < 1:
        raise ValueError("limit must be positive")
    stats = Stats()
    k = spec.num_clauses
    session = output_session(spec)
    found: list[frozenset[int]] = []
    witnesses: list[Assignment] = []
    while True:
        res = solve_partial_maxsat(session)
        stats.maxsat_calls += 1
        if not res.optimal:
            break  # every MSS found
        mss = frozenset(j + 1 for j in res.satisfied_soft)
        assert mss not in found
        found.append(mss)
        witnesses.append(res.model)
        if len(found) > mss_limit:
            raise LimitError(f"more than {mss_limit} maximal satisfiable subsets")
        if len(mss) == k:
            break  # single full MSS; nothing else can be maximal
        session.require_any(j - 1 for j in spec.indices if j not in mss)
    stats.iterations = stats.mss_recorded = len(found)
    if len(found[0]) < k:  # else the single full MSS covers every MFS
        state = CoverageQueryState(spec)
        for mss in found:
            record_mss(state, mss)
        mfs = next_uncovered_mfs(state)
        stats.sat_calls += 1
        if mfs is not None:
            return SynthesisOutcome(UNREALIZABLE, witness_mfs=mfs, stats=stats)
    dl = build_decision_list(spec, found, witnesses)
    return SynthesisOutcome(REALIZABLE, dl, stats=stats)


def partition_by_output_variables(spec: Specification) -> list[Specification]:
    """Split into components of clauses connected through shared output
    variables; inputs are kept whole, outputs are restricted per component.
    Components are ordered by their smallest original clause index and
    share the parent's checked clauses and input rendering
    (`Specification.restrict`).  A clause with an empty y-part shares no
    output, so it is a component of its own without outputs.  The outputs
    no clause mentions, if any, form one last component without clauses,
    whose list sets them all false.  The components are those of
    `graph.components` on one mask per distinct y-part of
    `Specification.ypart_groups`: the y-parts that share an output variable
    with it, itself included; each component then takes the clauses of its
    y-parts.  When the clauses form one component that uses every output
    and `spec.outputs` is ascending, that component is `spec` itself, which
    is what `restrict` would rebuild."""
    groups = spec.ypart_groups
    sharers: dict[int, int] = {}  # output variable -> mask of the y-parts using it
    for g, (lits, _) in enumerate(groups, 1):
        for l in lits:
            sharers[abs(l)] = sharers.get(abs(l), 0) | 1 << g
    links = [0]
    for lits, _ in groups:
        link = 0
        for l in lits:
            link |= sharers[abs(l)]
        links.append(link)
    isolated, linked = components(links)  # isolated: the empty y-part, if any
    masks = []
    for part in linked:
        mask = 0
        for g in mask_indices(part):
            mask |= groups[g - 1][1]
        masks.append(mask)
    for g in isolated:
        masks.extend(1 << i for i in mask_indices(groups[g - 1][1]))
    leftover = tuple(v for v in spec.outputs if v not in sharers)
    if masks == [spec.full_mask] and not leftover and spec.outputs == tuple(sorted(spec.outputs)):
        return [spec]
    masks.sort(key=lambda mask: mask & -mask)
    parts = [spec.restrict(mask_indices(mask)) for mask in masks]
    if leftover:
        parts.append(spec.restrict((), leftover))
    return parts
