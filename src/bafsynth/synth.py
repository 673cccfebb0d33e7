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
    every decision that the kept ones already cover.
  - synth_by_mfs_enumeration: enumerate every MFS via the conflict graph
    and pick one satisfying output per MFS.
  - synth_by_mss_enumeration: enumerate every MSS by repeated MaxSAT
    queries on one session that blocks each MSS found, then ask the
    coverage query once whether some MFS is left uncovered, which makes
    the specification unrealizable.

All three return a SynthesisOutcome (status, decision list or witness, and
Stats).  The module also holds the output-disjoint partitioner that splits
a specification into independently synthesizable components.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from .dlist import DecisionList, build_decision_list
from .errors import LimitError
from .graph import build_conflict_graph, enumerate_mis, extend_to_mis
from .maxsat import MaxSatSession, TableSession, new_session, solve_partial_maxsat, table_fits
from .model import Assignment, Specification, index_mask, variable_masks
from .sat import Solver

REALIZABLE = "realizable"
UNREALIZABLE = "unrealizable"


@dataclass
class Stats:
    iterations: int = 0
    sat_calls: int = 0
    maxsat_calls: int = 0
    mss_recorded: int = 0
    wall_time: float = 0.0


@dataclass
class SynthesisOutcome:
    status: str
    decision_list: DecisionList | None = None
    witness_mfs: frozenset[int] | None = None
    witness_input: Assignment | None = None
    stats: Stats = field(default_factory=Stats)

    @property
    def realizable(self) -> bool:
        return self.status == REALIZABLE


class CoverageQueryState:
    """Incremental SAT query for input clauses that one input falsifies
    together and no recorded MSS covers: selector z_i (variable i) forces
    every literal of x-part i false, so conflicts follow from the inputs
    (variables k+1.. in ascending id order).  An MSS adds one clause."""

    def __init__(self, spec: Specification):
        self.spec, k = spec, spec.num_clauses
        xs = sorted({abs(l) for i in spec.indices for l in spec.x_part(i)})
        var = {v: k + n for n, v in enumerate(xs, 1)}
        self.solver = Solver()
        self.solver.ensure_var(k)
        for i in spec.indices:
            for lit in spec.x_part(i):
                self.solver.add_clause((-i, -var[lit] if lit > 0 else var[-lit]))


def next_uncovered_mfs(state: CoverageQueryState):
    """An MFS not covered by any recorded MSS, or None when all are covered.

    The selected subset from the model may be non-maximal; it is extended
    greedily in ascending index order.  Covering is index-set inclusion, so
    any superset of an uncovered set is still uncovered."""
    res = state.solver.solve()
    if not res.satisfiable:
        return None
    seed = frozenset(i for i in state.spec.indices if res.model[i])
    return extend_to_mis(state.spec, seed)


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


def covering_mss(
    spec: Specification,
    mfs: frozenset[int],
    session: MaxSatSession | TableSession | None = None,
):
    """Grow the output clauses of `mfs` into a covering MSS.

    Returns (mss index set, output witness) or None when the output clauses
    of `mfs` are jointly unsatisfiable (the unrealizability witness is the
    given MFS itself).  `session` is `output_session(spec)`, made here when
    not given."""
    res = solve_partial_maxsat(session or output_session(spec), [i - 1 for i in mfs])
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


def _empty_ypart_failure(spec: Specification) -> frozenset[int] | None:
    """An MFS holding a clause with no output literals, if any.

    Such a clause can always be falsified on the input side (tautological
    clauses are removed at parse time), and its empty y-part can never be
    satisfied, so no output works for an input that falsifies the MFS."""
    if not spec.empty_ypart_indices:
        return None
    return extend_to_mis(spec, spec.empty_ypart_indices[:1])


def _realizable(
    spec: Specification,
    t0: float,
    stats: Stats,
    index_sets: list[frozenset[int]],
    witnesses: list[Assignment],
) -> SynthesisOutcome:
    """The list with one decision per index set, timed from `t0`."""
    dl = build_decision_list(spec, index_sets, witnesses)
    stats.wall_time = time.perf_counter() - t0
    return SynthesisOutcome(REALIZABLE, decision_list=dl, stats=stats)


def _unrealizable(
    spec: Specification, t0: float, stats: Stats, mfs: frozenset[int]
) -> SynthesisOutcome:
    """`mfs`, whose output clauses no output satisfies, and an input that
    falsifies it, timed from `t0`."""
    x = falsifying_input(spec, mfs)
    stats.wall_time = time.perf_counter() - t0
    return SynthesisOutcome(UNREALIZABLE, witness_mfs=mfs, witness_input=x, stats=stats)


def back_and_forth(spec: Specification) -> SynthesisOutcome:
    """Alternate uncovered-MFS generation with covering-MSS growth until
    every MFS is covered, then build the decision list from the recorded
    MSS sequence less the decisions `irredundant` drops.  Iteration count
    is bounded by min(#MFS, #MSS)."""
    t0 = time.perf_counter()
    stats = Stats()
    bad = _empty_ypart_failure(spec)
    if bad is not None:
        return _unrealizable(spec, t0, stats, bad)
    state = CoverageQueryState(spec)
    session = output_session(spec)
    mfs_list: list[frozenset[int]] = []
    mss_list: list[frozenset[int]] = []
    witnesses: list[Assignment] = []
    while True:
        mfs = next_uncovered_mfs(state)
        stats.sat_calls += 1
        if mfs is None:
            break
        got = covering_mss(spec, mfs, session)
        stats.maxsat_calls += 1
        if got is None:
            stats.iterations += 1
            return _unrealizable(spec, t0, stats, mfs)
        mss, witness = got
        mfs_list.append(mfs)
        mss_list.append(mss)
        witnesses.append(witness)
        stats.iterations += 1
        if len(mss) == spec.num_clauses:
            break  # full cover: every MFS is a subset, nothing left to find
        record_mss(state, mss)
    stats.mss_recorded = len(mss_list)
    kept = irredundant(spec, mfs_list, mss_list)
    return _realizable(
        spec, t0, stats, [mss_list[i] for i in kept], [witnesses[i] for i in kept]
    )


def irredundant(
    spec: Specification, mfs_list: list[frozenset[int]], mss_list: list[frozenset[int]]
) -> list[int]:
    """The positions, ascending, of the back-and-forth decisions to keep:
    going from the last decision to the first, drop each one whose guard
    fires only on inputs that fire some other decision still kept
    (Espresso's IRREDUNDANT step on the guards).  A decision is sound
    wherever its guard fires, so the kept ones still cover every input.

    MSS i was recorded for MFS i, which no earlier MSS contains.  When no
    later MSS contains it either, `falsifying_input(MFS i)` fires decision
    i alone, so it stays; the last decision always does.  When every
    decision of the list is such a one, nothing can be dropped, and all are
    kept without building masks: the masks would keep them too, at several
    times the cost on lists of a few decisions.  Otherwise every decision
    goes through the step on truth-table masks over the inputs of the
    guards' x-parts: one per guarded x-part, and two per decision (the
    inputs that fire it, and those that fire an earlier one).  When these
    do not fit the MaxSAT table budget (`table_fits`), every decision is
    kept."""
    if not any(
        mfs <= later for i, mfs in enumerate(mfs_list, 1) for later in mss_list[i:]
    ):
        return list(range(len(mss_list)))
    every = frozenset(spec.indices)
    guards = [every - m for m in mss_list]
    guarded = frozenset().union(*guards)
    xs = sorted({abs(l) for g in guarded for l in spec.x_part(g)})
    if not table_fits(len(guarded) + 2 * len(guards), len(xs)):
        return list(range(len(mss_list)))
    true, full = variable_masks(len(xs))
    var = dict(zip(xs, true))
    falsified = {}  # the inputs that falsify x-part g
    for g in guarded:
        sat = 0
        for l in spec.x_part(g):
            sat |= var[l] if l > 0 else full ^ var[-l]
        falsified[g] = full ^ sat
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
    Raises LimitError, before any MFS is built, when more than `mis_limit`
    exist."""
    t0 = time.perf_counter()
    stats = Stats()
    g = build_conflict_graph(spec)
    enum = enumerate_mis(g, mis_limit)
    if enum.overflow:
        raise LimitError(f"more than {mis_limit} maximal falsifiable subsets")
    every, full = frozenset(spec.indices), spec.full_mask
    # the witness solvers number the component's outputs 1..m in ascending
    # id, which keeps their order, so they are sized to the component
    num = {v: n for n, v in enumerate(sorted(spec.outputs), 1)}
    groups = [
        (ys, tuple(num[l] if l > 0 else -num[-l] for l in lits))
        for lits, ys in spec.ypart_groups
    ]
    witnesses = []
    for m in enum.sets:
        mask = full ^ index_mask(every - m)
        # each distinct y-part of m once, ordered by its first clause in m
        hits = sorted((hit & -hit, lits) for ys, lits in groups if (hit := ys & mask))
        s = Solver()
        for _, lits in hits:
            s.add_clause(lits)
        res = s.solve()
        stats.sat_calls += 1
        stats.iterations += 1
        if not res.satisfiable:
            return _unrealizable(spec, t0, stats, m)
        witnesses.append({v: res.model.get(num[v], False) for v in spec.outputs})
    stats.mss_recorded = len(enum.sets)
    return _realizable(spec, t0, stats, list(enum.sets), witnesses)


def synth_by_mss_enumeration(spec: Specification, mss_limit: int = 100000) -> SynthesisOutcome:
    """One decision per MSS of the output clauses, found by repeated MaxSAT
    on one session that gains a blocking clause per discovered MSS.

    An MFS contained in no MSS has jointly unsatisfiable output clauses, so
    once every MSS is found, one coverage query over all of them either
    finds such an MFS, the unrealizability witness, or proves that the
    list covers every input."""
    t0 = time.perf_counter()
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
            return _unrealizable(spec, t0, stats, mfs)
    return _realizable(spec, t0, stats, found, witnesses)


def partition_by_output_variables(spec: Specification) -> list[Specification]:
    """Split into components of clauses connected through shared output
    variables; inputs are kept whole, outputs are restricted per component.
    Components are ordered by their smallest original clause index and
    share the parent's checked clauses and input rendering
    (`Specification.restrict`).  The outputs no clause mentions, if any,
    form one last component without clauses, whose list sets them all
    false."""
    if spec.empty_ypart_indices:
        raise ValueError(
            "specification has a clause with an empty y-part; "
            "it is unrealizable and cannot be partitioned"
        )
    parent = list(range(spec.num_clauses + 1))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    def union(a: int, b: int):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)

    first_with_var: dict[int, int] = {}
    for i in spec.indices:
        for v in map(abs, spec.y_part(i)):
            if v in first_with_var:
                union(i, first_with_var[v])
            else:
                first_with_var[v] = i

    groups: dict[int, list[int]] = {}
    for i in spec.indices:
        groups.setdefault(find(i), []).append(i)

    components = [spec.restrict(groups[root]) for root in sorted(groups)]
    leftover = tuple(v for v in spec.outputs if v not in first_with_var)
    if leftover:
        components.append(spec.restrict((), leftover))
    return components
