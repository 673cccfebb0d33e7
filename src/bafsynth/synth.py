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
from .maxsat import MaxSatSession, TableSession, new_session, solve_partial_maxsat
from .model import Assignment, Specification
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
        xs = sorted({abs(l) for i in spec.indices for l in spec.x_part(i).lits})
        var = {v: k + n for n, v in enumerate(xs, 1)}
        self.solver = Solver()
        self.solver.ensure_var(k)
        for i in spec.indices:
            for lit in spec.x_part(i).lits:
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
    return new_session(spec.outputs, [spec.y_part(i).lits for i in spec.indices])


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
        for lit in spec.x_part(i).lits:
            x[abs(lit)] = lit < 0
    return x


def _empty_ypart_failure(spec: Specification):
    """Unrealizability witness for a clause with no output literals, if any.

    Such a clause can always be falsified on the input side (tautological
    clauses are removed at parse time), and its empty y-part can never be
    satisfied, so no output works for the falsifying input."""
    if not spec.empty_ypart_indices:
        return None
    witness = extend_to_mis(spec, spec.empty_ypart_indices[:1])
    return witness, falsifying_input(spec, witness)


def back_and_forth(spec: Specification) -> SynthesisOutcome:
    """Alternate uncovered-MFS generation with covering-MSS growth until
    every MFS is covered, then build the decision list from the recorded
    MSS sequence.  Iteration count is bounded by min(#MFS, #MSS)."""
    t0 = time.perf_counter()
    stats = Stats()
    bad = _empty_ypart_failure(spec)
    if bad is not None:
        stats.wall_time = time.perf_counter() - t0
        return SynthesisOutcome(
            UNREALIZABLE, witness_mfs=bad[0], witness_input=bad[1], stats=stats
        )
    state = CoverageQueryState(spec)
    session = output_session(spec)
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
            stats.wall_time = time.perf_counter() - t0
            return SynthesisOutcome(
                UNREALIZABLE,
                witness_mfs=mfs,
                witness_input=falsifying_input(spec, mfs),
                stats=stats,
            )
        mss, witness = got
        mss_list.append(mss)
        witnesses.append(witness)
        stats.iterations += 1
        if len(mss) == spec.num_clauses:
            break  # full cover: every MFS is a subset, nothing left to find
        record_mss(state, mss)
    stats.mss_recorded = len(mss_list)
    dl = build_decision_list(spec, mss_list, witnesses)
    stats.wall_time = time.perf_counter() - t0
    return SynthesisOutcome(REALIZABLE, decision_list=dl, stats=stats)


def synth_by_mfs_enumeration(spec: Specification, mis_limit: int = 100000) -> SynthesisOutcome:
    """One decision per MFS, enumerated via the conflict graph; fails with
    the offending MFS as witness when its output clauses are unsatisfiable."""
    t0 = time.perf_counter()
    stats = Stats()
    g = build_conflict_graph(spec)
    enum = enumerate_mis(g, mis_limit)
    if enum.overflow:
        raise LimitError(f"more than {mis_limit} maximal falsifiable subsets")
    witnesses = []
    for m in enum.sets:
        s = Solver()
        for i in sorted(m):
            s.add_clause(spec.y_part(i).lits)
        res = s.solve()
        stats.sat_calls += 1
        stats.iterations += 1
        if not res.satisfiable:
            stats.wall_time = time.perf_counter() - t0
            return SynthesisOutcome(
                UNREALIZABLE,
                witness_mfs=m,
                witness_input=falsifying_input(spec, m),
                stats=stats,
            )
        witnesses.append({v: res.model.get(v, False) for v in spec.outputs})
    stats.mss_recorded = len(enum.sets)
    dl = build_decision_list(spec, list(enum.sets), witnesses)
    stats.wall_time = time.perf_counter() - t0
    return SynthesisOutcome(REALIZABLE, decision_list=dl, stats=stats)


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
            stats.wall_time = time.perf_counter() - t0
            return SynthesisOutcome(
                UNREALIZABLE,
                witness_mfs=mfs,
                witness_input=falsifying_input(spec, mfs),
                stats=stats,
            )
    dl = build_decision_list(spec, found, witnesses)
    stats.wall_time = time.perf_counter() - t0
    return SynthesisOutcome(REALIZABLE, decision_list=dl, stats=stats)


def partition_by_output_variables(spec: Specification) -> list[Specification]:
    """Split into components of clauses connected through shared output
    variables; inputs are kept whole, outputs are restricted per component.
    Components are ordered by their smallest original clause index."""
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
        for v in spec.y_part(i).variables():
            if v in first_with_var:
                union(i, first_with_var[v])
            else:
                first_with_var[v] = i

    groups: dict[int, list[int]] = {}
    for i in spec.indices:
        groups.setdefault(find(i), []).append(i)

    components = []
    for root in sorted(groups):
        members = groups[root]
        outs = sorted({v for i in members for v in spec.y_part(i).variables()})
        clauses = tuple(spec.clause(i) for i in members)
        components.append(Specification(spec.inputs, tuple(outs), clauses))
    return components
