"""Incremental CDCL SAT solver used as the NP oracle.

Watched-literal propagation, first-UIP clause learning, activity-based
branching and Luby restarts.  The clause database only grows; there is no
clause deletion.  Solving under assumptions is supported by deciding the
assumption literals first, so the learned clauses are always consequences
of the database alone and stay valid across calls.

All heuristic constants are fixed for reproducibility:
  - branching decides the unassigned variable with the highest activity,
    smallest id on ties, and always assigns it false first.  Only variables
    that occur in a clause given to `add_clause` are candidates;
    `ensure_var` only sizes the arrays.  A variable that occurs in no
    clause is never decided and reads false in the model, as a false-first
    decision with nothing to propagate would leave it;
  - the candidates live in a `heapq` list of (-activity, id) entries with
    lazy deletion: a variable is pushed when it first occurs in a clause,
    when a backjump unassigns it and when a bump raises it while it is
    unassigned, and old entries stay behind.  The pick pops until it finds
    an unassigned variable whose entry holds its current activity.
    Activity only grows between rescales, so a stale entry's activity is
    smaller than the current one and never wins over the current entry.
    Once a backjump leaves more than 2 * nvars entries, the heap is rebuilt
    with one entry per unassigned candidate;
  - activity bump 1.0, decay factor 0.95, rescale threshold 1e100.  The
    rescale multiplies every activity by 1e-100, which shrinks them below
    their entries' keys and can turn distinct activities into ties, so the
    heap is then rebuilt the same way;
  - Luby restarts with a base interval of 128 conflicts.

`decisions` and `conflicts` count branching decisions (assumptions not
included) and conflicts over the solver's lifetime.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heapify, heappop, heappush

_RESCALE_LIMIT = 1e100
_VAR_DECAY = 0.95
_RESTART_BASE = 128


@dataclass
class SatResult:
    satisfiable: bool
    model: dict[int, bool] | None = None


def _luby(i: int) -> int:
    """i-th element (1-based) of the Luby restart sequence 1,1,2,1,1,2,4,..."""
    while True:
        k = i.bit_length()
        if i == (1 << k) - 1:
            return 1 << (k - 1)
        i -= (1 << (k - 1)) - 1


class Solver:
    """A single-threaded incremental SAT solver over variables 1..nvars."""

    def __init__(self):
        self.nvars = 0
        self.assign = [0]  # per var: 0 unassigned, +1 true, -1 false
        self.level = [0]
        self.reason: list[list[int] | None] = [None]
        self.activity = [0.0]
        self.var_inc = 1.0
        self.occurs = [False]  # per var: occurs in a clause, so it can be decided
        self.heap: list[tuple[float, int]] = []  # (-activity, var), lazily deleted
        self.watches: dict[int, list[list[int]]] = {}
        self.problem_lits: list[tuple[int, ...]] = []  # as added, for the model check
        self.root_units: list[int] = []
        self.unsat_at_root = False
        self.trail: list[int] = []
        self.trail_lim: list[int] = []
        self.qhead = 0
        self.decisions = 0
        self.conflicts = 0

    # ------------------------------------------------------------------
    # clause database

    def ensure_var(self, v: int):
        grow = v - self.nvars
        if grow > 0:
            self.nvars = v
            self.assign += [0] * grow
            self.level += [0] * grow
            self.reason += [None] * grow
            self.activity += [0.0] * grow
            self.occurs += [False] * grow

    def add_clause(self, lits) -> None:
        """Add a clause permanently; duplicates and tautologies are tolerated.

        The clause is simplified against the level-0 assignment, which only
        ever grows, so literals false at the root can be dropped and a
        clause satisfied at the root needs no watches."""
        if self.trail_lim:
            self._cancel_until(0)
        lits = sorted(set(lits), key=abs)
        if len({abs(l) for l in lits}) < len(lits):
            return  # tautology, no constraint
        if lits:
            self.ensure_var(abs(lits[-1]))
        occurs, act = self.occurs, self.activity
        for l in lits:
            v = abs(l)
            if not occurs[v]:
                occurs[v] = True
                heappush(self.heap, (-act[v], v))
        self.problem_lits.append(tuple(lits))
        assign = self.assign
        kept = []
        for l in lits:
            val = assign[l] if l > 0 else -assign[-l]
            if val > 0:
                return  # satisfied by a permanent root assignment
            if val == 0:
                kept.append(l)
        if not kept:
            self.unsat_at_root = True
        elif len(kept) == 1:
            self.root_units.append(kept[0])
        else:
            self._watch(kept)

    def _watch(self, c: list[int]):
        self.watches.setdefault(c[0], []).append(c)
        self.watches.setdefault(c[1], []).append(c)

    def _rebuild_heap(self):
        """One entry per unassigned variable that occurs in a clause."""
        act, assign, occurs = self.activity, self.assign, self.occurs
        self.heap = [
            (-act[v], v) for v in range(1, self.nvars + 1) if occurs[v] and not assign[v]
        ]
        heapify(self.heap)

    # ------------------------------------------------------------------
    # assignment handling

    def _value(self, lit: int):
        a = self.assign[abs(lit)]
        if a == 0:
            return None
        return (a > 0) == (lit > 0)

    def _enqueue(self, lit: int, reason: list[int] | None):
        v = abs(lit)
        self.assign[v] = 1 if lit > 0 else -1
        self.level[v] = len(self.trail_lim)
        self.reason[v] = reason
        self.trail.append(lit)

    def _cancel_until(self, lvl: int):
        if len(self.trail_lim) <= lvl:
            return
        lim = self.trail_lim[lvl]
        assign, reason, act, occurs, heap = (
            self.assign, self.reason, self.activity, self.occurs, self.heap
        )
        for lit in self.trail[lim:]:
            v = abs(lit)
            assign[v] = 0
            reason[v] = None
            if occurs[v]:
                heappush(heap, (-act[v], v))
        del self.trail[lim:]
        del self.trail_lim[lvl:]
        self.qhead = len(self.trail)
        if len(heap) > 2 * self.nvars:
            self._rebuild_heap()

    # ------------------------------------------------------------------
    # propagation

    def _propagate(self) -> list[int] | None:
        assign, trail, watches = self.assign, self.trail, self.watches
        while self.qhead < len(trail):
            p = trail[self.qhead]
            self.qhead += 1
            neg = -p
            ws = watches.get(neg)
            if not ws:
                continue
            i = j = 0
            n = len(ws)
            while i < n:
                c = ws[i]
                i += 1
                if c[0] == neg:
                    c[0], c[1] = c[1], c[0]
                first = c[0]
                fv = assign[first] if first > 0 else -assign[-first]
                if fv > 0:
                    ws[j] = c
                    j += 1
                    continue
                for k in range(2, len(c)):
                    lk = c[k]
                    if (assign[lk] if lk > 0 else -assign[-lk]) >= 0:
                        c[1], c[k] = lk, c[1]
                        watches.setdefault(lk, []).append(c)
                        break
                else:
                    ws[j] = c
                    j += 1
                    if fv < 0:
                        while i < n:  # keep the unprocessed watchers
                            ws[j] = ws[i]
                            j += 1
                            i += 1
                        del ws[j:]
                        self.qhead = len(trail)
                        return c
                    self._enqueue(first, c)
            del ws[j:]
        return None

    # ------------------------------------------------------------------
    # conflict analysis

    def _bump(self, v: int):
        act = self.activity
        act[v] += self.var_inc
        if act[v] > _RESCALE_LIMIT:
            act[:] = [a * 1e-100 for a in act]
            self.var_inc *= 1e-100
            self._rebuild_heap()  # every key is off, and ties now go by id
        elif self.occurs[v] and not self.assign[v]:
            heappush(self.heap, (-act[v], v))

    def _analyze(self, confl: list[int]):
        """First-UIP learning; returns (learned lits, backjump level)."""
        current = len(self.trail_lim)
        seen: set[int] = set()
        tail: list[int] = []
        counter = 0
        p_lit = None
        idx = len(self.trail) - 1
        cl = confl
        while True:
            for q in cl:
                if q == p_lit:
                    continue
                v = abs(q)
                lv = self.level[v]
                if v in seen or lv == 0:
                    continue
                seen.add(v)
                self._bump(v)
                if lv == current:
                    counter += 1
                else:
                    tail.append(q)
            while abs(self.trail[idx]) not in seen:
                idx -= 1
            p_lit = self.trail[idx]
            idx -= 1
            seen.remove(abs(p_lit))
            counter -= 1
            if counter == 0:
                break
            cl = self.reason[abs(p_lit)]
        learned = [-p_lit] + tail
        if len(learned) == 1:
            return learned, 0
        # put a literal from the backjump level at position 1 for watching
        bi = max(range(1, len(learned)), key=lambda k: self.level[abs(learned[k])])
        learned[1], learned[bi] = learned[bi], learned[1]
        return learned, self.level[abs(learned[1])]

    # ------------------------------------------------------------------
    # search

    def _pick_branch_var(self) -> int | None:
        heap, act, assign = self.heap, self.activity, self.assign
        while heap:
            key, v = heappop(heap)
            if not assign[v] and -key == act[v]:  # else assigned or stale
                return v
        return None

    def solve(self, assumptions=()) -> SatResult:
        """Decide database /\\ assumptions; deterministic for identical call sequences."""
        if self.unsat_at_root:
            return SatResult(False)
        self._cancel_until(0)
        for a in assumptions:
            self.ensure_var(abs(a))
        for u in self.root_units:
            val = self._value(u)
            if val is False:
                self.unsat_at_root = True
                return SatResult(False)
            if val is None:
                self._enqueue(u, None)
        if self._propagate() is not None:
            self.unsat_at_root = True
            return SatResult(False)

        conflicts = 0
        restart_idx = 1
        threshold = _RESTART_BASE * _luby(restart_idx)
        while True:
            confl = self._propagate()
            if confl is not None:
                if not self.trail_lim:
                    self.unsat_at_root = True
                    return SatResult(False)
                conflicts += 1
                self.conflicts += 1
                learned, bt = self._analyze(confl)
                self._cancel_until(bt)
                if len(learned) == 1:
                    self.root_units.append(learned[0])
                    self._enqueue(learned[0], None)
                else:
                    self._watch(learned)
                    self._enqueue(learned[0], learned)
                self.var_inc /= _VAR_DECAY
                continue
            if conflicts >= threshold:
                conflicts = 0
                restart_idx += 1
                threshold = _RESTART_BASE * _luby(restart_idx)
                self._cancel_until(0)
                continue
            progressed = False
            for a in assumptions:
                val = self._value(a)
                if val is False:
                    return SatResult(False)
                if val is None:
                    self.trail_lim.append(len(self.trail))
                    self._enqueue(a, None)
                    progressed = True
                    break
            if progressed:
                continue
            v = self._pick_branch_var()
            if v is None:
                model = {u: self.assign[u] > 0 for u in range(1, self.nvars + 1)}
                assert self._model_ok(model, assumptions)
                return SatResult(True, model)
            self.decisions += 1
            self.trail_lim.append(len(self.trail))
            self._enqueue(-v, None)  # default-false polarity

    def _model_ok(self, model, assumptions) -> bool:
        for c in self.problem_lits:
            if not any(model[abs(l)] == (l > 0) for l in c):
                return False
        return all(model[abs(a)] == (a > 0) for a in assumptions)
