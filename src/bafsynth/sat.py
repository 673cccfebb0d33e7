"""Incremental CDCL SAT solver used as the NP oracle.

Watched-literal propagation, first-UIP clause learning, activity-based
branching and Luby restarts.  The clause database only grows; there is no
clause deletion.  Solving under assumptions is supported by deciding the
assumption literals first, so the learned clauses are always consequences
of the database alone and stay valid across calls.

All heuristic constants are fixed for reproducibility:
  - branching pops the unassigned variable with the highest activity,
    smallest id on ties, from a binary heap ordered by (-activity, id), and
    always assigns it false first.  A variable enters the heap the first
    time it occurs in a clause given to `add_clause`; `ensure_var` only
    sizes the arrays.  A variable that occurs in no clause is never decided
    and reads false in the model, as a false-first decision with nothing to
    propagate would leave it;
  - activity bump 1.0, decay factor 0.95, rescale threshold 1e100.  The
    rescale multiplies every activity by 1e-100, which can turn distinct
    activities into ties, so the heap is then rebuilt to order those by id;
  - Luby restarts with a base interval of 128 conflicts.

`decisions` and `conflicts` count branching decisions (assumptions not
included) and conflicts over the solver's lifetime.
"""

from __future__ import annotations

from dataclasses import dataclass

_RESCALE_LIMIT = 1e100
_VAR_DECAY = 0.95
_RESTART_BASE = 128

# heap_pos values of a variable that is not in the order heap
_POPPED = -1  # occurs in a clause; popped while assigned, re-inserted on backjump
_IN_NO_CLAUSE = -2  # occurs in no clause yet, so it is never decided


@dataclass
class SatResult:
    satisfiable: bool
    model: dict[int, bool] | None = None


class _Clause:
    __slots__ = ("lits",)

    def __init__(self, lits):
        self.lits = list(lits)


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
        self.reason: list[_Clause | None] = [None]
        self.activity = [0.0]
        self.var_inc = 1.0
        self.heap: list[int] = []  # order heap; holds every unassigned var in a clause
        self.heap_pos = [_IN_NO_CLAUSE]  # per var: index in heap, or _POPPED / _IN_NO_CLAUSE
        self.watches: dict[int, list[_Clause]] = {}
        self.clauses: list[_Clause] = []  # watched: problem + learned
        self.problem_lits: list[tuple[int, ...]] = []  # as added, for the model check
        self.root_units: list[int] = []
        self.has_empty = False
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
            self.heap_pos += [_IN_NO_CLAUSE] * grow

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
        pos = self.heap_pos
        for l in lits:
            if pos[abs(l)] == _IN_NO_CLAUSE:
                self._heap_insert(abs(l))
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
            self.has_empty = True
        elif len(kept) == 1:
            self.root_units.append(kept[0])
        else:
            c = _Clause(kept)
            self.clauses.append(c)
            self._watch(c)

    def _watch(self, c: _Clause):
        self.watches.setdefault(c.lits[0], []).append(c)
        self.watches.setdefault(c.lits[1], []).append(c)

    # ------------------------------------------------------------------
    # order heap: a binary heap on (-activity, id) with positions in heap_pos

    def _heap_up(self, i: int):
        heap, pos, act = self.heap, self.heap_pos, self.activity
        v = heap[i]
        a = act[v]
        while i:
            p = (i - 1) >> 1
            u = heap[p]
            au = act[u]
            if au > a or (au == a and u < v):
                break
            heap[i] = u
            pos[u] = i
            i = p
        heap[i] = v
        pos[v] = i

    def _heap_down(self, i: int):
        heap, pos, act = self.heap, self.heap_pos, self.activity
        n = len(heap)
        v = heap[i]
        a = act[v]
        while True:
            c = 2 * i + 1
            if c >= n:
                break
            u = heap[c]
            au = act[u]
            if c + 1 < n:
                w = heap[c + 1]
                aw = act[w]
                if aw > au or (aw == au and w < u):
                    c, u, au = c + 1, w, aw
            if a > au or (a == au and v < u):
                break
            heap[i] = u
            pos[u] = i
            i = c
        heap[i] = v
        pos[v] = i

    def _heap_insert(self, v: int):
        self.heap.append(v)
        self._heap_up(len(self.heap) - 1)

    # ------------------------------------------------------------------
    # assignment handling

    def _value(self, lit: int):
        a = self.assign[abs(lit)]
        if a == 0:
            return None
        return (a > 0) == (lit > 0)

    def _enqueue(self, lit: int, reason: _Clause | None):
        v = abs(lit)
        self.assign[v] = 1 if lit > 0 else -1
        self.level[v] = len(self.trail_lim)
        self.reason[v] = reason
        self.trail.append(lit)

    def _cancel_until(self, lvl: int):
        if len(self.trail_lim) <= lvl:
            return
        lim = self.trail_lim[lvl]
        assign, reason, pos = self.assign, self.reason, self.heap_pos
        for lit in self.trail[lim:]:
            v = abs(lit)
            assign[v] = 0
            reason[v] = None
            if pos[v] == _POPPED:
                self._heap_insert(v)
        del self.trail[lim:]
        del self.trail_lim[lvl:]
        self.qhead = len(self.trail)

    # ------------------------------------------------------------------
    # propagation

    def _propagate(self) -> _Clause | None:
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
                L = c.lits
                if L[0] == neg:
                    L[0], L[1] = L[1], L[0]
                first = L[0]
                fv = assign[first] if first > 0 else -assign[-first]
                if fv > 0:
                    ws[j] = c
                    j += 1
                    continue
                for k in range(2, len(L)):
                    lk = L[k]
                    if (assign[lk] if lk > 0 else -assign[-lk]) >= 0:
                        L[1], L[k] = lk, L[1]
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
        i = self.heap_pos[v]
        if i >= 0:  # in the heap
            self._heap_up(i)
        if act[v] > _RESCALE_LIMIT:
            act[:] = [a * 1e-100 for a in act]
            self.var_inc *= 1e-100
            # rebuild: the multiply can merge activities into ties, which go by id
            for i in range(len(self.heap) // 2 - 1, -1, -1):
                self._heap_down(i)

    def _analyze(self, confl: _Clause):
        """First-UIP learning; returns (learned lits, backjump level)."""
        current = len(self.trail_lim)
        seen: set[int] = set()
        tail: list[int] = []
        counter = 0
        p_lit = None
        idx = len(self.trail) - 1
        cl = confl
        while True:
            for q in cl.lits:
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
        heap, pos, assign = self.heap, self.heap_pos, self.assign
        while heap:
            v = heap[0]
            last = heap.pop()
            pos[v] = _POPPED
            if heap:
                heap[0] = last
                self._heap_down(0)
            if assign[v] == 0:
                return v
        return None

    def solve(self, assumptions=()) -> SatResult:
        """Decide database /\\ assumptions; deterministic for identical call sequences."""
        if self.has_empty:
            self.unsat_at_root = True
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
                    c = _Clause(learned)
                    self.clauses.append(c)
                    self._watch(c)
                    self._enqueue(learned[0], c)
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
