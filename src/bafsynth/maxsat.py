"""Exact partial MaxSAT: a truth table for few variables, the SAT engine
for the rest.

Both sessions hold a fixed list of soft clauses and answer many queries,
each of which may make some of the soft clauses hard.  `new_session`
picks one from the input size:

  - a TableSession works on the truth table of its m variables.  A clause is
    one Python int of 2^m bits, the set of assignments that satisfy it;
    assignment a sets variable i (1-based, in the order given) to bit i-1 of
    a, and `model.variable_masks` gives each variable's mask.
    The soft masks are summed once into a bit-sliced binary counter:
    plane b holds bit b of every assignment's count of satisfied softs.  A
    query ANDs the base mask (the hard clauses and every `require_any`) with
    the masks of its required softs; nothing left is HARD_UNSAT.  Otherwise
    it walks the planes from the top and keeps `cand & plane` whenever that
    is non-zero, which leaves exactly the assignments with the most
    satisfied softs.  The lowest of them is the model, so ties go to the
    smallest assignment index;
  - a TableSession is used when its masks, `(len(soft) + m) << m` bits, fit
    in TABLE_BITS (2^26 bits, 8 MB; `table_fits`).  A wider problem gets a
    MaxSatSession, described below.

A MaxSatSession encodes its soft clauses once in one SAT solver:

  - soft clause j is added as (c_j or r_j) with a relaxation variable r_j,
    and a query makes it hard by assuming -r_j.  The clause database is the
    same for every query, so what the solver learns in one query stays
    valid in the next;
  - the bound on the relaxed softs is a totalizer over all r_j (Bailleux &
    Boufkhad, CP 2003), built the first time a bound is needed: output
    out[i] is implied true once i+1 of the r_j are true, so assuming
    -out[i] allows at most i of them.  Outputs exist only up to the largest
    bound asked for so far and are added on demand (Martins, Joshi,
    Manquinho & Lynce, "Incremental Cardinality Constraints for MaxSAT",
    CP 2014);
  - a query is one solve under its assumptions, which either shows that
    the hard part is unsatisfiable or gives a first model, then a linear
    descent: while the model falsifies f > 0 softs, solve again with
    -out[f-1] assumed as well.  Only assumptions change between steps, and
    the last model is an exact optimum.

In both, `require_any` adds a permanent clause that one of some softs
holds, which is how MSS enumeration blocks the MSS it has found.  Both
number their variables 1..m in the order given and key every model by the
given ids, so their size grows with the clauses they hold, not with the
ids they use.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .model import holds, variable_masks
from .sat import Solver

OPTIMAL = "optimal"
HARD_UNSAT = "hard-unsatisfiable"
TABLE_BITS = 1 << 26  # largest truth table, in mask bits, a session may hold


@dataclass
class MaxSatResult:
    status: str  # OPTIMAL or HARD_UNSAT
    model: dict[int, bool] | None = None
    satisfied_soft: frozenset[int] = field(default_factory=frozenset)  # 0-based

    @property
    def optimal(self) -> bool:
        return self.status == OPTIMAL

    @property
    def num_satisfied(self) -> int:
        return len(self.satisfied_soft)


class MaxSatSession:
    """Soft and hard clauses over `variables`, which must name every
    variable the clauses use; a model assigns exactly these."""

    def __init__(
        self,
        variables: Iterable[int],
        soft: Sequence[Sequence[int]],
        hard: Iterable[Sequence[int]] = (),
    ):
        self.variables = tuple(variables)
        local = {v: i for i, v in enumerate(self.variables, 1)}
        m, n = len(self.variables), len(soft)
        self.solver = s = Solver()
        s.ensure_var(m + n)
        self.relax = range(m + 1, m + n + 1)
        for c in hard:
            s.add_clause([local[l] if l > 0 else -local[-l] for l in c])
        self._soft = [[local[l] if l > 0 else -local[-l] for l in c] for c in soft]
        for c, r in zip(self._soft, self.relax):
            s.add_clause([*c, r])
        self._total = None  # totalizer over relax, built at the first bound

    def require_any(self, indices: Iterable[int]) -> None:
        """From now on, one of the soft clauses at `indices` must hold."""
        self.solver.add_clause([-self.relax[j] for j in indices])

    def solve(self, required: Iterable[int] = ()) -> MaxSatResult:
        """Satisfy the hard clauses, the softs at the 0-based `required`
        indices and a maximum number of the other softs."""
        s = self.solver
        assumptions = [-self.relax[j] for j in sorted(required)]
        res = s.solve(assumptions)
        if not res.satisfiable:
            return MaxSatResult(HARD_UNSAT)
        n = len(self._soft)
        model, satisfied = res.model, self._satisfied(res.model)
        while len(satisfied) < n:
            fewer = -self._at_least(n - len(satisfied))  # relax fewer than now
            res = s.solve([*assumptions, fewer])
            if not res.satisfiable:
                break
            model, satisfied = res.model, self._satisfied(res.model)
        named = {v: model[i] for i, v in enumerate(self.variables, 1)}
        return MaxSatResult(OPTIMAL, named, satisfied)

    def _satisfied(self, model) -> frozenset[int]:
        return frozenset(j for j, c in enumerate(self._soft) if holds(c, model))

    def _at_least(self, f: int) -> int:
        """A totalizer output implied true once f relaxation variables are."""
        if self._total is None:
            self._total = _tree(list(self.relax))
        _grow(self.solver, self._total, f)
        return self._total[1][f - 1]


class TableSession:
    """Soft and hard clauses over `variables`, which must name every
    variable the clauses use, answered on their truth table; a model
    assigns exactly these."""

    def __init__(
        self,
        variables: Iterable[int],
        soft: Sequence[Sequence[int]],
        hard: Iterable[Sequence[int]] = (),
    ):
        self.variables = tuple(variables)
        local = {v: i for i, v in enumerate(self.variables)}
        true, full = variable_masks(len(self.variables))

        def mask(clause) -> int:
            sat = 0
            for l in clause:
                t = true[local[abs(l)]]
                sat |= t if l > 0 else full ^ t
            return sat

        self._soft = [mask(c) for c in soft]
        self._base = full
        for c in hard:
            self._base &= mask(c)
        self._planes: list[int] = []  # plane b: bit b of each satisfied-soft count
        planes = self._planes
        for carry in self._soft:
            b = 0
            while carry:
                if b == len(planes):
                    planes.append(carry)
                    break
                planes[b], carry = planes[b] ^ carry, planes[b] & carry
                b += 1

    def require_any(self, indices: Iterable[int]) -> None:
        """From now on, one of the soft clauses at `indices` must hold."""
        some = 0
        for j in indices:
            some |= self._soft[j]
        self._base &= some

    def solve(self, required: Iterable[int] = ()) -> MaxSatResult:
        """Satisfy the hard clauses, the softs at the 0-based `required`
        indices and a maximum number of the other softs."""
        cand = self._base
        for j in required:
            cand &= self._soft[j]
        if not cand:
            return MaxSatResult(HARD_UNSAT)
        for plane in reversed(self._planes):
            most = cand & plane
            if most:
                cand = most
        a = (cand & -cand).bit_length() - 1
        model = {v: bool(a >> i & 1) for i, v in enumerate(self.variables)}
        satisfied = frozenset(j for j, sat in enumerate(self._soft) if sat >> a & 1)
        return MaxSatResult(OPTIMAL, model, satisfied)


def table_fits(count: int, n: int) -> bool:
    """Whether `count` masks over n variables, with the n variable masks,
    fit in TABLE_BITS."""
    return (count + n) << n <= TABLE_BITS


def new_session(
    variables: Iterable[int],
    soft: Sequence[Sequence[int]],
    hard: Iterable[Sequence[int]] = (),
) -> MaxSatSession | TableSession:
    """A TableSession when its masks fit in TABLE_BITS, else a MaxSatSession."""
    variables = tuple(variables)
    if table_fits(len(soft), len(variables)):
        return TableSession(variables, soft, hard)
    return MaxSatSession(variables, soft, hard)


def _tree(lits: list[int]):
    """Balanced totalizer nodes (input count, outputs, left, right); a
    leaf's one output is its input literal."""
    if len(lits) == 1:
        return (1, lits, None, None)
    mid = len(lits) // 2
    return (len(lits), [], _tree(lits[:mid]), _tree(lits[mid:]))


def _grow(s: Solver, node, k: int) -> None:
    """Give `node` its outputs up to min(k, input count): out[t] is implied
    by a[i-1] and b[j-1] (a[-1], b[-1] read as true) whenever i+j = t+1."""
    size, out, a, b = node
    want = min(k, size)
    have = len(out)
    if have >= want:
        return
    _grow(s, a, k)
    _grow(s, b, k)
    first = s.nvars + 1
    out.extend(range(first, first + want - have))
    s.ensure_var(out[-1])
    ao, bo = a[1], b[1]
    for i in range(min(len(ao), want) + 1):
        for j in range(max(have + 1 - i, 0), min(len(bo), want - i) + 1):
            clause = [out[i + j - 1]]
            if i:
                clause.append(-ao[i - 1])
            if j:
                clause.append(-bo[j - 1])
            s.add_clause(clause)


def solve_partial_maxsat(
    session: MaxSatSession | TableSession, required: Iterable[int] = ()
) -> MaxSatResult:
    """Satisfy all hard clauses of `session` and a maximum set of its soft
    clauses, with the softs at the 0-based `required` indices made hard."""
    return session.solve(required)
