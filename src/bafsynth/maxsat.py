"""Exact partial MaxSAT on top of the SAT engine.

A MaxSatSession encodes a fixed list of soft clauses once and answers many
queries, each of which may make some of the soft clauses hard:

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
    the last model is an exact optimum;
  - `require_any` adds a permanent clause that one of some softs holds,
    which is how MSS enumeration blocks the MSS it has found.

The session numbers its variables 1..m in the order given and maps every
model back, so its solver grows with the clauses it holds, not with the
ids they use.  `solve_partial_maxsat` on a MaxSatInstance is a session
asked once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .sat import Solver

OPTIMAL = "optimal"
HARD_UNSAT = "hard-unsatisfiable"


@dataclass(frozen=True)
class MaxSatInstance:
    hard: tuple[tuple[int, ...], ...]
    soft: tuple[tuple[int, ...], ...]

    @staticmethod
    def of(hard: Sequence[Sequence[int]], soft: Sequence[Sequence[int]]) -> "MaxSatInstance":
        return MaxSatInstance(
            tuple(tuple(c) for c in hard), tuple(tuple(c) for c in soft)
        )

    def max_var(self) -> int:
        return max(
            (abs(l) for cl in (*self.hard, *self.soft) for l in cl), default=0
        )


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


def _clause_sat(clause: Sequence[int], model: dict[int, bool]) -> bool:
    return any(model[abs(l)] == (l > 0) for l in clause)


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
        return frozenset(j for j, c in enumerate(self._soft) if _clause_sat(c, model))

    def _at_least(self, f: int) -> int:
        """A totalizer output implied true once f relaxation variables are."""
        if self._total is None:
            self._total = _tree(list(self.relax))
        _grow(self.solver, self._total, f)
        return self._total[1][f - 1]


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


def solve_partial_maxsat(problem, required: Iterable[int] = ()) -> MaxSatResult:
    """Satisfy all hard clauses and a maximum set of soft clauses.

    `problem` is a MaxSatInstance, solved by a session of its own over
    variables 1..max_var, or a MaxSatSession, asked with the softs at the
    0-based `required` indices made hard."""
    if isinstance(problem, MaxSatInstance):
        problem = MaxSatSession(
            range(1, problem.max_var() + 1), problem.soft, problem.hard
        )
    return problem.solve(required)
