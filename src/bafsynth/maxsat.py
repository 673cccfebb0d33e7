"""Exact partial MaxSAT on top of the SAT engine.

Default algorithm: add a fresh relaxation literal to every soft clause,
then tighten an at-most-k bound over the relaxation variables (sequential
counter encoding, asserted via unit clauses so the clause database only
grows) while the instance stays satisfiable.  The last model is an exact
optimum.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

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


def _clause_sat(clause: tuple[int, ...], model: dict[int, bool]) -> bool:
    return any(model.get(abs(l), False) == (l > 0) for l in clause)


def _restrict(model: dict[int, bool], max_var: int) -> dict[int, bool]:
    return {v: model.get(v, False) for v in range(1, max_var + 1)}


def solve_partial_maxsat(inst: MaxSatInstance) -> MaxSatResult:
    """Satisfy all hard clauses and a maximum set of soft clauses."""
    max_var = inst.max_var()
    s = Solver()
    s.ensure_var(max_var)
    for c in inst.hard:
        s.add_clause(c)
    res = s.solve()
    if not res.satisfiable:
        return MaxSatResult(HARD_UNSAT)
    if not inst.soft:
        return MaxSatResult(OPTIMAL, _restrict(res.model, max_var))
    model = _restrict(_maximum(s, inst, max_var), max_var)
    satisfied = frozenset(
        i for i, c in enumerate(inst.soft) if _clause_sat(c, model)
    )
    return MaxSatResult(OPTIMAL, model, satisfied)


def _maximum(s: Solver, inst: MaxSatInstance, max_var: int) -> dict[int, bool]:
    n = len(inst.soft)
    relax = list(range(max_var + 1, max_var + n + 1))
    s.ensure_var(relax[-1])
    for c, r in zip(inst.soft, relax):
        s.add_clause((*c, r))
    res = s.solve()
    assert res.satisfiable  # relaxation literals keep the softs satisfiable
    model = res.model
    falsified = _count_falsified(inst, model)
    if falsified == 0:
        return model
    regs = _sequential_counter(s, relax, width=falsified)
    while falsified > 0:
        s.add_clause((-regs[n - 1][falsified - 1],))  # at most falsified-1 relaxed
        res = s.solve()
        if not res.satisfiable:
            break
        model = res.model
        falsified = _count_falsified(inst, model)
    return model


def _count_falsified(inst: MaxSatInstance, model) -> int:
    return sum(1 for c in inst.soft if not _clause_sat(c, model))


def _sequential_counter(s: Solver, relax: list[int], width: int) -> list[list[int]]:
    """One-directional counter: regs[i][j] is implied true whenever at least
    j+1 of relax[0..i] are true.  Bounds tighten by asserting -regs[n-1][k]."""
    n = len(relax)
    nxt = s.nvars
    regs: list[list[int]] = []
    for i in range(n):
        cols = min(i + 1, width)
        row = list(range(nxt + 1, nxt + cols + 1))
        nxt += cols
        regs.append(row)
    s.ensure_var(nxt)
    s.add_clause((-relax[0], regs[0][0]))
    for i in range(1, n):
        s.add_clause((-relax[i], regs[i][0]))
        prev = regs[i - 1]
        for j in range(len(regs[i])):
            if j < len(prev):
                s.add_clause((-prev[j], regs[i][j]))
            if j >= 1 and j - 1 < len(prev):
                s.add_clause((-relax[i], -prev[j - 1], regs[i][j]))
    return regs
