"""Conflict graph over input clauses and the structural analysis behind it.

Vertices are 1-based clause indices.  Two clauses conflict when their
x-parts contain a complementary literal pair, so a set of clauses is
jointly falsifiable exactly when it is independent in the conflict graph.
Maximal independent sets of the conflict graph are therefore the maximal
falsifiable subsets (MFS), and equal the maximal cliques of the complement
(the consensus graph); only `analyze` and MFS enumeration build the graphs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .model import Specification


@dataclass(frozen=True)
class ConflictGraph:
    n: int
    adj: tuple[frozenset[int], ...]  # adj[0] unused; vertices 1..n

    def edges(self) -> list[tuple[int, int]]:
        return [(i, j) for i in range(1, self.n + 1) for j in sorted(self.adj[i]) if i < j]

    def consensus_adj(self) -> tuple[frozenset[int], ...]:
        """Adjacency of the complement graph."""
        everything = frozenset(range(1, self.n + 1))
        return (frozenset(),) + tuple(
            everything - self.adj[v] - {v} for v in range(1, self.n + 1)
        )


@dataclass(frozen=True)
class MisEnumeration:
    sets: tuple[frozenset[int], ...]
    overflow: bool


@dataclass(frozen=True)
class CliqueCountReport:
    count: int | None  # None when the budget was exceeded
    budget: int
    chordal: bool


def build_conflict_graph(spec: Specification) -> ConflictGraph:
    """One vertex per clause; edge iff the x-parts share a complementary pair."""
    n = spec.num_clauses
    xlits = [None] + [frozenset(spec.x_part(i).lits) for i in spec.indices]
    adj: list[set[int]] = [set() for _ in range(n + 1)]
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            if any(-l in xlits[j] for l in xlits[i]):
                adj[i].add(j)
                adj[j].add(i)
    return ConflictGraph(n, tuple(frozenset(s) for s in adj))


def extend_to_mis(spec: Specification, seed: Iterable[int]) -> frozenset[int]:
    """Grow a jointly falsifiable seed to an MFS in ascending index order: a
    clause joins when no literal of its x-part is made true by the chosen ones."""
    chosen = set(seed)
    true = {-l for i in chosen for l in spec.x_part(i).lits}
    if any(-l in true for l in true):
        raise ValueError("seed is not independent in the conflict graph")
    for i, clause in enumerate(spec.clauses, 1):
        if i not in chosen and true.isdisjoint(clause.x_part.lits):
            chosen.add(i)
            true.update(-l for l in clause.x_part.lits)
    return frozenset(chosen)


def _max_cliques(adj, n: int, limit: int) -> tuple[list[frozenset[int]], bool]:
    """Pivoting Bron-Kerbosch over vertices 1..n, aborted past `limit` results.

    Iterative, so clique size is not bounded by the recursion limit: a frame
    [R, P, X, branch vertices left] stands for one recursive call, and its
    branch vertices are tried in ascending order, each to completion before
    the next, as the recursion would."""
    found: list[frozenset[int]] = []
    stack = [[set(), set(range(1, n + 1)), set(), None]]
    while stack:
        frame = stack[-1]
        r, p, x, todo = frame
        if todo is None:  # entering the call
            if not p and not x:
                found.append(frozenset(r))
                if len(found) > limit:
                    return found[:limit], True
                stack.pop()
                continue
            pivot = max(sorted(p | x), key=lambda u: len(p & adj[u]))
            todo = frame[3] = sorted(p - adj[pivot], reverse=True)
        if not todo:
            stack.pop()
            continue
        v = todo.pop()
        frame[1], frame[2] = p - {v}, x | {v}
        stack.append([r | {v}, p & adj[v], x & adj[v], None])
    return found, False


def enumerate_mis(g: ConflictGraph, limit: int) -> MisEnumeration:
    """All maximal independent sets, in lexicographic order of their sorted
    index tuples; truncated with overflow=True when more than `limit` exist."""
    if limit < 1:
        raise ValueError("limit must be positive")
    found, overflow = _max_cliques(g.consensus_adj(), g.n, limit)
    found.sort(key=sorted)
    return MisEnumeration(tuple(found), overflow)


def analyze_structure(g: ConflictGraph, budget: int) -> CliqueCountReport:
    """Count maximal cliques of the consensus graph (equivalently, the MFS
    count) up to `budget`, and test the consensus graph for chordality."""
    if budget < 1:
        raise ValueError("budget must be positive")
    cons = g.consensus_adj()
    found, overflow = _max_cliques(cons, g.n, budget)
    return CliqueCountReport(
        count=None if overflow else len(found),
        budget=budget,
        chordal=_is_chordal(cons, g.n),
    )


def _is_chordal(adj, n: int) -> bool:
    """Maximum-cardinality search followed by the perfect-elimination check."""
    weight = {v: 0 for v in range(1, n + 1)}
    unnumbered = set(weight)
    visit: list[int] = []
    while unnumbered:
        v = max(sorted(unnumbered), key=weight.__getitem__)
        visit.append(v)
        unnumbered.remove(v)
        for u in adj[v] & unnumbered:
            weight[u] += 1
    elim = visit[::-1]
    pos = {v: i for i, v in enumerate(elim)}
    for v in elim:
        later = [u for u in adj[v] if pos[u] > pos[v]]
        if not later:
            continue
        u0 = min(later, key=pos.__getitem__)
        if any(u != u0 and u not in adj[u0] for u in later):
            return False
    return True
