"""Conflict graph over input clauses and the structural analysis behind it.

Vertices are 1-based clause indices.  Two clauses conflict when their
x-parts contain a complementary literal pair, so a set of clauses is
jointly falsifiable exactly when it is independent in the conflict graph.
Maximal independent sets of the conflict graph are therefore the maximal
falsifiable subsets (MFS), and equal the maximal cliques of the complement
(the consensus graph); only `analyze` and MFS enumeration build the graphs.

Both the enumeration and the analysis split the conflict graph into its
connected components (`components`, which also splits the distinct
y-parts by shared outputs for `synth.partition_by_output_variables`).  A clause whose
x-part conflicts with no other is an isolated vertex and belongs to every
MFS.  Every other component is searched on its own, and the MFS are the
Cartesian product of the components' maximal independent sets (with every
isolated vertex added), so their count is the product of the components' counts.  The consensus
graph is the join of the components' complements, and a join is chordal
exactly when every part is and at most one part is not complete: so it is
not chordal when two or more components have an edge, and otherwise it is
chordal exactly when the one component with edges has a chordal
complement.

Each clause's conflicts are one mask over the clause indices
(`conflict_masks`), and the conflict graph is these masks and nothing
else.  Growing a falsifiable seed to an MFS (`extend_to_mis`), splitting
the graph into components, the clique search and the chordality test all
run on Python ints used as bitsets over the clause indices (bit 0 is never
set): a component is the mask of its vertices, and a vertex's consensus
neighbours within it are one mask, every vertex of the component but
itself and its conflicts.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Iterable, Sequence

from .errors import LimitError
from .model import Specification, mask_indices


@dataclass(frozen=True)
class ConflictGraph:
    conflicts: tuple[int, ...]  # conflicts[v]: the mask of v's conflicts; conflicts[0] = 0

    @property
    def n(self) -> int:
        return len(self.conflicts) - 1

    def edges(self) -> list[tuple[int, int]]:
        return [
            (i, j)
            for i, mask in enumerate(self.conflicts)
            for j in mask_indices(mask >> (i + 1) << (i + 1))
        ]


@dataclass(frozen=True)
class MisEnumeration:
    sets: tuple[frozenset[int], ...]  # in lexicographic order of their sorted index tuples


@dataclass(frozen=True)
class CliqueCountReport:
    count: int | None  # None when the budget was exceeded
    chordal: bool


def build_conflict_graph(spec: Specification) -> ConflictGraph:
    """One vertex per clause; edge iff the x-parts share a complementary
    pair (`conflict_masks`)."""
    return ConflictGraph(tuple(conflict_masks(spec)))


def conflict_masks(spec: Specification) -> list[int]:
    """masks[i]: the clauses that conflict with clause i, the OR of
    `Specification.occurs[-l]` over its x-literals l; masks[0] = 0.  An
    x-part never holds both `l` and `-l`, so no clause conflicts with
    itself, and the relation is symmetric."""
    occurs, masks = spec.occurs, [0]
    for x_lits, _ in spec.clauses:
        mask = 0
        for l in x_lits:
            mask |= occurs.get(-l, 0)
        masks.append(mask)
    return masks


def extend_to_mis(conflicts: Sequence[int], seed: Iterable[int]) -> frozenset[int]:
    """Grow a jointly falsifiable seed to an MFS in ascending index order,
    on the specification's `conflict_masks`: a clause joins when it
    conflicts with none of the chosen ones.  Raises ValueError when the
    seed is not independent in the conflict graph."""
    chosen, members = 0, []
    for i in seed:  # conflicts are symmetric: each pair is tested once
        if conflicts[i] & chosen:
            raise ValueError("seed is not independent in the conflict graph")
        chosen |= 1 << i
        members.append(i)
    for i in range(1, len(conflicts)):
        if not conflicts[i] & chosen:
            chosen |= 1 << i
            members.append(i)
    return frozenset(members)


def _consensus_masks(g: ConflictGraph, part: int) -> dict[int, int]:
    """nb[v]: the consensus neighbours of each vertex v of `part` (a mask
    closed under conflicts) within `part`, as a mask."""
    return {v: part & ~(g.conflicts[v] | 1 << v) for v in mask_indices(part)}


def components(links: Sequence[int]) -> tuple[frozenset[int], list[int]]:
    """Split a graph given as one symmetric mask per vertex (`links[0] = 0`)
    into its connected components: the vertices whose mask is 0, and the
    vertex mask of every other component, in order of its least vertex."""
    isolated: list[int] = []
    parts: list[int] = []
    seen = 0
    for v in range(1, len(links)):
        if not links[v]:
            isolated.append(v)
        elif not seen >> v & 1:
            part, todo = 1 << v, links[v]
            while todo:
                part |= todo
                reached = 0
                for u in mask_indices(todo):
                    reached |= links[u]
                todo = reached & ~part
            parts.append(part)
            seen |= part
    return frozenset(isolated), parts


def _max_cliques(nb: dict[int, int], part: int, limit: int) -> tuple[list[frozenset[int]], bool]:
    """Pivoting Bron-Kerbosch over the vertices of `part`, aborted past
    `limit` results.

    The pivot is Tomita's: the first vertex of P | X, in ascending order,
    with the most neighbours in P.  Iterative, so clique size is not bounded
    by the recursion limit: a frame [R, P, X, branch vertices left] (masks)
    stands for one recursive call, and its branch vertices are tried in
    ascending order, each to completion before the next, as the recursion
    would."""
    found: list[frozenset[int]] = []
    stack = [[0, part, 0, None]]
    while stack:
        frame = stack[-1]
        r, p, x, todo = frame
        if todo is None:  # entering the call
            if not p and not x:
                found.append(frozenset(mask_indices(r)))
                if len(found) > limit:
                    return found[:limit], True
                stack.pop()
                continue
            size, pivot, best = p.bit_count(), 0, -1
            for u in mask_indices(p | x):
                score = (p & nb[u]).bit_count()
                if score > best:
                    pivot, best = u, score
                # no later vertex can score higher: one of X scores at most
                # |P|, and one of P, not its own neighbour, at most |P| - 1
                if best == size or (best == size - 1 and not x >> (u + 1)):
                    break
            todo = frame[3] = p & ~nb[pivot]
        if not todo:
            stack.pop()
            continue
        low = todo & -todo
        frame[1], frame[2], frame[3] = p ^ low, x | low, todo ^ low
        v = nb[low.bit_length() - 1]
        stack.append([r | low, p & v, x & v, None])
    return found, False


def enumerate_mis(g: ConflictGraph, limit: int) -> MisEnumeration:
    """All maximal independent sets, in lexicographic order of their sorted
    index tuples: every isolated vertex plus one set of each component.
    Raises LimitError, before any set is built, when more than `limit`
    exist."""
    if limit < 1:
        raise ValueError("limit must be positive")
    isolated, parts = components(g.conflicts)
    per_part: list[list[frozenset[int]]] = []
    total = 1
    for part in parts:
        # this part's count times `total` passes `limit` exactly when the
        # count passes `limit // total`
        found, over = _max_cliques(_consensus_masks(g, part), part, limit // total)
        if over:
            raise LimitError(f"more than {limit} maximal falsifiable subsets")
        per_part.append(found)
        total *= len(found)
    sets = (isolated.union(*c) for c in product(*per_part))
    return MisEnumeration(tuple(sorted(sets, key=sorted)))


def analyze_structure(g: ConflictGraph, budget: int) -> CliqueCountReport:
    """Count maximal cliques of the consensus graph (equivalently, the MFS
    count) up to `budget`, and test the consensus graph for chordality;
    both by the component rules of the module docstring."""
    if budget < 1:
        raise ValueError("budget must be positive")
    _, parts = components(g.conflicts)
    count: int | None = 1
    chordal = len(parts) < 2
    for part in parts:
        nb = _consensus_masks(g, part)
        found, over = _max_cliques(nb, part, budget)
        count = None if over or count * len(found) > budget else count * len(found)
        if chordal:  # the only component with an edge
            chordal = _is_chordal(nb, part)
        if count is None:
            break  # chordality is settled: tested above, or false by the join rule
    return CliqueCountReport(count=count, chordal=chordal)


def _is_chordal(nb: dict[int, int], part: int) -> bool:
    """Maximum-cardinality search over the vertices of `part` followed by
    the perfect-elimination check (Tarjan & Yannakakis 1984).

    The search numbers, at each step, the smallest unnumbered vertex of the
    highest weight (its count of numbered neighbours); `levels` maps each
    weight held by an unnumbered vertex to the mask of those vertices.  The
    graph is chordal iff, for every v, the neighbours numbered before v,
    minus the latest of them, u, are all neighbours of u."""
    levels = {0: part}
    order: list[int] = []
    numbered = [0]  # numbered[t]: mask of the first t vertices numbered
    for _ in range(part.bit_count()):
        weight = max(levels)
        low = levels[weight] & -levels[weight]
        levels[weight] ^= low
        order.append(low.bit_length() - 1)
        numbered.append(numbered[-1] | low)
        raised = nb[order[-1]]
        grown: dict[int, int] = {}
        for w, mask in levels.items():
            for level, held in ((w, mask & ~raised), (w + 1, mask & raised)):
                if held:
                    grown[level] = grown.get(level, 0) | held
        levels = grown
    for t, v in enumerate(order):
        earlier = nb[v] & numbered[t]
        if not earlier:
            continue
        lo, hi = 1, t  # the least s with every earlier neighbour among the first s
        while lo < hi:
            mid = (lo + hi) // 2
            if earlier & ~numbered[mid]:
                lo = mid + 1
            else:
                hi = mid
        u = order[lo - 1]
        if earlier & ~nb[u] & ~(1 << u):
            return False
    return True
