"""Independent brute-force oracles used to compute expected test values.

Everything here works directly on literal tuples, specification clauses,
plain Python sets and exhaustive enumeration, and deliberately avoids the
package's solver, graph, and synthesis code.  The set-based graph routines
are the references the package's bitset versions must match exactly.  The
one exception is `whole_id_verification`, the verifier's queries numbered by
the specification's own ids on the package's SAT engine: the reference that
the compactly numbered verifier must match decision for decision.
"""

from dataclasses import dataclass
from itertools import product

from bafsynth.errors import LimitError
from bafsynth.sat import Solver


def assignments(variables):
    """All total assignments over `variables`, all-false first."""
    variables = list(variables)
    for bits in product((False, True), repeat=len(variables)):
        yield dict(zip(variables, bits))


def clause_sat(lits, assign):
    return any(assign[abs(l)] == (l > 0) for l in lits)


def cnf_model(clauses, variables):
    """First satisfying assignment by exhaustive search, else None."""
    for a in assignments(variables):
        if all(clause_sat(c, a) for c in clauses):
            return a
    return None


def all_falsifiable(lits_list):
    """A set of clauses is jointly falsifiable iff the union of the negated
    literals is consistent; this decides satisfiability of that unit set."""
    negated = set()
    for lits in lits_list:
        for l in lits:
            negated.add(-l)
    return not any(-l in negated for l in negated)


def soundness_pairs(spec, dl):
    """The (decision, clause) pairs of a per-clause soundness scan, in scan
    order: for each decision, every clause in ascending index order that is
    outside the guard and whose y-part the decision output falsifies."""
    return [
        (di, j)
        for di, dec in enumerate(dl.decisions, 1)
        for j in spec.indices
        if j not in dec.guard and not clause_sat(spec.y_part(j), dec.output)
    ]


def first_unsound_pair(spec, dl):
    """The first of `soundness_pairs` for which some input fires the guard
    and falsifies the clause's x-part, by exhaustive search; else None."""
    inputs = list(assignments(spec.inputs))
    for di, j in soundness_pairs(spec, dl):
        guard = sorted(dl.decisions[di - 1].guard)
        for x in inputs:
            if all(clause_sat(spec.x_part(g), x) for g in guard) and not clause_sat(
                spec.x_part(j), x
            ):
                return di, j
    return None


def whole_id_verification(spec, dl):
    """The verifier's queries over the specification's own variable ids:
    a fresh solver per `soundness_pairs` pair, then one coverage query whose
    selector for guarded clause g is base + g, base the largest id of the
    specification.  Returns the report's (status, kind, decision, clause,
    witness input) and every solver made, in order: one per soundness pair
    queried, then the coverage query's unless a soundness pair fails first.
    Expects a list that passes `check_decision_list`."""
    solvers = []
    for di, j in soundness_pairs(spec, dl):
        s = Solver()
        solvers.append(s)
        for g in sorted(dl.decisions[di - 1].guard):
            s.add_clause(spec.x_part(g))
        for lit in spec.x_part(j):
            s.add_clause((-lit,))
        res = s.solve()
        if res.satisfiable:
            x = {v: res.model.get(v, False) for v in spec.inputs}
            return ("counterexample", "soundness", di, j, x), solvers
    s = Solver()
    solvers.append(s)
    base = max((*spec.inputs, *spec.outputs), default=0)
    for g in sorted(set().union(*(dec.guard for dec in dl.decisions))):
        for lit in spec.x_part(g):
            s.add_clause((-(base + g), -lit))
    for dec in dl.decisions:
        s.add_clause([base + g for g in sorted(dec.guard)])
    res = s.solve()
    if res.satisfiable:
        x = {v: res.model.get(v, False) for v in spec.inputs}
        return ("counterexample", "coverage-gap", None, None, x), solvers
    return ("verified", None, None, None, None), solvers


def first_unsatisfied_ypart(spec, index_sets, witnesses):
    """Witness validation clause by clause: the first (set, clause) pair,
    sets in order (1-based) and clauses ascending, whose y-part the set's
    witness falsifies; None when every witness satisfies its set."""
    for di, (sel, wit) in enumerate(zip(index_sets, witnesses), 1):
        for j in sorted(sel):
            if not clause_sat(spec.y_part(j), wit):
                return di, j
    return None


def irredundant_reference(spec, mss_list):
    """The positions, ascending, of the decisions (guard: the complement of
    each MSS) that a last-to-first greedy keeps when it drops each decision
    whose guard fires on no input that no other kept decision's guard fires
    on; every input is enumerated, and nothing is decided in advance."""
    inputs = list(assignments(spec.inputs))
    fires = [
        {
            n
            for n, x in enumerate(inputs)
            if all(clause_sat(spec.x_part(g), x) for g in spec.indices if g not in mss)
        }
        for mss in mss_list
    ]
    kept = set(range(len(mss_list)))
    for i in reversed(range(len(mss_list))):
        others = set().union(*(fires[j] for j in kept if j != i))
        if fires[i] <= others:
            kept.discard(i)
    return sorted(kept)


def maximal_sets(family):
    family = set(family)
    return sorted((s for s in family if not any(s < t for t in family)), key=sorted)


@dataclass
class BruteForceTable:
    """Exhaustive input-to-output table; None marks inputs with no output."""

    inputs: tuple
    outputs: tuple
    entries: dict

    @property
    def realizable(self):
        return all(v is not None for v in self.entries.values())


def brute_force_synthesize(spec, limit=16):
    """For every input assignment, search all output assignments for one
    satisfying the CNF; requires |inputs| + |outputs| <= limit."""
    m, n = len(spec.inputs), len(spec.outputs)
    if m + n > limit:
        raise LimitError(f"{m + n} variables exceed the brute-force limit {limit}")
    entries = {}
    for xbits in product((False, True), repeat=m):
        x = dict(zip(spec.inputs, xbits))
        found = None
        for ybits in product((False, True), repeat=n):
            y = dict(zip(spec.outputs, ybits))
            if spec.evaluate({**x, **y}):
                found = y
                break
        entries[xbits] = found
    return BruteForceTable(spec.inputs, spec.outputs, entries)


def brute_force_mfs_mss(spec, clause_limit=20, var_limit=16):
    """Exact MFS and MSS lists by exhausting the assignment space.

    Every all-falsifiable set is contained in the falsified-set of its own
    witness, so the MFS are exactly the maximal falsified-sets over all
    inputs; dually the MSS are the maximal satisfied-sets over all outputs.
    Both lists come back in lexicographic order of sorted indices."""
    if spec.num_clauses > clause_limit:
        raise LimitError(f"{spec.num_clauses} clauses exceed the limit {clause_limit}")
    if len(spec.inputs) > var_limit or len(spec.outputs) > var_limit:
        raise LimitError(f"variable block larger than the limit {var_limit}")
    fals_sets = set()
    for x in assignments(spec.inputs):
        fals_sets.add(frozenset(i for i in spec.indices if not clause_sat(spec.x_part(i), x)))
    sat_sets = set()
    for y in assignments(spec.outputs):
        sat_sets.add(frozenset(i for i in spec.indices if clause_sat(spec.y_part(i), y)))
    return maximal_sets(fals_sets), maximal_sets(sat_sets)


def subset_enum_mfs(x_parts):
    """All MFS by full subset enumeration (indices 1-based); feasible only
    for small clause counts."""
    k = len(x_parts)
    falsifiable = []
    for mask in range(1 << k):
        subset = frozenset(i + 1 for i in range(k) if mask >> i & 1)
        if all_falsifiable([x_parts[i - 1] for i in subset]):
            falsifiable.append(subset)
    return maximal_sets(falsifiable)


def subset_enum_mss(y_parts, out_vars):
    """All MSS by full subset enumeration with exhaustive satisfiability."""
    k = len(y_parts)
    satisfiable = []
    for mask in range(1 << k):
        subset = frozenset(i + 1 for i in range(k) if mask >> i & 1)
        if cnf_model([y_parts[i - 1] for i in subset], out_vars) is not None:
            satisfiable.append(subset)
    return maximal_sets(satisfiable)


def maxsat_optimum(hard, soft, variables):
    """(feasible, best #satisfied soft) by exhaustive assignment search."""
    best = None
    for a in assignments(variables):
        if not all(clause_sat(c, a) for c in hard):
            continue
        count = sum(1 for c in soft if clause_sat(c, a))
        if best is None or count > best:
            best = count
    return (best is not None), (best or 0)


def has_chordless_cycle(adj, n):
    """True iff the graph on vertices 1..n has an induced cycle of length
    at least 4.  DFS over induced paths only, so dense graphs stay cheap."""

    def extend(path, in_path):
        start, last = path[0], path[-1]
        for v in sorted(adj[last]):
            if v in in_path:
                continue
            if v < start:
                continue  # canonical form: the cycle starts at its minimum
            # v must see only `last` among the path (and possibly `start`)
            middles = [u for u in path[1:-1] if u in adj[v]]
            if middles:
                continue
            closes = start in adj[v]
            if closes and len(path) >= 3:
                return True
            if not closes:
                if extend(path + [v], in_path | {v}):
                    return True
        return False

    for s in range(1, n + 1):
        for second in sorted(adj[s]):
            if second < s:
                continue
            if extend([s, second], {s, second}):
                return True
    return False


def pairwise_conflict_adj(x_parts):
    """Conflict adjacency by comparing every pair of x-parts: clauses i < j
    (1-based) are adjacent iff one holds a literal whose negation the other
    holds.  Entry 0 is unused."""
    k = len(x_parts)
    adj = [set() for _ in range(k + 1)]
    for i in range(1, k + 1):
        for j in range(i + 1, k + 1):
            if any(-l in x_parts[j - 1] for l in x_parts[i - 1]):
                adj[i].add(j)
                adj[j].add(i)
    return adj


def max_cliques_reference(adj, n, limit):
    """Set-based pivoting Bron-Kerbosch over vertices 1..n (adjacency sets
    `adj[v]`), aborted past `limit` results: (found, overflow).

    The pivot is the first vertex of sorted(P | X) with the most neighbours
    in P (Tomita et al. 2006); branch vertices are tried in ascending order,
    each to completion before the next, and `found` keeps discovery order."""
    found = []
    stack = [[set(), set(range(1, n + 1)), set(), None]]
    while stack:
        frame = stack[-1]
        r, p, x, todo = frame
        if todo is None:
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
